//! Monte-Carlo energy estimation.
//!
//! Cross-validates the analytic expected energy
//! ([`ctg_sched::expected_energy`]) by sampling decision vectors from the
//! branch distribution and averaging simulated instance energies. Useful
//! when scenario enumeration is too coarse a mental model (e.g. when
//! comparing against trace-driven results).

use crate::instance::SimWorkspace;
use ctg_model::{BranchProbs, Ctg, DecisionVector};
use ctg_rng::Rng64;
use ctg_sched::{SchedContext, SchedError, Solution};

/// A Monte-Carlo estimate with its standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// Sample mean of the instance energy.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_err: f64,
    /// Number of samples drawn.
    pub samples: usize,
}

impl McEstimate {
    /// Whether `value` lies within `k` standard errors of the mean.
    pub fn contains(&self, value: f64, k: f64) -> bool {
        (value - self.mean).abs() <= k * self.std_err.max(1e-12)
    }
}

/// Samples one decision vector from independent per-fork distributions.
///
/// Every fork position receives a decision (matching the trace format); the
/// simulator ignores decisions of non-activated forks.
pub fn sample_vector(ctg: &Ctg, probs: &BranchProbs, rng: &mut Rng64) -> DecisionVector {
    let alts = ctg
        .branch_nodes()
        .iter()
        .map(|&b| {
            let dist = probs
                .distribution(b)
                .expect("validated table has every branch");
            let x: f64 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            for (i, &p) in dist.iter().enumerate() {
                acc += p;
                if x < acc {
                    return i as u8;
                }
            }
            (dist.len() - 1) as u8
        })
        .collect();
    DecisionVector::new(alts)
}

/// Estimates the expected instance energy of `solution` under `probs` by
/// simulation.
///
/// # Errors
///
/// Returns [`SchedError::InvalidParameter`] for zero samples or an
/// unvalidated probability table, and propagates simulation errors.
/// # Example
///
/// ```
/// use ctg_sim::monte_carlo_energy;
/// use ctg_sched::expected_energy;
/// # use ctg_model::{BranchProbs, CtgBuilder, DecisionVector};
/// # use mpsoc_platform::PlatformBuilder;
/// # use ctg_sched::{OnlineScheduler, SchedContext};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut b = CtgBuilder::new("g");
/// # let f = b.add_task("fork");
/// # let x = b.add_task("x");
/// # let y = b.add_task("y");
/// # b.add_cond_edge(f, x, 0, 0.5)?;
/// # b.add_cond_edge(f, y, 1, 0.5)?;
/// # let ctg = b.deadline(30.0).build()?;
/// # let mut pb = PlatformBuilder::new(3);
/// # pb.add_pe("p0");
/// # for t in 0..3 { pb.set_wcet_row(t, vec![2.0])?; pb.set_energy_row(t, vec![2.0])?; }
/// # let ctx = SchedContext::new(ctg, pb.build()?)?;
/// # let probs = BranchProbs::uniform(ctx.ctg());
/// # let solution = OnlineScheduler::new().solve(&ctx, &probs)?;
/// let mc = monte_carlo_energy(&ctx, &solution, &probs, 2000, 42)?;
/// let analytic = expected_energy(&ctx, &probs, &solution.schedule, &solution.speeds);
/// assert!(mc.contains(analytic, 4.0)); // within 4 standard errors
/// # Ok(())
/// # }
/// ```
pub fn monte_carlo_energy(
    ctx: &SchedContext,
    solution: &Solution,
    probs: &BranchProbs,
    samples: usize,
    seed: u64,
) -> Result<McEstimate, SchedError> {
    if samples == 0 {
        return Err(SchedError::InvalidParameter("samples must be positive"));
    }
    probs.validate(ctx.ctg())?;
    let mut rng = Rng64::seed_from_u64(seed);
    let mut ws = SimWorkspace::new(ctx, solution);
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for _ in 0..samples {
        let v = sample_vector(ctx.ctg(), probs, &mut rng);
        let e = ws.simulate(ctx, solution, &v)?.energy;
        sum += e;
        sum_sq += e * e;
    }
    let n = samples as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    Ok(McEstimate {
        mean,
        std_err: (var / n).sqrt(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctg_model::BranchProbs;
    use ctg_sched::test_util::{example1_ctg, uniform_platform};
    use ctg_sched::{expected_energy, OnlineScheduler};

    fn setup() -> (SchedContext, BranchProbs, Solution) {
        let (ctg, _) = example1_ctg(60.0);
        let mut probs = BranchProbs::uniform(&ctg);
        let forks: Vec<_> = ctg.branch_nodes().to_vec();
        probs.set(forks[0], vec![0.7, 0.3]).unwrap();
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        (ctx, probs, solution)
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_expectation() {
        let (ctx, probs, solution) = setup();
        let analytic = expected_energy(&ctx, &probs, &solution.schedule, &solution.speeds);
        let mc = monte_carlo_energy(&ctx, &solution, &probs, 4000, 7).unwrap();
        assert!(
            mc.contains(analytic, 4.0),
            "analytic {analytic} outside mc {:.3} ± 4×{:.4}",
            mc.mean,
            mc.std_err
        );
    }

    #[test]
    fn estimate_is_deterministic_per_seed() {
        let (ctx, probs, solution) = setup();
        let a = monte_carlo_energy(&ctx, &solution, &probs, 200, 1).unwrap();
        let b = monte_carlo_energy(&ctx, &solution, &probs, 200, 1).unwrap();
        let c = monte_carlo_energy(&ctx, &solution, &probs, 200, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn reused_workspace_matches_per_sample_simulation() {
        let (ctx, probs, solution) = setup();
        let samples = 300;
        let mut rng = Rng64::seed_from_u64(5);
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..samples {
            let v = sample_vector(ctx.ctg(), &probs, &mut rng);
            let e = crate::simulate_instance(&ctx, &solution, &v)
                .unwrap()
                .energy;
            sum += e;
            sum_sq += e * e;
        }
        let n = samples as f64;
        let mean = sum / n;
        let std_err = ((sum_sq / n - mean * mean).max(0.0) / n).sqrt();
        let mc = monte_carlo_energy(&ctx, &solution, &probs, samples, 5).unwrap();
        assert_eq!(mc.mean.to_bits(), mean.to_bits());
        assert_eq!(mc.std_err.to_bits(), std_err.to_bits());
    }

    #[test]
    fn zero_samples_rejected() {
        let (ctx, probs, solution) = setup();
        assert!(monte_carlo_energy(&ctx, &solution, &probs, 0, 1).is_err());
    }

    #[test]
    fn sample_vector_respects_extreme_probabilities() {
        let (ctx, mut probs, _) = setup();
        let forks: Vec<_> = ctx.ctg().branch_nodes().to_vec();
        probs.set(forks[0], vec![1.0, 0.0]).unwrap();
        let mut rng = Rng64::seed_from_u64(9);
        for _ in 0..50 {
            let v = sample_vector(ctx.ctg(), &probs, &mut rng);
            assert_eq!(v.alt(0), 0);
        }
    }
}
