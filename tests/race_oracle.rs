//! Oracle for warm portfolio races.
//!
//! `race_portfolio` computes the HEFT-family list schedules first, stretches
//! each distinct (schedule, stretch configuration) once through the entry's
//! own workspace (whose one-graph pool is re-weighted per table), and hands
//! a later entry with the same schedule a clone of the earlier result. This
//! file races caller-owned workspaces over seeded drift sequences on MPEG,
//! WLAN and both TGFF families, at 1 and 2 race workers, and compares every
//! outcome bit for bit with a reference race written here: a fresh
//! `SchedulerKind::solve` per entry (a fresh workspace is the cold path)
//! and its own fold — the lowest expected energy among schedulable plans,
//! ties to the earlier entry, else the lowest worst-case makespan. The
//! reference list plans are also checked against the public cold
//! stretcher, `stretch_schedule`.
//!
//! The sequences must exercise both shortcuts: some race must answer a
//! list entry from its pooled graph, and some table must give HEFT and
//! lookahead the same schedule.

use adaptive_dvfs::ctg::{BranchProbs, Ctg};
use adaptive_dvfs::obs::Obs;
use adaptive_dvfs::platform::Platform;
use adaptive_dvfs::rng::Rng64;
use adaptive_dvfs::sched::{
    dls_schedule, expected_energy_weighted, race_portfolio, stretch_schedule, SchedContext,
    SchedError, SchedulerKind, Solution, SolverWorkspace, StretchConfig,
};
use adaptive_dvfs::tgff::{Category, TgffConfig};
use adaptive_dvfs::workloads::{mpeg, wlan};

/// Tables per drift sequence.
const STEPS: usize = 14;

/// The schedulability bar of the race verdict.
const SCHEDULABILITY_TOL: f64 = 1e-6;

/// The raced entries: the default portfolio plus the frame baseline, so a
/// non-list entry also runs after the list entries.
const KINDS: [SchedulerKind; 4] = [
    SchedulerKind::Dls,
    SchedulerKind::Heft,
    SchedulerKind::Lookahead,
    SchedulerKind::FrameDvfs,
];

/// Rebuilds `ctx` with its deadline at `factor` × the DLS makespan.
fn with_deadline(ctg: Ctg, platform: Platform, probs: &BranchProbs, factor: f64) -> SchedContext {
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let makespan = dls_schedule(&ctx, probs).unwrap().makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(factor * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

fn tgff(seed: u64, tasks: usize, forks: usize, cat: Category, pes: usize) -> SchedContext {
    let cfg = TgffConfig::new(seed, tasks, forks, cat);
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, pes);
    with_deadline(generated.ctg, platform, &generated.probs, 2.0)
}

fn graphs() -> Vec<(&'static str, SchedContext)> {
    let mpeg_ctg = mpeg::mpeg_ctg();
    let mpeg_platform = mpeg::mpeg_platform(&mpeg_ctg);
    let mpeg_probs = BranchProbs::uniform(&mpeg_ctg);
    let wlan_ctg = wlan::wlan_ctg();
    let wlan_platform = wlan::wlan_platform(&wlan_ctg);
    let wlan_probs = BranchProbs::uniform(&wlan_ctg);
    vec![
        (
            "mpeg",
            with_deadline(mpeg_ctg, mpeg_platform, &mpeg_probs, 2.0),
        ),
        (
            "wlan",
            with_deadline(wlan_ctg, wlan_platform, &wlan_probs, 2.0),
        ),
        ("tgff-forkjoin", tgff(31, 24, 3, Category::ForkJoin, 3)),
        ("tgff-layered", tgff(42, 26, 3, Category::Layered, 2)),
    ]
}

/// A seeded drift sequence: each step re-draws one fork's distribution
/// (alternatives kept at 0.02 or more, or, three times in ten, one
/// alternative certain — so minterm groups turn impossible or certain and
/// a pooled graph's stale path probabilities would change the stretch),
/// and every fourth step returns to an earlier table, as drifting
/// estimates revisit scenes.
fn drift_sequence(ctg: &Ctg, seed: u64) -> Vec<BranchProbs> {
    let mut rng = Rng64::seed_from_u64(seed);
    let forks = ctg.branch_nodes();
    let mut current = BranchProbs::uniform(ctg);
    let mut seq: Vec<BranchProbs> = Vec::with_capacity(STEPS);
    for step in 0..STEPS {
        if step % 4 == 3 {
            let back = rng.gen_range(0..seq.len());
            current = seq[back].clone();
        } else if !forks.is_empty() {
            let b = forks[rng.gen_range(0..forks.len())];
            let k = ctg.node(b).alternatives() as usize;
            let dist: Vec<f64> = if rng.gen_bool(0.3) {
                let certain = rng.gen_range(0..k);
                (0..k)
                    .map(|j| if j == certain { 1.0 } else { 0.0 })
                    .collect()
            } else {
                let raw: Vec<f64> = (0..k).map(|_| 0.02 + rng.next_f64()).collect();
                let sum: f64 = raw.iter().sum();
                raw.iter().map(|r| r / sum).collect()
            };
            current.set(b, dist).unwrap();
        }
        seq.push(current.clone());
    }
    seq
}

/// The reference race: a fresh solve per entry and the verdict fold.
/// Returns the reference solutions too.
#[allow(clippy::type_complexity)]
fn reference_race(
    ctx: &SchedContext,
    probs: &BranchProbs,
) -> (
    Result<(usize, Solution, f64), SchedError>,
    Vec<Result<Solution, SchedError>>,
) {
    let results: Vec<Result<Solution, SchedError>> =
        KINDS.iter().map(|k| k.solve(ctx, probs)).collect();
    let weights = ctx.activation_weights(probs);
    let deadline = ctx.ctg().deadline();
    let mut best: Option<(usize, f64)> = None;
    let mut fallback: Option<(usize, f64)> = None;
    for (i, r) in results.iter().enumerate() {
        let Ok(sol) = r else { continue };
        let wcm = sol.worst_case_makespan(ctx);
        if wcm <= deadline + SCHEDULABILITY_TOL {
            let e = expected_energy_weighted(ctx, &weights, &sol.schedule, &sol.speeds);
            if best.is_none_or(|(_, be)| e < be) {
                best = Some((i, e));
            }
        } else if best.is_none() && fallback.is_none_or(|(_, bw)| wcm < bw) {
            fallback = Some((i, wcm));
        }
    }
    let winner = best.or_else(|| {
        fallback.map(|(i, _)| {
            let sol = results[i].as_ref().unwrap();
            (
                i,
                expected_energy_weighted(ctx, &weights, &sol.schedule, &sol.speeds),
            )
        })
    });
    let verdict = match winner {
        Some((i, e)) => Ok((i, results[i].clone().unwrap(), e)),
        None => Err(results.iter().find_map(|r| r.clone().err()).unwrap()),
    };
    (verdict, results)
}

fn assert_same_solution(ctx: &SchedContext, got: &Solution, want: &Solution, label: &str) {
    assert_eq!(got.schedule, want.schedule, "{label}: schedules diverged");
    for t in ctx.ctg().tasks() {
        assert_eq!(
            got.speeds.speed(t).to_bits(),
            want.speeds.speed(t).to_bits(),
            "{label}: speed bits diverged for task {t}"
        );
    }
}

#[test]
fn warm_races_match_the_cold_reference_race() {
    let obs = Obs::disabled();
    let cfg = StretchConfig::default();
    let heft = KINDS
        .iter()
        .position(|&k| k == SchedulerKind::Heft)
        .unwrap();
    let look = KINDS
        .iter()
        .position(|&k| k == SchedulerKind::Lookahead)
        .unwrap();
    let mut list_pool_hits = 0usize;
    let mut same_list_schedules = 0usize;
    for (g, (name, ctx)) in graphs().into_iter().enumerate() {
        let seq = drift_sequence(ctx.ctg(), 0x7261_6365 + g as u64);
        let reference: Vec<_> = seq.iter().map(|p| reference_race(&ctx, p)).collect();
        for (step, (_, sols)) in reference.iter().enumerate() {
            for &i in &[heft, look] {
                if let Ok(sol) = &sols[i] {
                    let cold = stretch_schedule(&ctx, &seq[step], &sol.schedule, &cfg).unwrap();
                    assert_eq!(
                        cold, sol.speeds,
                        "{name}/step {step}: {} plan is not the cold stretch",
                        KINDS[i]
                    );
                }
            }
            if let (Ok(a), Ok(b)) = (&sols[heft], &sols[look]) {
                same_list_schedules += usize::from(a.schedule == b.schedule);
            }
        }
        for workers in [1usize, 2] {
            let mut wss: Vec<SolverWorkspace> =
                KINDS.iter().map(|_| SolverWorkspace::new()).collect();
            for (step, probs) in seq.iter().enumerate() {
                let label = format!("{name}/workers {workers}/step {step}");
                let got = race_portfolio(&KINDS, &ctx, probs, &mut wss, workers, &obs, 0);
                match (&got, &reference[step].0) {
                    (Ok(out), Ok((winner, sol, energy))) => {
                        assert_eq!(out.winner, *winner, "{label}: winners diverged");
                        assert_same_solution(&ctx, &out.solution, sol, &label);
                        assert_eq!(
                            out.energy.to_bits(),
                            energy.to_bits(),
                            "{label}: energy bits diverged"
                        );
                    }
                    (Err(e), Err(want)) => assert_eq!(e, want, "{label}: errors diverged"),
                    (got, want) => panic!("{label}: race {got:?} vs reference {want:?}"),
                }
            }
            list_pool_hits += wss[heft].stats().graph_reuses + wss[look].stats().graph_reuses;
        }
    }
    assert!(
        list_pool_hits > 0,
        "no race answered a list entry from its pooled graph"
    );
    assert!(
        same_list_schedules > 0,
        "no table gave HEFT and lookahead the same schedule"
    );
}
