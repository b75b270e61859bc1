//! Golden pins for the serving engine.
//!
//! Every serve configuration below — closed loop under each cache mode,
//! closed loop with per-tick admission, solve budgets and quarantine (with
//! and without faults, and racing a DLS/HEFT/lookahead portfolio), and
//! Poisson and bursty open loop with queue-depth admission and a latency
//! SLO — runs on the example-1 graph and on MPEG. Each run is folded into
//! an FNV-1a hash of every `StreamSummary` field (f64s as bits), every
//! `StreamLatency` field, and the run's shed, budget and quarantine
//! totals, and compared with the hash hard-coded below.
//!
//! Each configuration has one pinned hash, and runs at 1, 2 and 4 workers
//! must all reproduce it: the engine's per-stream results never depend on
//! how streams are spread over workers.
//!
//! On a mismatch the test prints the full table of observed hashes.

use adaptive_dvfs::ctg::BranchProbs;
use adaptive_dvfs::sched::test_util::example1_context;
use adaptive_dvfs::sched::{
    dls_schedule, OnlineScheduler, SchedContext, SchedulerKind, SolverWorkspace,
};
use adaptive_dvfs::sim::serve::{
    run_serve, AdmissionConfig, ArrivalConfig, ArrivalKind, CacheMode, QuarantineConfig,
    ServeConfig, ServeReport, StreamSpec,
};
use adaptive_dvfs::sim::FaultPlan;
use adaptive_dvfs::workloads::mpeg;
use adaptive_dvfs::workloads::traces::{self, DriftProfile};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn count(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn report(&mut self, r: &ServeReport) {
        self.count(r.streams.len());
        for s in &r.streams {
            self.count(s.exec.instances);
            self.f64(s.exec.total_energy);
            self.count(s.exec.deadline_misses);
            self.f64(s.exec.max_makespan);
            self.count(s.reschedules);
            self.count(s.faults.overruns);
            self.count(s.faults.stalls);
            self.count(s.faults.denials);
            self.count(s.faults.retransmits);
            self.f64(s.faults.extra_time);
            self.f64(s.faults.extra_energy);
            self.count(s.shed);
            self.count(s.budget_exceeded);
            self.count(s.quarantines);
            self.count(s.quarantined_ticks);
        }
        self.count(r.latencies.len());
        for l in &r.latencies {
            self.count(l.count);
            self.f64(l.sum);
            self.f64(l.max);
            self.f64(l.p50);
            self.f64(l.p99);
            self.count(l.slo_misses);
        }
        self.count(r.stats.shed_requests);
        self.count(r.stats.budget_exceeded);
        self.count(r.stats.quarantines);
        self.count(r.stats.quarantined_ticks);
    }
}

/// Rebuilds the context with its deadline at `factor ×` the DLS makespan
/// under uniform probabilities.
fn calibrated(ctx: SchedContext, factor: f64) -> SchedContext {
    let probs = BranchProbs::uniform(ctx.ctg());
    let makespan = dls_schedule(&ctx, &probs).unwrap().makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(factor * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

fn contexts() -> Vec<(&'static str, SchedContext, usize)> {
    let (example1, _, _) = example1_context();
    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);
    let mpeg = calibrated(SchedContext::new(ctg, platform).unwrap(), 1.8);
    // (name, context, instances per stream)
    vec![("example1", example1, 64), ("mpeg", mpeg, 48)]
}

/// Eight drifting streams over a pool of three drift seeds (same-seed
/// streams drift in sync, so a tick's drift set holds repeats), with
/// criticalities 0..=2 and, when `faults` is set, stream-unique fault
/// plans.
fn stream_specs(ctx: &SchedContext, len: usize, faults: bool) -> Vec<StreamSpec> {
    (0..8)
        .map(|i| {
            let profile = DriftProfile::new(0x5E7E + (i % 3) as u64);
            let trace = traces::generate_trace(ctx.ctg(), &profile, len);
            let initial = traces::empirical_probs(ctx.ctg(), &trace[..16]);
            StreamSpec {
                trace,
                initial_probs: initial,
                window: 6,
                threshold: 0.25,
                fault_plan: faults.then(|| FaultPlan::uniform(0xFA11 + i as u64, 0.05)),
                criticality: (i % 3) as u8,
            }
        })
        .collect()
}

/// Half the work-unit cost of solving `probs` cold: tight enough that
/// drift solves abort regularly, loose enough that some get through.
fn half_cost_budget(ctx: &SchedContext, probs: &BranchProbs) -> u64 {
    let mut ws = SolverWorkspace::new();
    OnlineScheduler::new()
        .solve_with_workspace(ctx, probs, &mut ws)
        .expect("probe solve");
    ws.last_solve_cost().expect("probe solve recorded its cost") / 2
}

fn shared() -> CacheMode {
    CacheMode::Shared {
        capacity: 64,
        stripes: 4,
    }
}

fn quarantine() -> QuarantineConfig {
    QuarantineConfig {
        strikes: 2,
        window: 8,
        backoff: 4,
        backoff_max: 32,
    }
}

/// One pinned configuration: a label, whether its streams carry faults,
/// and the engine configuration (workers and shards are set per run).
struct Case {
    label: &'static str,
    faults: bool,
    cfg: ServeConfig,
}

fn cases(ctx: &SchedContext, budget: u64) -> Vec<Case> {
    let closed = |cache: CacheMode| ServeConfig {
        cache,
        quantum: 0.1,
        ..ServeConfig::default()
    };
    let overload = |cache: CacheMode| ServeConfig {
        solve_budget: Some(budget),
        admission: Some(AdmissionConfig { high_water: 2 }),
        quarantine: Some(quarantine()),
        ..closed(cache)
    };
    let deadline = ctx.ctg().deadline();
    let open = |kind: ArrivalKind| ServeConfig {
        admission: Some(AdmissionConfig { high_water: 1 }),
        arrival: ArrivalConfig {
            kind,
            slo: Some(1.5 * deadline),
            ..ArrivalConfig::default()
        },
        ..closed(shared())
    };
    vec![
        Case {
            label: "closed/off",
            faults: false,
            cfg: closed(CacheMode::Off),
        },
        Case {
            label: "closed/per-stream",
            faults: false,
            cfg: closed(CacheMode::PerStream { capacity: 16 }),
        },
        Case {
            label: "closed/shared",
            faults: true,
            cfg: closed(shared()),
        },
        Case {
            label: "overload",
            faults: false,
            cfg: overload(CacheMode::Off),
        },
        Case {
            label: "overload/faults",
            faults: true,
            cfg: overload(CacheMode::PerStream { capacity: 16 }),
        },
        Case {
            label: "overload/portfolio",
            faults: false,
            cfg: ServeConfig {
                portfolio: Some(vec![
                    SchedulerKind::Dls,
                    SchedulerKind::Heft,
                    SchedulerKind::Lookahead,
                ]),
                ..overload(shared())
            },
        },
        Case {
            label: "poisson/queue-admission/slo",
            faults: false,
            cfg: open(ArrivalKind::Poisson {
                rate: 1.5 / deadline,
            }),
        },
        Case {
            label: "bursty/queue-admission/slo",
            faults: true,
            cfg: open(ArrivalKind::Bursty {
                rate: 0.8 / deadline,
                burst_mult: 6.0,
                p_enter: 0.2,
                p_exit: 0.4,
            }),
        },
    ]
}

const GOLDEN: &[(&str, u64)] = &[
    ("example1/closed/off", 0xf60bbd5b2d2aa2d3),
    ("example1/closed/per-stream", 0xf60bbd5b2d2aa2d3),
    ("example1/closed/shared", 0xbf1c0286cf1bb6bd),
    ("example1/overload", 0xf4c9c83ea544cabd),
    ("example1/overload/faults", 0xebafbc7c0dc60bb9),
    ("example1/overload/portfolio", 0x28881569b4b088c1),
    ("example1/poisson/queue-admission/slo", 0xf625747b5b6f9baa),
    ("example1/bursty/queue-admission/slo", 0xb9d729ce825abcc6),
    ("mpeg/closed/off", 0x6b229ba7a0f5bc73),
    ("mpeg/closed/per-stream", 0x6b229ba7a0f5bc73),
    ("mpeg/closed/shared", 0xc93a22e6918b09e6),
    ("mpeg/overload", 0x6f6fb67b214a2041),
    ("mpeg/overload/faults", 0xdb62cc944a5ed934),
    ("mpeg/overload/portfolio", 0x6f0770af31109b5b),
    ("mpeg/poisson/queue-admission/slo", 0x19ee6ec333f9dcf2),
    ("mpeg/bursty/queue-admission/slo", 0x8e79a48d53ec14f6),
];

#[test]
fn serve_configurations_are_pinned_at_every_worker_count() {
    let mut observed: Vec<(String, u64)> = Vec::new();
    for (name, ctx, len) in contexts() {
        let plain = stream_specs(&ctx, len, false);
        let faulty = stream_specs(&ctx, len, true);
        let budget = half_cost_budget(&ctx, &plain[0].initial_probs);
        for case in cases(&ctx, budget) {
            let label = format!("{name}/{}", case.label);
            let specs = if case.faults { &faulty } else { &plain };
            let mut pinned: Option<u64> = None;
            for workers in [1usize, 2, 4] {
                let cfg = ServeConfig {
                    workers,
                    shards: 5,
                    ..case.cfg.clone()
                };
                let report = run_serve(&ctx, specs, &cfg).unwrap();
                let instances: usize = report.streams.iter().map(|s| s.exec.instances).sum();
                assert_eq!(instances, specs.len() * len, "{label}: every instance runs");
                let s = &report.stats;
                if case.cfg.admission.is_some() {
                    assert!(s.shed_requests > 0, "{label}: admission must shed: {s:?}");
                }
                // A race survives its DLS entry's budget abort on the
                // other entries' plans, so only DLS-only runs must strike.
                if case.cfg.solve_budget.is_some() && case.cfg.portfolio.is_none() {
                    assert!(
                        s.budget_exceeded > 0 && s.quarantines > 0,
                        "{label}: the budget must abort and quarantine: {s:?}"
                    );
                }
                let mut h = Fnv::new();
                h.report(&report);
                match pinned {
                    None => pinned = Some(h.0),
                    Some(p) => assert_eq!(
                        h.0, p,
                        "{label}: {workers} workers diverged from the 1-worker run"
                    ),
                }
            }
            observed.push((label, pinned.expect("three runs")));
        }
    }
    let table: String = observed
        .iter()
        .map(|(l, h)| format!("    (\"{l}\", 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        observed.len(),
        GOLDEN.len(),
        "golden table size differs; observed:\n{table}"
    );
    for ((label, hash), (g_label, g_hash)) in observed.iter().zip(GOLDEN) {
        assert!(
            label == g_label && hash == g_hash,
            "{label}: 0x{hash:016x} != golden {g_label} 0x{g_hash:016x}; observed:\n{table}"
        );
    }
}
