//! Golden pins for the instance simulator and the trace runners.
//!
//! Every simulator variant (plain with and without DVFS switch overhead,
//! fault-injected, reclaiming, periodic) and every static / adaptive runner
//! configuration is run over seeded traces on MPEG, WLAN, cruise and both
//! TGFF families. Each run is folded into an FNV-1a hash of the bit
//! patterns of its outputs — energies, makespans, deadline verdicts, task
//! timelines, fault logs and every summary field — and compared with the
//! hashes hard-coded below.
//!
//! One field is pinned by value instead of by bits: a periodic run's
//! `total_energy` sums per-instance energies, and is held within 1e-12
//! relative of the recorded value.
//!
//! On a mismatch the test prints the full table of observed hashes.

use adaptive_dvfs::ctg::{Ctg, DecisionVector};
use adaptive_dvfs::platform::Platform;
use adaptive_dvfs::sched::{
    dls_schedule, AdaptiveScheduler, OnlineScheduler, SchedContext, Solution,
};
use adaptive_dvfs::sim::{
    run_periodic, simulate_instance_reclaiming, BurstModel, DvfsOverhead, FaultInjector, FaultLog,
    FaultPlan, InstanceOutcome, RunConfig, RunSummary, Runner, SimWorkspace,
};
use adaptive_dvfs::tgff::{Category, TgffConfig};
use adaptive_dvfs::workloads::traces::{self, DriftProfile};
use adaptive_dvfs::workloads::{cruise, mpeg, wlan};
use std::fmt::Debug;

/// Instances per trace.
const LEN: usize = 160;

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

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn flag(&mut self, b: bool) {
        self.word(u64::from(b));
    }

    fn times(&mut self, times: &[Option<(f64, f64)>]) {
        for t in times {
            match t {
                None => self.word(u64::MAX),
                Some((s, f)) => {
                    self.f64(*s);
                    self.f64(*f);
                }
            }
        }
    }

    fn outcome(&mut self, o: &InstanceOutcome) {
        self.f64(o.energy);
        self.f64(o.exec_energy);
        self.f64(o.comm_energy);
        self.f64(o.makespan);
        self.flag(o.deadline_met);
    }

    /// Hashes a value's `Debug` rendering; `f64` renders in shortest
    /// round-trip form, so the rendering pins the bits.
    fn debug(&mut self, v: &impl Debug) {
        for b in format!("{v:?}").bytes() {
            self.word(u64::from(b));
        }
    }

    fn summary(&mut self, s: &RunSummary) {
        self.word(s.exec.instances as u64);
        self.f64(s.exec.total_energy);
        self.word(s.exec.deadline_misses as u64);
        self.f64(s.exec.max_makespan);
        self.word(s.calls as u64);
        self.word(s.reschedules as u64);
        self.word(s.cache_hits as u64);
        self.word(s.cache_misses as u64);
        self.debug(&s.faults);
        self.debug(&s.degrade);
    }
}

struct Case {
    name: &'static str,
    ctx: SchedContext,
    solution: Solution,
    trace: Vec<DecisionVector>,
}

/// Rebuilds the context with its deadline at `factor ×` the DLS makespan
/// under uniform probabilities.
fn calibrated(ctg: Ctg, platform: Platform, factor: f64) -> SchedContext {
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let probs = adaptive_dvfs::ctg::BranchProbs::uniform(ctx.ctg());
    let makespan = dls_schedule(&ctx, &probs).unwrap().makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(factor * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

fn tgff(seed: u64, cat: Category) -> SchedContext {
    let cfg = TgffConfig::new(seed, 24, 3, cat);
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, 3);
    calibrated(generated.ctg, platform, 1.6)
}

fn cases() -> Vec<Case> {
    let mpeg_ctg = mpeg::mpeg_ctg();
    let wlan_ctg = wlan::wlan_ctg();
    let cruise_ctg = cruise::cruise_ctg();
    let contexts = [
        (
            "mpeg",
            calibrated(mpeg_ctg.clone(), mpeg::mpeg_platform(&mpeg_ctg), 1.5),
            101,
        ),
        (
            "wlan",
            calibrated(wlan_ctg.clone(), wlan::wlan_platform(&wlan_ctg), 1.5),
            102,
        ),
        (
            "cruise",
            calibrated(
                cruise_ctg.clone(),
                cruise::cruise_platform(&cruise_ctg),
                1.5,
            ),
            103,
        ),
        ("tgff-forkjoin", tgff(7, Category::ForkJoin), 104),
        ("tgff-layered", tgff(8, Category::Layered), 105),
    ];
    contexts
        .into_iter()
        .map(|(name, ctx, seed)| {
            let trace = traces::generate_trace(ctx.ctg(), &DriftProfile::new(seed), LEN);
            let probs = traces::empirical_probs(ctx.ctg(), &trace);
            let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
            Case {
                name,
                ctx,
                solution,
                trace,
            }
        })
        .collect()
}

/// Compares observed `(label, hash)` pairs with the golden table, printing
/// the whole observed table on any difference.
fn check(observed: &[(String, u64)], golden: &[(&str, u64)]) {
    let table: String = observed
        .iter()
        .map(|(l, h)| format!("        (\"{l}\", 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        observed.len(),
        golden.len(),
        "golden table size differs; observed:\n{table}"
    );
    for ((label, hash), (g_label, g_hash)) in observed.iter().zip(golden) {
        assert!(
            label == g_label && hash == g_hash,
            "{label}: 0x{hash:016x} != golden {g_label} 0x{g_hash:016x}; observed:\n{table}"
        );
    }
}

fn fault_plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("zero", FaultPlan::none(11)),
        ("uniform3", FaultPlan::uniform(12, 0.03)),
        (
            "burst",
            FaultPlan {
                burst: Some(BurstModel {
                    p_enter: 0.1,
                    p_exit: 0.3,
                    rate_multiplier: 8.0,
                }),
                ..FaultPlan::uniform(13, 0.03)
            },
        ),
    ]
}

#[test]
fn plain_simulation_is_pinned() {
    let overheads = [
        ("oh0", DvfsOverhead::default()),
        (
            "oh1",
            DvfsOverhead {
                switch_time: 0.05,
                switch_energy: 0.02,
            },
        ),
    ];
    let mut observed = Vec::new();
    for case in cases() {
        for (oh_name, oh) in overheads {
            let mut ws = SimWorkspace::new(&case.ctx, &case.solution);
            let mut h = Fnv::new();
            for v in &case.trace {
                let out = ws
                    .simulate_with_overhead(&case.ctx, &case.solution, v, oh)
                    .unwrap();
                h.outcome(&out);
                h.times(ws.task_times());
            }
            observed.push((format!("{}/{oh_name}", case.name), h.0));
        }
    }
    check(&observed, PLAIN);
}

#[test]
fn faulty_simulation_is_pinned() {
    let mut observed = Vec::new();
    for case in cases() {
        for (plan_name, plan) in fault_plans() {
            let mut ws = SimWorkspace::new(&case.ctx, &case.solution);
            let mut injector = FaultInjector::empty(&case.ctx);
            let mut log = FaultLog::default();
            let mut h = Fnv::new();
            for (i, v) in case.trace.iter().enumerate() {
                injector.resample(&plan, &case.ctx, i as u64).unwrap();
                let out = ws
                    .simulate_faulty(&case.ctx, &case.solution, v, &plan, &injector, &mut log)
                    .unwrap();
                h.outcome(&out);
                h.times(ws.task_times());
                h.debug(&log);
            }
            observed.push((format!("{}/{plan_name}", case.name), h.0));
        }
    }
    check(&observed, FAULTY);
}

#[test]
fn reclaiming_simulation_is_pinned() {
    let mut observed = Vec::new();
    for case in cases() {
        for use_locked in [true, false] {
            let mut h = Fnv::new();
            for v in &case.trace {
                let r =
                    simulate_instance_reclaiming(&case.ctx, &case.solution, v, 0.05, use_locked)
                        .unwrap();
                h.f64(r.energy);
                h.f64(r.exec_energy);
                h.f64(r.comm_energy);
                h.f64(r.makespan);
                h.flag(r.deadline_met);
                h.times(&r.task_times);
            }
            observed.push((format!("{}/locked={use_locked}", case.name), h.0));
        }
    }
    check(&observed, RECLAIMING);
}

#[test]
fn periodic_runs_are_pinned() {
    let mut observed = Vec::new();
    let mut energies = Vec::new();
    let mut half_period_overruns = 0;
    for case in cases() {
        for factor in [1.0, 0.8, 0.5] {
            let period = factor * case.ctx.ctg().deadline();
            let s = run_periodic(&case.ctx, &case.solution, &case.trace, period).unwrap();
            let mut h = Fnv::new();
            h.word(s.instances as u64);
            h.word(s.overruns as u64);
            h.f64(s.max_lateness);
            h.f64(s.horizon);
            if factor == 0.5 {
                half_period_overruns += s.overruns;
            }
            let label = format!("{}/period={factor}", case.name);
            observed.push((label.clone(), h.0));
            energies.push((label, s.total_energy));
        }
    }
    check(&observed, PERIODIC);
    assert!(
        half_period_overruns > 0,
        "half-deadline periods must backlog"
    );
    let table: String = energies
        .iter()
        .map(|(l, e)| format!("        (\"{l}\", 0x{:016x}),\n", e.to_bits()))
        .collect();
    assert_eq!(
        energies.len(),
        PERIODIC_ENERGY.len(),
        "golden table size differs; observed:\n{table}"
    );
    for ((label, energy), (g_label, g_bits)) in energies.iter().zip(PERIODIC_ENERGY) {
        let golden = f64::from_bits(*g_bits);
        assert!(
            label == g_label && (energy - golden).abs() <= 1e-12 * golden.abs(),
            "{label}: total_energy {energy} vs golden {golden}; observed:\n{table}"
        );
    }
}

#[test]
fn runners_are_pinned_at_every_worker_count() {
    let mut observed = Vec::new();
    let mut reschedules = 0;
    let mut faults = 0;
    for case in cases() {
        let probs = traces::empirical_probs(case.ctx.ctg(), &case.trace);
        for (plan_name, plan) in [
            ("clean", None),
            ("uniform3", Some(FaultPlan::uniform(21, 0.03))),
        ] {
            for workers in [1, 2, 4] {
                // min_batch 0: pool even these short traces.
                let mut cfg = RunConfig::new().workers(workers).min_batch(0);
                if let Some(p) = &plan {
                    cfg = cfg.fault_plan(p.clone());
                }
                let runner = Runner::new(cfg);
                let s = runner
                    .run_static(&case.ctx, &case.solution, &case.trace)
                    .unwrap();
                let mut h = Fnv::new();
                h.summary(&s);
                faults += s.faults.total();
                observed.push((format!("{}/static/{plan_name}/w{workers}", case.name), h.0));

                let manager = AdaptiveScheduler::new(&case.ctx, probs.clone(), 16, 0.15).unwrap();
                let (s, manager) = runner
                    .run_adaptive(&case.ctx, manager, &case.trace)
                    .unwrap();
                let mut h = Fnv::new();
                h.summary(&s);
                h.debug(&manager.solution().speeds);
                reschedules += s.reschedules;
                observed.push((
                    format!("{}/adaptive/{plan_name}/w{workers}", case.name),
                    h.0,
                ));
            }
        }
    }
    check(&observed, RUNNERS);
    assert!(reschedules > 0, "the adaptive runs must re-schedule");
    assert!(faults > 0, "the faulty static runs must inject faults");
}

const PLAIN: &[(&str, u64)] = &[
    ("mpeg/oh0", 0xcb2a7cc223807443),
    ("mpeg/oh1", 0x6a8e04a61bc6fdd4),
    ("wlan/oh0", 0xed6d8f47b08697f2),
    ("wlan/oh1", 0xeee28199b1c2b9c2),
    ("cruise/oh0", 0x3472277b4b9d96b8),
    ("cruise/oh1", 0x74bcccd618fea479),
    ("tgff-forkjoin/oh0", 0x28175bd4dcef6ba0),
    ("tgff-forkjoin/oh1", 0x1728595da5ebc012),
    ("tgff-layered/oh0", 0x2785bbcf88dc0a08),
    ("tgff-layered/oh1", 0xa57d76512802407d),
];
const FAULTY: &[(&str, u64)] = &[
    ("mpeg/zero", 0x7edce66dfeab348f),
    ("mpeg/uniform3", 0x8fa0ace916bb52c3),
    ("mpeg/burst", 0x0d47a6fb7392fc33),
    ("wlan/zero", 0x3cd06810fb7836c2),
    ("wlan/uniform3", 0x15021487a8c39aeb),
    ("wlan/burst", 0x38709a231bb7e093),
    ("cruise/zero", 0xee7921d70ce32888),
    ("cruise/uniform3", 0xbf9cb924e55507cb),
    ("cruise/burst", 0x10c17b874c2328f6),
    ("tgff-forkjoin/zero", 0x1e7d3e8d215d7218),
    ("tgff-forkjoin/uniform3", 0xa8dd8319a6854f53),
    ("tgff-forkjoin/burst", 0x6510412d91b295b7),
    ("tgff-layered/zero", 0x239ba986f23c1e48),
    ("tgff-layered/uniform3", 0xcc44f142bc9cdb4e),
    ("tgff-layered/burst", 0xf8c746103ce21fa6),
];
const RECLAIMING: &[(&str, u64)] = &[
    ("mpeg/locked=true", 0x8bc79e692faec77a),
    ("mpeg/locked=false", 0xc9742ca87a573639),
    ("wlan/locked=true", 0x66b39bc8d41f8c0a),
    ("wlan/locked=false", 0x5d1384670c5f9f4d),
    ("cruise/locked=true", 0x460fc10e50066565),
    ("cruise/locked=false", 0x594f2ba899d258b6),
    ("tgff-forkjoin/locked=true", 0x0769c02927894ca3),
    ("tgff-forkjoin/locked=false", 0x12ec6345c5785680),
    ("tgff-layered/locked=true", 0x1e527fad984b3b59),
    ("tgff-layered/locked=false", 0x1977bdfe25f4c8a9),
];
const PERIODIC: &[(&str, u64)] = &[
    ("mpeg/period=1", 0xa8b6aecdadc7e256),
    ("mpeg/period=0.8", 0x2ef669e725480201),
    ("mpeg/period=0.5", 0x7e2256191b533aaf),
    ("wlan/period=1", 0xc2be1ee419c930f3),
    ("wlan/period=0.8", 0x56bedb3571a381f8),
    ("wlan/period=0.5", 0xb3ce4cb0a85e4091),
    ("cruise/period=1", 0x7a34da302fccd830),
    ("cruise/period=0.8", 0xf81ed36c59a897d4),
    ("cruise/period=0.5", 0x242deb57ac7b075e),
    ("tgff-forkjoin/period=1", 0x332cda3b67b0edf3),
    ("tgff-forkjoin/period=0.8", 0x2392ec095106a0fb),
    ("tgff-forkjoin/period=0.5", 0xf0f7f31247f3a3cd),
    ("tgff-layered/period=1", 0x2d87e99faa805b15),
    ("tgff-layered/period=0.8", 0xfbf12b3b39a4cd68),
    ("tgff-layered/period=0.5", 0x0b4d9106a90e04f4),
];
const PERIODIC_ENERGY: &[(&str, u64)] = &[
    ("mpeg/period=1", 0x40973f8ac1fdfd56),
    ("mpeg/period=0.8", 0x40973f8ac1fdfd56),
    ("mpeg/period=0.5", 0x40973f8ac1fdfd56),
    ("wlan/period=1", 0x409bc5a7cd1c885b),
    ("wlan/period=0.8", 0x409bc5a7cd1c885b),
    ("wlan/period=0.5", 0x409bc5a7cd1c885b),
    ("cruise/period=1", 0x40a0969e8ca1727c),
    ("cruise/period=0.8", 0x40a0969e8ca1727c),
    ("cruise/period=0.5", 0x40a0969e8ca1727c),
    ("tgff-forkjoin/period=1", 0x40ab27a1be2f804e),
    ("tgff-forkjoin/period=0.8", 0x40ab27a1be2f804e),
    ("tgff-forkjoin/period=0.5", 0x40ab27a1be2f804e),
    ("tgff-layered/period=1", 0x40c02406d8d058c7),
    ("tgff-layered/period=0.8", 0x40c02406d8d058c7),
    ("tgff-layered/period=0.5", 0x40c02406d8d058c7),
];
const RUNNERS: &[(&str, u64)] = &[
    ("mpeg/static/clean/w1", 0xf1ccbae228d42e1b),
    ("mpeg/adaptive/clean/w1", 0x4e87725b42a01afc),
    ("mpeg/static/clean/w2", 0xf1ccbae228d42e1b),
    ("mpeg/adaptive/clean/w2", 0x4e87725b42a01afc),
    ("mpeg/static/clean/w4", 0xf1ccbae228d42e1b),
    ("mpeg/adaptive/clean/w4", 0x4e87725b42a01afc),
    ("mpeg/static/uniform3/w1", 0x63d315050644f003),
    ("mpeg/adaptive/uniform3/w1", 0x09b6660b5531d2bf),
    ("mpeg/static/uniform3/w2", 0x63d315050644f003),
    ("mpeg/adaptive/uniform3/w2", 0x09b6660b5531d2bf),
    ("mpeg/static/uniform3/w4", 0x63d315050644f003),
    ("mpeg/adaptive/uniform3/w4", 0x09b6660b5531d2bf),
    ("wlan/static/clean/w1", 0x040b360407f307ac),
    ("wlan/adaptive/clean/w1", 0x2052a231c0b7906a),
    ("wlan/static/clean/w2", 0x040b360407f307ac),
    ("wlan/adaptive/clean/w2", 0x2052a231c0b7906a),
    ("wlan/static/clean/w4", 0x040b360407f307ac),
    ("wlan/adaptive/clean/w4", 0x2052a231c0b7906a),
    ("wlan/static/uniform3/w1", 0x2c932ed56079ef96),
    ("wlan/adaptive/uniform3/w1", 0xbde7213f54af8fae),
    ("wlan/static/uniform3/w2", 0x2c932ed56079ef96),
    ("wlan/adaptive/uniform3/w2", 0xbde7213f54af8fae),
    ("wlan/static/uniform3/w4", 0x2c932ed56079ef96),
    ("wlan/adaptive/uniform3/w4", 0xbde7213f54af8fae),
    ("cruise/static/clean/w1", 0x54eb144397951588),
    ("cruise/adaptive/clean/w1", 0xe7c87ec6df5deded),
    ("cruise/static/clean/w2", 0x54eb144397951588),
    ("cruise/adaptive/clean/w2", 0xe7c87ec6df5deded),
    ("cruise/static/clean/w4", 0x54eb144397951588),
    ("cruise/adaptive/clean/w4", 0xe7c87ec6df5deded),
    ("cruise/static/uniform3/w1", 0x19d2f0173d1b5c18),
    ("cruise/adaptive/uniform3/w1", 0x1cb5cb2fcbc322fe),
    ("cruise/static/uniform3/w2", 0x19d2f0173d1b5c18),
    ("cruise/adaptive/uniform3/w2", 0x1cb5cb2fcbc322fe),
    ("cruise/static/uniform3/w4", 0x19d2f0173d1b5c18),
    ("cruise/adaptive/uniform3/w4", 0x1cb5cb2fcbc322fe),
    ("tgff-forkjoin/static/clean/w1", 0xa7b42be1b235eb91),
    ("tgff-forkjoin/adaptive/clean/w1", 0x3b5207265fa3ede2),
    ("tgff-forkjoin/static/clean/w2", 0xa7b42be1b235eb91),
    ("tgff-forkjoin/adaptive/clean/w2", 0x3b5207265fa3ede2),
    ("tgff-forkjoin/static/clean/w4", 0xa7b42be1b235eb91),
    ("tgff-forkjoin/adaptive/clean/w4", 0x3b5207265fa3ede2),
    ("tgff-forkjoin/static/uniform3/w1", 0x129997144870ea5a),
    ("tgff-forkjoin/adaptive/uniform3/w1", 0x82121447c6b7d0da),
    ("tgff-forkjoin/static/uniform3/w2", 0x129997144870ea5a),
    ("tgff-forkjoin/adaptive/uniform3/w2", 0x82121447c6b7d0da),
    ("tgff-forkjoin/static/uniform3/w4", 0x129997144870ea5a),
    ("tgff-forkjoin/adaptive/uniform3/w4", 0x82121447c6b7d0da),
    ("tgff-layered/static/clean/w1", 0xfc02b7f2667234d1),
    ("tgff-layered/adaptive/clean/w1", 0x98204fe58541c0f1),
    ("tgff-layered/static/clean/w2", 0xfc02b7f2667234d1),
    ("tgff-layered/adaptive/clean/w2", 0x98204fe58541c0f1),
    ("tgff-layered/static/clean/w4", 0xfc02b7f2667234d1),
    ("tgff-layered/adaptive/clean/w4", 0x98204fe58541c0f1),
    ("tgff-layered/static/uniform3/w1", 0x7a4eae48f6dd4eb1),
    ("tgff-layered/adaptive/uniform3/w1", 0x20d34ff7c6de7e1f),
    ("tgff-layered/static/uniform3/w2", 0x7a4eae48f6dd4eb1),
    ("tgff-layered/adaptive/uniform3/w2", 0x20d34ff7c6de7e1f),
    ("tgff-layered/static/uniform3/w4", 0x7a4eae48f6dd4eb1),
    ("tgff-layered/adaptive/uniform3/w4", 0x20d34ff7c6de7e1f),
];
