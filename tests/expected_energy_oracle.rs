//! Independent oracle for `expected_energy`.
//!
//! `expected_energy` prices a plan from per-table activation weights
//! (`SchedContext::activation_weights`: scenario probabilities summed over
//! per-task and per-edge scenario masks). This file checks it three ways,
//! over MPEG, WLAN, both TGFF families and a k-ary fork graph, under
//! seeded drift tables and the plan of every `SchedulerKind`:
//!
//! 1. it equals, bit for bit, the per-task / per-edge scenario scan the
//!    weights replaced (kept below as `scan_energy`);
//! 2. it agrees within 1e-9 relative with `per_scenario_energy`, which
//!    walks the graph under every reachable branch decision, prices the
//!    active tasks and the edges whose endpoints are both active, and
//!    never touches scenario masks, DNF conditions or the scenario
//!    enumeration;
//! 3. an edge between two unconditional tasks weighs exactly 1.0 and an
//!    edge between mutually exclusive tasks weighs 0.

use adaptive_dvfs::ctg::{BranchProbs, Ctg, CtgBuilder, NodeKind, TaskId};
use adaptive_dvfs::platform::{Platform, PlatformBuilder};
use adaptive_dvfs::rng::Rng64;
use adaptive_dvfs::sched::{
    dls_schedule, expected_energy, SchedContext, Schedule, SchedulerKind, SpeedAssignment,
};
use adaptive_dvfs::tgff::{Category, TgffConfig};
use adaptive_dvfs::workloads::{mpeg, wlan};

/// Seeded drift tables drawn per graph.
const TABLES: usize = 4;

/// Rebuilds `ctx` with its deadline at twice the DLS makespan, so every
/// scheduler kind can meet it.
fn with_loose_deadline(ctg: Ctg, platform: Platform, probs: &BranchProbs) -> SchedContext {
    let ctx = SchedContext::new(ctg, platform).unwrap();
    let makespan = dls_schedule(&ctx, probs).unwrap().makespan();
    SchedContext::new(
        ctx.ctg().with_deadline(2.0 * makespan),
        ctx.platform().clone(),
    )
    .unwrap()
}

fn tgff(seed: u64, tasks: usize, forks: usize, cat: Category, pes: usize) -> SchedContext {
    let cfg = TgffConfig::new(seed, tasks, forks, cat);
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, pes);
    with_loose_deadline(generated.ctg, platform, &generated.probs)
}

/// A 3-way fork whose middle arm holds a nested 4-way fork, joined by
/// or-nodes.
fn kary() -> SchedContext {
    let mut b = CtgBuilder::new("kary");
    let src = b.add_task("src");
    let sel = b.add_task("sel");
    let h0 = b.add_task("h0");
    let h1 = b.add_task("h1");
    let h2 = b.add_task("h2");
    let inner: Vec<TaskId> = (0..4).map(|i| b.add_task(format!("g{i}"))).collect();
    let inner_join = b.add_task_with_kind("inner_join", NodeKind::Or);
    let join = b.add_task_with_kind("join", NodeKind::Or);
    let sink = b.add_task("sink");
    b.add_edge(src, sel, 0.4).unwrap();
    b.add_cond_edge(sel, h0, 0, 1.0).unwrap();
    b.add_cond_edge(sel, h1, 1, 1.5).unwrap();
    b.add_cond_edge(sel, h2, 2, 0.5).unwrap();
    for (alt, &g) in inner.iter().enumerate() {
        b.add_cond_edge(h1, g, alt as u8, 0.3 + 0.2 * alt as f64)
            .unwrap();
        b.add_edge(g, inner_join, 0.6).unwrap();
    }
    b.add_edge(h0, join, 0.5).unwrap();
    b.add_edge(inner_join, join, 0.7).unwrap();
    b.add_edge(h2, join, 0.2).unwrap();
    b.add_edge(join, sink, 0.9).unwrap();
    b.add_edge(src, sink, 0.3).unwrap();
    let ctg = b.deadline(1.0).build().unwrap();

    let n = ctg.num_tasks();
    let mut pb = PlatformBuilder::new(n);
    pb.add_pe("p0");
    pb.add_pe("p1");
    pb.add_pe("p2");
    for t in 0..n {
        let w = 1.0 + (t % 5) as f64;
        pb.set_wcet_row(t, vec![w, w * 1.3, w * 0.8]).unwrap();
        pb.set_energy_row(t, vec![w, w * 0.7, w * 1.4]).unwrap();
    }
    pb.uniform_links(2.0, 0.25).unwrap();
    let probs = BranchProbs::uniform(&ctg);
    with_loose_deadline(ctg, pb.build().unwrap(), &probs)
}

/// Every graph under test with its generator's table.
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
            with_loose_deadline(mpeg_ctg, mpeg_platform, &mpeg_probs),
        ),
        (
            "wlan",
            with_loose_deadline(wlan_ctg, wlan_platform, &wlan_probs),
        ),
        ("tgff-forkjoin", tgff(31, 24, 3, Category::ForkJoin, 3)),
        ("tgff-layered", tgff(42, 26, 3, Category::Layered, 2)),
        ("kary", kary()),
    ]
}

/// Seeded tables: every fork's distribution drawn fresh, each alternative
/// kept at 0.02 or more.
fn drift_tables(ctg: &Ctg, seed: u64) -> Vec<BranchProbs> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..TABLES)
        .map(|_| {
            let mut probs = BranchProbs::new();
            for &b in ctg.branch_nodes() {
                let k = ctg.node(b).alternatives() as usize;
                let raw: Vec<f64> = (0..k).map(|_| 0.02 + rng.next_f64()).collect();
                let sum: f64 = raw.iter().sum();
                probs.set(b, raw.iter().map(|r| r / sum).collect()).unwrap();
            }
            probs
        })
        .collect()
}

/// The per-task / per-edge scenario scan `expected_energy` used before it
/// read precomputed weights, copied verbatim with the two context helpers
/// it called (`task_prob`, `edge_prob`) inlined.
fn scan_energy(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    speeds: &SpeedAssignment,
) -> f64 {
    let platform = ctx.platform();
    let mut total = 0.0;
    for t in ctx.ctg().tasks() {
        let p = ctx.scenarios().task_prob(t, probs);
        total += p * platform.exec_energy(t.index(), schedule.pe_of(t), speeds.speed(t));
    }
    for (_, e) in ctx.ctg().edges() {
        let (src, dst) = (e.src(), e.dst());
        let energy =
            platform
                .comm()
                .energy(schedule.pe_of(src), schedule.pe_of(dst), e.comm_kbytes());
        if energy > 0.0 {
            total += scan_edge_prob(ctx, src, dst, probs) * energy;
        }
    }
    total
}

fn scan_edge_prob(ctx: &SchedContext, src: TaskId, dst: TaskId, probs: &BranchProbs) -> f64 {
    let both = ctx
        .activation()
        .condition(src)
        .and(ctx.activation().condition(dst));
    if both.is_true() {
        return 1.0;
    }
    ctx.scenarios()
        .scenarios()
        .iter()
        .filter(|s| both.eval(|b| s.cube().alt_of(b)))
        .map(|s| s.probability(probs))
        .sum()
}

/// Which tasks run under the branch decisions taken so far
/// (`decisions[fork]`), by a forward walk in topological order: a source
/// runs; an edge fires when its source runs and, if conditional, its
/// source decided the edge's alternative; an and-node runs when all its
/// in-edges fire, an or-node when any does.
fn active_tasks(ctg: &Ctg, decisions: &[Option<u8>]) -> Vec<bool> {
    let mut active = vec![false; ctg.num_tasks()];
    for &t in ctg.topological() {
        let mut fired = ctg.in_edges(t).map(|(_, e)| {
            active[e.src().index()]
                && e.condition()
                    .is_none_or(|alt| decisions[e.src().index()] == Some(alt))
        });
        let runs = if ctg.in_edges(t).next().is_none() {
            true
        } else {
            match ctg.node(t).kind() {
                NodeKind::And => fired.all(|f| f),
                NodeKind::Or => fired.any(|f| f),
            }
        };
        active[t.index()] = runs;
    }
    active
}

/// `Σ_s p(s) · (Σ_active τ E(τ) + Σ_(i,j) both active E_tr)`, enumerating
/// the scenarios by branching on the first undecided running fork in
/// topological order.
fn per_scenario_energy(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    speeds: &SpeedAssignment,
) -> f64 {
    fn explore(
        ctx: &SchedContext,
        probs: &BranchProbs,
        schedule: &Schedule,
        speeds: &SpeedAssignment,
        decisions: &mut Vec<Option<u8>>,
        p: f64,
    ) -> f64 {
        let ctg = ctx.ctg();
        let active = active_tasks(ctg, decisions);
        let open = ctg.topological().iter().copied().find(|&t| {
            active[t.index()] && ctg.node(t).is_branch() && decisions[t.index()].is_none()
        });
        if let Some(fork) = open {
            let mut total = 0.0;
            for alt in 0..ctg.node(fork).alternatives() {
                decisions[fork.index()] = Some(alt);
                let pa = probs.prob(fork, alt);
                total += explore(ctx, probs, schedule, speeds, decisions, p * pa);
            }
            decisions[fork.index()] = None;
            return total;
        }
        let platform = ctx.platform();
        let mut energy = 0.0;
        for t in ctg.tasks().filter(|t| active[t.index()]) {
            energy += platform.exec_energy(t.index(), schedule.pe_of(t), speeds.speed(t));
        }
        for (_, e) in ctg.edges() {
            if active[e.src().index()] && active[e.dst().index()] {
                energy += platform.comm().energy(
                    schedule.pe_of(e.src()),
                    schedule.pe_of(e.dst()),
                    e.comm_kbytes(),
                );
            }
        }
        p * energy
    }
    let mut decisions = vec![None; ctx.ctg().num_tasks()];
    explore(ctx, probs, schedule, speeds, &mut decisions, 1.0)
}

#[test]
fn expected_energy_matches_the_scan_and_the_per_scenario_oracle() {
    let mut checked = 0;
    for (gi, (name, ctx)) in graphs().into_iter().enumerate() {
        for (ti, probs) in drift_tables(ctx.ctg(), 0x0e7e_0000 + gi as u64)
            .iter()
            .enumerate()
        {
            for kind in SchedulerKind::ALL {
                let sol = kind
                    .solve(&ctx, probs)
                    .unwrap_or_else(|e| panic!("{name} table {ti} {kind}: {e:?}"));
                let label = format!("{name} table {ti} {kind}");
                let energy = expected_energy(&ctx, probs, &sol.schedule, &sol.speeds);
                assert_eq!(
                    energy.to_bits(),
                    scan_energy(&ctx, probs, &sol.schedule, &sol.speeds).to_bits(),
                    "{label}: weighted energy differs from the scenario scan"
                );
                let oracle = per_scenario_energy(&ctx, probs, &sol.schedule, &sol.speeds);
                assert!(
                    (energy - oracle).abs() <= 1e-9 * oracle.abs(),
                    "{label}: {energy} vs per-scenario {oracle}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 5 * TABLES * SchedulerKind::COUNT);
}

#[test]
fn unconditional_edges_weigh_one_and_exclusive_edges_zero() {
    // An and-node joining both arms of one fork can never run, so the
    // edges into it connect mutually exclusive tasks.
    let mut b = CtgBuilder::new("dead-join");
    let src = b.add_task("src");
    let fork = b.add_task("fork");
    let left = b.add_task("left");
    let right = b.add_task("right");
    let dead = b.add_task("dead");
    let sink = b.add_task("sink");
    b.add_edge(src, fork, 1.0).unwrap();
    b.add_cond_edge(fork, left, 0, 1.0).unwrap();
    b.add_cond_edge(fork, right, 1, 1.0).unwrap();
    b.add_edge(left, dead, 1.0).unwrap();
    b.add_edge(right, dead, 1.0).unwrap();
    b.add_edge(src, sink, 1.0).unwrap();
    let ctg = b.deadline(100.0).build().unwrap();
    let mut pb = PlatformBuilder::new(ctg.num_tasks());
    pb.add_pe("p0");
    for t in 0..ctg.num_tasks() {
        pb.set_wcet_row(t, vec![1.0]).unwrap();
        pb.set_energy_row(t, vec![1.0]).unwrap();
    }
    pb.uniform_links(1.0, 1.0).unwrap();
    let ctx = SchedContext::new(ctg, pb.build().unwrap()).unwrap();

    let mut contexts = graphs();
    contexts.push(("dead-join", ctx));
    let (mut ones, mut zeros) = (0, 0);
    for (gi, (name, ctx)) in contexts.iter().enumerate() {
        let act = ctx.activation();
        for probs in drift_tables(ctx.ctg(), 0x0ed9_0000 + gi as u64) {
            let weights = ctx.activation_weights(&probs);
            for (id, e) in ctx.ctg().edges() {
                let (src, dst) = (e.src(), e.dst());
                if act.always_active(src) && act.always_active(dst) {
                    assert_eq!(weights.edge(id).to_bits(), 1.0f64.to_bits(), "{name}");
                    ones += 1;
                }
                if ctx.mutually_exclusive(src, dst) {
                    assert_eq!(weights.edge(id), 0.0, "{name}");
                    zeros += 1;
                }
            }
        }
    }
    assert!(ones > 0, "some graph has an unconditional edge");
    assert!(zeros > 0, "the dead join has exclusive edges");
}
