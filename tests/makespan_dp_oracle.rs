//! Oracle for the exact worst-case makespan DP
//! (`Solution::worst_case_makespan`).
//!
//! The DP runs every scenario side by side inside its task loop, reading
//! each in-edge's active scenarios off the task and guard masks. This file
//! keeps the scenario-at-a-time DP it replaced, rebuilt from the public API
//! alone: the un-reduced constraint edges (CTG edges with communication
//! delays and guards, implied or-node waits, same-PE serialization among
//! non-exclusive pairs), then one longest-path pass per scenario over
//! `Scenario::active_tasks` with guards checked by `Cube::alt_of`.
//!
//! The two must agree bit for bit for the plans of every `SchedulerKind`
//! on MPEG, WLAN, cruise, both TGFF families and a small graph whose
//! worst case depends on a branch guard, under seeded tables, at
//! the plan's own speeds, at nominal speed, at `min_speed` everywhere, and
//! at seeded random speeds.

use adaptive_dvfs::ctg::{BranchProbs, Ctg, CtgBuilder, Literal, NodeKind, TaskId};
use adaptive_dvfs::platform::{Platform, PlatformBuilder};
use adaptive_dvfs::rng::Rng64;
use adaptive_dvfs::sched::{
    dls_schedule, SchedContext, Schedule, SchedulerKind, Solution, SpeedAssignment, StretchConfig,
};
use adaptive_dvfs::tgff::{Category, TgffConfig};
use adaptive_dvfs::workloads::{cruise, mpeg, wlan};

/// Seeded tables drawn per graph.
const TABLES: usize = 3;

/// Seeded random speed vectors per plan.
const RANDOM_SPEEDS: usize = 2;

/// One constraint edge of the scheduled graph: `(src, dst, delay, guard)`.
type Edge = (TaskId, TaskId, f64, Option<Literal>);

/// The un-reduced constraint edge set, in the order the scheduled graph
/// collects it: CTG edges, then implied or-node waits, then same-PE
/// serialization pairs, each (src, dst) pair at most once.
fn constraint_edges(ctx: &SchedContext, schedule: &Schedule) -> Vec<Edge> {
    let ctg = ctx.ctg();
    let comm = ctx.platform().comm();
    let n = ctg.num_tasks();
    let mut present = vec![false; n * n];
    let mut edges: Vec<Edge> = Vec::new();
    for (_, e) in ctg.edges() {
        let delay = comm.delay(
            schedule.pe_of(e.src()),
            schedule.pe_of(e.dst()),
            e.comm_kbytes(),
        );
        let guard = e.condition().map(|alt| Literal::new(e.src(), alt));
        edges.push((e.src(), e.dst(), delay, guard));
        present[e.src().index() * n + e.dst().index()] = true;
    }
    for &(fork, or_node) in ctx.activation().implied_or_deps() {
        let slot = &mut present[fork.index() * n + or_node.index()];
        if !*slot {
            *slot = true;
            edges.push((fork, or_node, 0.0, None));
        }
    }
    for pe in ctx.platform().pes() {
        let order = schedule.pe_order(pe);
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                let (a, b) = (order[i], order[j]);
                if ctx.mutually_exclusive(a, b) {
                    continue;
                }
                let slot = &mut present[a.index() * n + b.index()];
                if !*slot {
                    *slot = true;
                    edges.push((a, b, 0.0, None));
                }
            }
        }
    }
    edges
}

/// The per-scenario DP, as it ran before the mask-based rewrite.
fn oracle_dp(ctx: &SchedContext, schedule: &Schedule, speeds: &SpeedAssignment) -> f64 {
    let n = ctx.ctg().num_tasks();
    let edges = constraint_edges(ctx, schedule);
    let mut radj: Vec<Vec<(usize, f64, Option<Literal>)>> = vec![Vec::new(); n];
    for &(src, dst, delay, guard) in &edges {
        radj[dst.index()].push((src.index(), delay, guard));
    }
    let profile = ctx.platform().profile();
    let exec: Vec<f64> = (0..n)
        .map(|t| {
            let t = TaskId::new(t);
            profile.wcet(t.index(), schedule.pe_of(t)) / speeds.speed(t)
        })
        .collect();
    let mut topo: Vec<usize> = (0..n).collect();
    topo.sort_by(|&a, &b| {
        schedule
            .start(TaskId::new(a))
            .partial_cmp(&schedule.start(TaskId::new(b)))
            .expect("start times are finite")
            .then(a.cmp(&b))
    });
    let mut fin = vec![0.0_f64; n];
    let mut worst: f64 = 0.0;
    for s in ctx.scenarios().scenarios() {
        let active = s.active_tasks();
        for &t in &topo {
            if !active[t] {
                continue;
            }
            let mut start: f64 = 0.0;
            for &(src, delay, guard) in &radj[t] {
                if !active[src] {
                    continue;
                }
                if let Some(lit) = guard {
                    if s.cube().alt_of(lit.branch()) != Some(lit.alt()) {
                        continue;
                    }
                }
                start = start.max(fin[src] + delay);
            }
            fin[t] = start + exec[t];
            worst = worst.max(fin[t]);
        }
    }
    worst
}

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

/// A guard that matters: fork `F` (pinned to PE 0) reaches the or-node `d`
/// (pinned to PE 1) directly under alternative 0 over a slow 40 kB link,
/// and through `y` under alternative 1. Under alternative 1 both `F` and
/// `d` run but the guarded edge does not, and `w` (after `y` and `d`,
/// alternative 1 only) would inherit the 40-unit link delay if the guard
/// were ignored — raising the worst case above the alternative-0 path.
fn guarded_join() -> SchedContext {
    let mut b = CtgBuilder::new("guarded-join");
    let f = b.add_task("F");
    let y = b.add_task("y");
    let d = b.add_task_with_kind("d", NodeKind::Or);
    let w = b.add_task("w");
    b.add_cond_edge(f, d, 0, 40.0).unwrap();
    b.add_cond_edge(f, y, 1, 0.0).unwrap();
    b.add_edge(y, d, 0.0).unwrap();
    b.add_edge(y, w, 0.0).unwrap();
    b.add_edge(d, w, 0.0).unwrap();
    let ctg = b.deadline(1.0).build().unwrap();
    let mut pb = PlatformBuilder::new(ctg.num_tasks());
    pb.add_pe("p0");
    pb.add_pe("p1");
    let rows = [
        (f, [1.0, f64::INFINITY]),
        (y, [1.0, 1.0]),
        (d, [f64::INFINITY, 1.0]),
        (w, [8.0, 8.0]),
    ];
    for (t, row) in rows {
        pb.set_wcet_row(t.index(), row.to_vec()).unwrap();
        pb.set_energy_row(t.index(), vec![1.0, 1.0]).unwrap();
    }
    pb.uniform_links(1.0, 0.0).unwrap();
    let probs = BranchProbs::uniform(&ctg);
    with_deadline(ctg, pb.build().unwrap(), &probs, 2.0)
}

fn graphs() -> Vec<(&'static str, SchedContext)> {
    let mpeg_ctg = mpeg::mpeg_ctg();
    let mpeg_platform = mpeg::mpeg_platform(&mpeg_ctg);
    let mpeg_probs = BranchProbs::uniform(&mpeg_ctg);
    let wlan_ctg = wlan::wlan_ctg();
    let wlan_platform = wlan::wlan_platform(&wlan_ctg);
    let wlan_probs = BranchProbs::uniform(&wlan_ctg);
    let cruise_ctg = cruise::cruise_ctg();
    let cruise_platform = cruise::cruise_platform(&cruise_ctg);
    let cruise_probs = BranchProbs::uniform(&cruise_ctg);
    vec![
        (
            "mpeg",
            with_deadline(mpeg_ctg, mpeg_platform, &mpeg_probs, 2.0),
        ),
        (
            "wlan",
            with_deadline(wlan_ctg, wlan_platform, &wlan_probs, 2.0),
        ),
        (
            "cruise",
            with_deadline(cruise_ctg, cruise_platform, &cruise_probs, 2.0),
        ),
        ("tgff-forkjoin", tgff(31, 24, 3, Category::ForkJoin, 3)),
        ("tgff-layered", tgff(42, 26, 3, Category::Layered, 2)),
        ("tgff-layered-50", tgff(5002, 50, 5, Category::Layered, 4)),
        ("guarded-join", guarded_join()),
    ]
}

/// Seeded tables: every fork's distribution drawn fresh, each alternative
/// kept at 0.02 or more.
fn tables(ctg: &Ctg, rng: &mut Rng64) -> Vec<BranchProbs> {
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

fn check(ctx: &SchedContext, schedule: &Schedule, speeds: SpeedAssignment, label: &str) {
    let want = oracle_dp(ctx, schedule, &speeds);
    let got = Solution {
        schedule: schedule.clone(),
        speeds,
    }
    .worst_case_makespan(ctx);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{label}: worst-case makespan {got} != per-scenario oracle {want}"
    );
}

#[test]
fn makespan_dp_matches_per_scenario_oracle() {
    let min_speed = StretchConfig::default().min_speed;
    let mut rng = Rng64::seed_from_u64(0x6d61_736b);
    let mut checked = 0usize;
    for (name, ctx) in graphs() {
        let n = ctx.ctg().num_tasks();
        for (k, probs) in tables(ctx.ctg(), &mut rng).iter().enumerate() {
            for kind in SchedulerKind::ALL {
                let label = format!("{name}/table {k}/{kind}");
                let sol = match kind.solve(&ctx, probs) {
                    Ok(sol) => sol,
                    Err(e) => panic!("{label}: solve failed: {e:?}"),
                };
                check(&ctx, &sol.schedule, sol.speeds.clone(), &label);
                check(
                    &ctx,
                    &sol.schedule,
                    SpeedAssignment::nominal(n),
                    &format!("{label}/nominal"),
                );
                check(
                    &ctx,
                    &sol.schedule,
                    SpeedAssignment::new(vec![min_speed; n]),
                    &format!("{label}/min_speed"),
                );
                for r in 0..RANDOM_SPEEDS {
                    let speeds = (0..n)
                        .map(|_| min_speed + (1.0 - min_speed) * rng.next_f64())
                        .collect();
                    check(
                        &ctx,
                        &sol.schedule,
                        SpeedAssignment::new(speeds),
                        &format!("{label}/random {r}"),
                    );
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 7 * TABLES * SchedulerKind::ALL.len());
}
