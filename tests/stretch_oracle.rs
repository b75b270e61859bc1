//! Independent oracle for the stretching heuristic (paper Fig. 2).
//!
//! `stretch_schedule` and `stretch_schedule_seeded` find each minterm
//! group's critical path with one max-delay reduction per (task, group)
//! run. This file re-implements the cached-ratio sweep they replaced from
//! the public `ScheduledGraph` / `SPath` API alone:
//!
//! * a task's spanning paths are grouped by `SPath::cond`, groups in
//!   first-occurrence order over the ascending spanning list;
//! * every path carries a cached `(deadline - delay) / delay` ratio,
//!   refreshed whenever a grant changes its delay;
//! * the critical path is the last of equal minima of a forward `<=` scan
//!   over those ratios, weighted by `SPath::prob_after`;
//! * the deadline cap is a separate pass over the spanning list.
//!
//! The speeds must match bit for bit on MPEG, WLAN, cruise and both TGFF
//! families under seeded drift tables, for `single_pass`, default and
//! `exhaustive` sweeps, cold and seeded. Two extra cases stress the
//! shortcut's corners: a uniform single-PE platform where many paths share
//! a delay (ratio ties), and a seed at `min_speed` on a tight deadline, so
//! seeded delays pass twice the deadline. `SolverWorkspace::solve` is
//! checked against the oracle too: it stretches pooled graphs re-weighted
//! per table, and enumerates paths on `CTG_INTRA_SOLVE` workers when that
//! is set.

use adaptive_dvfs::ctg::{BranchProbs, Ctg, CtgBuilder, NodeKind, TaskId};
use adaptive_dvfs::platform::{Platform, PlatformBuilder};
use adaptive_dvfs::rng::Rng64;
use adaptive_dvfs::sched::{
    dls_schedule, stretch_schedule, stretch_schedule_seeded, SchedContext, Schedule,
    ScheduledGraph, SolverWorkspace, SpeedAssignment, StretchConfig,
};
use adaptive_dvfs::tgff::{Category, TgffConfig};
use adaptive_dvfs::workloads::{cruise, mpeg, wlan};

/// Seeded drift tables drawn per graph.
const TABLES: usize = 3;

/// Group probabilities within this of 0 or 1 count as impossible or
/// certain; `prob(p, τ)` within it of 1 counts as decided.
const PROB_ONE_EPS: f64 = 1e-9;

/// The cached-ratio sweep: the stretcher as it ran before the max-delay
/// scans, written against the public graph API.
fn oracle_stretch(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
    seed: Option<&SpeedAssignment>,
) -> SpeedAssignment {
    let graph = ScheduledGraph::build(ctx, schedule, probs, cfg.path_cap)
        .expect("oracle cases fit the path cap");
    let paths = graph.paths();
    let deadline = ctx.ctg().deadline();
    let profile = ctx.platform().profile();
    let n = ctx.ctg().num_tasks();
    let wcet_of = |t: TaskId| profile.wcet(t.index(), schedule.pe_of(t));
    let scenario_probs = ctx.scenario_probs(probs);
    let task_probs: Vec<f64> = ctx
        .ctg()
        .tasks()
        .map(|t| ctx.mask_prob(ctx.task_mask(t), &scenario_probs))
        .collect();

    // Per task: its spanning paths bucketed by condition, buckets in
    // first-occurrence order, members ascending.
    let groups: Vec<Vec<Vec<usize>>> = ctx
        .ctg()
        .tasks()
        .map(|t| {
            let mut buckets: Vec<Vec<usize>> = Vec::new();
            for &idx in graph.spanning(t) {
                match buckets
                    .iter_mut()
                    .find(|b| paths[b[0]].cond == paths[idx].cond)
                {
                    Some(b) => b.push(idx),
                    None => buckets.push(vec![idx]),
                }
            }
            buckets
        })
        .collect();

    let path_ratio = |delay: f64| {
        if delay <= 0.0 {
            0.0
        } else {
            (deadline - delay) / delay
        }
    };
    let mut extra = vec![0.0; n];
    let mut delays: Vec<f64> = paths.iter().map(|p| p.delay).collect();
    if let Some(seed) = seed {
        for t in ctx.ctg().tasks() {
            let s = seed.speed(t);
            if s < 1.0 {
                let e = wcet_of(t) * (1.0 / s - 1.0);
                extra[t.index()] = e;
                for &idx in graph.spanning(t) {
                    delays[idx] += e;
                }
            }
        }
    }
    let mut ratios: Vec<f64> = delays.iter().map(|&d| path_ratio(d)).collect();

    for _sweep in 0..cfg.sweeps {
        let mut granted_total = 0.0;
        for &t in schedule.task_order() {
            let wcet = wcet_of(t);
            let task_prob = task_probs[t.index()];
            if wcet <= 0.0 || graph.spanning(t).is_empty() || task_prob <= 0.0 {
                continue;
            }
            let (mut slk1, mut any1) = (0.0, false);
            let (mut slk2, mut any2) = (f64::INFINITY, false);
            for group in &groups[t.index()] {
                let group_prob = paths[group[0]].prob;
                if group_prob <= PROB_ONE_EPS {
                    continue;
                }
                if group_prob + PROB_ONE_EPS >= 1.0 {
                    let mut worst_ratio = ratios[group[0]];
                    for &idx in &group[1..] {
                        if ratios[idx] <= worst_ratio {
                            worst_ratio = ratios[idx];
                        }
                    }
                    slk2 = f64::min(slk2, wcet * worst_ratio * task_prob);
                    any2 = true;
                } else {
                    let pa: Vec<f64> = group
                        .iter()
                        .map(|&idx| paths[idx].prob_after(t, probs))
                        .collect();
                    let undecided = |slot: usize| pa[slot] < 1.0 - PROB_ONE_EPS;
                    let any_undecided = (0..group.len()).any(undecided);
                    let mut worst = usize::MAX;
                    let mut worst_ratio = f64::INFINITY;
                    for (slot, &idx) in group.iter().enumerate() {
                        if any_undecided && !undecided(slot) {
                            continue;
                        }
                        if worst == usize::MAX || ratios[idx] <= worst_ratio {
                            worst_ratio = ratios[idx];
                            worst = slot;
                        }
                    }
                    slk1 += pa[worst] * wcet * worst_ratio * task_prob;
                    any1 = true;
                }
            }
            let slack = match (any1, any2) {
                (true, true) => f64::min(slk1, slk2),
                (true, false) => slk1,
                (false, true) => slk2,
                (false, false) => 0.0,
            };
            let cap = graph
                .spanning(t)
                .iter()
                .map(|&idx| deadline - delays[idx])
                .fold(f64::INFINITY, f64::min);
            let max_total = wcet * (1.0 / cfg.min_speed - 1.0);
            let slack = slack.min(cap).min(max_total - extra[t.index()]).max(0.0);
            if slack <= 1e-12 {
                continue;
            }
            extra[t.index()] += slack;
            granted_total += slack;
            for &idx in graph.spanning(t) {
                delays[idx] += slack;
                ratios[idx] = path_ratio(delays[idx]);
            }
        }
        if granted_total <= 1e-9 * deadline {
            break;
        }
    }

    let mut speeds = SpeedAssignment::nominal(n);
    for t in ctx.ctg().tasks() {
        if extra[t.index()] > 0.0 {
            let wcet = wcet_of(t);
            speeds.set(t, wcet / (wcet + extra[t.index()]));
        }
    }
    speeds
}

fn configs() -> [(&'static str, StretchConfig); 3] {
    [
        ("single_pass", StretchConfig::single_pass()),
        ("default", StretchConfig::default()),
        ("exhaustive", StretchConfig::exhaustive()),
    ]
}

fn assert_bits_equal(got: &SpeedAssignment, want: &SpeedAssignment, label: &str) {
    assert_eq!(got.speeds().len(), want.speeds().len(), "{label}");
    for (t, (g, w)) in got.speeds().iter().zip(want.speeds()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: task {t} speed {g} != oracle {w}"
        );
    }
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

/// A TGFF graph with its deadline at `factor` × the DLS makespan.
fn tgff(
    seed: u64,
    tasks: usize,
    forks: usize,
    cat: Category,
    pes: usize,
    factor: f64,
) -> SchedContext {
    let cfg = TgffConfig::new(seed, tasks, forks, cat);
    let generated = cfg.generate();
    let platform = cfg.generate_platform(&generated.ctg, pes);
    with_deadline(generated.ctg, platform, &generated.probs, factor)
}

/// A TGFF graph on one PE with every WCET 1.0: communication is free on a
/// single PE, so path delays are task counts and many paths tie.
fn tgff_uniform(seed: u64, tasks: usize, forks: usize, cat: Category) -> SchedContext {
    let generated = TgffConfig::new(seed, tasks, forks, cat).generate();
    let n = generated.ctg.num_tasks();
    let mut pb = PlatformBuilder::new(n);
    pb.add_pe("p0");
    for t in 0..n {
        pb.set_wcet_row(t, vec![1.0]).unwrap();
        pb.set_energy_row(t, vec![1.0]).unwrap();
    }
    pb.uniform_links(1.0, 0.0).unwrap();
    with_deadline(generated.ctg, pb.build().unwrap(), &generated.probs, 2.0)
}

/// Two paths of one minterm group with equal delays but different
/// `prob(p, τ)` at `a`: `s a F x z E e0 t` passes the fork `F` after `a`,
/// `s a w z E e0 t` reaches the and-node `z` (active only under `F = 0`)
/// around it. Dyadic WCETs and free communication keep the delays equal
/// bit for bit, so which tied path is critical decides `a`'s slack.
fn tied_group() -> SchedContext {
    let mut b = CtgBuilder::new("tied");
    let s = b.add_task("s");
    let a = b.add_task("a");
    let f = b.add_task("F");
    let x = b.add_task("x");
    let y = b.add_task("y");
    let w = b.add_task("w");
    let z = b.add_task("z");
    let e = b.add_task("E");
    let e0 = b.add_task("e0");
    let e1 = b.add_task("e1");
    let t = b.add_task_with_kind("t", NodeKind::Or);
    for (src, dst) in [(s, a), (a, f), (a, w), (w, z), (x, z), (z, e)] {
        b.add_edge(src, dst, 0.0).unwrap();
    }
    for (src, dst) in [(e0, t), (e1, t), (y, t)] {
        b.add_edge(src, dst, 0.0).unwrap();
    }
    b.add_cond_edge(f, x, 0, 0.0).unwrap();
    b.add_cond_edge(f, y, 1, 0.0).unwrap();
    b.add_cond_edge(e, e0, 0, 0.0).unwrap();
    b.add_cond_edge(e, e1, 1, 0.0).unwrap();
    let ctg = b.deadline(1.0).build().unwrap();
    let wcet = |t: TaskId| if t == f || t == x { 0.5 } else { 1.0 };
    let mut pb = PlatformBuilder::new(ctg.num_tasks());
    pb.add_pe("p0");
    pb.add_pe("p1");
    for task in ctg.tasks() {
        let w = wcet(task);
        pb.set_wcet_row(task.index(), vec![w, w]).unwrap();
        pb.set_energy_row(task.index(), vec![w, 2.0 * w]).unwrap();
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
        ("tgff-forkjoin", tgff(31, 24, 3, Category::ForkJoin, 3, 2.0)),
        ("tgff-layered", tgff(42, 26, 3, Category::Layered, 2, 2.0)),
        (
            "tgff-layered-50",
            tgff(5002, 50, 5, Category::Layered, 4, 2.0),
        ),
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

/// Checks one graph cold under every table and config, then seeded with
/// the previous table's speeds (a warm drift re-solve).
fn check_graph(name: &str, ctx: &SchedContext, table_seed: u64) {
    for (cfg_name, cfg) in configs() {
        let mut previous: Option<SpeedAssignment> = None;
        for (k, probs) in drift_tables(ctx.ctg(), table_seed).iter().enumerate() {
            let schedule = dls_schedule(ctx, probs).unwrap();
            let label = format!("{name}/{cfg_name}/table {k}");
            let cold = stretch_schedule(ctx, probs, &schedule, &cfg).unwrap();
            let want = oracle_stretch(ctx, probs, &schedule, &cfg, None);
            assert_bits_equal(&cold, &want, &format!("{label}/cold"));
            if let Some(seed) = &previous {
                let warm = stretch_schedule_seeded(ctx, probs, &schedule, &cfg, seed).unwrap();
                let want = oracle_stretch(ctx, probs, &schedule, &cfg, Some(seed));
                assert_bits_equal(&warm, &want, &format!("{label}/seeded"));
            }
            previous = Some(cold);
        }
    }
}

#[test]
fn stretch_matches_cached_ratio_oracle() {
    for (i, (name, ctx)) in graphs().iter().enumerate() {
        check_graph(name, ctx, 0x0dac_1e00 + i as u64);
    }
}

#[test]
fn stretch_matches_oracle_under_delay_ties() {
    let cases = [
        (
            "uniform-forkjoin",
            tgff_uniform(31, 24, 3, Category::ForkJoin),
        ),
        (
            "uniform-layered",
            tgff_uniform(42, 26, 3, Category::Layered),
        ),
    ];
    check_graph("tied-group", &tied_group(), 0x71e5_0100);
    for (i, (name, ctx)) in cases.iter().enumerate() {
        // The case is only worth running if delays really tie.
        let probs = BranchProbs::uniform(ctx.ctg());
        let schedule = dls_schedule(ctx, &probs).unwrap();
        let graph = ScheduledGraph::build(ctx, &schedule, &probs, 100_000).unwrap();
        let mut delays: Vec<u64> = graph.paths().iter().map(|p| p.delay.to_bits()).collect();
        let total = delays.len();
        delays.sort_unstable();
        delays.dedup();
        assert!(
            delays.len() * 4 <= total,
            "{name}: {total} paths over {} delays are not tie-heavy",
            delays.len()
        );
        check_graph(name, ctx, 0x71e5_0000 + i as u64);
    }
}

#[test]
fn stretch_matches_oracle_past_twice_the_deadline() {
    // A seed at the speed floor on a deadline equal to the makespan puts
    // seeded delays far beyond twice the deadline, outside the domain where
    // the largest delay decides the smallest ratio.
    let mpeg_ctg = mpeg::mpeg_ctg();
    let mpeg_platform = mpeg::mpeg_platform(&mpeg_ctg);
    let mpeg_probs = BranchProbs::uniform(&mpeg_ctg);
    let cases = [
        (
            "mpeg",
            with_deadline(mpeg_ctg, mpeg_platform, &mpeg_probs, 1.0),
        ),
        ("tgff-layered", tgff(42, 26, 3, Category::Layered, 2, 1.0)),
    ];
    for (name, ctx) in &cases {
        let deadline = ctx.ctg().deadline();
        for (k, probs) in drift_tables(ctx.ctg(), 0x51_0e00).iter().enumerate() {
            let schedule = dls_schedule(ctx, probs).unwrap();
            for (cfg_name, cfg) in configs() {
                let label = format!("{name}/{cfg_name}/table {k}/slow seed");
                let seed = SpeedAssignment::new(vec![cfg.min_speed; ctx.ctg().num_tasks()]);
                let graph = ScheduledGraph::build(ctx, &schedule, probs, cfg.path_cap).unwrap();
                let slowest = graph
                    .paths()
                    .iter()
                    .map(|p| p.stretched_delay(ctx, &schedule, &seed))
                    .fold(0.0, f64::max);
                assert!(
                    slowest > 2.0 * deadline,
                    "{label}: {slowest} <= 2 × {deadline}"
                );
                let got = stretch_schedule_seeded(ctx, probs, &schedule, &cfg, &seed).unwrap();
                let want = oracle_stretch(ctx, probs, &schedule, &cfg, Some(&seed));
                assert_bits_equal(&got, &want, &label);
            }
        }
    }
}

#[test]
fn workspace_solve_matches_oracle() {
    for (i, (name, ctx)) in graphs().iter().enumerate() {
        let tables = drift_tables(ctx.ctg(), 0x0dac_2e00 + i as u64);
        for (cfg_name, cfg) in configs() {
            let mut ws = SolverWorkspace::new();
            // Every table twice: the second pass stretches on pooled graphs
            // re-weighted to the table instead of freshly built ones.
            for (k, probs) in tables.iter().chain(&tables).enumerate() {
                let sol = ws.solve(&cfg, ctx, probs).unwrap();
                let want = oracle_stretch(ctx, probs, &sol.schedule, &cfg, None);
                assert_bits_equal(
                    &sol.speeds,
                    &want,
                    &format!(
                        "{name}/{cfg_name}/solve {k} ({} intra workers)",
                        ws.intra_workers()
                    ),
                );
            }
            assert!(
                ws.stats().graph_reuses > 0,
                "{name}/{cfg_name}: no pooled graph reused"
            );
        }
    }
}
