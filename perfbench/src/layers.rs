//! Metric definitions and the per-layer numbers of a traced round.

use crate::report::Metric;
use crate::spans::Trace;
use crate::stats::{median, percentile, ratio};
use crate::workload::{Inputs, RoundOut};
use ctg_sched::{
    validate_solution, OnlineScheduler, ScheduledGraph, SchedulerKind, SolverWorkspace,
    DEFAULT_PATH_CAP,
};
use std::collections::HashSet;

/// `(name, unit, better)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("instances_per_s", "inst/s", "higher"),
    ("decision_us_p50", "us", "lower"),
    ("decision_us_p99", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_bytes", "bytes", "lower"),
    ("energy_ratio", "ratio", "lower"),
    ("ok_fraction", "ratio", "higher"),
];

/// `(name, unit, better)` of every per-layer metric, in output order.
pub const PER_LAYER: [(&str, &str, &str); 35] = [
    ("workloads.profile_us", "us", "lower"),
    ("core.context.compile_us", "us", "lower"),
    ("core.context.scenarios", "count", "lower"),
    ("core.adaptive.quiet_us_p50", "us", "lower"),
    ("core.adaptive.decisions", "count", "lower"),
    ("core.adaptive.drift_rate", "ratio", "lower"),
    ("core.workspace.solve_us_p50", "us", "lower"),
    ("core.workspace.solve_us_p99", "us", "lower"),
    ("core.workspace.work_units", "count", "lower"),
    ("core.workspace.near_hit_ratio", "ratio", "higher"),
    ("core.workspace.graph_reuse_ratio", "ratio", "higher"),
    ("core.workspace.levels_recomputed", "count", "lower"),
    ("core.dls.busy_us", "us", "lower"),
    ("core.dls.calls", "count", "lower"),
    ("core.sgraph.busy_us", "us", "lower"),
    ("core.sgraph.builds", "count", "lower"),
    ("core.sgraph.paths_mean", "count", "lower"),
    ("core.stretch.busy_us", "us", "lower"),
    ("core.stretch.calls", "count", "lower"),
    ("core.scheduler.race_us_p50", "us", "lower"),
    ("core.scheduler.race_us_p99", "us", "lower"),
    ("core.scheduler.races", "count", "lower"),
    ("core.scheduler.wins.dls", "count", "higher"),
    ("core.scheduler.wins.heft", "count", "higher"),
    ("core.scheduler.wins.lookahead", "count", "higher"),
    ("core.scheduler.useful_ratio", "ratio", "higher"),
    ("sim.instance.us_per_call", "us", "lower"),
    ("sim.instance.allocs_per_call", "count", "lower"),
    ("sim.serve.self_us_per_instance", "us", "lower"),
    ("sim.serve.events", "count", "lower"),
    ("sim.serve.drift_events", "count", "lower"),
    ("sim.serve.solver_calls", "count", "lower"),
    ("sim.serve.shared_hit_ratio", "ratio", "higher"),
    ("sim.serve.allocs_per_instance", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
];

/// Builds the output list for `table` from `(name, value)` pairs, in
/// table order.
///
/// # Panics
///
/// If a table name has no value, or a value has no table entry.
pub fn in_table_order(
    table: &[(&'static str, &'static str, &str)],
    values: &[(&str, f64)],
) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .map(|&(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no value for {name}"))
                .1;
            Metric::new(name, unit, value)
        })
        .collect()
}

/// Deterministic work counts replayed from a round's adopted plans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replay {
    /// Work units of a DLS solve of every adopted table.
    pub work_units: u64,
    /// Scheduled-graph path count of every adopted plan.
    pub paths: Vec<usize>,
}

/// Checks the adopted plans a round kept with `validate_solution`.
///
/// # Errors
///
/// The first invalid plan, by workload, device and instance.
pub fn validate(inputs: &Inputs, round: &RoundOut) -> Result<(), String> {
    for a in &round.adoptions {
        let ctx = &inputs.contexts[inputs.devices[a.device].ctx];
        validate_solution(ctx, &a.solution.schedule, &a.solution.speeds).map_err(|e| {
            format!(
                "{}: device {} instance {}: adopted plan invalid: {e}",
                inputs.workload.name(),
                a.device,
                a.instance
            )
        })?;
    }
    Ok(())
}

/// Validates every adopted plan and replays its table through a
/// benchmark-owned workspace per context.
///
/// # Errors
///
/// The first plan that fails `validate_solution`, by device and instance.
pub fn replay(inputs: &Inputs, round: &RoundOut) -> Result<Replay, String> {
    validate(inputs, round)?;
    let cfg = OnlineScheduler::new().config().clone();
    let mut workspaces: Vec<SolverWorkspace> = inputs
        .contexts
        .iter()
        .map(|_| {
            let mut ws = SolverWorkspace::new();
            ws.set_intra_workers(1);
            ws
        })
        .collect();
    let mut out = Replay::default();
    for a in &round.adoptions {
        let ctx_idx = inputs.devices[a.device].ctx;
        let ctx = &inputs.contexts[ctx_idx];
        let ws = &mut workspaces[ctx_idx];
        ws.solve(&cfg, ctx, &a.probs)
            .map_err(|e| format!("replay solve: {e}"))?;
        out.work_units += ws.last_solve_cost().unwrap_or(0);
        out.paths.push(
            ScheduledGraph::build(ctx, &a.solution.schedule, &a.probs, DEFAULT_PATH_CAP)
                .map_or(0, |g| g.paths().len()),
        );
    }
    Ok(out)
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// Everything the per-layer metrics are derived from.
pub struct LayerRun<'a> {
    /// The workload's inputs (set-up timings, contexts).
    pub inputs: &'a Inputs,
    /// The traced round's output.
    pub traced: &'a RoundOut,
    /// The traced round's folded spans.
    pub trace: &'a Trace,
    /// Replayed work counts of the traced round.
    pub replay: &'a Replay,
    /// Host seconds of the traced round.
    pub traced_wall_s: f64,
    /// Median host seconds of an untraced round.
    pub untraced_wall_s: f64,
}

impl LayerRun<'_> {
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.trace
            .named(name)
            .map(|i| self.trace.spans[i].dur() as f64 / 1e3)
            .collect()
    }

    fn busy_us(&self, name: &str) -> f64 {
        self.trace
            .named(name)
            .map(|i| self.trace.self_ns(i) as f64 / 1e3)
            .sum()
    }

    fn count(&self, name: &str) -> f64 {
        self.trace.named(name).count() as f64
    }

    /// The per-layer metrics, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let t = self.traced;
        let trace = self.trace;
        let adopted: HashSet<(usize, usize)> =
            t.adoptions.iter().map(|a| (a.device, a.instance)).collect();
        let quiet_us: Vec<f64> = trace
            .named("core.adaptive")
            .filter(|&i| {
                let req = trace.spans[i].req;
                !adopted.contains(&((req >> 32) as usize, (req & 0xFFFF_FFFF) as usize))
            })
            .map(|i| trace.spans[i].dur() as f64 / 1e3)
            .collect();
        let sim: Vec<usize> = trace.named("sim.instance").collect();
        let sim_us: Vec<f64> = sim.iter().map(|&i| trace.self_ns(i) as f64 / 1e3).collect();
        let sim_allocs: Vec<f64> = sim.iter().map(|&i| trace.spans[i].allocs as f64).collect();
        let serve = t.serve.unwrap_or_default();
        let serve_self_us = self.busy_us("sim.serve") + self.busy_us("dequeue");
        let serve_allocs: f64 = trace
            .named("sim.serve")
            .map(|i| trace.spans[i].allocs as f64)
            .sum();
        let ws = &t.workspace;
        let wins = |k: SchedulerKind| t.portfolio.wins[k.index()] as f64;
        let solve_us = self.durations_us("solve");
        let race_us = self.durations_us("portfolio_race");
        let paths: Vec<f64> = self.replay.paths.iter().map(|&p| p as f64).collect();
        let values = [
            ("workloads.profile_us", mean(&self.inputs.profile_us)),
            ("core.context.compile_us", mean(&self.inputs.compile_us)),
            (
                "core.context.scenarios",
                self.inputs
                    .contexts
                    .iter()
                    .map(|c| c.scenarios().len() as f64)
                    .sum(),
            ),
            ("core.adaptive.quiet_us_p50", median(&quiet_us)),
            ("core.adaptive.decisions", t.decisions as f64),
            (
                "core.adaptive.drift_rate",
                ratio(t.decisions as f64, t.device_instances as f64),
            ),
            ("core.workspace.solve_us_p50", percentile(&solve_us, 0.5)),
            ("core.workspace.solve_us_p99", percentile(&solve_us, 0.99)),
            ("core.workspace.work_units", self.replay.work_units as f64),
            (
                "core.workspace.near_hit_ratio",
                ratio(ws.near_hits as f64, ws.solves as f64),
            ),
            (
                "core.workspace.graph_reuse_ratio",
                ratio(
                    ws.graph_reuses as f64,
                    (ws.graph_reuses + ws.graph_rebuilds) as f64,
                ),
            ),
            (
                "core.workspace.levels_recomputed",
                ws.levels_recomputed as f64,
            ),
            ("core.dls.busy_us", self.busy_us("dls_map")),
            ("core.dls.calls", self.count("dls_map")),
            ("core.sgraph.busy_us", self.busy_us("path_enum")),
            ("core.sgraph.builds", self.count("path_enum")),
            ("core.sgraph.paths_mean", mean(&paths)),
            ("core.stretch.busy_us", self.busy_us("stretch")),
            ("core.stretch.calls", self.count("stretch")),
            ("core.scheduler.race_us_p50", percentile(&race_us, 0.5)),
            ("core.scheduler.race_us_p99", percentile(&race_us, 0.99)),
            ("core.scheduler.races", t.portfolio.races as f64),
            ("core.scheduler.wins.dls", wins(SchedulerKind::Dls)),
            ("core.scheduler.wins.heft", wins(SchedulerKind::Heft)),
            (
                "core.scheduler.wins.lookahead",
                wins(SchedulerKind::Lookahead),
            ),
            (
                "core.scheduler.useful_ratio",
                ratio(
                    t.portfolio.wins.iter().sum::<usize>() as f64 - wins(SchedulerKind::Dls),
                    t.portfolio.races as f64,
                ),
            ),
            ("sim.instance.us_per_call", mean(&sim_us)),
            ("sim.instance.allocs_per_call", mean(&sim_allocs)),
            (
                "sim.serve.self_us_per_instance",
                ratio(serve_self_us, serve.instances as f64),
            ),
            ("sim.serve.events", serve.events as f64),
            ("sim.serve.drift_events", serve.drift_events as f64),
            ("sim.serve.solver_calls", serve.solver_calls as f64),
            (
                "sim.serve.shared_hit_ratio",
                ratio(serve.shared_hit_requests as f64, serve.requests as f64),
            ),
            (
                "sim.serve.allocs_per_instance",
                ratio(serve_allocs, serve.instances as f64),
            ),
            (
                "obs.trace_overhead_ratio",
                ratio(self.traced_wall_s, self.untraced_wall_s),
            ),
        ];
        in_table_order(&PER_LAYER, &values)
    }
}
