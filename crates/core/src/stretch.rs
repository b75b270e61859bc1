//! The online task-stretching heuristic (paper §III.A, Figure 2).
//!
//! After DLS fixes mapping and order, each task is stretched once, in
//! scheduling order:
//!
//! 1. enumerate all paths of the scheduled graph (depth-first) with delay
//!    and per-path condition;
//! 2. for each task `τ`, `CalculateSlack(τ)` finds, per minterm group of the
//!    paths spanning `τ`, the critical path with the lowest distributable
//!    slack ratio `slk(p)/delay(p)`; the slack granted to `τ` is a
//!    probability-weighted combination, additionally weighted by the
//!    activation probability `prob(τ)` — *tasks that are more likely to run
//!    receive more slack*;
//! 3. the task is stretched by its slack, its speed locked, and the delay and
//!    slack of every path spanning it updated before the next task is
//!    processed.
//!
//! The per-task slack is finally capped so that every spanning path still
//! meets the deadline, which keeps the worst case schedulable.

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::sgraph::{ScheduledGraph, DEFAULT_PATH_CAP};
use crate::speed::SpeedAssignment;
use ctg_model::{BranchProbs, Literal, TaskId};

/// Tuning knobs for the stretching heuristic.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchConfig {
    /// Lower bound on assigned speed ratios (guards against degenerate
    /// stretching when a path has huge slack).
    pub min_speed: f64,
    /// Maximum number of scheduled-graph paths to enumerate before falling
    /// back to critical-path-based stretching.
    pub path_cap: usize,
    /// Number of stretching sweeps over the task order.
    ///
    /// The paper's Figure-2 heuristic makes a single probability-weighted
    /// pass, which leaves slack unused but makes the solution *sensitive to
    /// the probability estimates* — the property the adaptive manager
    /// exploits. More sweeps approach full slack utilisation (closer to the
    /// NLP optimum) at the cost of that sensitivity. The default of 2 is the
    /// empirical balance that reproduces both Table 1 and Figure 5 shapes.
    /// Must lie in `1..=64` ([`StretchConfig::exhaustive`] uses 64).
    pub sweeps: usize,
}

impl Default for StretchConfig {
    fn default() -> Self {
        StretchConfig {
            min_speed: 0.05,
            path_cap: DEFAULT_PATH_CAP,
            sweeps: 2,
        }
    }
}

impl StretchConfig {
    /// A configuration that iterates stretching to (near) full slack
    /// utilisation — probability-insensitive but closest to the NLP optimum.
    pub fn exhaustive() -> Self {
        StretchConfig {
            sweeps: MAX_SWEEPS,
            ..Default::default()
        }
    }

    /// The paper-faithful single-pass configuration (maximum probability
    /// sensitivity, lowest slack utilisation).
    pub fn single_pass() -> Self {
        StretchConfig {
            sweeps: 1,
            ..Default::default()
        }
    }
}

const PROB_ONE_EPS: f64 = 1e-9;

/// Runs the stretching heuristic on a committed schedule.
///
/// # Errors
///
/// Returns [`SchedError::InvalidParameter`] for a `min_speed` outside
/// `(0, 1]`, a zero `path_cap`, or `sweeps` outside `1..=64`.
/// # Example
///
/// ```
/// use ctg_sched::{dls_schedule, stretch_schedule, StretchConfig};
/// # use ctg_model::{BranchProbs, CtgBuilder};
/// # use mpsoc_platform::PlatformBuilder;
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
/// # pb.add_pe("p1");
/// # for t in 0..3 { pb.set_wcet_row(t, vec![2.0, 2.5])?; pb.set_energy_row(t, vec![2.0, 1.8])?; }
/// # pb.uniform_links(4.0, 0.1)?;
/// # let ctx = ctg_sched::SchedContext::new(ctg, pb.build()?)?;
/// # let probs = BranchProbs::uniform(ctx.ctg());
/// let schedule = dls_schedule(&ctx, &probs)?;
/// let speeds = stretch_schedule(&ctx, &probs, &schedule, &StretchConfig::default())?;
/// // With a loose deadline every task slows down.
/// assert!(ctx.ctg().tasks().all(|t| speeds.speed(t) < 1.0));
/// # Ok(())
/// # }
/// ```
pub fn stretch_schedule(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
) -> Result<SpeedAssignment, SchedError> {
    validate_config(cfg)?;
    match ScheduledGraph::build(ctx, schedule, probs, cfg.path_cap) {
        Some(graph) => {
            let groups = PathGroups::of(&graph);
            let mut scratch = StretchScratch::default();
            Ok(stretch_on_graph(
                ctx,
                probs,
                schedule,
                cfg,
                &graph,
                &groups,
                None,
                &mut scratch,
            ))
        }
        None => Ok(critical_path_fallback(ctx, probs, schedule, cfg)),
    }
}

/// [`stretch_schedule`] warm-started from a previous speed assignment.
///
/// The seed's stretch is pre-applied (each task's accumulated extension and
/// every spanning path's delay start from the seeded speeds) before the
/// sweeps run, so a seed near the solution leaves the sweeps almost nothing
/// to grant. Each seeded call therefore *continues* the slack-consuming
/// iteration where the seed stopped (a cold exhaustive run may hit its
/// sweep cap first); iterating the seeding converges to a fixed point that
/// re-seeds to itself — see `tests/solver_equivalence.rs`.
///
/// # Errors
///
/// Same as [`stretch_schedule`].
pub fn stretch_schedule_seeded(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
    seed: &SpeedAssignment,
) -> Result<SpeedAssignment, SchedError> {
    validate_config(cfg)?;
    match ScheduledGraph::build(ctx, schedule, probs, cfg.path_cap) {
        Some(graph) => {
            let groups = PathGroups::of(&graph);
            let mut scratch = StretchScratch::default();
            Ok(stretch_on_graph(
                ctx,
                probs,
                schedule,
                cfg,
                &graph,
                &groups,
                Some(seed),
                &mut scratch,
            ))
        }
        None => Ok(critical_path_fallback(ctx, probs, schedule, cfg)),
    }
}

/// Rejects configurations [`stretch_schedule`] cannot run with.
pub(crate) fn validate_config(cfg: &StretchConfig) -> Result<(), SchedError> {
    if !(cfg.min_speed > 0.0 && cfg.min_speed <= 1.0) {
        return Err(SchedError::InvalidParameter("min_speed must lie in (0, 1]"));
    }
    if cfg.path_cap == 0 {
        return Err(SchedError::InvalidParameter("path_cap must be positive"));
    }
    if cfg.sweeps == 0 {
        return Err(SchedError::InvalidParameter("sweeps must be positive"));
    }
    if cfg.sweeps > MAX_SWEEPS {
        return Err(SchedError::InvalidParameter("sweeps must not exceed 64"));
    }
    Ok(())
}

/// Hard upper bound on stretching sweeps (used by
/// [`StretchConfig::exhaustive`]; [`validate_config`] rejects more).
pub(crate) const MAX_SWEEPS: usize = 64;

/// Global minterm-group ids over a graph's path list, assigned by first
/// occurrence: `calculate_slack` groups a task's spanning paths into
/// reusable scratch buffers instead of building a fresh HashMap per task.
/// Spanning lists are ascending, so first-occurrence order within a
/// spanning list equals the old sort-by-smallest-member group order.
///
/// Depends only on the path *conditions*, so a reused graph keeps its
/// groups across probability changes.
#[derive(Debug, Clone, Default)]
pub(crate) struct PathGroups {
    group_of: Vec<usize>,
    num_groups: usize,
    /// Flattened per-task group-member layout: for every task, the members
    /// `(path index, task position)` of each minterm group spanning it,
    /// stored contiguously — groups in first-occurrence order of their
    /// smallest member, members ascending by path index. Precomputing this
    /// once per graph replaces the per-task-per-sweep bucket rebuild the
    /// slack routine used to do; the iteration order is identical, so the
    /// sweeps' arithmetic is too.
    members_flat: Vec<(u32, u32)>,
    /// One `(start, end)` run into `members_flat` per (task, group) pair.
    runs: Vec<(u32, u32)>,
    /// Per task, the `(start, end)` slice of `runs` describing its groups.
    task_runs: Vec<(u32, u32)>,
}

impl PathGroups {
    pub(crate) fn of(graph: &ScheduledGraph) -> Self {
        // Group ids come precomputed from the build's mask dedup — the same
        // first-occurrence assignment over the same canonical path order
        // this type used to hash out itself.
        let group_of: Vec<usize> = graph.group_of().iter().map(|&g| g as usize).collect();
        let num_groups = graph.num_groups();

        // Per-task layout: bucket each spanning list by group exactly the
        // way `calculate_slack` historically did per sweep (first-occurrence
        // group order over the ascending spanning list), then flatten.
        let n_tasks = graph.num_tasks();
        let total: usize = (0..n_tasks)
            .map(|t| graph.spanning(TaskId::new(t)).len())
            .sum();
        let mut members_flat: Vec<(u32, u32)> = Vec::with_capacity(total);
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut task_runs: Vec<(u32, u32)> = Vec::with_capacity(n_tasks);
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_groups];
        let mut touched: Vec<usize> = Vec::new();
        for t in 0..n_tasks {
            let task = TaskId::new(t);
            for (&idx, &pos) in graph.spanning(task).iter().zip(graph.spanning_at(task)) {
                let g = group_of[idx];
                if buckets[g].is_empty() {
                    touched.push(g);
                }
                buckets[g].push((idx as u32, pos));
            }
            let runs_start = runs.len() as u32;
            for &g in &touched {
                let start = members_flat.len() as u32;
                members_flat.append(&mut buckets[g]);
                runs.push((start, members_flat.len() as u32));
            }
            touched.clear();
            task_runs.push((runs_start, runs.len() as u32));
        }

        PathGroups {
            group_of,
            num_groups,
            members_flat,
            runs,
            task_runs,
        }
    }

    /// The `(start, end)` runs into [`PathGroups::members`] for `task`'s
    /// minterm groups, in first-occurrence order.
    fn task_group_runs(&self, task: TaskId) -> &[(u32, u32)] {
        let (s, e) = self.task_runs[task.index()];
        &self.runs[s as usize..e as usize]
    }

    /// The flattened `(path index, task position)` member store.
    fn members(&self) -> &[(u32, u32)] {
        &self.members_flat
    }

    /// [`ScheduledGraph::reweight`] evaluated once per minterm group
    /// instead of once per path: members of a group share their condition
    /// mask, and `mask_prob` is a pure function of (mask, table), so the
    /// group representative's probability is bit-identical to what every
    /// member would compute — typically a ~30× cheaper re-weight. The
    /// caller owns the scratch buffers, so a warm workspace re-weights its
    /// pooled graphs without allocating.
    pub(crate) fn reweight_with(
        &self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        graph: &mut ScheduledGraph,
        scratch: &mut ReweightScratch,
    ) {
        ctx.scenario_probs_into(probs, &mut scratch.scenario_probs);
        scratch.group_prob.clear();
        scratch.group_prob.resize(self.num_groups, f64::NAN);
        for (i, p) in graph.paths_mut().iter_mut().enumerate() {
            let g = self.group_of[i];
            if scratch.group_prob[g].is_nan() {
                scratch.group_prob[g] = ctx.mask_prob(&p.cond, &scratch.scenario_probs);
            }
            p.prob = scratch.group_prob[g];
        }
    }
}

/// Reusable buffers for [`PathGroups::reweight_with`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ReweightScratch {
    group_prob: Vec<f64>,
    scenario_probs: Vec<f64>,
}

/// Reusable buffers for [`stretch_on_graph`]: every field is cleared and
/// refilled per call, so a long-lived scratch makes repeated stretching
/// allocation-free after warm-up.
#[derive(Debug, Clone, Default)]
pub(crate) struct StretchScratch {
    extra: Vec<f64>,
    delays: Vec<f64>,
    task_probs: Vec<f64>,
    /// `prob(p, τ)` per (task, spanning-path) slot, parallel to
    /// [`PathGroups::members`]. The products depend only on the path
    /// guards and the probability table — not on the sweeps' state — so
    /// each slot is written once per call (on the task's first sweep) and
    /// re-read by later sweeps.
    prob_after: Vec<f64>,
    /// Whether a task's `prob_after` slots have been filled this call.
    pa_filled: Vec<bool>,
    /// Flat `(branch, alternative) → probability` lookup mirroring the
    /// current table (`lit_flat[lit_base[branch] + alt]`): the exact f64s
    /// `BranchProbs::prob` returns, read from an array instead of a B-tree.
    lit_base: Vec<usize>,
    lit_flat: Vec<f64>,
    /// Per-scenario probabilities under the current table, in enumeration
    /// order.
    scenario_probs: Vec<f64>,
}

/// `probs.prob(lit.branch(), lit.alt())` through the flat scratch lookup —
/// the same stored f64, so identical bits wherever it is multiplied.
fn lit_prob(lit_base: &[usize], lit_flat: &[f64], lit: &Literal) -> f64 {
    match lit_base.get(lit.branch().index()) {
        Some(&base) if base != usize::MAX => lit_flat
            .get(base + lit.alt() as usize)
            .copied()
            .unwrap_or(0.0),
        _ => 0.0,
    }
}

/// The stretching sweeps against an already-built scheduled graph.
///
/// The graph is **not mutated**: current path delays live in
/// `scratch.delays` (initialized from the graph's nominal delays), so an
/// incumbent graph stays pristine for reuse. With `seed = None` this is
/// bit-for-bit the historical `stretch_with_paths` — the same operations on
/// the same values in the same order, with the delay updates applied to the
/// scratch buffer instead of the paths. A seed pre-applies a previous
/// assignment's stretch before the sweeps run (see
/// [`stretch_schedule_seeded`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn stretch_on_graph(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
    graph: &ScheduledGraph,
    groups: &PathGroups,
    seed: Option<&SpeedAssignment>,
    scratch: &mut StretchScratch,
) -> SpeedAssignment {
    let deadline = ctx.ctg().deadline();
    let profile = ctx.platform().profile();
    let n = ctx.ctg().num_tasks();

    scratch.extra.clear();
    scratch.extra.resize(n, 0.0);
    // Flat probability lookup, then per-scenario and per-task activation
    // probabilities derived through it: every product and sum below walks
    // the same values in the same order as the `BranchProbs`/`ScenarioSet`
    // originals, so the results are bit-identical — only the B-tree lookups
    // are gone.
    scratch.lit_base.clear();
    scratch.lit_base.resize(n, usize::MAX);
    scratch.lit_flat.clear();
    for &b in ctx.ctg().branch_nodes() {
        if let Some(d) = probs.distribution(b) {
            scratch.lit_base[b.index()] = scratch.lit_flat.len();
            scratch.lit_flat.extend_from_slice(d);
        }
    }
    scratch.scenario_probs.clear();
    for s in ctx.scenarios().scenarios() {
        let p: f64 = s
            .cube()
            .literals()
            .iter()
            .map(|lit| lit_prob(&scratch.lit_base, &scratch.lit_flat, lit))
            .product();
        scratch.scenario_probs.push(p);
    }
    scratch.task_probs.clear();
    for t in ctx.ctg().tasks() {
        let p = ctx.mask_prob(ctx.task_mask(t), &scratch.scenario_probs);
        scratch.task_probs.push(p);
    }
    scratch.delays.clear();
    scratch.delays.extend(graph.paths().iter().map(|p| p.delay));
    scratch.prob_after.clear();
    scratch.prob_after.resize(groups.members().len(), 0.0);
    scratch.pa_filled.clear();
    scratch.pa_filled.resize(n, false);

    if let Some(seed) = seed {
        for t in ctx.ctg().tasks() {
            let s = seed.speed(t);
            if s < 1.0 {
                let wcet = profile.wcet(t.index(), schedule.pe_of(t));
                let extra = wcet * (1.0 / s - 1.0);
                scratch.extra[t.index()] = extra;
                for &idx in graph.spanning(t) {
                    scratch.delays[idx] += extra;
                }
            }
        }
    }

    for _sweep in 0..cfg.sweeps {
        let mut granted_total = 0.0;
        for &t in schedule.task_order() {
            let wcet = profile.wcet(t.index(), schedule.pe_of(t));
            if wcet <= 0.0 || graph.spanning(t).is_empty() {
                continue;
            }
            let task_prob = scratch.task_probs[t.index()];
            if task_prob <= 0.0 {
                // A task that can never activate costs no expected energy
                // either way; leave it at nominal speed.
                continue;
            }
            let fill_pa = !scratch.pa_filled[t.index()];
            scratch.pa_filled[t.index()] = true;
            let slack = calculate_slack(
                graph,
                t,
                wcet,
                task_prob,
                deadline,
                groups,
                &scratch.delays,
                &mut scratch.prob_after,
                fill_pa,
                &scratch.lit_base,
                &scratch.lit_flat,
            );
            // Respect the speed floor over the *accumulated* extension.
            let max_total = wcet * (1.0 / cfg.min_speed - 1.0);
            let slack = slack.min(max_total - scratch.extra[t.index()]).max(0.0);
            if slack <= 1e-12 {
                continue;
            }
            scratch.extra[t.index()] += slack;
            granted_total += slack;
            // Lock and propagate: every spanning path now takes `slack`
            // longer.
            for &idx in graph.spanning(t) {
                scratch.delays[idx] += slack;
            }
        }
        if granted_total <= 1e-9 * deadline {
            break;
        }
    }

    let mut speeds = SpeedAssignment::nominal(n);
    for t in ctx.ctg().tasks() {
        if scratch.extra[t.index()] > 0.0 {
            let wcet = profile.wcet(t.index(), schedule.pe_of(t));
            speeds.set(t, wcet / (wcet + scratch.extra[t.index()]));
        }
    }
    speeds
}

/// A path's distributable slack ratio `(deadline - delay) / delay`.
///
/// Non-increasing in `delay` on `0 < delay <= deadline` under
/// round-to-nearest: for `delay >= deadline / 2` Sterbenz makes
/// `deadline - delay` exact, so the quotient is the correctly rounded
/// `deadline / delay - 1`; below `deadline / 2` the numerator is positive,
/// no smaller than any larger delay's, and divided by a smaller
/// denominator. So on a run
/// whose delays stay within the deadline, the smallest ratio is the ratio
/// of its largest delay.
fn path_ratio(deadline: f64, delay: f64) -> f64 {
    (deadline - delay) / delay
}

/// The last eligible slot of a run attaining the smallest ratio, and that
/// ratio, given the eligible slots' max delay `dmax <= deadline` — the
/// last-of-equal-minima choice of a forward `<=` scan over every eligible
/// member's ratio. `path_ratio(dmax)` is the minimum (see [`path_ratio`]),
/// and a backward scan stops at the last eligible slot attaining it: a
/// slot of delay `dmax` without a division, any other slot when its ratio
/// ties.
fn critical_slot(
    deadline: f64,
    idxs: &[(u32, u32)],
    delays: &[f64],
    eligible: impl Fn(usize) -> bool,
    dmax: f64,
) -> (usize, f64) {
    let min_ratio = path_ratio(deadline, dmax);
    for slot in (0..idxs.len()).rev() {
        if !eligible(slot) {
            continue;
        }
        let d = delays[idxs[slot].0 as usize];
        if d == dmax {
            return (slot, min_ratio);
        }
        let r = path_ratio(deadline, d);
        if r == min_ratio {
            return (slot, r);
        }
    }
    unreachable!("the slot of the eligible max delay attains the minimum ratio")
}

/// The paper's `CalculateSlack(τ)` routine.
///
/// The task's minterm groups come precomputed from [`PathGroups`] (same
/// first-occurrence group order and ascending members the per-call
/// bucketing historically produced); `delays` holds the current
/// (stretched-so-far) delay of every path; `prob_after` is the caller's
/// per-(task, member) product cache, filled on the task's first visit
/// (`fill_pa`) and re-read afterwards — the same product, so the same bits
/// at every use.
///
/// Each (task, group) run costs one max-delay reduction instead of a ratio
/// per member: rounding is monotone, so `deadline - dmax` is the smallest
/// `deadline - d`. Once that cap is negative the task gets no slack
/// whatever the ratios, so the remaining runs only extend the cap (and
/// fill `prob_after`). Every run that does reach the ratios has its delays
/// within the deadline, where the smallest ratio is `path_ratio(dmax)`;
/// groups with `0 < p < 1` then find their critical slot with
/// [`critical_slot`].
#[allow(clippy::too_many_arguments)]
fn calculate_slack(
    graph: &ScheduledGraph,
    task: TaskId,
    wcet: f64,
    task_prob: f64,
    deadline: f64,
    groups: &PathGroups,
    delays: &[f64],
    prob_after: &mut [f64],
    fill_pa: bool,
    lit_base: &[usize],
    lit_flat: &[f64],
) -> f64 {
    let members = groups.members();
    let mut slk1 = 0.0;
    let mut any1 = false;
    let mut slk2 = f64::INFINITY;
    let mut any2 = false;
    // Steps 9–10 (fused): never push any spanning path past the deadline.
    // The runs partition exactly the spanning set, and a fold of `f64::min`
    // over finite values is order-invariant, so accumulating the cap here
    // is bit-identical to a separate pass over `graph.spanning(task)`.
    let mut deadline_cap = f64::INFINITY;
    for &(run_start, run_end) in groups.task_group_runs(task) {
        let (run_start, run_end) = (run_start as usize, run_end as usize);
        let idxs = &members[run_start..run_end];
        let group_prob = graph.paths()[idxs[0].0 as usize].prob;
        if group_prob <= PROB_ONE_EPS {
            // A minterm the current estimates consider impossible: it must
            // not throttle the slack of live tasks. (It still takes part in
            // the deadline cap, so the worst case stays safe even when the
            // estimate is wrong.)
            deadline_cap = deadline_cap.min(deadline - max_delay(idxs, delays));
        } else if group_prob + PROB_ONE_EPS >= 1.0 {
            // Step 5–7: minterms with probability 1 contribute via slk2.
            let dmax = max_delay(idxs, delays);
            deadline_cap = deadline_cap.min(deadline - dmax);
            if deadline_cap < 0.0 {
                continue;
            }
            slk2 = slk2.min(wcet * path_ratio(deadline, dmax) * task_prob);
            any2 = true;
        } else {
            // Step 3–4: pick the critical path with prob(p, τ) ≠ 1 and the
            // lowest distributable slack ratio; fall back to the whole group
            // when every spanning path is already decided at τ.
            if fill_pa {
                for (slot, &(i, pos)) in idxs.iter().enumerate() {
                    prob_after[run_start + slot] = graph.paths()[i as usize]
                        .guards
                        .iter()
                        .filter(|(fork_pos, _)| *fork_pos >= pos as usize)
                        .map(|(_, lit)| lit_prob(lit_base, lit_flat, lit))
                        .product();
                }
            }
            let pa = &prob_after[run_start..run_end];
            let undecided = |slot: usize| pa[slot] < 1.0 - PROB_ONE_EPS;
            // One pass for the run's max delay (the cap) and the undecided
            // members' max delay (delays are positive, so it stays at -inf
            // only when no member is undecided).
            let mut dmax = f64::NEG_INFINITY;
            let mut dmax_undecided = f64::NEG_INFINITY;
            for (slot, &(i, _)) in idxs.iter().enumerate() {
                let d = delays[i as usize];
                debug_assert!(d > 0.0, "path delays are positive");
                if d > dmax {
                    dmax = d;
                }
                if d > dmax_undecided && undecided(slot) {
                    dmax_undecided = d;
                }
            }
            deadline_cap = deadline_cap.min(deadline - dmax);
            if deadline_cap < 0.0 {
                continue;
            }
            let any_undecided = dmax_undecided > f64::NEG_INFINITY;
            let eligible = |slot: usize| !any_undecided || undecided(slot);
            let dmax_eligible = if any_undecided { dmax_undecided } else { dmax };
            let (worst, worst_ratio) =
                critical_slot(deadline, idxs, delays, eligible, dmax_eligible);
            let p_after = pa[worst];
            slk1 += p_after * wcet * worst_ratio * task_prob;
            any1 = true;
        }
    }

    let slack = match (any1, any2) {
        (true, true) => slk1.min(slk2),
        (true, false) => slk1,
        (false, true) => slk2,
        (false, false) => 0.0,
    };
    slack.min(deadline_cap)
}

/// The largest delay in a run.
fn max_delay(idxs: &[(u32, u32)], delays: &[f64]) -> f64 {
    let mut dmax = f64::NEG_INFINITY;
    for &(i, _) in idxs {
        let d = delays[i as usize];
        debug_assert!(d > 0.0, "path delays are positive");
        if d > dmax {
            dmax = d;
        }
    }
    dmax
}

/// Fallback when path enumeration exceeds the cap: distribute slack along
/// per-task worst-case critical paths computed by dynamic programming
/// (condition-blind, therefore conservative).
pub(crate) fn critical_path_fallback(
    ctx: &SchedContext,
    probs: &BranchProbs,
    schedule: &Schedule,
    cfg: &StretchConfig,
) -> SpeedAssignment {
    let weights = ctx.activation_weights(probs);
    proportional_stretch(ctx, schedule, cfg, &|t| weights.task(t), true)
}

/// Critical-path proportional slack distribution.
///
/// Shared by the fallback path of the online heuristic (`weight` = activation
/// probability) and by the probability-blind reference algorithm 1
/// (`weight` ≡ 1, no mutual-exclusion overlap in the constraint graph).
pub(crate) fn proportional_stretch(
    ctx: &SchedContext,
    schedule: &Schedule,
    cfg: &StretchConfig,
    weight: &dyn Fn(TaskId) -> f64,
    exploit_mutex: bool,
) -> SpeedAssignment {
    let ctg = ctx.ctg();
    let n = ctg.num_tasks();
    let profile = ctx.platform().profile();
    let comm = ctx.platform().comm();
    let deadline = ctg.deadline();

    // Constraint edges: CTG + implied + same-PE serialization.
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut radj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let push = |s: usize,
                d: usize,
                delay: f64,
                adj: &mut Vec<Vec<(usize, f64)>>,
                radj: &mut Vec<Vec<(usize, f64)>>| {
        adj[s].push((d, delay));
        radj[d].push((s, delay));
    };
    for (_, e) in ctg.edges() {
        let d = comm.delay(
            schedule.pe_of(e.src()),
            schedule.pe_of(e.dst()),
            e.comm_kbytes(),
        );
        push(e.src().index(), e.dst().index(), d, &mut adj, &mut radj);
    }
    for &(f, o) in ctx.activation().implied_or_deps() {
        push(f.index(), o.index(), 0.0, &mut adj, &mut radj);
    }
    for pe in ctx.platform().pes() {
        let order = schedule.pe_order(pe);
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                if exploit_mutex && ctx.mutually_exclusive(order[i], order[j]) {
                    continue;
                }
                push(order[i].index(), order[j].index(), 0.0, &mut adj, &mut radj);
            }
        }
    }

    let mut exec: Vec<f64> = (0..n)
        .map(|t| profile.wcet(t, schedule.pe_of(TaskId::new(t))))
        .collect();
    // A topological order of the *constraint* graph: pseudo edges always go
    // from earlier to strictly later start times, so start order works (the
    // CTG's own topological order does not account for pseudo edges).
    let mut topo: Vec<TaskId> = ctg.tasks().collect();
    topo.sort_by(|&a, &b| {
        schedule
            .start(a)
            .partial_cmp(&schedule.start(b))
            .expect("start times are finite")
            .then(a.cmp(&b))
    });
    let topo = &topo;
    let base_exec = exec.clone();
    // Longest-chain scratch, reused across tasks and sweeps: every slot is
    // fully overwritten by the propagation passes below, so hoisting the
    // buffers out of the loop changes nothing but the allocation count.
    let mut to = vec![0.0_f64; n];
    let mut from = vec![0.0_f64; n];
    for _sweep in 0..cfg.sweeps.clamp(1, MAX_SWEEPS) {
        let mut granted_total = 0.0;
        for &t in schedule.task_order() {
            // Longest in/out chains with current (already stretched)
            // durations.
            for &u in topo {
                let mut best: f64 = 0.0;
                for &(p, d) in &radj[u.index()] {
                    best = best.max(to[p] + exec[p] + d);
                }
                to[u.index()] = best;
            }
            for &u in topo.iter().rev() {
                let mut best: f64 = 0.0;
                for &(s, d) in &adj[u.index()] {
                    best = best.max(from[s] + exec[s] + d);
                }
                from[u.index()] = best;
            }
            let path_delay = to[t.index()] + exec[t.index()] + from[t.index()];
            if path_delay >= deadline {
                continue;
            }
            let ratio = (deadline - path_delay) / path_delay;
            let wcet = base_exec[t.index()];
            let max_total = wcet * (1.0 / cfg.min_speed - 1.0);
            let already = exec[t.index()] - wcet;
            let slack = (wcet * ratio * weight(t))
                .min(deadline - path_delay)
                .min(max_total - already)
                .max(0.0);
            if slack > 1e-12 {
                exec[t.index()] += slack;
                granted_total += slack;
            }
        }
        if granted_total <= 1e-9 * deadline {
            break;
        }
    }
    let mut speeds = SpeedAssignment::nominal(n);
    for t in 0..n {
        if exec[t] > base_exec[t] {
            speeds.set(TaskId::new(t), base_exec[t] / exec[t]);
        }
    }
    speeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dls::dls_schedule;
    use crate::speed::expected_energy;
    use crate::test_util::{chain_context, example1_context, example1_ctg, uniform_platform};

    #[test]
    fn chain_stretch_fills_deadline() {
        // Chain of 3 tasks (wcet 2 each) with deadline 60: lots of slack.
        let (ctx, probs, _) = chain_context(60.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let speeds = stretch_schedule(&ctx, &probs, &sched, &StretchConfig::default()).unwrap();
        // Every task slowed down.
        for t in ctx.ctg().tasks() {
            assert!(speeds.speed(t) < 1.0, "{t} should be stretched");
        }
        // Total stretched delay still within the deadline.
        let total: f64 = ctx.ctg().tasks().map(|t| 2.0 / speeds.speed(t)).sum();
        assert!(total <= 60.0 + 1e-6);
    }

    #[test]
    fn no_slack_means_nominal_speeds() {
        // Deadline equal to the makespan: nothing can stretch.
        let (ctx, probs, _) = chain_context(60.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let tight = ctx.ctg().with_deadline(sched.makespan());
        let ctx2 = SchedContext::new(tight, ctx.platform().clone()).unwrap();
        let sched2 = dls_schedule(&ctx2, &probs).unwrap();
        let speeds = stretch_schedule(&ctx2, &probs, &sched2, &StretchConfig::default()).unwrap();
        for t in ctx2.ctg().tasks() {
            assert!((speeds.speed(t) - 1.0).abs() < 1e-9);
        }
    }

    use crate::context::SchedContext;

    #[test]
    fn stretching_reduces_expected_energy() {
        let (ctx, probs, _) = example1_context();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let nominal = SpeedAssignment::nominal(ctx.ctg().num_tasks());
        let stretched = stretch_schedule(&ctx, &probs, &sched, &StretchConfig::default()).unwrap();
        let e0 = expected_energy(&ctx, &probs, &sched, &nominal);
        let e1 = expected_energy(&ctx, &probs, &sched, &stretched);
        assert!(e1 < e0, "stretching must save energy ({e1} !< {e0})");
    }

    #[test]
    fn deadline_respected_after_stretching() {
        let (ctx, probs, _) = example1_context();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let speeds = stretch_schedule(&ctx, &probs, &sched, &StretchConfig::default()).unwrap();
        // Re-run the path analysis with stretched execution times: every
        // path must still meet the deadline.
        let graph = ScheduledGraph::build(&ctx, &sched, &probs, 100_000).unwrap();
        let profile = ctx.platform().profile();
        for p in graph.paths() {
            let stretched_delay: f64 = p.delay
                + p.tasks
                    .iter()
                    .map(|&t| {
                        let w = profile.wcet(t.index(), sched.pe_of(t));
                        w / speeds.speed(t) - w
                    })
                    .sum::<f64>();
            assert!(
                stretched_delay <= ctx.ctg().deadline() + 1e-6,
                "path exceeds deadline: {stretched_delay}"
            );
        }
    }

    #[test]
    fn likely_tasks_get_more_slack() {
        // Two independent chains after a fork: the likely arm should end up
        // slower (more stretched) than the unlikely one.
        let (ctg, ids) = example1_ctg(100.0);
        let [_, _, t3, t4, t5, ..] = ids;
        let mut probs = ctg_model::BranchProbs::uniform(&ctg);
        probs.set(t3, vec![0.9, 0.1]).unwrap();
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let speeds = stretch_schedule(&ctx, &probs, &sched, &StretchConfig::default()).unwrap();
        // τ4 (prob 0.9) should run no faster than τ5 (prob 0.1) would
        // suggest symmetric treatment; with probability weighting τ4 gets
        // more slack.
        assert!(
            speeds.speed(t4) <= speeds.speed(t5) + 1e-9,
            "likely task should be at least as stretched: s4={} s5={}",
            speeds.speed(t4),
            speeds.speed(t5)
        );
    }

    #[test]
    fn min_speed_floor_enforced() {
        let (ctx, probs, _) = chain_context(10_000.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let cfg = StretchConfig {
            min_speed: 0.25,
            ..Default::default()
        };
        let speeds = stretch_schedule(&ctx, &probs, &sched, &cfg).unwrap();
        for t in ctx.ctg().tasks() {
            assert!(speeds.speed(t) + 1e-12 >= 0.25);
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let (ctx, probs, _) = chain_context(60.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let bad = StretchConfig {
            min_speed: 0.0,
            ..Default::default()
        };
        assert!(stretch_schedule(&ctx, &probs, &sched, &bad).is_err());
        let bad = StretchConfig {
            path_cap: 0,
            ..Default::default()
        };
        assert!(stretch_schedule(&ctx, &probs, &sched, &bad).is_err());
    }

    #[test]
    fn sweeps_above_cap_rejected() {
        let (ctx, probs, _) = chain_context(60.0);
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let at_cap = StretchConfig::exhaustive();
        assert_eq!(at_cap.sweeps, MAX_SWEEPS);
        assert!(stretch_schedule(&ctx, &probs, &sched, &at_cap).is_ok());
        let over = StretchConfig {
            sweeps: MAX_SWEEPS + 1,
            ..Default::default()
        };
        assert!(matches!(
            stretch_schedule(&ctx, &probs, &sched, &over),
            Err(SchedError::InvalidParameter(_))
        ));
        let seed = SpeedAssignment::nominal(ctx.ctg().num_tasks());
        assert!(matches!(
            stretch_schedule_seeded(&ctx, &probs, &sched, &over, &seed),
            Err(SchedError::InvalidParameter(_))
        ));
    }

    #[test]
    fn path_ratio_non_increasing_on_exact_domain() {
        // The max-delay shortcut in `calculate_slack` rests on two facts
        // over 0 < d <= 2 * deadline: the ratio never rises with the delay,
        // and the smallest `deadline - d` is `deadline - max d`.
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let next_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut rng = ctg_rng::Rng64::seed_from_u64(0x5eed_2a71);
        for case in 0..200 {
            let scale = 10f64.powi(case % 9 - 3);
            let deadline = scale * (0.5 + rng.next_f64());
            let mut ds = vec![
                deadline / 2.0,
                next_down(deadline / 2.0),
                next_up(deadline / 2.0),
                deadline,
                next_down(deadline),
                next_up(deadline),
                2.0 * deadline,
                next_down(2.0 * deadline),
            ];
            for _ in 0..64 {
                // Uniform over (0, 2 * deadline], plus a cluster of tiny
                // delays where the quotients are largest.
                let u = 1.0 - rng.next_f64();
                for d in [2.0 * deadline * u, deadline * u * u * u * 1e-3] {
                    ds.push(d);
                    if next_up(d) <= 2.0 * deadline {
                        ds.push(next_up(d));
                    }
                }
            }
            ds.sort_by(f64::total_cmp);
            assert!(ds[0] > 0.0 && *ds.last().unwrap() <= 2.0 * deadline);
            for w in ds.windows(2) {
                let (r0, r1) = (path_ratio(deadline, w[0]), path_ratio(deadline, w[1]));
                assert!(
                    r1 <= r0,
                    "ratio rose from {r0} at {} to {r1} at {} (deadline {deadline})",
                    w[0],
                    w[1]
                );
            }
            let dmax = ds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min_slack = ds
                .iter()
                .map(|&d| deadline - d)
                .fold(f64::INFINITY, f64::min);
            assert_eq!((deadline - dmax).to_bits(), min_slack.to_bits());
        }
    }

    /// The reference argmin `critical_slot` replaces: a forward scan over
    /// the eligible slots of a run, computing each member's ratio and
    /// replacing on `<=`, so the last of equal minima wins.
    fn scan_min_ratio(
        deadline: f64,
        idxs: &[(u32, u32)],
        delays: &[f64],
        eligible: impl Fn(usize) -> bool,
    ) -> (usize, f64) {
        let mut worst = usize::MAX;
        let mut worst_ratio = f64::INFINITY;
        for (slot, &(i, _)) in idxs.iter().enumerate() {
            if !eligible(slot) {
                continue;
            }
            let r = path_ratio(deadline, delays[i as usize]);
            if worst == usize::MAX || r <= worst_ratio {
                worst_ratio = r;
                worst = slot;
            }
        }
        (worst, worst_ratio)
    }

    #[test]
    fn max_delay_argmin_matches_forward_scan() {
        // Runs full of equal delays and neighbouring delays whose ratios
        // may round equal, all within the deadline; every slot spans its
        // own path index.
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut rng = ctg_rng::Rng64::seed_from_u64(0x7a1e_5105);
        let mut ratio_ties = 0;
        for case in 0..2000 {
            let deadline = 10f64.powi(case % 7 - 3) * (0.5 + rng.next_f64());
            let len = 1 + case as usize % 9;
            let base = deadline * (0.05 + 0.95 * rng.next_f64());
            let delays: Vec<f64> = (0..len)
                .map(|_| match rng.next_u64() % 4 {
                    0 => base,
                    1 => next_up(base),
                    2 => next_up(next_up(base)),
                    _ => deadline * (1.0 - rng.next_f64()),
                })
                .map(|d| d.min(deadline))
                .collect();
            let idxs: Vec<(u32, u32)> = (0..len as u32).map(|i| (i, 0)).collect();
            let mask = rng.next_u64();
            let eligible = |slot: usize| mask >> slot & 1 == 1 || slot == len - 1;
            let dmax = (0..len)
                .filter(|&slot| eligible(slot))
                .map(|slot| delays[slot])
                .fold(f64::NEG_INFINITY, f64::max);
            let (slot, r) = critical_slot(deadline, &idxs, &delays, eligible, dmax);
            let (want_slot, want_r) = scan_min_ratio(deadline, &idxs, &delays, eligible);
            assert_eq!((slot, r.to_bits()), (want_slot, want_r.to_bits()));
            if delays[slot] != dmax {
                ratio_ties += 1;
            }
            // Probability-1 groups take the whole run's max-delay ratio.
            let all_max = delays.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let want = scan_min_ratio(deadline, &idxs, &delays, |_| true).1;
            assert_eq!(path_ratio(deadline, all_max).to_bits(), want.to_bits());
        }
        assert!(ratio_ties > 0, "no ratio tie between unequal delays drawn");
    }

    #[test]
    fn fallback_matches_deadline_too() {
        // Force the fallback with a tiny path cap.
        let (ctx, probs, _) = example1_context();
        let sched = dls_schedule(&ctx, &probs).unwrap();
        let cfg = StretchConfig {
            path_cap: 1,
            ..Default::default()
        };
        let speeds = stretch_schedule(&ctx, &probs, &sched, &cfg).unwrap();
        let graph = ScheduledGraph::build(&ctx, &sched, &probs, 100_000).unwrap();
        let profile = ctx.platform().profile();
        for p in graph.paths() {
            let stretched_delay: f64 = p.delay
                + p.tasks
                    .iter()
                    .map(|&t| {
                        let w = profile.wcet(t.index(), sched.pe_of(t));
                        w / speeds.speed(t) - w
                    })
                    .sum::<f64>();
            assert!(stretched_delay <= ctx.ctg().deadline() + 1e-6);
        }
    }
}
