//! The scheduler portfolio: a common solving trait over the online
//! pipeline, alternative list schedulers, and the drift-event race.
//!
//! The paper commits to one list scheduler (modified DLS + stretching),
//! but no single heuristic wins across workloads. This module extracts the
//! seam as the [`CtgScheduler`] trait — solve a [`SchedContext`] under a
//! [`BranchProbs`] table through a [`SolverWorkspace`], returning a
//! [`Solution`] — and provides four implementors:
//!
//! * [`OnlineScheduler`] ("dls") — the paper's modified DLS +
//!   probability-weighted stretching, through the warm-start
//!   [`SolverWorkspace::solve`] core;
//! * [`HeftScheduler`] — HEFT with probabilities: tasks are prioritised by
//!   the probability-weighted upward ranks ([`static_levels`] — the
//!   expected critical path below each task) and each task is placed on
//!   the PE minimising its earliest finish time;
//! * [`LookaheadScheduler`] — a one-step lookahead variant of the HEFT
//!   loop: the PE choice additionally charges the estimated finish of the
//!   task's most critical successor given that placement;
//! * [`FrameDvfsScheduler`] — a Berten-&-Goossens-style frame-based DVFS
//!   baseline: probability-aware mapping, then **one** uniform frame speed
//!   (the lowest discrete level whose exact worst-case makespan still
//!   meets the deadline) instead of per-task stretching.
//!
//! [`race_portfolio`] runs a configured set of schedulers over one table,
//! optionally fanning the entries out on the intra-solve worker pool
//! ([`crate::par::map_ordered`], ordered merge), and crowns the winner
//! with a **sequential fold in entry order**: schedulable candidates
//! (worst-case makespan within the deadline, the adaptive manager's
//! existing judge) are ranked by expected energy with strict `<` — ties
//! keep the earliest entry — so the outcome is bit-identical at any worker
//! count, and a portfolio listing DLS first can never adopt a plan with
//! higher expected energy than DLS alone would.
//!
//! Before any entry stretches, the race runs the HEFT-family list passes
//! (cheap next to a stretch) and stretches each distinct (schedule,
//! stretch configuration) once: a later entry whose list schedule equals an
//! earlier entry's takes a clone of that entry's result.
//!
//! Determinism: every implementor is a pure function of
//! `(ctx, probs, configuration)`. The DLS entry reuses all of the
//! workspace's warm-start layers (whose warm == cold contract is pinned in
//! `tests/solver_equivalence.rs`). [`HeftScheduler`] and
//! [`LookaheadScheduler`] stretch through the workspace's scheduled-graph
//! pool, keeping one graph — an entry repeats its own previous list
//! schedule in about a third of MPEG drift races, and a hit skips the path
//! enumeration (`tests/race_oracle.rs` pins warm races to cold ones bit for
//! bit). [`FrameDvfsScheduler`] ignores the workspace and runs cold
//! (DESIGN.md §18.2 has the measured race breakdown).

use crate::context::SchedContext;
use crate::dls::{dls_schedule, earliest_start};
use crate::error::SchedError;
use crate::online::{OnlineScheduler, Solution, SCHEDULABILITY_TOL};
use crate::schedule::Schedule;
use crate::speed::{expected_energy_weighted, SpeedAssignment};
use crate::static_level::static_levels;
use crate::stretch::StretchConfig;
use crate::workspace::SolverWorkspace;
use ctg_model::{BranchProbs, TaskId};
use ctg_obs::{Counter, Obs, Stage};
use mpsoc_platform::PeId;

/// A conditional-task-graph scheduler: maps, orders and speed-assigns a
/// context's CTG under a branch-probability table.
///
/// The trait is the seam the portfolio races over. Implementations must be
/// **deterministic pure functions** of `(ctx, probs)` and their own
/// configuration — the race evaluates entries in parallel and replays
/// winners through exact-probability-guarded caches, both of which are
/// only sound when re-solving the same inputs cannot produce different
/// bits. The workspace parameter carries warm-start state for implementors
/// that use it (the DLS pipeline uses every layer, the HEFT-family entries
/// its scheduled-graph pool); implementors without warm layers ignore it.
/// A fresh workspace is the cold path.
pub trait CtgScheduler {
    /// Short stable identifier ("dls", "heft", …) used in bench columns
    /// and win counters.
    fn name(&self) -> &'static str;

    /// Solves `ctx` under `probs`, carrying warm-start state in
    /// `workspace` where the implementation has any.
    ///
    /// # Errors
    ///
    /// Mapping infeasibility ([`SchedError::NoFeasiblePe`]), unreachable
    /// deadlines ([`SchedError::DeadlineUnreachable`]), configuration
    /// errors, and budget aborts for budgeted workspaces.
    fn solve_with_workspace(
        &self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        workspace: &mut SolverWorkspace,
    ) -> Result<Solution, SchedError>;

    /// Solves through a fresh workspace — by the warm == cold contract,
    /// identical to [`CtgScheduler::solve_with_workspace`].
    ///
    /// # Errors
    ///
    /// Same as [`CtgScheduler::solve_with_workspace`].
    fn solve(&self, ctx: &SchedContext, probs: &BranchProbs) -> Result<Solution, SchedError> {
        let mut ws = SolverWorkspace::new();
        self.solve_with_workspace(ctx, probs, &mut ws)
    }
}

/// The existing pipeline is the first implementor: bit-for-bit the
/// historic [`OnlineScheduler::solve`] / `solve_with_workspace` behaviour.
impl CtgScheduler for OnlineScheduler {
    fn name(&self) -> &'static str {
        "dls"
    }

    fn solve_with_workspace(
        &self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        workspace: &mut SolverWorkspace,
    ) -> Result<Solution, SchedError> {
        OnlineScheduler::solve_with_workspace(self, ctx, probs, workspace)
    }
}

/// HEFT with probabilities: upward ranks are the probability-weighted
/// static levels (the expected critical path below each task, branch
/// nodes taking the expectation over alternatives), the ready task with
/// the highest rank is scheduled first, and each task goes to the PE
/// minimising its earliest finish time. Speeds come from the same
/// stretching heuristic as the DLS pipeline, so the entries differ only
/// in mapping/ordering policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeftScheduler {
    cfg: StretchConfig,
}

impl HeftScheduler {
    /// The default-configuration HEFT entry.
    pub fn new() -> Self {
        HeftScheduler::default()
    }

    /// A HEFT entry with a custom stretching configuration.
    pub fn with_config(cfg: StretchConfig) -> Self {
        HeftScheduler { cfg }
    }
}

impl CtgScheduler for HeftScheduler {
    fn name(&self) -> &'static str {
        "heft"
    }

    fn solve_with_workspace(
        &self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        workspace: &mut SolverWorkspace,
    ) -> Result<Solution, SchedError> {
        let schedule = eft_list_schedule(ctx, &static_levels(ctx, probs), false)?;
        workspace.stretch_list_schedule(&self.cfg, ctx, probs, schedule)
    }
}

/// One-step lookahead list scheduler: like [`HeftScheduler`], but the PE
/// choice for a task additionally charges the estimated earliest finish of
/// the task's most critical (highest-rank) successor under that placement —
/// a placement that looks locally fast but strands the critical child
/// behind a slow link loses the comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LookaheadScheduler {
    cfg: StretchConfig,
}

impl LookaheadScheduler {
    /// The default-configuration lookahead entry.
    pub fn new() -> Self {
        LookaheadScheduler::default()
    }

    /// A lookahead entry with a custom stretching configuration.
    pub fn with_config(cfg: StretchConfig) -> Self {
        LookaheadScheduler { cfg }
    }
}

impl CtgScheduler for LookaheadScheduler {
    fn name(&self) -> &'static str {
        "lookahead"
    }

    fn solve_with_workspace(
        &self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        workspace: &mut SolverWorkspace,
    ) -> Result<Solution, SchedError> {
        let schedule = eft_list_schedule(ctx, &static_levels(ctx, probs), true)?;
        workspace.stretch_list_schedule(&self.cfg, ctx, probs, schedule)
    }
}

/// Number of discrete speed levels the frame-based DVFS baseline chooses
/// from (`k / FRAME_SPEED_LEVELS` for `k = 1..=FRAME_SPEED_LEVELS`) —
/// frame-based schemes assume a small set of processor frequencies, not a
/// continuous range.
pub const FRAME_SPEED_LEVELS: usize = 20;

/// Berten-&-Goossens-style frame-based DVFS baseline: the mapping and
/// order come from the probability-aware DLS pass, but instead of the
/// per-task stretching heuristic **every task runs at one uniform frame
/// speed** — the lowest of [`FRAME_SPEED_LEVELS`] discrete levels whose
/// exact worst-case makespan (communication is never scaled) still meets
/// the deadline. The gap between this baseline and the per-task stretch is
/// what the Table-1 scheduler columns measure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameDvfsScheduler;

impl FrameDvfsScheduler {
    /// The frame-based DVFS baseline.
    pub fn new() -> Self {
        FrameDvfsScheduler
    }
}

impl CtgScheduler for FrameDvfsScheduler {
    fn name(&self) -> &'static str {
        "frame"
    }

    fn solve_with_workspace(
        &self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        _workspace: &mut SolverWorkspace,
    ) -> Result<Solution, SchedError> {
        let schedule = dls_schedule(ctx, probs)?;
        let n = ctx.ctg().num_tasks();
        let deadline = ctx.ctg().deadline();
        // Lowest discrete level first: the worst-case makespan is monotone
        // non-increasing in the frame speed, so the first feasible level is
        // the energy-minimal one.
        for k in 1..=FRAME_SPEED_LEVELS {
            let s = k as f64 / FRAME_SPEED_LEVELS as f64;
            let speeds = SpeedAssignment::new(vec![s; n]);
            let wcm = crate::sgraph::worst_case_makespan_dp(ctx, &schedule, &speeds);
            if wcm <= deadline + 1e-9 {
                return Ok(Solution { schedule, speeds });
            }
        }
        let nominal = SpeedAssignment::nominal(n);
        let makespan = crate::sgraph::worst_case_makespan_dp(ctx, &schedule, &nominal);
        Err(SchedError::DeadlineUnreachable { makespan, deadline })
    }
}

/// Shared EFT list-scheduling loop of [`HeftScheduler`] and
/// [`LookaheadScheduler`], over the probability-weighted upward `ranks`
/// ([`static_levels`] of the table).
///
/// Ready tasks are ordered by descending probability-weighted rank (ties
/// on the lower task id); the selected task goes to the feasible PE with
/// the lowest score — earliest finish time, plus (with `lookahead`) the
/// estimated finish of the task's most critical successor under that
/// placement. Start times honour the same communication arrivals and
/// mutex-overlap exemption as the DLS pass ([`earliest_start`]).
fn eft_list_schedule(
    ctx: &SchedContext,
    ranks: &[f64],
    lookahead: bool,
) -> Result<Schedule, SchedError> {
    let ctg = ctx.ctg();
    let platform = ctx.platform();
    let profile = platform.profile();
    let n = ctg.num_tasks();

    let cg = ctx.compiled();
    let mut remaining: Vec<usize> = ctg.tasks().map(|t| cg.num_preds(t)).collect();
    let mut ready: Vec<TaskId> = (0..n)
        .filter(|&t| remaining[t] == 0)
        .map(TaskId::new)
        .collect();
    let mut scheduled = vec![false; n];
    let mut assignment = vec![PeId::new(0); n];
    let mut start = vec![0.0_f64; n];
    let mut finish = vec![0.0_f64; n];
    let mut pe_order: Vec<Vec<TaskId>> = vec![Vec::new(); platform.num_pes()];
    let mut task_order = Vec::with_capacity(n);

    while !ready.is_empty() {
        // Highest rank first; ties break on the lower task id. The scan is
        // sequential over the ready list, so the pick is deterministic.
        let &t = ready
            .iter()
            .max_by(|&&a, &&b| {
                ranks[a.index()]
                    .partial_cmp(&ranks[b.index()])
                    .expect("finite ranks")
                    .then(b.cmp(&a))
            })
            .expect("ready list non-empty");

        // Lowest score wins; ties on earlier start, then the lower PE id —
        // the same epsilon discipline as the DLS comparator, folded in PE
        // scan order.
        let mut best: Option<(f64, f64, PeId)> = None; // (score, at, pe)
        for pe in platform.pes() {
            if !profile.can_run(t.index(), pe) {
                continue;
            }
            let at = earliest_start(
                ctx,
                cg.preds(t),
                t,
                pe,
                &scheduled,
                &assignment,
                &finish,
                &pe_order,
                true,
            );
            if !at.is_finite() {
                continue; // missing link to a predecessor's PE
            }
            let eft = at + profile.wcet(t.index(), pe);
            let score = if lookahead {
                eft + lookahead_penalty(ctx, ranks, t, pe, eft)
            } else {
                eft
            };
            let wins = match best {
                None => true,
                Some((bs, bat, bpe)) => {
                    score < bs - 1e-12
                        || ((score - bs).abs() <= 1e-12
                            && (at < bat - 1e-12 || ((at - bat).abs() <= 1e-12 && pe < bpe)))
                }
            };
            if wins {
                best = Some((score, at, pe));
            }
        }
        let (_, at, pe) = best.ok_or(SchedError::NoFeasiblePe(t))?;

        let wcet = profile.wcet(t.index(), pe);
        scheduled[t.index()] = true;
        assignment[t.index()] = pe;
        start[t.index()] = at;
        finish[t.index()] = at + wcet;
        let pos = pe_order[pe.index()]
            .binary_search_by(|&x| {
                start[x.index()]
                    .partial_cmp(&at)
                    .expect("finite start times")
            })
            .unwrap_or_else(|p| p);
        pe_order[pe.index()].insert(pos, t);
        task_order.push(t);
        ready.retain(|&x| x != t);
        for &s in cg.succs(t) {
            remaining[s.index()] -= 1;
            if remaining[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    debug_assert_eq!(task_order.len(), n, "all tasks must be scheduled");
    Ok(Schedule {
        assignment,
        start,
        finish,
        pe_order,
        task_order,
    })
}

/// The lookahead term: the increase over `eft` of the estimated earliest
/// finish of `t`'s most critical successor when `t` finishes on `pe` at
/// `eft`. The estimate optimistically places the child on its best PE,
/// charging only the `t → child` communication — a one-step probe, not a
/// recursive schedule. `0.0` for exit tasks or children with no feasible
/// placement (the real scheduling of the child will surface that).
fn lookahead_penalty(ctx: &SchedContext, ranks: &[f64], t: TaskId, pe: PeId, eft: f64) -> f64 {
    let ctg = ctx.ctg();
    let profile = ctx.platform().profile();
    let comm = ctx.platform().comm();
    let mut crit: Option<(f64, TaskId, f64)> = None; // (rank, child, kbytes)
    for (_, e) in ctg.out_edges(t) {
        let c = e.dst();
        let r = ranks[c.index()];
        let wins = match crit {
            None => true,
            Some((br, bc, _)) => r > br + 1e-12 || ((r - br).abs() <= 1e-12 && c < bc),
        };
        if wins {
            crit = Some((r, c, e.comm_kbytes()));
        }
    }
    let Some((_, child, kbytes)) = crit else {
        return 0.0;
    };
    let mut best: Option<f64> = None;
    for q in ctx.platform().pes() {
        if !profile.can_run(child.index(), q) {
            continue;
        }
        let arrival = eft + comm.delay(pe, q, kbytes);
        if !arrival.is_finite() {
            continue;
        }
        let fin = arrival + profile.wcet(child.index(), q);
        best = Some(match best {
            None => fin,
            Some(b) => b.min(fin),
        });
    }
    best.map_or(0.0, |b| (b - eft).max(0.0))
}

/// A portfolio entry selector: which [`CtgScheduler`] implementation to
/// run, each at its default configuration. A plain `Copy` enum (rather
/// than boxed trait objects) keeps every carrier — managers, configs,
/// campaign cells — `Clone` and comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Modified DLS + probability-weighted stretching (the paper's online
    /// algorithm; bit-identical to [`OnlineScheduler`]).
    Dls,
    /// HEFT with probability-weighted upward ranks.
    Heft,
    /// One-step lookahead list scheduler.
    Lookahead,
    /// Frame-based DVFS baseline (uniform frame speed).
    FrameDvfs,
}

impl SchedulerKind {
    /// Every kind, in the canonical (win-counter) order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Dls,
        SchedulerKind::Heft,
        SchedulerKind::Lookahead,
        SchedulerKind::FrameDvfs,
    ];

    /// Number of kinds — the length of per-kind win-counter arrays.
    pub const COUNT: usize = Self::ALL.len();

    /// The stable identifier used in bench columns, env overrides and
    /// campaign axis labels.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Dls => "dls",
            SchedulerKind::Heft => "heft",
            SchedulerKind::Lookahead => "lookahead",
            SchedulerKind::FrameDvfs => "frame",
        }
    }

    /// Index into [`SchedulerKind::ALL`]-ordered win-counter arrays.
    pub fn index(self) -> usize {
        match self {
            SchedulerKind::Dls => 0,
            SchedulerKind::Heft => 1,
            SchedulerKind::Lookahead => 2,
            SchedulerKind::FrameDvfs => 3,
        }
    }

    /// Parses a kind from its [`SchedulerKind::name`] (ASCII
    /// case-insensitive, surrounding whitespace ignored).
    pub fn parse(raw: &str) -> Option<SchedulerKind> {
        let t = raw.trim();
        Self::ALL
            .into_iter()
            .find(|k| t.eq_ignore_ascii_case(k.name()))
    }

    /// For the HEFT-family kinds, the list pass's lookahead flag and the
    /// stretch configuration of the kind's default entry; `None` for kinds
    /// that solve through their own pipeline.
    fn list_entry(self) -> Option<(bool, StretchConfig)> {
        match self {
            SchedulerKind::Heft => Some((false, HeftScheduler::new().cfg)),
            SchedulerKind::Lookahead => Some((true, LookaheadScheduler::new().cfg)),
            SchedulerKind::Dls | SchedulerKind::FrameDvfs => None,
        }
    }

    /// Solves through a fresh workspace (see
    /// [`SchedulerKind::solve_with_workspace`]).
    ///
    /// # Errors
    ///
    /// Same as the implementor's [`CtgScheduler::solve_with_workspace`].
    pub fn solve(self, ctx: &SchedContext, probs: &BranchProbs) -> Result<Solution, SchedError> {
        let mut ws = SolverWorkspace::new();
        self.solve_with_workspace(ctx, probs, &mut ws)
    }

    /// Solves through the kind's implementor at default configuration.
    ///
    /// # Errors
    ///
    /// Same as the implementor's [`CtgScheduler::solve_with_workspace`].
    pub fn solve_with_workspace(
        self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        workspace: &mut SolverWorkspace,
    ) -> Result<Solution, SchedError> {
        match self {
            SchedulerKind::Dls => {
                CtgScheduler::solve_with_workspace(&OnlineScheduler::new(), ctx, probs, workspace)
            }
            SchedulerKind::Heft => HeftScheduler::new().solve_with_workspace(ctx, probs, workspace),
            SchedulerKind::Lookahead => {
                LookaheadScheduler::new().solve_with_workspace(ctx, probs, workspace)
            }
            SchedulerKind::FrameDvfs => {
                FrameDvfsScheduler::new().solve_with_workspace(ctx, probs, workspace)
            }
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The default racing portfolio: the paper's DLS first (so a tie can never
/// adopt anything but the historic plan), then the HEFT-family variants.
/// The frame-based baseline is excluded by default — it exists for bench
/// columns, and its uniform speed almost never beats per-task stretching.
pub const DEFAULT_PORTFOLIO: [SchedulerKind; 3] = [
    SchedulerKind::Dls,
    SchedulerKind::Heft,
    SchedulerKind::Lookahead,
];

/// Parses a scheduler selection string: a single kind name
/// (`"dls"`, `"heft"`, …), the literal `"portfolio"` (the
/// [`DEFAULT_PORTFOLIO`]), or a comma-separated kind list
/// (`"dls,heft,frame"`). Returns `None` for anything unparsable.
pub fn parse_scheduler_selection(raw: &str) -> Option<Vec<SchedulerKind>> {
    let t = raw.trim();
    if t.is_empty() {
        return None;
    }
    if t.eq_ignore_ascii_case("portfolio") {
        return Some(DEFAULT_PORTFOLIO.to_vec());
    }
    t.split(',').map(SchedulerKind::parse).collect()
}

/// Win/loss bookkeeping for portfolio races. `wins` is a fixed per-kind
/// array (indexed by [`SchedulerKind::index`]) rather than a map so the
/// carriers — manager stats, serve summaries — stay `Copy`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Races run (one per drift-event solve while portfolio mode is on —
    /// cache hits replay a past winner without racing).
    pub races: usize,
    /// Races won per scheduler kind, indexed by [`SchedulerKind::index`].
    pub wins: [usize; SchedulerKind::COUNT],
}

/// Outcome of one portfolio race: the adopted entry and its plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceOutcome {
    /// Index into the racing kind slice of the adopted entry.
    pub winner: usize,
    /// The adopted solution.
    pub solution: Solution,
    /// The adopted plan's expected energy under the raced table.
    pub energy: f64,
}

/// What one race entry still has to do once the list passes have run.
enum RaceJob {
    /// Solve through the entry's own pipeline (DLS, frame).
    Solve,
    /// Stretch this list schedule under this configuration through the
    /// entry's workspace.
    Stretch(Schedule, StretchConfig),
    /// The list pass failed with this error.
    Failed(SchedError),
    /// Same list schedule and configuration as this earlier entry: take a
    /// clone of its result.
    Share(usize),
}

/// Races `kinds` over one probability table and crowns the winner.
///
/// The HEFT-family entries' list schedules are computed first, on the
/// caller's thread. Entries are then evaluated against their own workspace
/// (`workspaces[i]` belongs to `kinds[i]`; per-entry state never mixes
/// across schedulers, so the DLS entry's memo keys stay sound), except that
/// an entry whose list schedule and stretch configuration equal an earlier
/// entry's gets a clone of that entry's result and leaves its workspace
/// untouched — at any `workers`. With `workers > 1` the evaluations fan out
/// on the intra-solve pool ([`crate::par::map_ordered`]) and merge in
/// submission order; the verdict is then a **sequential fold in entry
/// order**:
///
/// 1. among candidates whose worst-case makespan is within the deadline
///    (`wcm <= deadline + 1e-6`, the tolerance of the adaptive manager's
///    judge), the strictly lowest expected energy wins — ties keep the
///    earliest entry. Every candidate is priced against one set of
///    [`crate::ActivationWeights`] built per race, and the winner's energy
///    is the one the fold computed;
/// 2. if no candidate is schedulable, the strictly lowest worst-case
///    makespan wins (degrade like a failed resilient solve would, with
///    the least-bad plan);
/// 3. if every entry failed, the first error in entry order propagates.
///
/// The fold never consults timing, so the winner is bit-identical at any
/// `workers`; a shared entry ties its source's energy and makespan, so
/// strict `<` keeps the earlier entry exactly as a separate solve would. In
/// debug and test builds every schedulable candidate must also pass
/// [`crate::validate_solution`]. A `portfolio_race` span records the winner
/// index (`-1` when every entry failed).
///
/// # Errors
///
/// The first entry's error, in entry order, when all entries fail.
///
/// # Panics
///
/// Panics if `kinds` is empty or `workspaces` has a different length.
pub fn race_portfolio(
    kinds: &[SchedulerKind],
    ctx: &SchedContext,
    probs: &BranchProbs,
    workspaces: &mut [SolverWorkspace],
    workers: usize,
    obs: &Obs,
    track: u32,
) -> Result<RaceOutcome, SchedError> {
    assert!(
        !kinds.is_empty(),
        "a portfolio race needs at least one entry"
    );
    assert_eq!(
        kinds.len(),
        workspaces.len(),
        "one workspace per racing scheduler"
    );
    let span = obs.span(track, Stage::PortfolioRace);
    obs.count(Counter::PortfolioRaces, 1);

    // The list entries' EFT passes are cheap next to any stretch, so they
    // all run first, on the caller's thread, over one shared rank table.
    // Knowing every list schedule up front lets an entry whose (schedule,
    // stretch configuration) equals an earlier entry's take a clone of that
    // entry's result instead of stretching the same plan again: the
    // stretch is a pure function of (ctx, probs, schedule, config).
    let ranks = kinds
        .iter()
        .any(|k| k.list_entry().is_some())
        .then(|| static_levels(ctx, probs));
    let mut jobs: Vec<RaceJob> = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let job = match (kind.list_entry(), &ranks) {
            (Some((lookahead, cfg)), Some(ranks)) => match eft_list_schedule(ctx, ranks, lookahead)
            {
                Err(e) => RaceJob::Failed(e),
                Ok(schedule) => match jobs.iter().position(
                    |j| matches!(j, RaceJob::Stretch(s, c) if *s == schedule && *c == cfg),
                ) {
                    Some(earlier) => RaceJob::Share(earlier),
                    None => RaceJob::Stretch(schedule, cfg),
                },
            },
            _ => RaceJob::Solve,
        };
        jobs.push(job);
    }
    let shares: Vec<Option<usize>> = jobs
        .iter()
        .map(|j| match j {
            RaceJob::Share(earlier) => Some(*earlier),
            _ => None,
        })
        .collect();
    let own: Vec<usize> = (0..kinds.len()).filter(|&i| shares[i].is_none()).collect();

    // Each entry runs against its own (mutex-wrapped) workspace; every
    // index is claimed exactly once, so the locks never contend — they
    // only let `&mut` state cross the scoped-thread boundary.
    let slots: Vec<std::sync::Mutex<(Option<RaceJob>, &mut SolverWorkspace)>> = jobs
        .into_iter()
        .zip(workspaces.iter_mut())
        .map(|(job, ws)| std::sync::Mutex::new((Some(job), ws)))
        .collect();
    let run = |i: usize| {
        let mut slot = slots[i].lock().expect("race workspace lock");
        let (job, ws) = &mut *slot;
        match job.take().expect("each entry runs once") {
            RaceJob::Solve => kinds[i].solve_with_workspace(ctx, probs, ws),
            RaceJob::Stretch(schedule, cfg) => ws.stretch_list_schedule(&cfg, ctx, probs, schedule),
            RaceJob::Failed(e) => Err(e),
            RaceJob::Share(_) => unreachable!("shared entries are not run"),
        }
    };
    let mut solved = if workers > 1 && own.len() > 1 {
        crate::par::map_ordered(&own, workers, |_, &i| run(i))
    } else {
        own.iter().map(|&i| run(i)).collect()
    }
    .into_iter();
    let mut results: Vec<Result<Solution, SchedError>> = Vec::with_capacity(kinds.len());
    for share in &shares {
        let r = match share {
            Some(earlier) => results[*earlier].clone(),
            None => solved.next().expect("one result per entry that ran"),
        };
        results.push(r);
    }

    // Every candidate is priced against the same table, so its activation
    // weights are derived once per race rather than once per candidate.
    let weights = ctx.activation_weights(probs);
    let deadline = ctx.ctg().deadline();
    let mut best: Option<(usize, f64)> = None; // schedulable: (entry, energy)
    let mut fallback: Option<(usize, f64)> = None; // none schedulable: (entry, wcm)
    for (i, r) in results.iter().enumerate() {
        let Ok(sol) = r else { continue };
        let wcm = sol.worst_case_makespan(ctx);
        if wcm <= deadline + SCHEDULABILITY_TOL {
            // The adoption gate: a plan that passes the schedulability
            // test must also pass the full structural check (debug and
            // test builds only — release races pay nothing).
            debug_assert_eq!(
                crate::validate::validate_solution(ctx, &sol.schedule, &sol.speeds),
                Ok(()),
                "race entry {i} ({}) passed the schedulability test with an invalid plan",
                kinds[i]
            );
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
            let sol = results[i].as_ref().expect("fallback entry solved");
            (
                i,
                expected_energy_weighted(ctx, &weights, &sol.schedule, &sol.speeds),
            )
        })
    });
    let Some((i, energy)) = winner else {
        span.end(-1);
        return Err(results
            .into_iter()
            .find_map(Result::err)
            .expect("no winner means every entry errored"));
    };
    let solution = results
        .into_iter()
        .nth(i)
        .expect("winner index in range")
        .expect("winner solved");
    let outcome = RaceOutcome {
        winner: i,
        solution,
        energy,
    };
    span.end(i as i64);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::example1_context;

    #[test]
    fn dls_entry_is_bit_identical_to_the_online_scheduler() {
        let (ctx, probs, ids) = example1_context();
        let [_, _, t3, ..] = ids;
        let online = OnlineScheduler::new();
        for dist in [vec![0.5, 0.5], vec![0.9, 0.1], vec![0.2, 0.8]] {
            let mut p = probs.clone();
            p.set(t3, dist).unwrap();
            let a = online.solve(&ctx, &p).unwrap();
            let b = SchedulerKind::Dls.solve(&ctx, &p).unwrap();
            assert_eq!(a, b);
            let c = CtgScheduler::solve(&online, &ctx, &p).unwrap();
            assert_eq!(a, c);
        }
    }

    #[test]
    fn all_kinds_produce_valid_schedulable_solutions() {
        let (ctx, probs, _) = example1_context();
        for kind in SchedulerKind::ALL {
            let mut ws = SolverWorkspace::new();
            let sol = kind
                .solve_with_workspace(&ctx, &probs, &mut ws)
                .unwrap_or_else(|e| panic!("{kind} failed: {e:?}"));
            crate::validate::validate_solution(&ctx, &sol.schedule, &sol.speeds)
                .unwrap_or_else(|v| panic!("{kind} invalid: {v:?}"));
            assert!(
                sol.worst_case_makespan(&ctx) <= ctx.ctg().deadline() + 1e-6,
                "{kind} must be schedulable on the loose example deadline"
            );
        }
    }

    #[test]
    fn frame_speed_is_uniform_and_feasible() {
        let (ctx, probs, _) = example1_context();
        let sol = FrameDvfsScheduler::new().solve(&ctx, &probs).unwrap();
        let s0 = sol.speeds.speed(TaskId::new(0));
        for t in ctx.ctg().tasks() {
            assert_eq!(sol.speeds.speed(t).to_bits(), s0.to_bits());
        }
        // The next lower level must be infeasible (lowest feasible wins).
        if s0 > 1.0 / FRAME_SPEED_LEVELS as f64 + 1e-12 {
            let lower = s0 - 1.0 / FRAME_SPEED_LEVELS as f64;
            let speeds = SpeedAssignment::new(vec![lower; ctx.ctg().num_tasks()]);
            let wcm = crate::sgraph::worst_case_makespan_dp(&ctx, &sol.schedule, &speeds);
            assert!(wcm > ctx.ctg().deadline() + 1e-9);
        }
    }

    #[test]
    fn race_prefers_the_lowest_energy_schedulable_plan() {
        let (ctx, probs, _) = example1_context();
        let kinds = DEFAULT_PORTFOLIO;
        let mut wss: Vec<SolverWorkspace> = kinds.iter().map(|_| SolverWorkspace::new()).collect();
        let obs = Obs::disabled();
        let out = race_portfolio(&kinds, &ctx, &probs, &mut wss, 1, &obs, 0).unwrap();
        // The winner can never be worse than the DLS entry (entry 0).
        let dls = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        assert!(out.energy <= dls.expected_energy(&ctx, &probs) + 1e-9);
        assert_eq!(
            out.solution,
            kinds[out.winner].solve(&ctx, &probs).unwrap(),
            "the adopted plan is exactly the winner's solve"
        );
    }

    #[test]
    fn race_is_bit_identical_across_worker_counts() {
        let (ctx, probs, ids) = example1_context();
        let [_, _, t3, ..] = ids;
        let kinds = [
            SchedulerKind::Dls,
            SchedulerKind::Heft,
            SchedulerKind::Lookahead,
            SchedulerKind::FrameDvfs,
        ];
        let obs = Obs::disabled();
        for dist in [vec![0.5, 0.5], vec![0.85, 0.15]] {
            let mut p = probs.clone();
            p.set(t3, dist).unwrap();
            let mut base: Option<RaceOutcome> = None;
            for workers in [1usize, 2, 4] {
                let mut wss: Vec<SolverWorkspace> =
                    kinds.iter().map(|_| SolverWorkspace::new()).collect();
                let out = race_portfolio(&kinds, &ctx, &p, &mut wss, workers, &obs, 0).unwrap();
                match &base {
                    None => base = Some(out),
                    Some(b) => {
                        assert_eq!(b.winner, out.winner, "workers={workers}");
                        assert_eq!(b.solution, out.solution, "workers={workers}");
                        assert_eq!(b.energy.to_bits(), out.energy.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn race_ties_keep_the_earliest_entry() {
        // Racing DLS against itself: equal energies, entry 0 must win.
        let (ctx, probs, _) = example1_context();
        let kinds = [SchedulerKind::Dls, SchedulerKind::Dls];
        let mut wss: Vec<SolverWorkspace> = kinds.iter().map(|_| SolverWorkspace::new()).collect();
        let obs = Obs::disabled();
        let out = race_portfolio(&kinds, &ctx, &probs, &mut wss, 2, &obs, 0).unwrap();
        assert_eq!(out.winner, 0);
    }

    #[test]
    fn race_propagates_the_first_error_when_all_fail() {
        // A deadline below every schedule's makespan: every entry fails.
        let (ctg, _) = crate::test_util::example1_ctg(1e-3);
        let probs = BranchProbs::uniform(&ctg);
        let platform = crate::test_util::uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let tight = SchedContext::new(ctg, platform).unwrap();
        let kinds = DEFAULT_PORTFOLIO;
        let mut wss: Vec<SolverWorkspace> = kinds.iter().map(|_| SolverWorkspace::new()).collect();
        let obs = Obs::disabled();
        let err = race_portfolio(&kinds, &tight, &probs, &mut wss, 1, &obs, 0).unwrap_err();
        let dls_err = OnlineScheduler::new().solve(&tight, &probs).unwrap_err();
        assert_eq!(err, dls_err, "first entry's error propagates");
    }

    #[test]
    fn selection_parsing() {
        assert_eq!(SchedulerKind::parse(" HEFT "), Some(SchedulerKind::Heft));
        assert_eq!(SchedulerKind::parse("nope"), None);
        assert_eq!(
            parse_scheduler_selection("portfolio"),
            Some(DEFAULT_PORTFOLIO.to_vec())
        );
        assert_eq!(
            parse_scheduler_selection("dls,frame"),
            Some(vec![SchedulerKind::Dls, SchedulerKind::FrameDvfs])
        );
        assert_eq!(parse_scheduler_selection("dls,bogus"), None);
        assert_eq!(parse_scheduler_selection(""), None);
        for k in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(k.name()), Some(k));
            assert_eq!(SchedulerKind::ALL[k.index()], k);
        }
    }
}
