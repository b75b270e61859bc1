//! The window-based adaptive scheduling and DVFS manager (paper §III.B).
//!
//! For each branch fork node a fixed-length buffer stores the most recent
//! branch decisions of the executed instances. After every instance the
//! windowed probability estimates are recomputed; when any estimate drifts
//! from the probabilities underlying the current schedule by more than a
//! threshold, the probabilities are re-latched and the online scheduling +
//! DVFS algorithm is re-run ("a call"). The behaviour is that of a low-pass
//! filter over the branch probability signal (the paper's *filtered Prob*
//! series in Figure 4).

use crate::cache::{LruCache, ScheduleKey};
use crate::context::SchedContext;
use crate::error::SchedError;
use crate::online::{OnlineScheduler, Solution, SCHEDULABILITY_TOL};
use crate::scheduler::{race_portfolio, PortfolioStats, SchedulerKind};
use crate::speed::SpeedAssignment;
use crate::workspace::{SolverWorkspace, WorkspaceStats};
use ctg_model::{BranchProbs, DecisionVector, TaskId};
use ctg_obs::{Counter, Obs, Stage};
use std::collections::VecDeque;

/// How the manager estimates branch probabilities from observed decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Fixed-length sliding window (the paper's approach).
    Window(usize),
    /// Exponentially weighted moving average with smoothing factor
    /// `alpha ∈ (0, 1]` (extension): heavier `alpha` reacts faster. An EWMA
    /// needs no per-decision buffer and forgets smoothly instead of
    /// abruptly.
    Ewma(f64),
}

/// A per-branch probability estimator.
#[derive(Debug, Clone)]
enum Estimator {
    Window(SlidingWindow),
    Ewma(EwmaEstimator),
}

impl Estimator {
    fn new(kind: EstimatorKind, alts: u8) -> Result<Self, SchedError> {
        match kind {
            EstimatorKind::Window(len) => {
                if len == 0 {
                    return Err(SchedError::InvalidParameter(
                        "window length must be positive",
                    ));
                }
                Ok(Estimator::Window(SlidingWindow::new(alts, len)))
            }
            EstimatorKind::Ewma(alpha) => {
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return Err(SchedError::InvalidParameter(
                        "EWMA alpha must lie in (0, 1]",
                    ));
                }
                Ok(Estimator::Ewma(EwmaEstimator::new(alts, alpha)))
            }
        }
    }

    fn push(&mut self, alt: u8) {
        match self {
            Estimator::Window(w) => w.push(alt),
            Estimator::Ewma(e) => e.push(alt),
        }
    }

    fn estimate(&self) -> Option<Vec<f64>> {
        match self {
            Estimator::Window(w) => w.estimate(),
            Estimator::Ewma(e) => e.estimate(),
        }
    }
}

/// Exponentially weighted moving average over branch decisions.
#[derive(Debug, Clone)]
pub struct EwmaEstimator {
    weights: Vec<f64>,
    alpha: f64,
    observed: bool,
}

impl EwmaEstimator {
    /// Creates an estimator for a fork with `alts` alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `alts < 2`.
    pub fn new(alts: u8, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0, 1]");
        assert!(alts >= 2, "a branch has at least two alternatives");
        EwmaEstimator {
            weights: vec![0.0; alts as usize],
            alpha,
            observed: false,
        }
    }

    /// Folds one decision into the average.
    pub fn push(&mut self, alt: u8) {
        debug_assert!((alt as usize) < self.weights.len());
        if !self.observed {
            // First observation: start from the one-hot distribution, like a
            // window of length one.
            self.weights[alt as usize] = 1.0;
            self.observed = true;
            return;
        }
        for w in &mut self.weights {
            *w *= 1.0 - self.alpha;
        }
        self.weights[alt as usize] += self.alpha;
    }

    /// The current estimate, or `None` before the first observation.
    pub fn estimate(&self) -> Option<Vec<f64>> {
        if !self.observed {
            return None;
        }
        let total: f64 = self.weights.iter().sum();
        Some(self.weights.iter().map(|w| w / total).collect())
    }
}

/// Sliding window of recent decisions for one branch fork node.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    alts: u8,
    window: VecDeque<u8>,
    capacity: usize,
}

impl SlidingWindow {
    /// Creates an empty window of length `capacity` for a fork with `alts`
    /// alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `alts < 2`.
    pub fn new(alts: u8, capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(alts >= 2, "a branch has at least two alternatives");
        SlidingWindow {
            alts,
            window: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Shifts a new decision into the window, evicting the oldest when full.
    pub fn push(&mut self, alt: u8) {
        debug_assert!(alt < self.alts);
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(alt);
    }

    /// Number of recorded decisions (≤ capacity).
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no decision has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The current windowed estimate, or `None` while the window is empty.
    pub fn estimate(&self) -> Option<Vec<f64>> {
        if self.window.is_empty() {
            return None;
        }
        let mut counts = vec![0usize; self.alts as usize];
        for &a in &self.window {
            counts[a as usize] += 1;
        }
        let n = self.window.len() as f64;
        Some(counts.into_iter().map(|c| c as f64 / n).collect())
    }
}

/// Statistics of an adaptive run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveStats {
    /// Instances observed so far.
    pub instances: usize,
    /// Number of times the online scheduling + DVFS was (re-)invoked *and
    /// its candidate adopted*, excluding the initial solve. A schedule-cache
    /// hit is not a call: the whole point of the cache is saving them.
    pub calls: usize,
    /// Adopted re-schedule events: solver calls plus adopted cache hits.
    /// Equals [`AdaptiveStats::calls`] while the cache is disabled.
    pub reschedules: usize,
    /// Schedule-cache lookups answered from the cache (0 while disabled).
    pub cache_hits: usize,
    /// Schedule-cache lookups that fell through to the solver (0 while
    /// disabled). Counts rejected/failed candidates too — it tallies solve
    /// attempts, not adoptions.
    pub cache_misses: usize,
}

/// A memoised solver result: the exact probability table it was solved for
/// and the solution produced.
#[derive(Debug, Clone)]
struct CacheEntry {
    probs: BranchProbs,
    solution: Solution,
}

/// Capacity of each workspace's quantised near-miss memo: enough buckets
/// for the distinct operating points a drifting trace cycles through
/// (the harvested MPEG drift run revisits roughly a hundred per period —
/// an LRU smaller than the revisit cycle thrashes and never replays),
/// while entries (a schedule, a speed table and a probability table)
/// stay small enough that the memo costs well under a megabyte.
const NEAR_MEMO_CAP: usize = 128;

/// Returns the workspace in `slot`, creating it on first use with the
/// manager's replayed settings (near memo at the drift threshold,
/// telemetry, budget, intra-solve workers). A free function rather than a
/// method so callers can borrow `slot` mutably while other fields of the
/// manager stay readable.
fn ensure_workspace<'a>(
    slot: &'a mut Option<Box<SolverWorkspace>>,
    threshold: f64,
    obs: &Obs,
    obs_track: u32,
    budget: Option<u64>,
    intra: Option<usize>,
) -> &'a mut SolverWorkspace {
    slot.get_or_insert_with(|| {
        let mut ws = SolverWorkspace::new();
        ws.set_near_memo(threshold, NEAR_MEMO_CAP);
        ws.set_obs(obs.clone(), obs_track);
        ws.set_budget(budget);
        if let Some(workers) = intra {
            ws.set_intra_workers(workers);
        }
        Box::new(ws)
    })
}

/// Outcome of a resilient (re-)scheduling attempt.
///
/// Returned by [`AdaptiveScheduler::observe_resilient`] and
/// [`AdaptiveScheduler::resolve_now`]: instead of propagating solver
/// failures, the attempt keeps the last-known-good solution and reports
/// what happened so the caller can account for it.
#[derive(Debug, Clone, PartialEq)]
pub enum ObserveOutcome {
    /// No drift beyond the threshold; the solution in force is unchanged.
    NoDrift,
    /// A new solution was solved and adopted.
    Rescheduled,
    /// The candidate solved, but its worst-case makespan was worse than
    /// both the deadline and the incumbent solution's; kept last-known-good.
    RejectedWorse {
        /// The rejected candidate's worst-case makespan.
        worst_case: f64,
    },
    /// The solver failed; kept last-known-good.
    SolveFailed(SchedError),
}

/// The adaptive scheduler: wraps the online algorithm with per-branch
/// sliding-window profiling and threshold-triggered re-scheduling.
///
/// # Example
///
/// ```
/// use ctg_sched::{AdaptiveScheduler, SchedContext};
/// use ctg_model::{BranchProbs, CtgBuilder, DecisionVector};
/// use mpsoc_platform::PlatformBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CtgBuilder::new("g");
/// let f = b.add_task("fork");
/// let x = b.add_task("x");
/// let y = b.add_task("y");
/// b.add_cond_edge(f, x, 0, 0.0)?;
/// b.add_cond_edge(f, y, 1, 0.0)?;
/// let ctg = b.deadline(30.0).build()?;
///
/// let mut pb = PlatformBuilder::new(3);
/// pb.add_pe("p0");
/// for t in 0..3 {
///     pb.set_wcet_row(t, vec![2.0])?;
///     pb.set_energy_row(t, vec![2.0])?;
/// }
/// let ctx = SchedContext::new(ctg, pb.build()?)?;
///
/// let probs = BranchProbs::uniform(ctx.ctg());
/// let mut adaptive = AdaptiveScheduler::new(&ctx, probs, 8, 0.3)?;
/// // Feed a run of all-alternative-0 decisions: the estimate drifts to 1.0
/// // and re-scheduling triggers.
/// for _ in 0..10 {
///     adaptive.observe(&ctx, &DecisionVector::new(vec![0]))?;
/// }
/// assert!(adaptive.stats().calls >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveScheduler {
    scheduler: OnlineScheduler,
    estimators: Vec<Estimator>,
    current_probs: BranchProbs,
    threshold: f64,
    solution: Solution,
    stats: AdaptiveStats,
    /// Deadline multiplier in `(0, 1]` applied to resilient re-solves
    /// (guard-band rung of the degradation ladder); 1.0 = paper behaviour.
    deadline_guard: f64,
    /// Memoised solver results; `None` means caching is disabled (the
    /// default, which reproduces the paper's re-solve-on-every-drift
    /// behaviour exactly).
    cache: Option<LruCache<ScheduleKey, CacheEntry>>,
    /// Warm-start solver state for unguarded solves — bit-for-bit
    /// equivalent to calling the scheduler from scratch, but structurally
    /// incremental across re-schedules. Boxed and allocated on first use:
    /// a serving engine holds one manager per stream but solves through a
    /// per-*worker* workspace, so at fleet scale (100k+ streams) an
    /// eagerly built inline workspace is pure resident dead weight. The
    /// workspace's warm==cold contract makes the deferral invisible in
    /// results.
    workspace: Option<Box<SolverWorkspace>>,
    /// Separate warm-start state for guard-banded solves: those run
    /// against a deadline-scaled context, and the two streams must not
    /// thrash each other's incumbents (the workspace re-binds by context
    /// content, so interleaving them would discard the warm state every
    /// call). Lazily allocated like `workspace` — most managers never
    /// solve with a guard band at all.
    guard_workspace: Option<Box<SolverWorkspace>>,
    /// Replayed onto lazily created workspaces: the per-solve work budget
    /// in force (`None` = unbudgeted).
    ws_budget: Option<u64>,
    /// Replayed onto lazily created workspaces: explicitly configured
    /// intra-solve worker count (`None` = inherit the process default at
    /// creation, exactly like an eagerly built workspace would have).
    ws_intra: Option<usize>,
    /// Scheduler-portfolio racing state; `None` (the default) keeps the
    /// manager solving through the paper's DLS pipeline alone, bit-for-bit
    /// as before the portfolio existed.
    portfolio: Option<PortfolioState>,
    /// Telemetry handle (disabled by default); drift/adopt/cache events are
    /// recorded against `obs_track`.
    obs: Obs,
    obs_track: u32,
}

/// Racing state for portfolio mode: the configured entries, one private
/// workspace per entry (warm layers are keyed by inputs only, so state
/// must never mix across schedulers), and the win counters.
#[derive(Debug, Clone)]
struct PortfolioState {
    kinds: Vec<SchedulerKind>,
    workspaces: Vec<SolverWorkspace>,
    stats: PortfolioStats,
}

impl AdaptiveScheduler {
    /// Creates the manager, solving once with the initial (profiled)
    /// probabilities.
    ///
    /// # Errors
    ///
    /// Rejects invalid window length / threshold, probability tables not
    /// matching the graph, and scheduling failures.
    pub fn new(
        ctx: &SchedContext,
        initial_probs: BranchProbs,
        window: usize,
        threshold: f64,
    ) -> Result<Self, SchedError> {
        Self::with_scheduler(
            ctx,
            initial_probs,
            window,
            threshold,
            OnlineScheduler::new(),
        )
    }

    /// Like [`AdaptiveScheduler::new`] with a custom online scheduler.
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveScheduler::new`].
    pub fn with_scheduler(
        ctx: &SchedContext,
        initial_probs: BranchProbs,
        window: usize,
        threshold: f64,
        scheduler: OnlineScheduler,
    ) -> Result<Self, SchedError> {
        Self::with_estimator(
            ctx,
            initial_probs,
            EstimatorKind::Window(window),
            threshold,
            scheduler,
        )
    }

    /// Builds the manager with an explicit probability estimator (sliding
    /// window or EWMA).
    ///
    /// # Errors
    ///
    /// Same as [`AdaptiveScheduler::new`], plus estimator-parameter errors.
    pub fn with_estimator(
        ctx: &SchedContext,
        initial_probs: BranchProbs,
        kind: EstimatorKind,
        threshold: f64,
        scheduler: OnlineScheduler,
    ) -> Result<Self, SchedError> {
        let estimators = Self::build_estimators(ctx, &initial_probs, kind, threshold)?;
        let mut workspace = SolverWorkspace::new();
        let solution = workspace.solve(scheduler.config(), ctx, &initial_probs)?;
        Ok(Self::assemble(
            scheduler,
            estimators,
            initial_probs,
            threshold,
            solution,
            Some(Box::new(workspace)),
        ))
    }

    /// Builds the manager around an *externally supplied* initial solution,
    /// skipping the construction-time solve.
    ///
    /// `solution` **must** be exactly what `scheduler` would produce for
    /// `(ctx, initial_probs)` — the caller vouches for that. The serving
    /// engine uses this to solve one initial table once and fan it out to
    /// every stream that starts from it; since the solver is deterministic,
    /// the fanned-out manager is indistinguishable from one built with
    /// [`AdaptiveScheduler::with_estimator`].
    ///
    /// # Errors
    ///
    /// Rejects invalid estimator parameters / thresholds and probability
    /// tables not matching the graph (everything except scheduling
    /// failures, which cannot occur because nothing is solved).
    pub fn with_initial_solution(
        ctx: &SchedContext,
        initial_probs: BranchProbs,
        kind: EstimatorKind,
        threshold: f64,
        scheduler: OnlineScheduler,
        solution: Solution,
    ) -> Result<Self, SchedError> {
        let estimators = Self::build_estimators(ctx, &initial_probs, kind, threshold)?;
        // No workspace yet: a fanned-out manager often never solves on its
        // own (external engines solve through shared per-worker state), so
        // deferring the allocation keeps per-stream resident state small.
        Ok(Self::assemble(
            scheduler,
            estimators,
            initial_probs,
            threshold,
            solution,
            None,
        ))
    }

    /// Shared parameter validation and estimator construction.
    fn build_estimators(
        ctx: &SchedContext,
        initial_probs: &BranchProbs,
        kind: EstimatorKind,
        threshold: f64,
    ) -> Result<Vec<Estimator>, SchedError> {
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(SchedError::InvalidParameter("threshold must lie in (0, 1]"));
        }
        initial_probs.validate(ctx.ctg())?;
        ctx.ctg()
            .branch_nodes()
            .iter()
            .map(|&b| Estimator::new(kind, ctx.ctg().node(b).alternatives()))
            .collect()
    }

    fn assemble(
        scheduler: OnlineScheduler,
        estimators: Vec<Estimator>,
        current_probs: BranchProbs,
        threshold: f64,
        solution: Solution,
        mut workspace: Option<Box<SolverWorkspace>>,
    ) -> Self {
        // The near-miss memo buckets tables at the drift threshold — the
        // resolution below which the manager does not react — so revisited
        // operating points keep replaying across sub-threshold wobble. It
        // is an exact-replay cache (see `SolverWorkspace::set_near_memo`);
        // every adopted plan stays bit-identical to a cold solve. The same
        // memo is applied to lazily created workspaces in
        // `ensure_workspace`.
        if let Some(ws) = workspace.as_deref_mut() {
            ws.set_near_memo(threshold, NEAR_MEMO_CAP);
        }
        AdaptiveScheduler {
            scheduler,
            estimators,
            current_probs,
            threshold,
            solution,
            stats: AdaptiveStats::default(),
            deadline_guard: 1.0,
            cache: None,
            workspace,
            guard_workspace: None,
            ws_budget: None,
            ws_intra: None,
            portfolio: None,
            obs: Obs::disabled(),
            obs_track: 0,
        }
    }

    /// Attaches a telemetry handle recording against `track`; forwarded to
    /// both solver workspaces so solve-stage spans land on the same track.
    /// Recording never changes observations, adoptions or solutions.
    pub fn set_obs(&mut self, obs: Obs, track: u32) {
        if let Some(ws) = self.workspace.as_deref_mut() {
            ws.set_obs(obs.clone(), track);
        }
        if let Some(ws) = self.guard_workspace.as_deref_mut() {
            ws.set_obs(obs.clone(), track);
        }
        if let Some(p) = self.portfolio.as_mut() {
            for ws in &mut p.workspaces {
                ws.set_obs(obs.clone(), track);
            }
        }
        self.obs = obs;
        self.obs_track = track;
    }

    /// Sets (or clears) the deterministic per-solve work budget, forwarded
    /// to both solver workspaces (normal and guard-banded solves share the
    /// limit). A budgeted re-solve that crosses the limit surfaces as
    /// [`ObserveOutcome::SolveFailed`] with
    /// [`SchedError::SolveBudgetExceeded`]; the manager keeps the last
    /// adopted solution, so callers degrade instead of crashing. See
    /// [`SolverWorkspace::set_budget`] for the determinism argument.
    pub fn set_solve_budget(&mut self, budget: Option<u64>) {
        self.ws_budget = budget;
        if let Some(ws) = self.workspace.as_deref_mut() {
            ws.set_budget(budget);
        }
        if let Some(ws) = self.guard_workspace.as_deref_mut() {
            ws.set_budget(budget);
        }
        if let Some(p) = self.portfolio.as_mut() {
            for ws in &mut p.workspaces {
                ws.set_budget(budget);
            }
        }
    }

    /// The configured per-solve work budget, if any.
    pub fn solve_budget(&self) -> Option<u64> {
        self.ws_budget
    }

    /// Sets the intra-solve worker count, forwarded to both solver
    /// workspaces. Results are bit-identical at any count (see
    /// [`SolverWorkspace::set_intra_workers`]); `1` (the default) keeps the
    /// inner loops sequential.
    pub fn set_intra_solve_workers(&mut self, workers: usize) {
        self.ws_intra = Some(workers);
        if let Some(ws) = self.workspace.as_deref_mut() {
            ws.set_intra_workers(workers);
        }
        if let Some(ws) = self.guard_workspace.as_deref_mut() {
            ws.set_intra_workers(workers);
        }
        if let Some(p) = self.portfolio.as_mut() {
            for ws in &mut p.workspaces {
                ws.set_intra_workers(workers);
            }
        }
    }

    /// Switches the manager into portfolio mode: every subsequent
    /// unguarded re-solve races `kinds` on the intra-solve worker pool and
    /// adopts the lowest expected-energy schedulable plan (see
    /// [`race_portfolio`] for the full verdict, which is bit-identical at
    /// any worker count). List the paper's DLS first so a race can never
    /// adopt a plan with higher expected energy than DLS alone. Guard-banded
    /// resilient solves (`deadline_guard < 1.0`) intentionally stay
    /// DLS-only — the degradation ladder's contract predates the portfolio
    /// — and a budgeted workspace only constrains the DLS entry. Every entry
    /// gets its own workspace: the DLS entry uses all of its warm layers,
    /// HEFT and lookahead stretch through its one-graph pool (their list
    /// passes are cheap and run on every race), and the frame baseline
    /// runs cold (DESIGN.md §18.2 has the race breakdown). The
    /// construction solve already happened, so the incumbent plan is
    /// unchanged until the next drift event.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] if `kinds` is empty.
    pub fn enable_portfolio(&mut self, kinds: &[SchedulerKind]) -> Result<(), SchedError> {
        if kinds.is_empty() {
            return Err(SchedError::InvalidParameter(
                "portfolio needs at least one scheduler",
            ));
        }
        let workspaces = kinds
            .iter()
            .map(|_| {
                let mut ws = SolverWorkspace::new();
                ws.set_near_memo(self.threshold, NEAR_MEMO_CAP);
                ws.set_obs(self.obs.clone(), self.obs_track);
                ws.set_budget(self.ws_budget);
                if let Some(w) = self.ws_intra {
                    ws.set_intra_workers(w);
                }
                ws
            })
            .collect();
        self.portfolio = Some(PortfolioState {
            kinds: kinds.to_vec(),
            workspaces,
            stats: PortfolioStats::default(),
        });
        Ok(())
    }

    /// Leaves portfolio mode; subsequent re-solves go through the DLS
    /// pipeline alone, exactly as before [`Self::enable_portfolio`].
    pub fn disable_portfolio(&mut self) {
        self.portfolio = None;
    }

    /// Whether portfolio racing is enabled.
    pub fn portfolio_enabled(&self) -> bool {
        self.portfolio.is_some()
    }

    /// The racing entries, in race order, when portfolio mode is on.
    pub fn portfolio_kinds(&self) -> Option<&[SchedulerKind]> {
        self.portfolio.as_ref().map(|p| p.kinds.as_slice())
    }

    /// Race and per-kind win counters (all zero when portfolio mode is or
    /// was never on).
    pub fn portfolio_stats(&self) -> PortfolioStats {
        self.portfolio.as_ref().map(|p| p.stats).unwrap_or_default()
    }

    /// The solution currently in force.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// The probability table the current solution was computed with.
    pub fn current_probs(&self) -> &BranchProbs {
        &self.current_probs
    }

    /// Run statistics.
    pub fn stats(&self) -> AdaptiveStats {
        self.stats
    }

    /// The configured adaptation threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Current estimate for `branch`, if any decision was recorded.
    pub fn window_estimate(&self, ctx: &SchedContext, branch: TaskId) -> Option<Vec<f64>> {
        let idx = ctx.ctg().branch_index(branch)?;
        self.estimators[idx].estimate()
    }

    /// Observes one executed instance: shifts the decisions of the *executed*
    /// fork nodes into their windows, then re-schedules when the windowed
    /// estimate drifts beyond the threshold.
    ///
    /// Returns `true` when a re-scheduling call happened.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VectorArity`] for a wrong-size vector and
    /// propagates scheduling failures.
    pub fn observe(
        &mut self,
        ctx: &SchedContext,
        vector: &DecisionVector,
    ) -> Result<bool, SchedError> {
        self.record_observation(ctx, vector)?;
        if let Some(estimated) = self.drifted_probs(ctx) {
            self.record_drift();
            let (solution, hit) = self.solve_probs(ctx, &estimated, 1.0)?;
            self.current_probs = estimated;
            self.solution = solution;
            if !hit {
                self.stats.calls += 1;
            }
            self.stats.reschedules += 1;
            self.record_adopt(!hit);
            return Ok(true);
        }
        Ok(false)
    }

    /// Telemetry: a drift beyond the threshold was detected.
    fn record_drift(&self) {
        self.obs.instant(self.obs_track, Stage::DriftDetect, 1);
        self.obs.count(Counter::DriftEvents, 1);
    }

    /// Telemetry: a candidate was adopted (`solver_call` false = served from
    /// a cache).
    fn record_adopt(&self, solver_call: bool) {
        self.obs
            .instant(self.obs_track, Stage::Adopt, i64::from(solver_call));
        self.obs.count(Counter::Adoptions, 1);
    }

    /// Records one executed instance's branch decisions *without* any
    /// re-scheduling: the estimators keep profiling while the solution in
    /// force stays pinned (used by the degradation ladder's safe mode).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VectorArity`] for a wrong-size vector.
    pub fn record_observation(
        &mut self,
        ctx: &SchedContext,
        vector: &DecisionVector,
    ) -> Result<(), SchedError> {
        let ctg = ctx.ctg();
        if vector.len() != ctg.num_branches() {
            return Err(SchedError::VectorArity {
                expected: ctg.num_branches(),
                got: vector.len(),
            });
        }
        self.stats.instances += 1;
        // Only executed branch fork tasks record a decision (paper: "each
        // time after a branch fork task is executed, a new branch decision is
        // shifted into the buffer").
        let assign = vector.assignment(ctg);
        for (i, &b) in ctg.branch_nodes().iter().enumerate() {
            if ctx.activation().is_active(b, assign) {
                self.estimators[i].push(vector.alt(i));
            }
        }
        Ok(())
    }

    /// Drift check against the probabilities in force: the estimated table
    /// when any branch's estimate drifted beyond the threshold.
    fn drifted_probs(&self, ctx: &SchedContext) -> Option<BranchProbs> {
        let ctg = ctx.ctg();
        let mut drift = 0.0_f64;
        let mut estimated = self.current_probs.clone();
        for (i, &b) in ctg.branch_nodes().iter().enumerate() {
            if let Some(est) = self.estimators[i].estimate() {
                let current = self
                    .current_probs
                    .distribution(b)
                    .expect("validated table has every branch");
                for (p, q) in est.iter().zip(current) {
                    drift = drift.max((p - q).abs());
                }
                estimated
                    .set(b, est)
                    .expect("estimates form a distribution");
            }
        }
        (drift > self.threshold).then_some(estimated)
    }

    /// The estimated probability table, when any branch's windowed estimate
    /// has drifted beyond the threshold from the table in force — i.e. the
    /// table [`AdaptiveScheduler::observe`] would re-schedule on right now.
    ///
    /// Splitting drift detection from solving lets an external engine
    /// coalesce solves across streams: collect candidates, solve each
    /// distinct table once, then hand the plans back through
    /// [`AdaptiveScheduler::adopt_candidate`].
    pub fn drift_candidate(&self, ctx: &SchedContext) -> Option<BranchProbs> {
        let candidate = self.drifted_probs(ctx);
        if candidate.is_some() {
            self.record_drift();
        }
        candidate
    }

    /// Adopts an *externally solved* candidate for `probs`, mirroring the
    /// adoption arm of [`AdaptiveScheduler::observe`]: the probabilities are
    /// re-latched, the solution replaces the incumbent, and the statistics
    /// are updated (`calls` only when `solver_call` is set — a plan served
    /// from a cache is not a call).
    ///
    /// `candidate` **must** be exactly the solution this manager's solver
    /// would produce for `(ctx, probs)`; callers that share plans across
    /// streams guarantee this with an exact-probability guard, so adoption
    /// order and cache hits can never change a single adopted bit.
    pub fn adopt_candidate(&mut self, probs: BranchProbs, candidate: Solution, solver_call: bool) {
        self.current_probs = probs;
        self.solution = candidate;
        if solver_call {
            self.stats.calls += 1;
        }
        self.stats.reschedules += 1;
        self.record_adopt(solver_call);
    }

    /// Solves for `probs` through this manager's own warm-start workspace,
    /// without touching the schedule cache, the statistics or the solution
    /// in force — the solving half of the
    /// [`AdaptiveScheduler::drift_candidate`] /
    /// [`AdaptiveScheduler::adopt_candidate`] split.
    ///
    /// An external engine that interleaves many streams over few OS
    /// threads uses this so each stream's solves warm-start against *its
    /// own* solve history (memo, pool, near-miss buckets) instead of
    /// whatever stream last used a shared per-thread workspace. The result
    /// is bit-identical to a from-scratch solve (the workspace's warm==cold
    /// contract), so it composes with exact-guard plan sharing.
    ///
    /// # Errors
    ///
    /// Propagates solver failures ([`SchedError`]) unchanged; budget
    /// aborts surface as [`SchedError::SolveBudgetExceeded`] like any other
    /// budgeted solve.
    pub fn solve_candidate(
        &mut self,
        ctx: &SchedContext,
        probs: &BranchProbs,
    ) -> Result<Solution, SchedError> {
        let ws = ensure_workspace(
            &mut self.workspace,
            self.threshold,
            &self.obs,
            self.obs_track,
            self.ws_budget,
            self.ws_intra,
        );
        ws.solve(self.scheduler.config(), ctx, probs)
    }

    /// Like [`AdaptiveScheduler::observe`], but with retry-with-fallback
    /// semantics: a failed or worse re-schedule keeps the last-known-good
    /// solution and is *reported*, not propagated. The probabilities in
    /// force are only re-latched when a candidate is adopted, so a failed
    /// attempt is naturally retried on the next drifting observation.
    ///
    /// When a deadline guard is set (see
    /// [`AdaptiveScheduler::set_deadline_guard`]), candidates are solved
    /// against the guard-banded deadline but judged against the real one.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VectorArity`] for a wrong-size vector; solver
    /// failures surface as [`ObserveOutcome::SolveFailed`] instead.
    pub fn observe_resilient(
        &mut self,
        ctx: &SchedContext,
        vector: &DecisionVector,
    ) -> Result<ObserveOutcome, SchedError> {
        self.record_observation(ctx, vector)?;
        match self.drifted_probs(ctx) {
            None => Ok(ObserveOutcome::NoDrift),
            Some(estimated) => {
                self.record_drift();
                Ok(self.try_adopt(ctx, estimated))
            }
        }
    }

    /// Forces a re-schedule with the probabilities currently in force,
    /// with the same retry-with-fallback semantics as
    /// [`AdaptiveScheduler::observe_resilient`] (used when the degradation
    /// ladder changes rung).
    pub fn resolve_now(&mut self, ctx: &SchedContext) -> ObserveOutcome {
        let probs = self.current_probs.clone();
        self.try_adopt(ctx, probs)
    }

    /// Solves for `probs` (honouring the deadline guard) and adopts the
    /// candidate unless it fails or its worst-case makespan is worse than
    /// both the deadline and the incumbent's. Cached candidates are judged
    /// against the bar like freshly solved ones.
    fn try_adopt(&mut self, ctx: &SchedContext, probs: BranchProbs) -> ObserveOutcome {
        match self.solve_probs(ctx, &probs, self.deadline_guard) {
            Err(e) => ObserveOutcome::SolveFailed(e),
            Ok((candidate, hit)) => {
                let candidate_wcm = candidate.worst_case_makespan(ctx);
                let bar = ctx
                    .ctg()
                    .deadline()
                    .max(self.solution.worst_case_makespan(ctx))
                    + SCHEDULABILITY_TOL;
                if candidate_wcm > bar {
                    ObserveOutcome::RejectedWorse {
                        worst_case: candidate_wcm,
                    }
                } else {
                    self.current_probs = probs;
                    self.solution = candidate;
                    if !hit {
                        self.stats.calls += 1;
                    }
                    self.stats.reschedules += 1;
                    self.record_adopt(!hit);
                    ObserveOutcome::Rescheduled
                }
            }
        }
    }

    /// Solves for `probs`, honouring a guard-banded deadline when
    /// `guard < 1.0`, without consulting or filling the cache. Runs through
    /// the owned [`SolverWorkspace`] — identical results to a from-scratch
    /// solve, warm-started when only the probabilities moved.
    fn raw_solve(
        &mut self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        guard: f64,
    ) -> Result<Solution, SchedError> {
        if guard < 1.0 {
            // The guarded context is rebuilt per call, but its *content* is
            // the same for a fixed guard factor, so the guard workspace
            // stays warm across calls.
            let guarded = SchedContext::new(
                ctx.ctg().with_deadline(guard * ctx.ctg().deadline()),
                ctx.platform().clone(),
            )?;
            let ws = ensure_workspace(
                &mut self.guard_workspace,
                self.threshold,
                &self.obs,
                self.obs_track,
                self.ws_budget,
                self.ws_intra,
            );
            ws.solve(self.scheduler.config(), &guarded, probs)
        } else if self.portfolio.is_some() {
            self.portfolio_solve(ctx, probs)
        } else {
            let ws = ensure_workspace(
                &mut self.workspace,
                self.threshold,
                &self.obs,
                self.obs_track,
                self.ws_budget,
                self.ws_intra,
            );
            ws.solve(self.scheduler.config(), ctx, probs)
        }
    }

    /// One portfolio race: every configured entry solves `probs` against
    /// its own workspace, fanned out on the intra-solve pool, and the
    /// verdict fold adopts the lowest expected-energy schedulable plan
    /// (bit-identical at any worker count — see [`race_portfolio`]).
    fn portfolio_solve(
        &mut self,
        ctx: &SchedContext,
        probs: &BranchProbs,
    ) -> Result<Solution, SchedError> {
        let workers = self
            .ws_intra
            .unwrap_or_else(crate::par::intra_solve_workers);
        let obs = self.obs.clone();
        let track = self.obs_track;
        let p = self.portfolio.as_mut().expect("portfolio mode enabled");
        let raced = race_portfolio(
            &p.kinds,
            ctx,
            probs,
            &mut p.workspaces,
            workers,
            &obs,
            track,
        );
        p.stats.races += 1;
        let outcome = raced?;
        p.stats.wins[p.kinds[outcome.winner].index()] += 1;
        Ok(outcome.solution)
    }

    /// Work counters of the unguarded warm-start solver workspace
    /// (all-zero while the workspace has not been created yet — the
    /// manager has never solved on its own).
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace
            .as_deref()
            .map(SolverWorkspace::stats)
            .unwrap_or_default()
    }

    /// Solves for `probs` through the schedule cache when enabled.
    ///
    /// Returns the solution and whether it came from the cache. A hit
    /// requires the stored entry's *exact* probability table to equal
    /// `probs` — quantisation only selects the bucket — so the returned
    /// solution is always identical to what [`AdaptiveScheduler::raw_solve`]
    /// would produce. Solver failures are propagated and never cached.
    fn solve_probs(
        &mut self,
        ctx: &SchedContext,
        probs: &BranchProbs,
        guard: f64,
    ) -> Result<(Solution, bool), SchedError> {
        if self.cache.is_none() {
            return Ok((self.raw_solve(ctx, probs, guard)?, false));
        }
        let key = self.cache_key(ctx, probs, guard);
        if let Some(entry) = self
            .cache
            .as_mut()
            .and_then(|c| c.get(&key))
            .filter(|e| e.probs == *probs)
        {
            let solution = entry.solution.clone();
            self.stats.cache_hits += 1;
            self.obs.instant(self.obs_track, Stage::CacheHit, 1);
            self.obs.count(Counter::CacheHits, 1);
            return Ok((solution, true));
        }
        self.stats.cache_misses += 1;
        self.obs.instant(self.obs_track, Stage::CacheMiss, 1);
        self.obs.count(Counter::CacheMisses, 1);
        let solution = self.raw_solve(ctx, probs, guard)?;
        if let Some(cache) = self.cache.as_mut() {
            cache.insert(
                key,
                CacheEntry {
                    probs: probs.clone(),
                    solution: solution.clone(),
                },
            );
        }
        Ok((solution, false))
    }

    /// The cache key for one solve: per-alternative probabilities quantised
    /// at the adaptation threshold (the resolution below which the manager
    /// itself does not react), plus the guard factor and deadline bits.
    fn cache_key(&self, ctx: &SchedContext, probs: &BranchProbs, guard: f64) -> ScheduleKey {
        ScheduleKey::new(ctx, probs, self.threshold, guard)
    }

    /// Enables schedule memoisation with room for `capacity` solutions,
    /// seeding the cache with the solution currently in force. A capacity
    /// of 0 keeps caching effectively off (every lookup misses) but still
    /// counts hits/misses. Re-enabling resets the cache contents.
    ///
    /// Caching never changes decisions: a hit returns a clone of a plan the
    /// solver produced earlier *for the exact same probability table, guard
    /// and deadline*, so runs with the cache on and off adopt identical
    /// solutions (only [`AdaptiveStats::calls`] shrinks).
    pub fn enable_cache(&mut self, ctx: &SchedContext, capacity: usize) {
        let mut cache = LruCache::new(capacity);
        cache.insert(
            self.cache_key(ctx, &self.current_probs, 1.0),
            CacheEntry {
                probs: self.current_probs.clone(),
                solution: self.solution.clone(),
            },
        );
        self.cache = Some(cache);
    }

    /// Whether schedule memoisation is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Sets the deadline guard-band factor used by resilient re-solves.
    ///
    /// # Errors
    ///
    /// Rejects factors outside `(0, 1]`.
    pub fn set_deadline_guard(&mut self, factor: f64) -> Result<(), SchedError> {
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(SchedError::InvalidParameter(
                "deadline guard must lie in (0, 1]",
            ));
        }
        self.deadline_guard = factor;
        Ok(())
    }

    /// The deadline guard-band factor in force (1.0 = none).
    pub fn deadline_guard(&self) -> f64 {
        self.deadline_guard
    }

    /// Pins every task to full speed while keeping the committed mapping
    /// and order — the all-max-speed safe solution of the degradation
    /// ladder. Cannot fail: no solver is involved.
    pub fn enter_safe_mode(&mut self) {
        self.solution.speeds = SpeedAssignment::nominal(self.solution.schedule.num_tasks());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::example1_context;

    #[test]
    fn window_estimates() {
        let mut w = SlidingWindow::new(2, 4);
        assert!(w.estimate().is_none());
        w.push(0);
        w.push(0);
        w.push(1);
        assert_eq!(w.estimate().unwrap(), vec![2.0 / 3.0, 1.0 / 3.0]);
        w.push(1);
        w.push(1); // evicts the first 0
        assert_eq!(w.len(), 4);
        assert_eq!(w.estimate().unwrap(), vec![0.25, 0.75]);
    }

    #[test]
    fn rejects_bad_parameters() {
        let (ctx, probs, _) = example1_context();
        assert!(AdaptiveScheduler::new(&ctx, probs.clone(), 0, 0.1).is_err());
        assert!(AdaptiveScheduler::new(&ctx, probs.clone(), 10, 0.0).is_err());
        assert!(AdaptiveScheduler::new(&ctx, probs, 10, 1.5).is_err());
    }

    #[test]
    fn drift_triggers_rescheduling() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        // Uniform start (0.5/0.5); feeding constant a1 drifts to 1.0.
        let mut called = false;
        for _ in 0..6 {
            called |= mgr
                .observe(&ctx, &ctg_model::DecisionVector::new(vec![0, 0]))
                .unwrap();
        }
        assert!(called);
        assert!(mgr.stats().calls >= 1);
        assert_eq!(mgr.stats().instances, 6);
    }

    #[test]
    fn high_threshold_suppresses_calls() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 1.0).unwrap();
        for step in 0..20 {
            let alt = (step % 2) as u8;
            mgr.observe(&ctx, &ctg_model::DecisionVector::new(vec![alt, alt]))
                .unwrap();
        }
        assert_eq!(mgr.stats().calls, 0);
    }

    #[test]
    fn inactive_fork_records_no_decision() {
        let (ctx, probs, ids) = example1_context();
        let [_, _, _, _, t5, ..] = ids;
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 8, 0.9).unwrap();
        // Always select a1: fork τ5 never executes, its window stays empty.
        for _ in 0..5 {
            mgr.observe(&ctx, &ctg_model::DecisionVector::new(vec![0, 1]))
                .unwrap();
        }
        assert!(mgr.window_estimate(&ctx, t5).is_none());
    }

    #[test]
    fn wrong_vector_arity_rejected() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 8, 0.5).unwrap();
        assert!(matches!(
            mgr.observe(&ctx, &ctg_model::DecisionVector::new(vec![0])),
            Err(SchedError::VectorArity {
                expected: 2,
                got: 1
            })
        ));
    }
}

#[cfg(test)]
mod resilient_tests {
    use super::*;
    use crate::test_util::example1_context;
    use ctg_model::DecisionVector;

    #[test]
    fn resilient_matches_observe_when_solves_succeed() {
        let (ctx, probs, _) = example1_context();
        let mut plain = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        let mut resilient = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        for step in 0..12 {
            let alt = u8::from(step % 3 == 0);
            let v = DecisionVector::new(vec![alt, alt]);
            let called = plain.observe(&ctx, &v).unwrap();
            let outcome = resilient.observe_resilient(&ctx, &v).unwrap();
            assert_eq!(
                called,
                outcome == ObserveOutcome::Rescheduled,
                "step {step}"
            );
        }
        assert_eq!(plain.stats(), resilient.stats());
        assert_eq!(plain.solution(), resilient.solution());
        assert_eq!(
            plain.current_probs().clone(),
            resilient.current_probs().clone()
        );
    }

    #[test]
    fn guard_band_tightens_worst_case() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        let relaxed_wcm = mgr.solution().worst_case_makespan(&ctx);
        mgr.set_deadline_guard(0.8).unwrap();
        match mgr.resolve_now(&ctx) {
            ObserveOutcome::Rescheduled => {
                let guarded_wcm = mgr.solution().worst_case_makespan(&ctx);
                assert!(
                    guarded_wcm <= 0.8 * ctx.ctg().deadline() + 1e-6,
                    "guarded solution must meet the shortened deadline: {guarded_wcm}"
                );
                assert!(guarded_wcm <= relaxed_wcm + 1e-9);
            }
            // A very tight guard may make the solve fail; that is the
            // fallback path and must keep the old solution.
            ObserveOutcome::SolveFailed(_) => {
                assert!((mgr.solution().worst_case_makespan(&ctx) - relaxed_wcm).abs() < 1e-9);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn failed_guarded_solve_keeps_last_known_good() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        let before = mgr.solution().clone();
        let calls_before = mgr.stats().calls;
        // Guard so tight no solution exists: solve must fail, solution must
        // survive.
        mgr.set_deadline_guard(1e-6).unwrap();
        match mgr.resolve_now(&ctx) {
            ObserveOutcome::SolveFailed(_) => {}
            other => panic!("expected a solver failure, got {other:?}"),
        }
        assert_eq!(mgr.solution(), &before);
        assert_eq!(mgr.stats().calls, calls_before);
    }

    #[test]
    fn safe_mode_pins_full_speed() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        let schedule_before = mgr.solution().schedule.clone();
        mgr.enter_safe_mode();
        assert_eq!(mgr.solution().schedule, schedule_before);
        for t in ctx.ctg().tasks() {
            assert_eq!(mgr.solution().speeds.speed(t), 1.0);
        }
        // Full speed minimizes the worst case the committed schedule admits.
        assert!(mgr.solution().worst_case_makespan(&ctx) <= ctx.ctg().deadline() + 1e-6);
    }

    #[test]
    fn record_observation_never_reschedules() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.1).unwrap();
        for _ in 0..20 {
            mgr.record_observation(&ctx, &DecisionVector::new(vec![0, 0]))
                .unwrap();
        }
        assert_eq!(mgr.stats().calls, 0);
        assert_eq!(mgr.stats().instances, 20);
        // The recorded history still feeds the next resilient observation.
        let outcome = mgr
            .observe_resilient(&ctx, &DecisionVector::new(vec![0, 0]))
            .unwrap();
        assert_eq!(outcome, ObserveOutcome::Rescheduled);
    }

    #[test]
    fn invalid_guard_rejected() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        assert!(mgr.set_deadline_guard(0.0).is_err());
        assert!(mgr.set_deadline_guard(1.5).is_err());
        assert!(mgr.set_deadline_guard(1.0).is_ok());
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::test_util::example1_context;
    use ctg_model::DecisionVector;

    /// Alternating decision regimes (8 instances each) make the windowed
    /// estimates recur exactly, so a cached manager can replay earlier
    /// plans instead of re-solving.
    fn regime_trace(len: usize) -> Vec<DecisionVector> {
        (0..len)
            .map(|i| {
                let alt = u8::from((i / 8) % 2 == 1);
                DecisionVector::new(vec![alt, alt])
            })
            .collect()
    }

    #[test]
    fn cached_runs_adopt_identical_plans() {
        let (ctx, probs, _) = example1_context();
        let mut plain = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        let mut cached = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        cached.enable_cache(&ctx, 16);
        for v in regime_trace(64) {
            let a = plain.observe(&ctx, &v).unwrap();
            let b = cached.observe(&ctx, &v).unwrap();
            assert_eq!(a, b);
            assert_eq!(plain.solution(), cached.solution());
            assert_eq!(plain.current_probs(), cached.current_probs());
        }
        assert_eq!(plain.stats().reschedules, cached.stats().reschedules);
        assert!(
            cached.stats().cache_hits > 0,
            "recurring regimes must hit the cache"
        );
        assert!(
            cached.stats().calls < plain.stats().calls,
            "hits must save solver calls"
        );
    }

    #[test]
    fn resilient_cached_matches_uncached() {
        let (ctx, probs, _) = example1_context();
        let mut plain = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        let mut cached = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        cached.enable_cache(&ctx, 16);
        for v in regime_trace(48) {
            let a = plain.observe_resilient(&ctx, &v).unwrap();
            let b = cached.observe_resilient(&ctx, &v).unwrap();
            assert_eq!(a, b);
            assert_eq!(plain.solution(), cached.solution());
        }
        assert!(cached.stats().cache_hits > 0);
    }

    #[test]
    fn enable_cache_seeds_the_incumbent_plan() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        mgr.enable_cache(&ctx, 4);
        let current = mgr.current_probs().clone();
        let incumbent = mgr.solution().clone();
        let (sol, hit) = mgr.solve_probs(&ctx, &current, 1.0).unwrap();
        assert!(hit, "the incumbent plan is seeded on enable");
        assert_eq!(sol, incumbent);
    }

    #[test]
    fn exact_repeat_hits_and_matches_raw_solver() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        mgr.enable_cache(&ctx, 8);
        let fork = ctx.ctg().branch_nodes()[0];
        let mut skewed = probs.clone();
        skewed.set(fork, vec![0.8, 0.2]).unwrap();
        let (first, hit1) = mgr.solve_probs(&ctx, &skewed, 1.0).unwrap();
        assert!(!hit1);
        let (second, hit2) = mgr.solve_probs(&ctx, &skewed, 1.0).unwrap();
        assert!(hit2);
        assert_eq!(first, second);
        assert_eq!(second, mgr.raw_solve(&ctx, &skewed, 1.0).unwrap());
    }

    #[test]
    fn same_bucket_different_probs_never_hits() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        mgr.enable_cache(&ctx, 8);
        let fork = ctx.ctg().branch_nodes()[0];
        // 0.6/0.3 = 2.0 and 0.59/0.3 ≈ 1.97 both round to bucket 2 (and
        // 0.4 / 0.41 both to bucket 1): same key, different exact
        // probabilities. Neither equals the seeded incumbent table.
        let mut a = probs.clone();
        a.set(fork, vec![0.6, 0.4]).unwrap();
        let mut b = probs.clone();
        b.set(fork, vec![0.59, 0.41]).unwrap();
        assert_eq!(mgr.cache_key(&ctx, &a, 1.0), mgr.cache_key(&ctx, &b, 1.0));

        let (sol_a, hit_a) = mgr.solve_probs(&ctx, &a, 1.0).unwrap();
        assert!(!hit_a);
        let (_sol_b, hit_b) = mgr.solve_probs(&ctx, &b, 1.0).unwrap();
        assert!(
            !hit_b,
            "exactness guard must reject a same-bucket neighbour"
        );
        // The bucket now stores b's plan; a must miss again and re-solve to
        // its own plan rather than borrow b's.
        let (sol_a2, hit_a2) = mgr.solve_probs(&ctx, &a, 1.0).unwrap();
        assert!(!hit_a2);
        assert_eq!(sol_a, sol_a2);
        assert_eq!(mgr.stats().cache_hits, 0);
        assert_eq!(mgr.stats().cache_misses, 3);
    }

    #[test]
    fn quantisation_boundary_splits_buckets_deterministically() {
        let (ctx, probs, _) = example1_context();
        let mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        let fork = ctx.ctg().branch_nodes()[0];
        // 0.45/0.3 = 1.5 sits exactly on a bucket edge and rounds away from
        // zero (bucket 2); 0.44/0.3 ≈ 1.47 stays in bucket 1. The key is a
        // pure function of the probability bits, never of lookup history.
        let mut on_edge = probs.clone();
        on_edge.set(fork, vec![0.45, 0.55]).unwrap();
        let mut below = probs.clone();
        below.set(fork, vec![0.44, 0.56]).unwrap();
        assert_ne!(
            mgr.cache_key(&ctx, &on_edge, 1.0),
            mgr.cache_key(&ctx, &below, 1.0)
        );
        assert_eq!(
            mgr.cache_key(&ctx, &on_edge, 1.0),
            mgr.cache_key(&ctx, &on_edge, 1.0)
        );
    }

    #[test]
    fn guard_factor_is_part_of_the_key() {
        let (ctx, probs, _) = example1_context();
        let mgr = AdaptiveScheduler::new(&ctx, probs.clone(), 4, 0.3).unwrap();
        assert_ne!(
            mgr.cache_key(&ctx, &probs, 1.0),
            mgr.cache_key(&ctx, &probs, 0.9)
        );
    }

    #[test]
    fn disabled_cache_keeps_counters_zero() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::new(&ctx, probs, 4, 0.3).unwrap();
        assert!(!mgr.cache_enabled());
        for v in regime_trace(32) {
            mgr.observe(&ctx, &v).unwrap();
        }
        let s = mgr.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
        assert_eq!(s.reschedules, s.calls);
        assert!(s.reschedules > 0);
    }
}

#[cfg(test)]
mod ewma_tests {
    use super::*;
    use crate::test_util::example1_context;

    #[test]
    fn ewma_estimates_converge() {
        let mut e = EwmaEstimator::new(2, 0.2);
        assert!(e.estimate().is_none());
        e.push(0);
        assert_eq!(e.estimate().unwrap(), vec![1.0, 0.0]);
        for _ in 0..50 {
            e.push(1);
        }
        let est = e.estimate().unwrap();
        assert!(
            est[1] > 0.99,
            "EWMA should converge to the new regime: {est:?}"
        );
        let total: f64 = est.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_reacts_faster_with_larger_alpha() {
        let mut slow = EwmaEstimator::new(2, 0.05);
        let mut fast = EwmaEstimator::new(2, 0.5);
        for _ in 0..20 {
            slow.push(0);
            fast.push(0);
        }
        for _ in 0..3 {
            slow.push(1);
            fast.push(1);
        }
        assert!(fast.estimate().unwrap()[1] > slow.estimate().unwrap()[1]);
    }

    #[test]
    fn manager_with_ewma_adapts() {
        let (ctx, probs, _) = example1_context();
        let mut mgr = AdaptiveScheduler::with_estimator(
            &ctx,
            probs,
            EstimatorKind::Ewma(0.2),
            0.3,
            OnlineScheduler::new(),
        )
        .unwrap();
        let mut called = false;
        for _ in 0..10 {
            called |= mgr
                .observe(&ctx, &ctg_model::DecisionVector::new(vec![0, 0]))
                .unwrap();
        }
        assert!(called, "EWMA drift should trigger re-scheduling");
    }

    #[test]
    fn invalid_estimator_parameters_rejected() {
        let (ctx, probs, _) = example1_context();
        assert!(AdaptiveScheduler::with_estimator(
            &ctx,
            probs.clone(),
            EstimatorKind::Ewma(0.0),
            0.3,
            OnlineScheduler::new()
        )
        .is_err());
        assert!(AdaptiveScheduler::with_estimator(
            &ctx,
            probs,
            EstimatorKind::Window(0),
            0.3,
            OnlineScheduler::new()
        )
        .is_err());
    }
}
