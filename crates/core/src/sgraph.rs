//! The scheduled graph: the CTG augmented with processor-order pseudo-edges,
//! and the path analysis the stretching heuristic runs on.
//!
//! After DLS commits a mapping, tasks sharing a PE are serialized (unless
//! mutually exclusive). Those serialization constraints become zero-delay
//! *pseudo-edges*; implied or-node waits become *implied* edges; CTG edges
//! keep their (possibly non-zero) communication delay and branch guard. The
//! union is transitively reduced and every source→sink path is enumerated
//! with its delay, activation condition and probability — the data the
//! paper's `CalculateSlack` routine consumes.

use std::collections::HashMap;

use crate::budget::WorkMeter;
use crate::context::{ScenarioMask, SchedContext};
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::speed::SpeedAssignment;
use ctg_model::{BranchProbs, Literal, TaskId};

/// FNV-1a for the build-time mask dedup. The map is rebuilt per solve from
/// non-adversarial keys (a few thousand scenario masks), so the cheap
/// multiply-xor beats SipHash's per-key setup; `write_u64`/`write_usize`
/// are overridden because mask words arrive through them.
#[derive(Default)]
struct Fnv(u64);

type BuildFnv = std::hash::BuildHasherDefault<Fnv>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
    fn write_u64(&mut self, v: u64) {
        let h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = (h ^ v).wrapping_mul(FNV_PRIME);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Largest task count for which the canonical path sort can use the packed
/// integer prefix key: twenty 6-bit slots hold task indices up to 62 (slot
/// value `index + 1`; 0 pads sequences shorter than twenty tasks, ordering
/// a strict prefix before its extensions exactly like `Vec::cmp`).
const PACK_MAX_TASK: usize = 62;

/// How many leading tasks [`packed_prefix`] covers.
const PACK_SLOTS: usize = 20;

/// The first twenty tasks of a path packed into a big-endian 120-bit key
/// whose integer order equals the lexicographic order of the (truncated)
/// task sequence. Ties fall back to comparing the remaining tasks.
fn packed_prefix(tasks: &[TaskId]) -> u128 {
    let mut key = 0u128;
    for slot in 0..PACK_SLOTS {
        key <<= 6;
        if let Some(t) = tasks.get(slot) {
            key |= t.index() as u128 + 1;
        }
    }
    key
}

/// Why an edge exists in the scheduled graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SEdgeKind {
    /// Original CTG dependency (carries communication delay and guard).
    Ctg,
    /// Same-PE serialization constraint.
    Pseudo,
    /// Implied or-node wait on a branch fork node.
    Implied,
}

/// An edge of the scheduled graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SEdge {
    /// Source task.
    pub src: TaskId,
    /// Destination task.
    pub dst: TaskId,
    /// Fixed delay contributed by the edge (communication time; never scaled
    /// by DVFS).
    pub delay: f64,
    /// Branch guard of the underlying CTG edge, if conditional.
    pub guard: Option<Literal>,
    /// Provenance of the edge.
    pub kind: SEdgeKind,
}

/// A source→sink path of the scheduled graph, as used by the stretching
/// heuristic.
#[derive(Debug, Clone)]
pub struct SPath {
    /// Tasks along the path, in order.
    pub tasks: Vec<TaskId>,
    /// The set of scenarios in which the path exists — the paper's minterm
    /// of the path, represented over the scenario enumeration.
    pub cond: ScenarioMask,
    /// Nominal path delay: execution times at full speed plus fixed edge
    /// delays. Stretching never mutates the graph; it tracks stretched
    /// delays in its own buffer.
    pub delay: f64,
    /// Branch guards on the path, with the path position of the deciding
    /// fork node.
    pub guards: Vec<(usize, Literal)>,
    /// Probability of `cond` under the probability table used at
    /// construction time.
    pub prob: f64,
}

impl SPath {
    /// Whether `task` lies on this path.
    pub fn spans(&self, task: TaskId) -> bool {
        self.tasks.contains(&task)
    }

    /// The path's end-to-end delay when its tasks run at the given speeds
    /// (communication delays are fixed), recomputed from the nominal WCETs.
    pub fn stretched_delay(
        &self,
        ctx: &SchedContext,
        schedule: &Schedule,
        speeds: &crate::speed::SpeedAssignment,
    ) -> f64 {
        let profile = ctx.platform().profile();
        let comm_part: f64 = self.delay
            - self
                .tasks
                .iter()
                .map(|&t| profile.wcet(t.index(), schedule.pe_of(t)))
                .sum::<f64>();
        comm_part
            + self
                .tasks
                .iter()
                .map(|&t| profile.wcet(t.index(), schedule.pe_of(t)) / speeds.speed(t))
                .sum::<f64>()
    }

    /// Slack of the path against `deadline`.
    pub fn slack(&self, deadline: f64) -> f64 {
        deadline - self.delay
    }

    /// The paper's `prob(p, τ)`: joint probability of the branch guards
    /// decided at or after `task`'s position on the path.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not on the path.
    pub fn prob_after(&self, task: TaskId, probs: &BranchProbs) -> f64 {
        let pos = self
            .tasks
            .iter()
            .position(|&t| t == task)
            .expect("task must lie on the path");
        self.prob_after_at(pos, probs)
    }

    /// [`SPath::prob_after`] with the task's position on the path already
    /// known (see [`ScheduledGraph::spanning_at`]) — the stretching loop's
    /// hot variant, skipping the linear position scan. Identical guard
    /// iteration order, so identical bits.
    pub(crate) fn prob_after_at(&self, pos: usize, probs: &BranchProbs) -> f64 {
        self.guards
            .iter()
            .filter(|(fork_pos, _)| *fork_pos >= pos)
            .map(|(_, lit)| probs.prob(lit.branch(), lit.alt()))
            .product()
    }
}

/// The scheduled graph plus its enumerated paths.
#[derive(Debug, Clone)]
pub struct ScheduledGraph {
    edges: Vec<SEdge>,
    paths: Vec<SPath>,
    /// For each task, the indices of the paths spanning it.
    spanning: Vec<Vec<usize>>,
    /// For each task, the task's position on each spanning path (parallel
    /// to `spanning`), precomputed so per-sweep probability lookups need no
    /// position scan.
    span_at: Vec<Vec<u32>>,
    /// For each path, the id of its minterm group (paths with content-equal
    /// condition masks share one), ids in first-occurrence order over the
    /// canonical path order. Computed once at build so downstream
    /// group-level consumers need not re-hash the masks.
    group_of: Vec<u32>,
    num_groups: u32,
}

/// Upper bound on enumerated paths before falling back to the caller's
/// coarser analysis.
pub const DEFAULT_PATH_CAP: usize = 50_000;

impl ScheduledGraph {
    /// Builds the scheduled graph for `schedule` and enumerates its paths.
    ///
    /// Returns `None` when the number of simple paths exceeds `cap`
    /// (pathological graphs); callers fall back to critical-path stretching.
    pub fn build(
        ctx: &SchedContext,
        schedule: &Schedule,
        probs: &BranchProbs,
        cap: usize,
    ) -> Option<Self> {
        Self::build_metered(ctx, schedule, probs, cap, &mut WorkMeter::unlimited())
            .expect("an unlimited meter cannot exceed its budget")
    }

    /// [`ScheduledGraph::build`] with a work budget: every enumeration step
    /// (frame expansion and edge extension) charges one unit to `meter`.
    ///
    /// The step count depends only on the schedule's topology, the scenario
    /// masks and the path cap — not on probability values — so the charge
    /// is a pure function of the problem and budget verdicts reproduce
    /// bit-for-bit. With an unlimited meter this is exactly `build`.
    ///
    /// # Errors
    ///
    /// [`SchedError::SolveBudgetExceeded`] when the budget is crossed; the
    /// `Ok(None)` case still means the path cap was exceeded.
    pub fn build_metered(
        ctx: &SchedContext,
        schedule: &Schedule,
        probs: &BranchProbs,
        cap: usize,
        meter: &mut WorkMeter,
    ) -> Result<Option<Self>, SchedError> {
        Self::build_metered_par(ctx, schedule, probs, cap, 1, meter)
    }

    /// [`ScheduledGraph::build_metered`] with the path enumeration fanned
    /// out over `workers` intra-solve threads.
    ///
    /// The source frontier (indegree-0 tasks) is split into contiguous
    /// chunks; each worker enumerates its chunk's sub-forest independently
    /// and the per-chunk path lists are concatenated in chunk order before
    /// the canonical sort, so the result is **bit-identical to the
    /// sequential build at any worker count** (the sort key — the task
    /// sequence — is unique per path, and equal-key prefix paths keep their
    /// within-root DFS order under the stable sort). Work charges are
    /// accounted pre-partition: the total step count of a complete
    /// enumeration is a pure function of the problem, so the meter sees the
    /// exact sequential total regardless of the partition.
    ///
    /// Parallelism is only engaged for unlimited meters; a *budgeted* build
    /// runs sequentially so an abort reproduces the sequential traversal's
    /// exact charge sequence (a cap- or budget-crossing step count depends
    /// on traversal order). Likewise, if any chunk overflows the path cap
    /// the build re-runs sequentially to reproduce the sequential verdict.
    ///
    /// # Errors
    ///
    /// [`SchedError::SolveBudgetExceeded`] when the budget is crossed.
    pub fn build_metered_par(
        ctx: &SchedContext,
        schedule: &Schedule,
        probs: &BranchProbs,
        cap: usize,
        workers: usize,
        meter: &mut WorkMeter,
    ) -> Result<Option<Self>, SchedError> {
        let n = ctx.ctg().num_tasks();
        let edges = reduced_edges(ctx, schedule);

        // CSR out-adjacency: `adj[adj_start[t]..adj_start[t + 1]]` are
        // `t`'s out-edges in edge-list order (the same order the former
        // per-source index lists preserved), flattened so the enumeration
        // reads each visited edge with one predictable load.
        let mut adj_start = vec![0u32; n + 1];
        let mut indeg = vec![0usize; n];
        for e in &edges {
            adj_start[e.src.index() + 1] += 1;
            indeg[e.dst.index()] += 1;
        }
        for i in 0..n {
            adj_start[i + 1] += adj_start[i];
        }
        let mut cursor: Vec<u32> = adj_start[..n].to_vec();
        let mut adj: Vec<OutEdge> = vec![
            OutEdge {
                dst: TaskId::new(0),
                delay: 0.0,
                guard: None,
            };
            edges.len()
        ];
        for e in &edges {
            let c = &mut cursor[e.src.index()];
            adj[*c as usize] = OutEdge {
                dst: e.dst,
                delay: e.delay,
                guard: e.guard,
            };
            *c += 1;
        }
        let roots: Vec<TaskId> = (0..n).filter(|&t| indeg[t] == 0).map(TaskId::new).collect();

        let mut paths = if workers > 1 && meter.is_unlimited() && roots.len() > 1 {
            let chunks = crate::par::chunk_ranges(roots.len(), workers);
            let results = crate::par::map_ordered(&chunks, workers, |_, range| {
                let mut local = WorkMeter::unlimited();
                let sub = enumerate_from(
                    ctx,
                    schedule,
                    &adj_start,
                    &adj,
                    &roots[range.clone()],
                    cap,
                    &mut local,
                )
                .expect("an unlimited meter cannot exceed its budget");
                (sub, local.spent())
            });
            let mut merged: Vec<SPath> = Vec::new();
            let mut units_total: u64 = 0;
            let mut complete = true;
            for (sub, units) in results {
                units_total = units_total.saturating_add(units);
                match sub {
                    Some(mut p) if complete => {
                        merged.append(&mut p);
                        if merged.len() > cap {
                            complete = false;
                        }
                    }
                    _ => complete = false,
                }
            }
            if complete {
                // Pre-partition accounting: a complete enumeration's step
                // count is partition-invariant, so the summed chunk charges
                // equal the sequential total. Charged only on completion —
                // the meter carries earlier pipeline stages' charges and
                // must never see a partial parallel attempt.
                meter.charge(units_total)?;
                merged
            } else {
                // A chunk (or the union) overflowed the cap: replay the
                // sequential traversal on the untouched meter so the
                // verdict and the charge sequence match the sequential
                // build exactly.
                match enumerate_from(ctx, schedule, &adj_start, &adj, &roots, cap, meter)? {
                    Some(p) => p,
                    None => return Ok(None),
                }
            }
        } else {
            match enumerate_from(ctx, schedule, &adj_start, &adj, &roots, cap, meter)? {
                Some(p) => p,
                None => return Ok(None),
            }
        };

        // Deterministic canonical order: ascending task sequence, with the
        // DFS emission index as the final tiebreak so fully-equal sequences
        // keep their emission order (what the previous stable sort
        // guaranteed). The comparator front-loads a packed 60-bit key of the
        // first ten tasks so almost every comparison is one integer compare.
        if n <= PACK_MAX_TASK {
            let mut order: Vec<(u128, u32)> = paths
                .iter()
                .enumerate()
                .map(|(i, p)| (packed_prefix(&p.tasks), i as u32))
                .collect();
            let rest = |i: u32| paths[i as usize].tasks.get(PACK_SLOTS..).unwrap_or(&[]);
            order.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0)
                    // Equal keys ⇒ the first PACK_SLOTS tasks are equal;
                    // compare only the remainder, then keep emission order.
                    .then_with(|| rest(a.1).cmp(rest(b.1)))
                    .then(a.1.cmp(&b.1))
            });
            // Apply the permutation in place by cycle-following swaps:
            // `inv[old] = new` position, and swapping `paths[i]` with
            // `paths[inv[i]]` until `inv[i] == i` realizes `paths[new] =
            // old_paths[order[new].1]` without a second allocation.
            let mut inv: Vec<u32> = vec![0; order.len()];
            for (newpos, &(_, old)) in order.iter().enumerate() {
                inv[old as usize] = newpos as u32;
            }
            for i in 0..inv.len() {
                while inv[i] as usize != i {
                    let j = inv[i] as usize;
                    paths.swap(i, j);
                    inv.swap(i, j);
                }
            }
        } else {
            paths.sort_by(|a, b| a.tasks.cmp(&b.tasks));
        }

        // Minterm groups and path probabilities, evaluated once per
        // *distinct* condition mask: `mask_prob` is a pure function of
        // (mask content, table) — the same ascending-bit sum for equal
        // masks — so the representative's value is bit-identical to what
        // every member would compute. Group ids are kept on the graph so
        // downstream group-level consumers never re-hash the masks.
        let scenario_probs = ctx.scenario_probs(probs);
        let mut group_of: Vec<u32> = Vec::with_capacity(paths.len());
        let mut num_groups: u32 = 0;
        {
            let mut by_cond: HashMap<&ScenarioMask, (u32, f64), BuildFnv> =
                HashMap::with_hasher(BuildFnv::default());
            let probs_of: Vec<f64> = paths
                .iter()
                .map(|p| {
                    let (g, v) = *by_cond.entry(&p.cond).or_insert_with(|| {
                        let g = num_groups;
                        num_groups += 1;
                        (g, ctx.mask_prob(&p.cond, &scenario_probs))
                    });
                    group_of.push(g);
                    v
                })
                .collect();
            drop(by_cond);
            for (p, v) in paths.iter_mut().zip(probs_of) {
                p.prob = v;
            }
        }

        let mut counts = vec![0usize; n];
        for p in &paths {
            for &t in &p.tasks {
                counts[t.index()] += 1;
            }
        }
        let mut spanning: Vec<Vec<usize>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut span_at: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (i, p) in paths.iter().enumerate() {
            for (pos, &t) in p.tasks.iter().enumerate() {
                spanning[t.index()].push(i);
                span_at[t.index()].push(pos as u32);
            }
        }
        Ok(Some(ScheduledGraph {
            edges,
            paths,
            spanning,
            span_at,
            group_of,
            num_groups,
        }))
    }

    /// The edges of the (reduced) scheduled graph.
    pub fn edges(&self) -> &[SEdge] {
        &self.edges
    }

    /// The enumerated valid paths.
    pub fn paths(&self) -> &[SPath] {
        &self.paths
    }

    /// Mutable access to the paths (re-weighting updates probabilities).
    pub fn paths_mut(&mut self) -> &mut [SPath] {
        &mut self.paths
    }

    /// Indices of the paths spanning `task`.
    pub fn spanning(&self, task: TaskId) -> &[usize] {
        &self.spanning[task.index()]
    }

    /// Number of tasks the graph was built over (the width of the spanning
    /// tables).
    pub(crate) fn num_tasks(&self) -> usize {
        self.spanning.len()
    }

    /// For each path, its minterm-group id — paths with content-equal
    /// condition masks share a group (ids in first-occurrence order over
    /// the canonical path order).
    pub(crate) fn group_of(&self) -> &[u32] {
        &self.group_of
    }

    /// Number of distinct minterm groups among the paths.
    pub(crate) fn num_groups(&self) -> usize {
        self.num_groups as usize
    }

    /// `task`'s position on each of its spanning paths, parallel to
    /// [`ScheduledGraph::spanning`].
    pub(crate) fn spanning_at(&self, task: TaskId) -> &[u32] {
        &self.span_at[task.index()]
    }

    /// The worst-case end-to-end delay: the maximum path delay.
    pub fn critical_delay(&self) -> f64 {
        self.paths.iter().map(|p| p.delay).fold(0.0, f64::max)
    }

    /// Recomputes every path's probability under a new probability table,
    /// leaving topology, delays, conditions and guards untouched — the
    /// O(paths) replacement for a full rebuild when only the estimates
    /// moved (the mapping, order and communication delays do not depend on
    /// `probs`).
    ///
    /// Produces bit-identical probabilities to a fresh
    /// [`ScheduledGraph::build`] under the same table: the same
    /// `mask_prob` evaluated on the same stored scenario masks.
    pub fn reweight(&mut self, ctx: &SchedContext, probs: &BranchProbs) {
        let scenario_probs = ctx.scenario_probs(probs);
        for p in &mut self.paths {
            p.prob = ctx.mask_prob(&p.cond, &scenario_probs);
        }
    }
}

/// The pre-reduction edge set of the scheduled graph: CTG edges with their
/// communication delays and guards, implied or-node waits, and same-PE
/// serialization pseudo-edges (mutually exclusive pairs excluded).
fn collect_edges(ctx: &SchedContext, schedule: &Schedule) -> Vec<SEdge> {
    let ctg = ctx.ctg();
    let comm = ctx.platform().comm();

    // Presence bit-matrix so the "is there already an (a, b) edge?" dedup
    // checks are O(1) instead of a scan over the edge list — the same-PE
    // pass below asks for every ordered pair on every PE.
    let n = ctg.num_tasks();
    let words = n.div_ceil(64);
    let mut present = vec![0u64; n * words];
    let bit = |u: TaskId, v: TaskId| (u.index() * words + v.index() / 64, 1u64 << (v.index() % 64));

    let mut edges: Vec<SEdge> = Vec::new();
    for (_, e) in ctg.edges() {
        let delay = comm.delay(
            schedule.pe_of(e.src()),
            schedule.pe_of(e.dst()),
            e.comm_kbytes(),
        );
        edges.push(SEdge {
            src: e.src(),
            dst: e.dst(),
            delay,
            guard: e.condition().map(|alt| Literal::new(e.src(), alt)),
            kind: SEdgeKind::Ctg,
        });
        let (w, m) = bit(e.src(), e.dst());
        present[w] |= m;
    }
    for &(fork, or_node) in ctx.activation().implied_or_deps() {
        let (w, m) = bit(fork, or_node);
        if present[w] & m == 0 {
            present[w] |= m;
            edges.push(SEdge {
                src: fork,
                dst: or_node,
                delay: 0.0,
                guard: None,
                kind: SEdgeKind::Implied,
            });
        }
    }
    // Same-PE serialization: earlier → later among non-exclusive pairs.
    for pe in ctx.platform().pes() {
        let order = schedule.pe_order(pe);
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                let (a, b) = (order[i], order[j]);
                if ctx.mutually_exclusive(a, b) {
                    continue;
                }
                let (w, m) = bit(a, b);
                if present[w] & m == 0 {
                    present[w] |= m;
                    edges.push(SEdge {
                        src: a,
                        dst: b,
                        delay: 0.0,
                        guard: None,
                        kind: SEdgeKind::Pseudo,
                    });
                }
            }
        }
    }
    edges
}

/// Exact worst-case makespan of a (mapping, order, speeds) solution: for
/// every scenario, a longest-path dynamic program over the scheduled
/// graph's constraint edges with stretched execution times, maximised
/// across scenarios. `O(S·(V+E))` for `S` enumerated scenarios — no path
/// enumeration, no cap, no fallback estimate.
///
/// Uses the *un-reduced* edge set: dominated zero-delay edges never change
/// a longest path (the covering route is at least as long in every shared
/// scenario), and skipping the reduction keeps the routine cheap enough to
/// run per comparison.
///
/// The scenarios run side by side inside the task loop: each task keeps
/// one finish time per scenario, and an in-edge updates exactly the
/// scenarios in `task_mask(t) & task_mask(src) & literal_mask(guard)` —
/// the scenarios where both ends run and the guard holds — read off the
/// mask words. Every finish time takes the same operations, in the same
/// in-edge order, as a scenario-at-a-time pass would, and `max` does not
/// depend on order, so the result is the same bits.
pub(crate) fn worst_case_makespan_dp(
    ctx: &SchedContext,
    schedule: &Schedule,
    speeds: &SpeedAssignment,
) -> f64 {
    let n = ctx.ctg().num_tasks();
    let n_scen = ctx.scenarios().len();
    let edges = collect_edges(ctx, schedule);
    // CSR in-adjacency: `in_edges[in_start[t]..in_start[t + 1]]` are `t`'s
    // in-edges in edge-list order, each with its guard's literal mask
    // (`None` = unguarded). A guard on an unknown branch or alternative
    // holds in no scenario, so its edge is dropped here.
    let mut in_start = vec![0u32; n + 1];
    for e in &edges {
        in_start[e.dst.index() + 1] += 1;
    }
    for i in 0..n {
        in_start[i + 1] += in_start[i];
    }
    let mut cursor: Vec<u32> = in_start[..n].to_vec();
    let mut in_edges: Vec<(usize, f64, Option<&ScenarioMask>)> = vec![(0, 0.0, None); edges.len()];
    for e in &edges {
        let guard = match e.guard {
            None => None,
            Some(lit) => match ctx.literal_mask_ref(lit.branch(), lit.alt()) {
                Some(m) => Some(m),
                None => continue,
            },
        };
        let c = &mut cursor[e.dst.index()];
        in_edges[*c as usize] = (e.src.index(), e.delay, guard);
        *c += 1;
    }
    let profile = ctx.platform().profile();
    let exec: Vec<f64> = (0..n)
        .map(|t| {
            let t = TaskId::new(t);
            profile.wcet(t.index(), schedule.pe_of(t)) / speeds.speed(t)
        })
        .collect();
    // A topological order of the constraint graph: pseudo edges always go
    // from earlier to later start times, so schedule-start order works (the
    // CTG's own topological order ignores pseudo edges).
    let mut topo: Vec<usize> = (0..n).collect();
    topo.sort_by(|&a, &b| {
        schedule
            .start(TaskId::new(a))
            .partial_cmp(&schedule.start(TaskId::new(b)))
            .expect("start times are finite")
            .then(a.cmp(&b))
    });
    // `fin[t * n_scen + s]`: task `t`'s finish in scenario `s` (read only
    // where `t` runs in `s`).
    let mut fin = vec![0.0_f64; n * n_scen];
    let mut start = vec![0.0_f64; n_scen];
    let mut worst: f64 = 0.0;
    for &t in &topo {
        let active = ctx.task_mask(TaskId::new(t)).words();
        for_each_bit(active.iter().copied(), |s| start[s] = 0.0);
        // Edges dropped at build leave `cursor[t]` short of the next row.
        for &(src, delay, guard) in &in_edges[in_start[t] as usize..cursor[t] as usize] {
            let src_active = ctx.task_mask(TaskId::new(src)).words();
            let src_fin = &fin[src * n_scen..(src + 1) * n_scen];
            let both = active.iter().zip(src_active).map(|(a, b)| a & b);
            let mut relax = |s: usize| start[s] = start[s].max(src_fin[s] + delay);
            match guard {
                None => for_each_bit(both, &mut relax),
                Some(g) => for_each_bit(both.zip(g.words()).map(|(m, g)| m & g), &mut relax),
            }
        }
        let exec_t = exec[t];
        let row = &mut fin[t * n_scen..(t + 1) * n_scen];
        for_each_bit(active.iter().copied(), |s| {
            row[s] = start[s] + exec_t;
            worst = worst.max(row[s]);
        });
    }
    worst
}

/// Calls `f` on the index of every set bit of a mask's words, ascending.
/// A plain loop rather than a `flat_map` iterator like
/// [`ScenarioMask::iter`]: the DP above ran ~25% slower on MPEG with the
/// iterator form.
fn for_each_bit(words: impl Iterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (w, mut word) in words.enumerate() {
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// The scheduled graph's edge set after the scenario-aware transitive
/// reduction: a zero-delay pseudo/implied edge (u, v) is redundant only
/// when a longer route u→…→v exists whose every intermediate node executes
/// in *every scenario where both u and v execute* — then the route's delay
/// constraint is present whenever the edge's is, and dominates it. CTG
/// edges are always kept (they carry guards and communication delays).
fn reduced_edges(ctx: &SchedContext, schedule: &Schedule) -> Vec<SEdge> {
    let n = ctx.ctg().num_tasks();
    let n_scen = ctx.scenarios().len();
    let edges = collect_edges(ctx, schedule);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &edges {
        adj[e.src.index()].push(e.dst.index());
    }
    // Start times are monotone along every edge of a precedence-respecting
    // schedule (dependency, implied-wait and same-PE-order edges all point
    // forward in time), so a node starting strictly after `v` can never lie
    // on a route to `v` and the DFS may skip it. Verified once per build —
    // if a schedule ever violated monotonicity the prune is disabled and
    // the search degrades to the exhaustive form with the same result.
    let starts: Vec<f64> = (0..n).map(|t| schedule.start(TaskId::new(t))).collect();
    let monotone = edges
        .iter()
        .all(|e| starts[e.src.index()] <= starts[e.dst.index()]);

    // DFS buffers reused across edges (the reduction runs once per build,
    // but visits every pseudo edge; per-edge allocation used to dominate).
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut both = ScenarioMask::empty(n_scen);
    let mut reduced: Vec<SEdge> = Vec::with_capacity(edges.len());
    for e in &edges {
        if e.kind == SEdgeKind::Ctg {
            reduced.push(e.clone());
            continue;
        }
        let (u, v) = (e.src, e.dst);
        both.copy_from(ctx.task_mask(u));
        both.intersect(ctx.task_mask(v));
        let vstart = starts[v.index()];
        let safe = |w: usize| {
            w != u.index()
                && w != v.index()
                && !(monotone && starts[w] > vstart)
                && both.subset_of(ctx.task_mask(TaskId::new(w)))
        };
        // Reach v from u through ≥1 safe intermediate.
        seen.fill(false);
        stack.clear();
        stack.extend(adj[u.index()].iter().copied().filter(|&w| safe(w)));
        let mut covered = false;
        'dfs: while let Some(w) = stack.pop() {
            if seen[w] {
                continue;
            }
            seen[w] = true;
            for &x in &adj[w] {
                if x == v.index() {
                    covered = true;
                    break 'dfs;
                }
                if safe(x) && !seen[x] {
                    stack.push(x);
                }
            }
        }
        if !covered {
            reduced.push(e.clone());
        }
    }
    reduced
}

/// One flattened out-edge of the scheduled graph: the CSR adjacency the
/// enumeration walks (destination, delay and guard contiguous per source
/// task, in edge-list order).
#[derive(Clone)]
struct OutEdge {
    dst: TaskId,
    delay: f64,
    guard: Option<Literal>,
}

/// Depth-first path enumeration over `roots`, LIFO over a shared stack —
/// exactly the historical traversal (roots pushed in ascending task order,
/// each subtree fully explored before the next root) so the per-step meter
/// charges, the cap verdict and every float operation replay bit-for-bit.
/// Returns the emitted paths in DFS order, `Ok(None)` once more than `cap`
/// paths have been emitted.
///
/// The rewrite versus the original frame-cloning formulation is purely
/// structural: the current prefix's tasks and guards live in shared buffers
/// maintained by truncate-and-push across pops, scenario masks come from a
/// free list and are combined in place, and emission copies the contiguous
/// buffers instead of walking a parent chain. Identical arithmetic,
/// identical order.
fn enumerate_from(
    ctx: &SchedContext,
    schedule: &Schedule,
    adj_start: &[u32],
    adj: &[OutEdge],
    roots: &[TaskId],
    cap: usize,
    meter: &mut WorkMeter,
) -> Result<Option<Vec<SPath>>, SchedError> {
    let profile = ctx.platform().profile();
    let exec = |t: TaskId| profile.wcet(t.index(), schedule.pe_of(t));
    let n_scen = ctx.scenarios().len();

    /// One deferred extension. `depth`/`guard_len` locate the frame's
    /// prefix in the shared buffers: on pop, both are truncated to those
    /// lengths and the frame's own task/guard appended. LIFO exploration
    /// keeps the buffer positions below a frame's truncation point owned by
    /// its ancestors — sibling subtrees, explored in between, only ever
    /// write at or above them.
    struct Frame {
        task: TaskId,
        depth: u32,
        guard_len: u32,
        /// Guard of the edge into this node, with the path position of the
        /// deciding fork (matching the historical `SPath::guards` entries).
        guard: Option<(u32, Literal)>,
        delay: f64,
        cond: ScenarioMask,
    }

    let mut stack: Vec<Frame> = Vec::new();
    for &t in roots {
        stack.push(Frame {
            task: t,
            depth: 0,
            guard_len: 0,
            guard: None,
            delay: exec(t),
            cond: ctx.task_mask(t).clone(),
        });
    }

    // Unlimited meters (the common case: unbudgeted solves, and the
    // parallel workers' local meters) accumulate the step count locally and
    // charge once at the end — the same total as per-step charging, without
    // a fallible call in the hot loop. Budgeted meters keep the per-step
    // charge so an abort reproduces the exact crossing step.
    let unlimited = meter.is_unlimited();
    let mut units: u64 = 0;

    // The task/guard sequence of the *current* prefix, maintained across
    // pops by truncate-and-push (see `Frame`): at the top of each loop
    // iteration they hold exactly the popped frame's full path, so emission
    // is a pair of contiguous copies.
    let mut prefix: Vec<TaskId> = Vec::new();
    let mut guard_trail: Vec<(usize, Literal)> = Vec::new();

    let mut free: Vec<ScenarioMask> = Vec::new();
    let mut covered = ScenarioMask::empty(n_scen);
    let mut cand = ScenarioMask::empty(n_scen);
    let mut paths: Vec<SPath> = Vec::new();
    while let Some(f) = stack.pop() {
        if unlimited {
            units += 1;
        } else {
            meter.charge(1)?;
        }
        let fdepth = f.depth;
        prefix.truncate(fdepth as usize);
        prefix.push(f.task);
        guard_trail.truncate(f.guard_len as usize);
        if let Some((pos, lit)) = f.guard {
            guard_trail.push((pos as usize, lit));
        }
        let child_guard_len = guard_trail.len() as u32;
        // Extend through every consistent out-edge, tracking which of the
        // frame's scenarios are covered by at least one extension.
        covered.clear();
        let lo = adj_start[f.task.index()] as usize;
        let hi = adj_start[f.task.index() + 1] as usize;
        for e in &adj[lo..hi] {
            if unlimited {
                units += 1;
            } else {
                meter.charge(1)?;
            }
            // Combine the running condition with the guard and the next
            // node's own activation condition; prune impossible branches.
            cand.assign_and(&f.cond, ctx.task_mask(e.dst));
            let mut guard = None;
            if let Some(lit) = e.guard {
                match ctx.literal_mask_ref(lit.branch(), lit.alt()) {
                    Some(m) => cand.intersect(m),
                    None => cand.clear(),
                }
                // Position of the deciding fork on the path: its deepest
                // occurrence on the prefix, or the frame task's own
                // position when the fork is not on the path (the
                // historical fallback).
                let mut fork_pos = fdepth;
                for (d, &pt) in prefix.iter().enumerate().rev() {
                    if pt == lit.branch() {
                        fork_pos = d as u32;
                        break;
                    }
                }
                guard = Some((fork_pos, lit));
            }
            if cand.is_empty() {
                continue;
            }
            covered.union(&cand);
            // Hand `cand`'s words to the new frame and recycle a free-list
            // buffer as the next `cand` (fully overwritten by the next
            // `assign_and`, so stale content is fine).
            let mut cmask = free.pop().unwrap_or_else(|| ScenarioMask::empty(n_scen));
            std::mem::swap(&mut cmask, &mut cand);
            stack.push(Frame {
                task: e.dst,
                depth: fdepth + 1,
                guard_len: child_guard_len,
                guard,
                delay: f.delay + e.delay + exec(e.dst),
                cond: cmask,
            });
        }
        // Scenarios in which the path effectively *ends here* — either the
        // task is a graph sink, or every successor is deactivated. The
        // task's finish time is a makespan candidate in those scenarios, so
        // the prefix is a real worst-case path and must be emitted (without
        // this, a chain ending at a non-sink task whose continuations are
        // all scenario-inconsistent would escape the deadline analysis).
        let mut residual = f.cond;
        residual.subtract_assign(&covered);
        if !residual.is_empty() {
            // `prob` is filled in by the caller once per *distinct*
            // condition mask (see `build_metered_par`), not per path.
            paths.push(SPath {
                tasks: prefix.clone(),
                cond: residual,
                delay: f.delay,
                guards: guard_trail.clone(),
                prob: f64::NAN,
            });
            if paths.len() > cap {
                meter.charge(units)?;
                return Ok(None);
            }
        } else {
            free.push(residual);
        }
    }
    meter.charge(units)?;
    Ok(Some(paths))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dls::dls_schedule;
    use crate::test_util::{chain_context, example1_context};

    #[test]
    fn chain_has_single_path() {
        let (ctx, probs, [a, c, d]) = chain_context(60.0);
        let s = dls_schedule(&ctx, &probs).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 1000).unwrap();
        assert_eq!(g.paths().len(), 1);
        let p = &g.paths()[0];
        assert_eq!(p.tasks, vec![a, c, d]);
        assert!((p.delay - 6.0).abs() < 1e-9); // 3 tasks × wcet 2, same PE
        assert!((p.prob - 1.0).abs() < 1e-12);
        assert!(p.cond.is_full());
        assert!((g.critical_delay() - s.makespan()).abs() < 1e-9);
    }

    #[test]
    fn example1_paths_have_conditions() {
        let (ctx, probs, ids) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        let [_, _, _, t4, _, t6, t7, _] = ids;
        // No valid path contains two mutually exclusive tasks.
        for p in g.paths() {
            assert!(!(p.spans(t4) && p.spans(t6)));
            assert!(!(p.spans(t6) && p.spans(t7)));
            assert!(p.prob > 0.0);
        }
        // Some path through t6 exists with probability 0.25.
        let p6 = g.paths().iter().find(|p| p.spans(t6)).unwrap();
        assert!((p6.prob - 0.25).abs() < 1e-12);
    }

    #[test]
    fn prob_after_counts_pending_forks_only() {
        let (ctx, probs, ids) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        let [t1, _, t3, _, t5, t6, _, _] = ids;
        // Find a pure CTG path t1→t3→t5→t6 style (may include pseudo hops).
        let p = g
            .paths()
            .iter()
            .find(|p| p.spans(t6) && p.spans(t5) && p.spans(t3) && p.spans(t1))
            .expect("a path through the a2·b1 arm exists");
        // After t6 every fork on the path is decided.
        assert!((p.prob_after(t6, &probs) - 1.0).abs() < 1e-12);
        // Before t3 both forks are pending (prob 0.25) unless extra guards
        // from pseudo edges appear; at minimum it is ≤ 0.5.
        assert!(p.prob_after(t1, &probs) <= 0.5 + 1e-12);
    }

    #[test]
    fn critical_delay_matches_makespan() {
        let (ctx, probs, _) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        // The worst-case path delay bounds the schedule makespan.
        assert!(g.critical_delay() + 1e-9 >= s.makespan());
    }

    #[test]
    fn cap_triggers_fallback() {
        let (ctx, probs, _) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        assert!(ScheduledGraph::build(&ctx, &s, &probs, 1).is_none());
    }

    #[test]
    fn reweight_matches_rebuild_bitwise() {
        let (ctx, probs, ids) = example1_context();
        let [_, _, t3, ..] = ids;
        let s = dls_schedule(&ctx, &probs).unwrap();
        let mut skew = probs.clone();
        skew.set(t3, vec![0.8, 0.2]).unwrap();

        let mut g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        g.reweight(&ctx, &skew);
        let fresh = ScheduledGraph::build(&ctx, &s, &skew, 10_000).unwrap();
        assert_eq!(g.paths().len(), fresh.paths().len());
        for (a, b) in g.paths().iter().zip(fresh.paths()) {
            assert_eq!(a.tasks, b.tasks);
            assert_eq!(a.delay.to_bits(), b.delay.to_bits());
            assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "path prob diverged");
        }
    }

    #[test]
    fn makespan_dp_matches_path_enumeration() {
        let (ctx, probs, _) = example1_context();
        let s = dls_schedule(&ctx, &probs).unwrap();
        let speeds =
            crate::stretch::stretch_schedule(&ctx, &probs, &s, &Default::default()).unwrap();
        let g = ScheduledGraph::build(&ctx, &s, &probs, 10_000).unwrap();
        let by_paths = g
            .paths()
            .iter()
            .map(|p| p.stretched_delay(&ctx, &s, &speeds))
            .fold(0.0, f64::max);
        let by_dp = worst_case_makespan_dp(&ctx, &s, &speeds);
        assert!(
            (by_dp - by_paths).abs() <= 1e-9 * by_paths.max(1.0),
            "DP {by_dp} vs path enumeration {by_paths}"
        );
        // At nominal speeds the DP reproduces the schedule's makespan.
        let nominal = SpeedAssignment::nominal(ctx.ctg().num_tasks());
        let wcm = worst_case_makespan_dp(&ctx, &s, &nominal);
        assert!((wcm - s.makespan()).abs() <= 1e-9 * s.makespan());
    }
}

#[cfg(test)]
mod prefix_path_tests {
    use super::*;
    use crate::context::SchedContext;
    use crate::dls::dls_schedule;
    use crate::test_util::uniform_platform;
    use ctg_model::{BranchProbs, CtgBuilder};

    /// Regression: a chain ending at a task whose only continuations are
    /// deactivated in some scenario must still appear as a worst-case path
    /// for that scenario (found by tests/property.rs on a layered graph).
    #[test]
    fn prefix_paths_are_emitted_for_uncovered_scenarios() {
        // head → mid → tail(cond alt 0). Under alt 1 the chain head→mid has
        // no consistent continuation, yet mid's finish bounds the makespan.
        let mut b = CtgBuilder::new("prefix");
        let head = b.add_task("head");
        let fork = b.add_task("fork");
        let mid = b.add_task("mid");
        let arm1 = b.add_task("arm1");
        b.add_edge(head, fork, 0.0).unwrap();
        b.add_edge(head, mid, 0.0).unwrap();
        b.add_cond_edge(fork, arm1, 1, 0.0).unwrap();
        // mid's only successor is conditional on alt 0 of the fork.
        let gated = b.add_task("gated");
        b.add_cond_edge(fork, gated, 0, 0.0).unwrap();
        b.add_edge(mid, gated, 0.0).unwrap();
        let ctg = b.deadline(100.0).build().unwrap();
        let probs = BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let schedule = dls_schedule(&ctx, &probs).unwrap();
        let graph = ScheduledGraph::build(&ctx, &schedule, &probs, 10_000).unwrap();
        // Some emitted path must end at `mid` (alt-1 scenarios where `gated`
        // is inactive).
        assert!(
            graph
                .paths()
                .iter()
                .any(|p| *p.tasks.last().unwrap() == mid),
            "prefix path ending at mid missing: {:?}",
            graph
                .paths()
                .iter()
                .map(|p| p.tasks.iter().map(|t| t.index()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        );
        // And its scenario mask excludes the alt-0 scenarios (where the
        // continuation through `gated` exists).
        let prefix = graph
            .paths()
            .iter()
            .find(|p| *p.tasks.last().unwrap() == mid)
            .unwrap();
        let gated_mask = ctx.task_mask(gated);
        assert!(prefix.cond.and(gated_mask).is_empty());
    }

    /// Path scenario masks partition correctly: for every scenario, the
    /// maximum delay over paths containing it bounds the simulated makespan.
    #[test]
    fn every_scenario_is_covered_by_some_path() {
        let (ctx, probs, _) = crate::test_util::example1_context();
        let schedule = dls_schedule(&ctx, &probs).unwrap();
        let graph = ScheduledGraph::build(&ctx, &schedule, &probs, 10_000).unwrap();
        for si in 0..ctx.scenarios().len() {
            assert!(
                graph.paths().iter().any(|p| p.cond.contains(si)),
                "scenario {si} not covered by any path"
            );
        }
    }
}
