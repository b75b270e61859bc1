//! Shared scheduling context: graph, platform and cached analyses.

use crate::error::SchedError;
use ctg_model::{Activation, BranchProbs, Ctg, EdgeId, ScenarioSet, TaskId};
use mpsoc_platform::Platform;

/// A set of runtime scenarios, stored as a bitmask over the context's
/// scenario enumeration.
///
/// Conditions that arise during schedule analysis (path conditions, edge
/// guards, task activations) are all evaluated against the finite scenario
/// set, so set intersection replaces symbolic DNF conjunction — exact and
/// orders of magnitude faster on deep graphs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScenarioMask {
    bits: Vec<u64>,
    len: usize,
}

impl ScenarioMask {
    /// The mask containing every scenario of a set of size `len`.
    pub fn full(len: usize) -> Self {
        let words = len.div_ceil(64);
        let mut bits = vec![u64::MAX; words];
        if !len.is_multiple_of(64) {
            bits[words - 1] = (1u64 << (len % 64)) - 1;
        }
        if len == 0 {
            bits.clear();
        }
        ScenarioMask { bits, len }
    }

    /// The empty mask for a set of size `len`.
    pub fn empty(len: usize) -> Self {
        ScenarioMask {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Sets scenario `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "scenario index out of range");
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether scenario `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// In-place intersection.
    pub fn intersect(&mut self, other: &ScenarioMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// Returns the intersection as a new mask.
    pub fn and(&self, other: &ScenarioMask) -> ScenarioMask {
        let mut out = self.clone();
        out.intersect(other);
        out
    }

    /// Whether no scenario is in the set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Whether every scenario is in the set.
    pub fn is_full(&self) -> bool {
        *self == ScenarioMask::full(self.len)
    }

    /// Number of scenarios in the set.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether this set is a subset of `other`.
    pub fn subset_of(&self, other: &ScenarioMask) -> bool {
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// In-place union.
    pub fn union(&mut self, other: &ScenarioMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Returns the scenarios in this set but not in `other`.
    pub fn subtract(&self, other: &ScenarioMask) -> ScenarioMask {
        debug_assert_eq!(self.len, other.len);
        ScenarioMask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a & !b)
                .collect(),
            len: self.len,
        }
    }

    /// Iterates over the scenario indices in the set, in ascending order.
    ///
    /// Walks set bits word by word (`trailing_zeros`) rather than probing
    /// every index, so sparse masks over wide scenario sets iterate in time
    /// proportional to the population count. The ascending order is part of
    /// the contract: [`SchedContext::mask_prob`] sums probabilities in this
    /// order, and the sum must stay bit-identical.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| WordBits { word, base: w * 64 })
    }

    /// The mask's words: scenario `i` is bit `i % 64` of word `i / 64`, and
    /// bits at or past the set's size are clear.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Removes every scenario from the set, keeping its width.
    pub fn clear(&mut self) {
        for w in &mut self.bits {
            *w = 0;
        }
    }

    /// Makes this mask an exact copy of `other`, reusing the existing word
    /// buffer when the widths match (the allocation-free counterpart of
    /// `*self = other.clone()`).
    pub fn copy_from(&mut self, other: &ScenarioMask) {
        if self.bits.len() == other.bits.len() {
            self.bits.copy_from_slice(&other.bits);
        } else {
            self.bits.clear();
            self.bits.extend_from_slice(&other.bits);
        }
        self.len = other.len;
    }

    /// Makes this mask the intersection `a & b` in one fused pass, reusing
    /// the existing word buffer when the widths match — the hot path of the
    /// path enumeration, where a copy-then-intersect would walk the words
    /// twice.
    pub fn assign_and(&mut self, a: &ScenarioMask, b: &ScenarioMask) {
        debug_assert_eq!(a.len, b.len);
        if self.bits.len() == a.bits.len() {
            for (w, (x, y)) in self.bits.iter_mut().zip(a.bits.iter().zip(&b.bits)) {
                *w = x & y;
            }
        } else {
            self.bits.clear();
            self.bits
                .extend(a.bits.iter().zip(&b.bits).map(|(x, y)| x & y));
        }
        self.len = a.len;
    }

    /// In-place difference: removes every scenario of `other` from the set.
    pub fn subtract_assign(&mut self, other: &ScenarioMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
    }
}

/// Iterator over the set bits of one mask word (ascending).
struct WordBits {
    word: u64,
    base: usize,
}

impl Iterator for WordBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

/// Flat (CSR) view of the combined precedence structure — CTG edges plus the
/// implied or-node dependencies — with per-task quantities the schedulers'
/// inner loops keep asking for.
///
/// Built once in [`SchedContext::new`] so repeated solves stop rebuilding
/// `Vec<Vec<…>>` adjacency on every call. The adjacency preserves the
/// historical construction order exactly (CTG edges in declaration order,
/// implied dependencies appended; successors derived by ascending task
/// index), so schedulers iterating it reproduce the from-scratch results
/// bit for bit.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    pred_off: Vec<usize>,
    pred_data: Vec<(TaskId, f64)>, // (predecessor, comm kbytes)
    succ_off: Vec<usize>,
    succ_data: Vec<TaskId>,
    /// Per-task WCET averaged over runnable PEs; NaN when the task can run
    /// nowhere (the accessor panics on use, like `PeProfile::wcet_avg`).
    wcet_avg: Vec<f64>,
}

impl CompiledGraph {
    fn build(ctg: &Ctg, platform: &Platform, act: &Activation) -> Self {
        let n = ctg.num_tasks();
        let mut preds: Vec<Vec<(TaskId, f64)>> = vec![Vec::new(); n];
        for (_, e) in ctg.edges() {
            preds[e.dst().index()].push((e.src(), e.comm_kbytes()));
        }
        for &(fork, or_node) in act.implied_or_deps() {
            preds[or_node.index()].push((fork, 0.0));
        }
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (t, ps) in preds.iter().enumerate() {
            for &(p, _) in ps {
                succs[p.index()].push(TaskId::new(t));
            }
        }
        fn flatten_counts<T>(lists: &[Vec<T>]) -> Vec<usize> {
            let mut off = Vec::with_capacity(lists.len() + 1);
            off.push(0usize);
            for l in lists {
                off.push(off.last().unwrap() + l.len());
            }
            off
        }
        let pred_off = flatten_counts(&preds);
        let succ_off = flatten_counts(&succs);
        let profile = platform.profile();
        let wcet_avg = (0..n)
            .map(|t| {
                let mut sum = 0.0;
                let mut count = 0usize;
                for pe in platform.pes() {
                    let w = profile.wcet(t, pe);
                    if w.is_finite() {
                        sum += w;
                        count += 1;
                    }
                }
                if count == 0 {
                    f64::NAN
                } else {
                    sum / count as f64
                }
            })
            .collect();
        CompiledGraph {
            pred_off,
            pred_data: preds.into_iter().flatten().collect(),
            succ_off,
            succ_data: succs.into_iter().flatten().collect(),
            wcet_avg,
        }
    }

    /// The combined predecessors of `task` with their communication volumes,
    /// in the order the schedulers historically built them.
    pub fn preds(&self, task: TaskId) -> &[(TaskId, f64)] {
        &self.pred_data[self.pred_off[task.index()]..self.pred_off[task.index() + 1]]
    }

    /// Number of combined predecessors of `task`.
    pub fn num_preds(&self, task: TaskId) -> usize {
        self.pred_off[task.index() + 1] - self.pred_off[task.index()]
    }

    /// The combined successors of `task` (transposed from [`CompiledGraph::preds`]).
    pub fn succs(&self, task: TaskId) -> &[TaskId] {
        &self.succ_data[self.succ_off[task.index()]..self.succ_off[task.index() + 1]]
    }

    /// Cached WCET of `task` averaged over the PEs able to run it.
    ///
    /// # Panics
    ///
    /// Panics when the task cannot run on any PE (mirrors
    /// `PeProfile::wcet_avg`, which this caches).
    pub fn wcet_avg(&self, task: TaskId) -> f64 {
        let avg = self.wcet_avg[task.index()];
        assert!(!avg.is_nan(), "task {} cannot run on any PE", task.index());
        avg
    }
}

/// Everything the schedulers need about one (CTG, platform) pair, with the
/// activation analysis and scenario enumeration computed once.
///
/// The adaptive manager re-schedules many times with different probability
/// tables; building the context once amortizes the graph analyses.
#[derive(Debug, Clone)]
pub struct SchedContext {
    ctg: Ctg,
    platform: Platform,
    act: Activation,
    scenarios: ScenarioSet,
    mutex: Vec<bool>, // row-major n×n mutual-exclusion matrix
    task_masks: Vec<ScenarioMask>,
    /// Per CTG edge: the scenarios in which both endpoints run, or `None`
    /// when both endpoint conditions are the constant `true` (weight
    /// exactly 1.0, whatever the scenario probabilities sum to).
    edge_masks: Vec<Option<ScenarioMask>>,
    literal_masks: Vec<Vec<ScenarioMask>>, // [branch index][alt]
    compiled: CompiledGraph,
}

/// Compile-time proof that a compiled context is plain shareable data:
/// the campaign executor hands one `Arc<SchedContext>` to every worker
/// thread, so this must fail to compile if interior mutability is ever
/// introduced.
const _: () = {
    const fn is_sync_send<T: Sync + Send>() {}
    is_sync_send::<SchedContext>()
};

impl SchedContext {
    /// Builds a context, validating that platform and graph agree on the
    /// task count.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::TaskCountMismatch`] when the platform profile
    /// does not cover exactly the CTG's tasks.
    pub fn new(ctg: Ctg, platform: Platform) -> Result<Self, SchedError> {
        if ctg.num_tasks() != platform.num_tasks() {
            return Err(SchedError::TaskCountMismatch {
                ctg: ctg.num_tasks(),
                platform: platform.num_tasks(),
            });
        }
        let act = ctg.activation();
        let scenarios = ScenarioSet::enumerate(&ctg, &act);
        let n = ctg.num_tasks();
        let mut mutex = vec![false; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let me = act.mutually_exclusive(TaskId::new(i), TaskId::new(j));
                mutex[i * n + j] = me;
                mutex[j * n + i] = me;
            }
        }
        let s_len = scenarios.len();
        let mut task_masks = vec![ScenarioMask::empty(s_len); n];
        for (si, s) in scenarios.scenarios().iter().enumerate() {
            for (t, mask) in task_masks.iter_mut().enumerate() {
                if s.is_active(TaskId::new(t)) {
                    mask.set(si);
                }
            }
        }
        let edge_masks = ctg
            .edges()
            .map(|(_, e)| {
                let (src, dst) = (e.src(), e.dst());
                if act.condition(src).is_true() && act.condition(dst).is_true() {
                    None
                } else {
                    Some(task_masks[src.index()].and(&task_masks[dst.index()]))
                }
            })
            .collect();
        let mut literal_masks: Vec<Vec<ScenarioMask>> = ctg
            .branch_nodes()
            .iter()
            .map(|&b| vec![ScenarioMask::empty(s_len); ctg.node(b).alternatives() as usize])
            .collect();
        for (si, s) in scenarios.scenarios().iter().enumerate() {
            for (bi, &b) in ctg.branch_nodes().iter().enumerate() {
                if let Some(alt) = s.cube().alt_of(b) {
                    literal_masks[bi][alt as usize].set(si);
                }
            }
        }
        let compiled = CompiledGraph::build(&ctg, &platform, &act);
        Ok(SchedContext {
            ctg,
            platform,
            act,
            scenarios,
            mutex,
            task_masks,
            edge_masks,
            literal_masks,
            compiled,
        })
    }

    /// The flat precedence structure and per-task caches (built once).
    pub fn compiled(&self) -> &CompiledGraph {
        &self.compiled
    }

    /// Cached mutual-exclusion test (`X(τi) ∧ X(τj) = 0`).
    pub fn mutually_exclusive(&self, a: TaskId, b: TaskId) -> bool {
        self.mutex[a.index() * self.ctg.num_tasks() + b.index()]
    }

    /// The set of scenarios in which `task` executes.
    pub fn task_mask(&self, task: TaskId) -> &ScenarioMask {
        &self.task_masks[task.index()]
    }

    /// The set of scenarios in which the branch fork `branch` selects `alt`
    /// (empty for unknown branches/alternatives).
    pub fn literal_mask(&self, branch: TaskId, alt: u8) -> ScenarioMask {
        match self.ctg.branch_index(branch) {
            Some(bi) => self.literal_masks[bi]
                .get(alt as usize)
                .cloned()
                .unwrap_or_else(|| ScenarioMask::empty(self.scenarios.len())),
            None => ScenarioMask::empty(self.scenarios.len()),
        }
    }

    /// Borrowed view of [`SchedContext::literal_mask`] — `None` for unknown
    /// branches/alternatives (callers treat that as the empty mask). The
    /// enumeration hot loop uses this to intersect against the stored mask
    /// without cloning it first.
    pub fn literal_mask_ref(&self, branch: TaskId, alt: u8) -> Option<&ScenarioMask> {
        self.ctg
            .branch_index(branch)
            .and_then(|bi| self.literal_masks[bi].get(alt as usize))
    }

    /// Per-scenario probabilities under `probs`, in enumeration order.
    pub fn scenario_probs(&self, probs: &BranchProbs) -> Vec<f64> {
        let mut out = Vec::new();
        self.scenario_probs_into(probs, &mut out);
        out
    }

    /// [`SchedContext::scenario_probs`] into a caller-owned buffer (cleared
    /// first) — the same values in the same order, allocation-free after
    /// warm-up.
    pub fn scenario_probs_into(&self, probs: &BranchProbs, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.scenarios
                .scenarios()
                .iter()
                .map(|s| s.probability(probs)),
        );
    }

    /// Total probability of a scenario mask given per-scenario
    /// probabilities from [`SchedContext::scenario_probs`].
    pub fn mask_prob(&self, mask: &ScenarioMask, scenario_probs: &[f64]) -> f64 {
        mask.iter().map(|i| scenario_probs[i]).sum()
    }

    /// The conditional task graph.
    pub fn ctg(&self) -> &Ctg {
        &self.ctg
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The cached activation analysis.
    pub fn activation(&self) -> &Activation {
        &self.act
    }

    /// The cached scenario enumeration.
    pub fn scenarios(&self) -> &ScenarioSet {
        &self.scenarios
    }

    /// Activation weights of every task and edge under `probs`: one pass
    /// over the scenarios for their probabilities, then one
    /// [`SchedContext::mask_prob`] per task and per edge.
    pub fn activation_weights(&self, probs: &BranchProbs) -> ActivationWeights {
        let scenario_probs = self.scenario_probs(probs);
        ActivationWeights {
            tasks: self
                .task_masks
                .iter()
                .map(|m| self.mask_prob(m, &scenario_probs))
                .collect(),
            edges: self
                .edge_masks
                .iter()
                .map(|m| {
                    m.as_ref()
                        .map_or(1.0, |m| self.mask_prob(m, &scenario_probs))
                })
                .collect(),
        }
    }
}

/// Activation weights under one branch-probability table: the probability
/// that each task runs (`prob(τ)`) and that each CTG edge transfers data
/// (`prob(τi ∧ τj)`, both endpoints active).
///
/// Every weight is a sum over the context's scenario masks in ascending
/// scenario index, so it carries the same bits as a filter over the
/// scenario enumeration. Build it once per table with
/// [`SchedContext::activation_weights`] and price any number of plans
/// against it (see [`crate::expected_energy_weighted`]). An edge whose two
/// endpoints are both unconditional weighs exactly 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationWeights {
    tasks: Vec<f64>,
    edges: Vec<f64>,
}

impl ActivationWeights {
    /// Activation probability of `task`.
    pub fn task(&self, task: TaskId) -> f64 {
        self.tasks[task.index()]
    }

    /// Probability that both endpoints of `edge` are active.
    pub fn edge(&self, edge: EdgeId) -> f64 {
        self.edges[edge.index()]
    }

    /// Number of tasks weighed.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges weighed.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{example1_context, uniform_platform};
    use ctg_model::CtgBuilder;

    #[test]
    fn scenario_mask_basic_ops() {
        let mut a = ScenarioMask::empty(70);
        assert!(a.is_empty());
        a.set(0);
        a.set(65);
        assert!(a.contains(0) && a.contains(65) && !a.contains(1));
        assert_eq!(a.count(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 65]);

        let full = ScenarioMask::full(70);
        assert!(full.is_full());
        assert_eq!(full.count(), 70);
        assert!(a.subset_of(&full));
        assert!(!full.subset_of(&a));
        assert_eq!(a.and(&full), a);

        let mut b = ScenarioMask::empty(70);
        b.set(65);
        let ab = a.and(&b);
        assert_eq!(ab.count(), 1);
        assert!(ab.contains(65));
    }

    #[test]
    fn scenario_mask_zero_len() {
        let m = ScenarioMask::full(0);
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
    }

    #[test]
    #[should_panic]
    fn scenario_mask_set_out_of_range() {
        let mut m = ScenarioMask::empty(3);
        m.set(3);
    }

    #[test]
    fn task_and_literal_masks_cover_scenarios() {
        let (ctx, probs, ids) = example1_context();
        let [t1, _, t3, t4, _, t6, ..] = ids;
        let n = ctx.scenarios().len();
        assert!(ctx.task_mask(t1).is_full());
        // τ4 executes exactly in the a1 scenario.
        assert_eq!(ctx.task_mask(t4).count(), 1);
        // τ6 executes in a2·b1 only.
        assert_eq!(ctx.task_mask(t6).count(), 1);
        // Literal a1 covers the same single scenario as X(τ4).
        assert_eq!(ctx.literal_mask(t3, 0), *ctx.task_mask(t4));
        // Unknown branch/alt yields the empty mask.
        assert!(ctx.literal_mask(t4, 0).is_empty());
        assert!(ctx.literal_mask(t3, 9).is_empty());
        // mask_prob of the full mask is 1.
        let sp = ctx.scenario_probs(&probs);
        assert!((ctx.mask_prob(&ScenarioMask::full(n), &sp) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_task_count_mismatch() {
        let mut b = CtgBuilder::new("g");
        let _ = b.add_task("a");
        let ctg = b.deadline(1.0).build().unwrap();
        let platform = uniform_platform(3, 2, 1.0, 1.0);
        assert!(matches!(
            SchedContext::new(ctg, platform),
            Err(SchedError::TaskCountMismatch {
                ctg: 1,
                platform: 3
            })
        ));
    }

    #[test]
    fn task_weights_match_scenarios() {
        let (ctx, probs, ids) = example1_context();
        let w = ctx.activation_weights(&probs);
        assert_eq!(w.num_tasks(), 8);
        // X(τ6) = a2·b1 → 0.5 · 0.5 = 0.25 under uniform probabilities.
        assert!((w.task(ids[5]) - 0.25).abs() < 1e-12);
        assert!((w.task(ids[0]) - 1.0).abs() < 1e-12);
        for t in ctx.ctg().tasks() {
            assert_eq!(
                w.task(t).to_bits(),
                ctx.scenarios().task_prob(t, &probs).to_bits()
            );
        }
    }

    #[test]
    fn edge_weights_combine_endpoints() {
        let (ctx, probs, ids) = example1_context();
        let w = ctx.activation_weights(&probs);
        assert_eq!(w.num_edges(), ctx.ctg().num_edges());
        let edge = |src: TaskId, dst: TaskId| {
            let (id, _) = ctx
                .ctg()
                .edges()
                .find(|(_, e)| e.src() == src && e.dst() == dst)
                .expect("edge exists");
            w.edge(id)
        };
        // τ5 (a2) → τ6 (a2·b1): transfer happens with prob 0.25.
        assert!((edge(ids[4], ids[5]) - 0.25).abs() < 1e-12);
        // τ1 → τ2 always transfers, with weight exactly 1.
        assert_eq!(edge(ids[0], ids[1]), 1.0);
    }
}
