//! Single-instance execution: the one dispatch loop every simulator
//! variant runs.
//!
//! [`SimWorkspace::execute`] owns the execution rule (see
//! [`simulate_instance`]) and the timeline, makespan, communication energy
//! and deadline verdict that follow from it. How one task is dispatched is
//! a monomorphised [`Dispatch`] hook: locked speeds with optional DVFS
//! switch overhead (below), fault injection ([`crate::fault`]), slack
//! reclamation ([`crate::reclaim`]) and periodic release
//! ([`crate::runner::run_periodic`]).

use ctg_model::{Ctg, DecisionVector, EdgeId, TaskId};
use ctg_sched::{SchedContext, SchedError, Schedule, Solution, SpeedAssignment};
use mpsoc_platform::{PeId, Platform};

/// Slack allowed when judging a finish time against a deadline: absorbs
/// the rounding of summed durations.
pub(crate) const DEADLINE_TOL: f64 = 1e-9;

/// DVFS transition overhead model (extension — the paper explicitly
/// neglects switching overhead; this quantifies what that assumption hides).
///
/// Whenever two consecutively executed tasks on one PE run at different
/// speed ratios, the later task is delayed by `switch_time` and the instance
/// is charged `switch_energy`. Both must be finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DvfsOverhead {
    /// Time to re-lock the PLL / settle the voltage rail per speed change.
    pub switch_time: f64,
    /// Energy per speed change.
    pub switch_energy: f64,
}

impl DvfsOverhead {
    fn validate(&self) -> Result<(), SchedError> {
        let ok = |x: f64| x >= 0.0 && x.is_finite();
        if ok(self.switch_time) && ok(self.switch_energy) {
            Ok(())
        } else {
            Err(SchedError::InvalidParameter(
                "DVFS switch time and energy must be finite and ≥ 0",
            ))
        }
    }
}

/// Outcome of executing one CTG instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceResult {
    /// Total energy: activated tasks at their locked speeds plus the
    /// communication energy of transfers that actually happened.
    pub energy: f64,
    /// Computation share of [`InstanceResult::energy`].
    pub exec_energy: f64,
    /// Communication share of [`InstanceResult::energy`] (never
    /// voltage-scaled).
    pub comm_energy: f64,
    /// Completion time of the last activated task.
    pub makespan: f64,
    /// Whether the makespan met the graph deadline.
    pub deadline_met: bool,
    /// Per-task `(start, finish)` for activated tasks, `None` otherwise.
    pub task_times: Vec<Option<(f64, f64)>>,
}

impl InstanceResult {
    /// Number of tasks that executed in this instance.
    pub fn active_count(&self) -> usize {
        self.task_times.iter().filter(|t| t.is_some()).count()
    }
}

/// Scalar outcome of one simulated instance, without the per-task timeline.
///
/// [`SimWorkspace::simulate`] returns this `Copy` summary so the hot loop of
/// a trace runner moves no heap data; the timeline stays in the workspace
/// (see [`SimWorkspace::task_times`]) until the next instance overwrites it.
/// Values are computed by the exact same arithmetic as [`InstanceResult`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceOutcome {
    /// Total energy (execution + communication).
    pub energy: f64,
    /// Computation share of the energy.
    pub exec_energy: f64,
    /// Communication share of the energy.
    pub comm_energy: f64,
    /// Completion time of the last activated task.
    pub makespan: f64,
    /// Whether the makespan met the graph deadline.
    pub deadline_met: bool,
}

/// How [`SimWorkspace::execute`] dispatches one activated task: the hook
/// points of the one dispatch loop. The defaults are the fault-free
/// transfer rules, so only the fault injector overrides them.
pub(crate) trait Dispatch {
    /// Runs `t` on `pe` from the earliest `start` its constraints allow:
    /// charges its energy to `exec_energy` and returns its actual start and
    /// duration.
    fn run(&mut self, t: TaskId, pe: PeId, start: f64, exec_energy: &mut f64) -> (f64, f64);

    /// Arrival delay of the data on CTG edge `edge`, given its fault-free
    /// `delay`.
    #[inline]
    fn transfer(&mut self, _edge: EdgeId, delay: f64) -> f64 {
        delay
    }

    /// Energy charged for the executed transfer on `edge` on top of its
    /// fault-free energy `base`.
    #[inline]
    fn extra_comm_energy(&self, _edge: EdgeId, _base: f64) -> Option<f64> {
        None
    }
}

/// The locked-speed dispatcher: every task runs at its solution speed,
/// paying `overhead` whenever its PE changes (quantized) speed.
struct Locked<'a> {
    platform: &'a Platform,
    speeds: &'a SpeedAssignment,
    overhead: DvfsOverhead,
    /// Last speed each PE ran at.
    pe_speed: &'a mut [Option<f64>],
}

impl Dispatch for Locked<'_> {
    fn run(&mut self, t: TaskId, pe: PeId, mut start: f64, exec_energy: &mut f64) -> (f64, f64) {
        let speed = self.platform.dvfs().quantize(self.speeds.speed(t));
        if let Some(prev) = self.pe_speed[pe.index()] {
            if (prev - speed).abs() > 1e-12 {
                start += self.overhead.switch_time;
                *exec_energy += self.overhead.switch_energy;
            }
        }
        self.pe_speed[pe.index()] = Some(speed);
        let duration = self.platform.exec_time(t.index(), pe, self.speeds.speed(t));
        *exec_energy += self
            .platform
            .exec_energy(t.index(), pe, self.speeds.speed(t));
        (start, duration)
    }
}

/// Rejects a decision vector whose length is not the graph's fork count.
pub(crate) fn check_arity(ctg: &Ctg, vector: &DecisionVector) -> Result<(), SchedError> {
    if vector.len() == ctg.num_branches() {
        Ok(())
    } else {
        Err(SchedError::VectorArity {
            expected: ctg.num_branches(),
            got: vector.len(),
        })
    }
}

/// Precomputed constraint structure and scratch buffers for simulating many
/// instances under one committed schedule.
///
/// The constraint lists (CTG edges, implied or-deps, same-PE serialization)
/// and the topological processing order depend only on the context and on
/// `solution.schedule` — not on the decision vector or the speeds — so they
/// are built once and reused. After the first instance the per-instance
/// buffers are recycled too, making a warm simulate call allocation-free.
///
/// Contract: every `simulate*` call must pass the context and a solution
/// whose **schedule** equals the one the workspace was last built/rebuilt
/// for; the **speeds** may differ freely (they are read per call). Call
/// [`SimWorkspace::rebuild`] whenever the schedule changes (e.g. after an
/// adaptive re-schedule).
#[derive(Debug, Clone)]
pub struct SimWorkspace {
    /// Per-task constraint list `(pred, comm kbytes, CTG edge)`; the edge
    /// is `None` for implied or-deps and same-PE pseudo edges.
    pub(crate) preds: Vec<Vec<(TaskId, f64, Option<EdgeId>)>>,
    /// Processing order: nominal start, ties by task id. Every constraint
    /// points forward except same-PE order between mutually exclusive
    /// tasks sharing a start time, which never both run.
    pub(crate) order: Vec<TaskId>,
    active: Vec<bool>,
    task_times: Vec<Option<(f64, f64)>>,
    /// Last speed each PE ran at (locked-speed dispatch only).
    pe_speed: Vec<Option<f64>>,
}

impl SimWorkspace {
    /// Builds the workspace for `solution.schedule` on `ctx`.
    pub fn new(ctx: &SchedContext, solution: &Solution) -> Self {
        let mut ws = SimWorkspace {
            preds: Vec::new(),
            order: Vec::new(),
            active: Vec::new(),
            task_times: Vec::new(),
            pe_speed: Vec::new(),
        };
        ws.rebuild(ctx, solution);
        ws
    }

    /// Re-derives the constraint structure for a (possibly new) schedule,
    /// reusing the existing allocations.
    pub fn rebuild(&mut self, ctx: &SchedContext, solution: &Solution) {
        let ctg = ctx.ctg();
        let platform = ctx.platform();
        let schedule = &solution.schedule;
        let n = ctg.num_tasks();

        self.preds.resize(n, Vec::new());
        for p in &mut self.preds {
            p.clear();
        }
        for (id, e) in ctg.edges() {
            self.preds[e.dst().index()].push((e.src(), e.comm_kbytes(), Some(id)));
        }
        for &(fork, or_node) in ctx.activation().implied_or_deps() {
            self.preds[or_node.index()].push((fork, 0.0, None));
        }
        for pe in platform.pes() {
            let order = schedule.pe_order(pe);
            for i in 0..order.len() {
                for j in (i + 1)..order.len() {
                    self.preds[order[j].index()].push((order[i], 0.0, None));
                }
            }
        }

        self.order.clear();
        self.order.extend(ctg.tasks());
        self.order.sort_by(|&a, &b| {
            schedule
                .start(a)
                .partial_cmp(&schedule.start(b))
                .expect("finite start times")
                .then(a.cmp(&b))
        });
    }

    /// The per-task `(start, finish)` timeline of the most recent instance
    /// simulated through this workspace (activated tasks only).
    pub fn task_times(&self) -> &[Option<(f64, f64)>] {
        &self.task_times
    }

    /// Executes one instance, reusing the workspace buffers.
    ///
    /// Semantics and arithmetic are exactly those of [`simulate_instance`];
    /// results are bit-for-bit identical.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VectorArity`] when `vector` does not match the
    /// graph's fork count.
    pub fn simulate(
        &mut self,
        ctx: &SchedContext,
        solution: &Solution,
        vector: &DecisionVector,
    ) -> Result<InstanceOutcome, SchedError> {
        self.simulate_with_overhead(ctx, solution, vector, DvfsOverhead::default())
    }

    /// Like [`SimWorkspace::simulate`] but charges DVFS transition
    /// overheads.
    ///
    /// # Errors
    ///
    /// Same as [`SimWorkspace::simulate`], plus
    /// [`SchedError::InvalidParameter`] for a negative, NaN or infinite
    /// overhead field.
    pub fn simulate_with_overhead(
        &mut self,
        ctx: &SchedContext,
        solution: &Solution,
        vector: &DecisionVector,
        overhead: DvfsOverhead,
    ) -> Result<InstanceOutcome, SchedError> {
        overhead.validate()?;
        let mut pe_speed = std::mem::take(&mut self.pe_speed);
        pe_speed.clear();
        pe_speed.resize(ctx.platform().num_pes(), None);
        let out = self.execute(
            ctx,
            &solution.schedule,
            vector,
            &mut Locked {
                platform: ctx.platform(),
                speeds: &solution.speeds,
                overhead,
                pe_speed: &mut pe_speed,
            },
        );
        self.pe_speed = pe_speed;
        out
    }

    /// The dispatch loop: executes one instance of the context's CTG under
    /// `schedule` with the branch decisions in `vector`, dispatching each
    /// activated task through `hook`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::VectorArity`] when `vector` does not match the
    /// graph's fork count.
    pub(crate) fn execute<D: Dispatch>(
        &mut self,
        ctx: &SchedContext,
        schedule: &Schedule,
        vector: &DecisionVector,
        hook: &mut D,
    ) -> Result<InstanceOutcome, SchedError> {
        let ctg = ctx.ctg();
        check_arity(ctg, vector)?;
        let comm = ctx.platform().comm();

        vector.active_tasks_into(ctg, ctx.activation(), &mut self.active);
        self.task_times.clear();
        self.task_times.resize(ctg.num_tasks(), None);

        let mut exec_energy = 0.0;
        let mut makespan: f64 = 0.0;
        for &t in &self.order {
            if !self.active[t.index()] {
                continue;
            }
            let pe = schedule.pe_of(t);
            let mut start: f64 = 0.0;
            for &(p, kbytes, edge) in &self.preds[t.index()] {
                if !self.active[p.index()] {
                    continue;
                }
                let (_, p_finish) = self.task_times[p.index()]
                    .expect("constraint order processes predecessors first");
                let mut delay = comm.delay(schedule.pe_of(p), pe, kbytes);
                if let Some(edge) = edge {
                    delay = hook.transfer(edge, delay);
                }
                start = start.max(p_finish + delay);
            }
            let (start, duration) = hook.run(t, pe, start, &mut exec_energy);
            let finish = start + duration;
            self.task_times[t.index()] = Some((start, finish));
            makespan = makespan.max(finish);
        }
        // Communication energy of transfers that actually happened.
        let mut comm_energy = 0.0;
        for (id, e) in ctg.edges() {
            if self.active[e.src().index()] && self.active[e.dst().index()] {
                let base = comm.energy(
                    schedule.pe_of(e.src()),
                    schedule.pe_of(e.dst()),
                    e.comm_kbytes(),
                );
                comm_energy += base;
                if let Some(extra) = hook.extra_comm_energy(id, base) {
                    comm_energy += extra;
                }
            }
        }

        Ok(InstanceOutcome {
            energy: exec_energy + comm_energy,
            exec_energy,
            comm_energy,
            makespan,
            deadline_met: makespan <= ctg.deadline() + DEADLINE_TOL,
        })
    }

    pub(crate) fn result_from(&self, out: InstanceOutcome) -> InstanceResult {
        InstanceResult {
            energy: out.energy,
            exec_energy: out.exec_energy,
            comm_energy: out.comm_energy,
            makespan: out.makespan,
            deadline_met: out.deadline_met,
            task_times: self.task_times.clone(),
        }
    }
}

/// Executes one instance of the context's CTG under `solution` with the
/// branch decisions in `vector`.
///
/// Execution semantics:
///
/// * a task runs iff its activation condition holds under `vector`;
/// * it starts when all of the following have happened: every *activated*
///   predecessor has finished and its data arrived (cross-PE transfers take
///   `volume / bandwidth`), every branch fork node deciding one of its
///   predecessors has finished (or-node implied wait), and every activated
///   task scheduled before it on the same PE has finished;
/// * it runs for `WCET / speed` and consumes `E · speed²` (communication is
///   not voltage-scaled).
///
/// Simulating many instances under one schedule? Build a [`SimWorkspace`]
/// once instead — this convenience wrapper rebuilds the constraint structure
/// on every call.
///
/// # Errors
///
/// Returns [`SchedError::VectorArity`] when `vector` does not match the
/// graph's fork count.
pub fn simulate_instance(
    ctx: &SchedContext,
    solution: &Solution,
    vector: &DecisionVector,
) -> Result<InstanceResult, SchedError> {
    simulate_instance_with_overhead(ctx, solution, vector, DvfsOverhead::default())
}

/// Like [`simulate_instance`] but charges DVFS transition overheads
/// (extension; see [`DvfsOverhead`]).
///
/// # Errors
///
/// Same as [`SimWorkspace::simulate_with_overhead`].
pub fn simulate_instance_with_overhead(
    ctx: &SchedContext,
    solution: &Solution,
    vector: &DecisionVector,
    overhead: DvfsOverhead,
) -> Result<InstanceResult, SchedError> {
    let mut ws = SimWorkspace::new(ctx, solution);
    let out = ws.simulate_with_overhead(ctx, solution, vector, overhead)?;
    Ok(ws.result_from(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctg_model::{BranchProbs, DecisionVector};
    use ctg_sched::test_util::{example1_ctg, uniform_platform};
    use ctg_sched::{OnlineScheduler, SchedContext, SpeedAssignment};

    fn setup(deadline: f64) -> (SchedContext, BranchProbs, [TaskId; 8]) {
        let (ctg, ids) = example1_ctg(deadline);
        let probs = BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        (SchedContext::new(ctg, platform).unwrap(), probs, ids)
    }

    #[test]
    fn only_active_tasks_execute() {
        let (ctx, probs, ids) = setup(60.0);
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let [_, _, _, t4, t5, t6, t7, t8] = ids;
        // a1 (alt 0 at fork τ3): τ4, τ8 run; τ5, τ6, τ7 do not.
        let r = simulate_instance(&ctx, &solution, &DecisionVector::new(vec![0, 0])).unwrap();
        assert!(r.task_times[t4.index()].is_some());
        assert!(r.task_times[t8.index()].is_some());
        assert!(r.task_times[t5.index()].is_none());
        assert!(r.task_times[t6.index()].is_none());
        assert!(r.task_times[t7.index()].is_none());
        assert_eq!(r.active_count(), 5);
    }

    #[test]
    fn deadline_met_for_all_scenarios() {
        let (ctx, probs, _) = setup(60.0);
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        for a in 0..2u8 {
            for b in 0..2u8 {
                let r =
                    simulate_instance(&ctx, &solution, &DecisionVector::new(vec![a, b])).unwrap();
                assert!(r.deadline_met, "scenario ({a},{b}) missed: {}", r.makespan);
            }
        }
    }

    #[test]
    fn stretched_instance_uses_less_energy_than_nominal() {
        let (ctx, probs, _) = setup(80.0);
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let nominal = Solution {
            schedule: solution.schedule.clone(),
            speeds: SpeedAssignment::nominal(ctx.ctg().num_tasks()),
        };
        let v = DecisionVector::new(vec![1, 0]);
        let e_stretched = simulate_instance(&ctx, &solution, &v).unwrap().energy;
        let e_nominal = simulate_instance(&ctx, &nominal, &v).unwrap().energy;
        assert!(e_stretched < e_nominal);
    }

    #[test]
    fn precedence_respected_in_simulation() {
        let (ctx, probs, ids) = setup(60.0);
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let [t1, t2, t3, t4, _, _, _, t8] = ids;
        let r = simulate_instance(&ctx, &solution, &DecisionVector::new(vec![0, 1])).unwrap();
        let times = |t: TaskId| r.task_times[t.index()].unwrap();
        assert!(times(t1).1 <= times(t2).0 + 1e-9);
        assert!(times(t1).1 <= times(t3).0 + 1e-9);
        assert!(times(t3).1 <= times(t4).0 + 1e-9);
        // Or-node waits for all activated inputs and the fork.
        assert!(times(t8).0 + 1e-9 >= times(t2).1);
        assert!(times(t8).0 + 1e-9 >= times(t4).1);
        assert!(times(t8).0 + 1e-9 >= times(t3).1);
    }

    #[test]
    fn same_pe_tasks_serialize() {
        let (ctx, probs, _) = setup(60.0);
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        let r = simulate_instance(&ctx, &solution, &DecisionVector::new(vec![1, 1])).unwrap();
        for pe in ctx.platform().pes() {
            let mut intervals: Vec<(f64, f64)> = solution
                .schedule
                .pe_order(pe)
                .iter()
                .filter_map(|&t| r.task_times[t.index()])
                .collect();
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-9, "overlap on {pe}: {w:?}");
            }
        }
    }

    #[test]
    fn wrong_arity_rejected() {
        let (ctx, probs, _) = setup(60.0);
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        assert!(matches!(
            simulate_instance(&ctx, &solution, &DecisionVector::new(vec![0])),
            Err(SchedError::VectorArity { .. })
        ));
    }

    #[test]
    fn comm_energy_only_for_executed_cross_pe_transfers() {
        // Force a 2-PE split with a heavy edge and compare scenario energies.
        let (ctx, probs, _) = setup(60.0);
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        // Energy is finite and non-negative in all scenarios.
        for a in 0..2u8 {
            for b in 0..2u8 {
                let r =
                    simulate_instance(&ctx, &solution, &DecisionVector::new(vec![a, b])).unwrap();
                assert!(r.energy.is_finite() && r.energy > 0.0);
            }
        }
    }
}

#[cfg(test)]
mod overhead_tests {
    use super::*;
    use ctg_model::{BranchProbs, DecisionVector};
    use ctg_sched::test_util::{example1_ctg, uniform_platform};
    use ctg_sched::{OnlineScheduler, SchedContext};

    fn setup(deadline: f64) -> (SchedContext, Solution) {
        let (ctg, _) = example1_ctg(deadline);
        let probs = BranchProbs::uniform(&ctg);
        let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
        let ctx = SchedContext::new(ctg, platform).unwrap();
        let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
        (ctx, solution)
    }

    #[test]
    fn zero_overhead_matches_plain_simulation() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![1, 0]);
        let plain = simulate_instance(&ctx, &solution, &v).unwrap();
        let zero =
            simulate_instance_with_overhead(&ctx, &solution, &v, DvfsOverhead::default()).unwrap();
        assert_eq!(plain, zero);
    }

    #[test]
    fn overhead_increases_energy_and_makespan() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![1, 0]);
        let plain = simulate_instance(&ctx, &solution, &v).unwrap();
        let oh = DvfsOverhead {
            switch_time: 0.5,
            switch_energy: 0.3,
        };
        let with = simulate_instance_with_overhead(&ctx, &solution, &v, oh).unwrap();
        // The solution assigns different speeds to different tasks, so at
        // least one transition is charged.
        assert!(with.energy > plain.energy);
        assert!(with.makespan >= plain.makespan);
    }

    #[test]
    fn large_overhead_can_break_the_deadline() {
        // Tight deadline: nominal makespan ~ deadline/1.05.
        let (ctx, solution) = {
            let (ctg, _) = example1_ctg(1_000.0);
            let probs = BranchProbs::uniform(&ctg);
            let platform = uniform_platform(ctg.num_tasks(), 2, 2.0, 2.0);
            let ctx = SchedContext::new(ctg, platform).unwrap();
            let makespan = ctg_sched::dls_schedule(&ctx, &probs).unwrap().makespan();
            let ctx = SchedContext::new(
                ctx.ctg().with_deadline(1.05 * makespan),
                ctx.platform().clone(),
            )
            .unwrap();
            let solution = OnlineScheduler::new().solve(&ctx, &probs).unwrap();
            (ctx, solution)
        };
        let v = DecisionVector::new(vec![1, 0]);
        assert!(simulate_instance(&ctx, &solution, &v).unwrap().deadline_met);
        let oh = DvfsOverhead {
            switch_time: 5.0,
            switch_energy: 0.0,
        };
        let with = simulate_instance_with_overhead(&ctx, &solution, &v, oh).unwrap();
        // Whether it breaks depends on how many transitions the schedule
        // has; at minimum the makespan must grow.
        assert!(with.makespan > simulate_instance(&ctx, &solution, &v).unwrap().makespan - 1e-9);
    }

    #[test]
    fn invalid_overheads_rejected() {
        let (ctx, solution) = setup(60.0);
        let v = DecisionVector::new(vec![1, 0]);
        for (switch_time, switch_energy) in [
            (-0.5, 0.0),
            (0.0, -0.1),
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 0.0),
        ] {
            let oh = DvfsOverhead {
                switch_time,
                switch_energy,
            };
            assert!(
                matches!(
                    simulate_instance_with_overhead(&ctx, &solution, &v, oh),
                    Err(SchedError::InvalidParameter(_))
                ),
                "{oh:?} must be rejected"
            );
            let mut ws = SimWorkspace::new(&ctx, &solution);
            assert!(ws.simulate_with_overhead(&ctx, &solution, &v, oh).is_err());
        }
    }
}
