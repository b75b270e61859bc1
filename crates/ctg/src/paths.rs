//! Source→sink path enumeration over the plain CTG.
//!
//! The stretching heuristic (implemented in the scheduler crate) enumerates
//! paths over the *scheduled* graph, which additionally contains
//! processor-order pseudo-edges; this module provides the underlying
//! CTG-level enumeration used for graph analysis and testing, together with
//! the per-path condition cube.

use crate::activation::Activation;
use crate::condition::{Cube, Literal};
use crate::graph::Ctg;
use crate::id::TaskId;

/// A simple source→sink path through the CTG.
#[derive(Debug, Clone, PartialEq)]
pub struct CtgPath {
    /// The tasks along the path, in order.
    pub tasks: Vec<TaskId>,
    /// Conjunction of the branch literals guarding edges of the path.
    pub cube: Cube,
}

impl CtgPath {
    /// Whether `task` lies on this path.
    pub fn spans(&self, task: TaskId) -> bool {
        self.tasks.contains(&task)
    }
}

/// Enumerates every simple source→sink path whose edge guards are mutually
/// consistent, up to `cap` paths.
///
/// Paths whose accumulated guards contradict (which can only happen through
/// joins of mutually exclusive branches) are skipped. Returns `None` when
/// the enumeration would exceed `cap`, signalling the caller to fall back to
/// a coarser analysis.
pub fn enumerate_paths(ctg: &Ctg, cap: usize) -> Option<Vec<CtgPath>> {
    let mut out = Vec::new();
    let mut stack: Vec<(TaskId, Vec<TaskId>, Cube)> =
        ctg.sources().map(|s| (s, vec![s], Cube::top())).collect();
    while let Some((t, tasks, cube)) = stack.pop() {
        let mut extended = false;
        for (_, e) in ctg.out_edges(t) {
            let next_cube = match e.condition() {
                Some(alt) => match cube.with(Literal::new(t, alt)) {
                    Some(c) => c,
                    None => continue,
                },
                None => cube.clone(),
            };
            let mut next_tasks = tasks.clone();
            next_tasks.push(e.dst());
            stack.push((e.dst(), next_tasks, next_cube));
            extended = true;
        }
        if !extended {
            out.push(CtgPath { tasks, cube });
            if out.len() > cap {
                return None;
            }
        }
    }
    // Deterministic order regardless of stack traversal.
    out.sort_by(|a, b| a.tasks.cmp(&b.tasks));
    Some(out)
}

/// The paper's `prob(p, τ)`: the joint probability of the conditional
/// branches decided on path `p` at or after node `τ`.
///
/// Branch decisions are taken at fork nodes; a literal "counts" when its fork
/// node appears on the path at or after the position of `τ` (so a fork
/// counts its own decision).
///
/// # Panics
///
/// Panics if `task` is not on the path.
pub fn prob_after(path: &CtgPath, task: TaskId, probs: &crate::probability::BranchProbs) -> f64 {
    let pos = path
        .tasks
        .iter()
        .position(|&t| t == task)
        .expect("task must lie on the path");
    path.cube
        .literals()
        .iter()
        .filter(|lit| {
            path.tasks
                .iter()
                .position(|&t| t == lit.branch())
                .is_some_and(|p| p >= pos)
        })
        .map(|lit| probs.prob(lit.branch(), lit.alt()))
        .product()
}

/// Convenience: enumerate paths and keep only those consistent with the
/// activation analysis (every task on the path can be active together with
/// the path's cube).
pub fn consistent_paths(ctg: &Ctg, act: &Activation, cap: usize) -> Option<Vec<CtgPath>> {
    let paths = enumerate_paths(ctg, cap)?;
    Some(
        paths
            .into_iter()
            .filter(|p| {
                p.tasks.iter().all(|&t| {
                    act.condition(t)
                        .cubes()
                        .iter()
                        .any(|c| c.and(&p.cube).is_some())
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CtgBuilder;
    use crate::probability::BranchProbs;

    fn fork_join() -> (Ctg, [TaskId; 5]) {
        // s -> f -(0)-> x -> z ; f -(1)-> y -> z (z is and-join; with
        // exclusive parents the joined path cubes stay consistent per arm).
        let mut b = CtgBuilder::new("g");
        let s = b.add_task("s");
        let f = b.add_task("f");
        let x = b.add_task("x");
        let y = b.add_task("y");
        let z = b.add_task("z");
        b.add_edge(s, f, 0.0).unwrap();
        b.add_cond_edge(f, x, 0, 0.0).unwrap();
        b.add_cond_edge(f, y, 1, 0.0).unwrap();
        b.add_edge(x, z, 0.0).unwrap();
        b.add_edge(y, z, 0.0).unwrap();
        (b.deadline(1.0).build().unwrap(), [s, f, x, y, z])
    }

    #[test]
    fn enumerates_both_arms() {
        let (g, [s, f, x, y, z]) = fork_join();
        let paths = enumerate_paths(&g, 100).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().any(|p| p.tasks == vec![s, f, x, z]));
        assert!(paths.iter().any(|p| p.tasks == vec![s, f, y, z]));
        for p in &paths {
            assert_eq!(p.cube.len(), 1);
        }
    }

    #[test]
    fn cap_returns_none() {
        let (g, _) = fork_join();
        assert!(enumerate_paths(&g, 1).is_none());
    }

    #[test]
    fn prob_after_counts_only_later_forks() {
        let (g, [s, f, x, _, z]) = fork_join();
        let mut probs = BranchProbs::new();
        probs.set(f, vec![0.25, 0.75]).unwrap();
        let paths = enumerate_paths(&g, 100).unwrap();
        let px = paths.iter().find(|p| p.tasks.contains(&x)).unwrap();
        // Before or at the fork, the branch decision is still pending.
        assert!((prob_after(px, s, &probs) - 0.25).abs() < 1e-12);
        assert!((prob_after(px, f, &probs) - 0.25).abs() < 1e-12);
        // After the fork resolved, the path is certain.
        assert!((prob_after(px, x, &probs) - 1.0).abs() < 1e-12);
        assert!((prob_after(px, z, &probs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn consistent_paths_drop_impossible_joins() {
        // and-join of two exclusive branches: neither arm's path can activate
        // the join, so consistent_paths removes both.
        let (g, [_, _, _, _, z]) = fork_join();
        let act = g.activation();
        assert!(act.condition(z).is_false());
        let ps = consistent_paths(&g, &act, 100).unwrap();
        assert!(ps.iter().all(|p| !p.spans(z)));
    }
}
