//! The repository benchmark.
//!
//! Three workloads drive the adaptive DVFS stack only through its public
//! entry points (`SchedContext::new`, `AdaptiveScheduler::observe`,
//! `SimWorkspace::simulate`, `Runner::serve`) and time each layer from
//! outside, by timing the calls the benchmark makes:
//!
//! * `mpeg-farm`: a decoder farm of MPEG sessions on the serve engine;
//! * `tgff-drift`: one adaptive manager per random TGFF device, a
//!   solver-bound loop;
//! * `mpeg-portfolio`: the same per-device loop on MPEG devices racing
//!   DLS, HEFT and lookahead on every drift event.
//!
//! A run sets its inputs up from a seed ([`setup`]), then repeats a
//! *round* — the whole workload from the same pristine managers — until
//! its time is up ([`run_round`]). Every round must produce the same
//! output digest. The traced run ([`spans`]) attaches the program's own
//! telemetry and folds its stage spans under the benchmark's spans to
//! derive per-layer self times.

pub mod alloc;
pub mod layers;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;

pub use workload::{run_round, setup, Inputs, Keep, RoundOut, Scale, Workload};
