//! The three workloads: seeded input set-up and one timed round.

use crate::spans::{Recorder, Tracks};
use crate::stats::Digest;
use ctg_bench::setup::profile_trace;
use ctg_model::{BranchProbs, Ctg, DecisionVector};
use ctg_rng::SplitMix64;
use ctg_sched::{
    dls_schedule, AdaptiveScheduler, PortfolioStats, SchedContext, SchedulerKind, Solution,
    WorkspaceStats,
};
use ctg_sim::{CacheMode, EngineKind, RunConfig, Runner, ServeStats, SimWorkspace, StreamSpec};
use ctg_workloads::mpeg;
use ctg_workloads::traces::{generate_trace, DriftProfile};
use mpsoc_platform::{PeId, Platform};
use std::time::Instant;
use tgff_gen::{Category, TgffConfig};

/// Sliding-window length of every profiler.
pub const WINDOW: usize = 20;
/// Drift threshold of every profiler.
pub const THRESHOLD: f64 = 0.1;
/// Deadline = this factor × the DLS makespan.
pub const DEADLINE_FACTOR: f64 = 2.0;
/// Trace prefix profiled for a device's or stream's initial table.
pub const PROFILE_PREFIX: usize = 40;
/// Serve-engine workers (and shards) on `mpeg-farm`.
pub const FARM_WORKERS: usize = 2;
/// Drift movies in the farm; each is watched at [`FARM_OFFSETS`] offsets.
pub const FARM_MOVIES: usize = 16;
/// Playback offsets per movie in the farm.
pub const FARM_OFFSETS: usize = 8;
/// Ticks between two neighbouring playback offsets.
pub const FARM_OFFSET_STEP: usize = 37;
/// Shared plan cache of the farm: entries and lock stripes.
pub const FARM_CACHE: (usize, usize) = (4096, 16);
/// Generator seeds of the four TGFF graphs. The graphs stay fixed across
/// benchmark seeds (the benchmark seed drives their drift traces): path
/// counts, and with them solve cost and memory, differ by orders of
/// magnitude between random graphs, which would drown any change to the
/// program in run-to-run spread.
pub const TGFF_GRAPH_SEEDS: [u64; 4] = [5000, 5001, 5002, 5003];
/// The portfolio raced on `mpeg-portfolio`, DLS first.
pub const PORTFOLIO: [SchedulerKind; 3] = [
    SchedulerKind::Dls,
    SchedulerKind::Heft,
    SchedulerKind::Lookahead,
];
/// Threads the benchmark itself runs on: the main thread, plus the serve
/// workers on `mpeg-farm`.
pub fn threads_used(workload: Workload) -> usize {
    match workload {
        Workload::MpegFarm => FARM_WORKERS,
        Workload::TgffDrift | Workload::MpegPortfolio => 1,
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MPEG decoder sessions on `Runner::serve`.
    MpegFarm,
    /// One DLS manager per random TGFF device.
    TgffDrift,
    /// One portfolio-racing manager per MPEG device.
    MpegPortfolio,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::MpegFarm,
        Workload::TgffDrift,
        Workload::MpegPortfolio,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MpegFarm => "mpeg-farm",
            Workload::TgffDrift => "tgff-drift",
            Workload::MpegPortfolio => "mpeg-portfolio",
        }
    }

    /// Parses a command-line name.
    pub fn parse(raw: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == raw)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::SMALL`] keeps the self-tests quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Sessions on the farm.
    pub farm_streams: usize,
    /// Instances per farm session.
    pub farm_len: usize,
    /// Instances per TGFF device.
    pub tgff_len: usize,
    /// MPEG devices racing on `mpeg-portfolio`.
    pub portfolio_devices: usize,
    /// MPEG devices of the DLS decision probe on `mpeg-farm`; the first
    /// [`Scale::portfolio_devices`] of them are the racing devices.
    pub probe_devices: usize,
    /// Instances per MPEG device.
    pub mpeg_device_len: usize,
}

impl Scale {
    /// The measured sizes.
    pub const FULL: Scale = Scale {
        farm_streams: 2048,
        farm_len: 240,
        tgff_len: 12000,
        portfolio_devices: 16,
        probe_devices: 48,
        mpeg_device_len: 600,
    };

    /// Sizes for the self-tests.
    pub const SMALL: Scale = Scale {
        farm_streams: 128,
        farm_len: 60,
        tgff_len: 150,
        portfolio_devices: 2,
        probe_devices: 3,
        mpeg_device_len: 120,
    };
}

/// One adaptive device: a trace and the manager that serves it.
#[derive(Debug, Clone)]
pub struct Device {
    /// Index into [`Inputs::contexts`].
    pub ctx: usize,
    /// Branch decisions, one vector per instance.
    pub trace: Vec<DecisionVector>,
    /// The pristine manager; every round runs on a clone.
    pub manager: AdaptiveScheduler,
}

/// Everything a workload needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Compiled contexts with calibrated deadlines.
    pub contexts: Vec<SchedContext>,
    /// Per-device loops (the farm's per-session probe on `mpeg-farm`).
    pub devices: Vec<Device>,
    /// Farm sessions, all on context 0 (`mpeg-farm` only).
    pub streams: Vec<StreamSpec>,
    /// Host µs of each `profile_trace` call made during set-up.
    pub profile_us: Vec<f64>,
    /// Host µs of each `SchedContext::new` call made during set-up.
    pub compile_us: Vec<f64>,
}

fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::mix(seed, stream)
}

/// Builds a context whose deadline is [`DEADLINE_FACTOR`] × the DLS
/// makespan under `probs`, timing both context compilations.
fn calibrated_context(
    ctg: Ctg,
    platform: Platform,
    probs: &BranchProbs,
    compile_us: &mut Vec<f64>,
) -> Result<SchedContext, String> {
    let t0 = Instant::now();
    let ctx = SchedContext::new(ctg, platform).map_err(|e| format!("context: {e}"))?;
    compile_us.push(t0.elapsed().as_secs_f64() * 1e6);
    let makespan = dls_schedule(&ctx, probs)
        .map_err(|e| format!("calibration: {e}"))?
        .makespan();
    let ctg = ctx.ctg().with_deadline(makespan * DEADLINE_FACTOR);
    let t1 = Instant::now();
    let ctx =
        SchedContext::new(ctg, ctx.platform().clone()).map_err(|e| format!("context: {e}"))?;
    compile_us.push(t1.elapsed().as_secs_f64() * 1e6);
    Ok(ctx)
}

/// The table profiled from a trace's first [`PROFILE_PREFIX`] instances.
fn profiled(
    ctx: &SchedContext,
    trace: &[DecisionVector],
    profile_us: &mut Vec<f64>,
) -> BranchProbs {
    let t0 = Instant::now();
    let probs = profile_trace(ctx, &trace[..trace.len().min(PROFILE_PREFIX)]);
    profile_us.push(t0.elapsed().as_secs_f64() * 1e6);
    probs
}

fn device(
    ctx_idx: usize,
    ctx: &SchedContext,
    trace: Vec<DecisionVector>,
    portfolio: bool,
    profile_us: &mut Vec<f64>,
) -> Result<Device, String> {
    let initial = profiled(ctx, &trace, profile_us);
    let mut manager = AdaptiveScheduler::new(ctx, initial, WINDOW, THRESHOLD)
        .map_err(|e| format!("manager: {e}"))?;
    manager.set_intra_solve_workers(1);
    if portfolio {
        manager
            .enable_portfolio(&PORTFOLIO)
            .map_err(|e| format!("portfolio: {e}"))?;
    }
    Ok(Device {
        ctx: ctx_idx,
        trace,
        manager,
    })
}

fn mpeg_context(compile_us: &mut Vec<f64>) -> Result<SchedContext, String> {
    let ctg = mpeg::mpeg_ctg();
    let platform = mpeg::mpeg_platform(&ctg);
    let probs = BranchProbs::uniform(&ctg);
    calibrated_context(ctg, platform, &probs, compile_us)
}

/// The MPEG devices of `mpeg-portfolio`, or of `mpeg-farm`'s DLS-only
/// decision probe. Device `d` gets the same trace in both, so the two
/// workloads' decisions compare the race against DLS on identical traces.
fn mpeg_devices(
    ctx: &SchedContext,
    seed: u64,
    scale: Scale,
    portfolio: bool,
    profile_us: &mut Vec<f64>,
) -> Result<Vec<Device>, String> {
    let count = if portfolio {
        scale.portfolio_devices
    } else {
        scale.probe_devices
    };
    (0..count as u64)
        .map(|d| {
            let profile = DriftProfile::new(sub_seed(seed, 0x706f_0000 + d));
            let trace = generate_trace(ctx.ctg(), &profile, scale.mpeg_device_len);
            device(0, ctx, trace, portfolio, profile_us)
        })
        .collect()
}

/// Generates a workload's inputs from `seed`: traces, graphs, compiled
/// contexts, managers and stream specs.
///
/// # Errors
///
/// A message naming the step that failed.
pub fn setup(workload: Workload, seed: u64, scale: Scale) -> Result<Inputs, String> {
    let mut profile_us = Vec::new();
    let mut compile_us = Vec::new();
    let mut contexts = Vec::new();
    let mut devices = Vec::new();
    let mut streams = Vec::new();
    match workload {
        Workload::MpegFarm => {
            let ctx = mpeg_context(&mut compile_us)?;
            // Each movie is long enough for every playback offset to watch
            // `farm_len` instances of it; neighbouring offsets overlap.
            let len = scale.farm_len;
            let movie_len = len + (FARM_OFFSETS - 1) * FARM_OFFSET_STEP;
            let movies: Vec<Vec<DecisionVector>> = (0..FARM_MOVIES)
                .map(|m| {
                    let profile = DriftProfile::new(sub_seed(seed, 0x6d6f_7600 + m as u64));
                    generate_trace(ctx.ctg(), &profile, movie_len)
                })
                .collect();
            for i in 0..scale.farm_streams {
                let offset = (i / FARM_MOVIES) % FARM_OFFSETS * FARM_OFFSET_STEP;
                let trace = movies[i % FARM_MOVIES][offset..offset + len].to_vec();
                let initial = profiled(&ctx, &trace, &mut profile_us);
                streams.push(StreamSpec {
                    window: WINDOW,
                    threshold: THRESHOLD,
                    ..StreamSpec::new(trace, initial)
                });
            }
            devices = mpeg_devices(&ctx, seed, scale, false, &mut profile_us)?;
            contexts.push(ctx);
        }
        Workload::TgffDrift => {
            for (d, &graph_seed) in TGFF_GRAPH_SEEDS.iter().enumerate() {
                let category = if d < 2 {
                    Category::ForkJoin
                } else {
                    Category::Layered
                };
                let cfg = TgffConfig::new(graph_seed, 50, 5, category);
                let generated = cfg.generate();
                let platform = cfg.generate_platform(&generated.ctg, 4);
                let ctx =
                    calibrated_context(generated.ctg, platform, &generated.probs, &mut compile_us)?;
                let profile = DriftProfile::new(sub_seed(seed, 0x7472_0000 + d as u64));
                let trace = generate_trace(ctx.ctg(), &profile, scale.tgff_len);
                devices.push(device(d, &ctx, trace, false, &mut profile_us)?);
                contexts.push(ctx);
            }
        }
        Workload::MpegPortfolio => {
            let ctx = mpeg_context(&mut compile_us)?;
            devices = mpeg_devices(&ctx, seed, scale, true, &mut profile_us)?;
            contexts.push(ctx);
        }
    }
    Ok(Inputs {
        workload,
        contexts,
        devices,
        streams,
        profile_us,
        compile_us,
    })
}

/// Nominal energy of a trace: every instance's active tasks, each at full
/// speed on its cheapest PE, communication left out. It depends on the
/// inputs alone, so dividing simulated energy by it cancels how much work
/// a seed's traces happen to activate.
pub fn nominal_energy(ctx: &SchedContext, trace: &[DecisionVector]) -> f64 {
    let profile = ctx.platform().profile();
    let pes = ctx.platform().num_pes();
    let cheapest: Vec<f64> = (0..ctx.ctg().num_tasks())
        .map(|t| {
            (0..pes)
                .map(|p| profile.energy(t, PeId::new(p)))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mut active = Vec::new();
    let mut total = 0.0;
    for v in trace {
        v.active_tasks_into(ctx.ctg(), ctx.activation(), &mut active);
        total += cheapest
            .iter()
            .zip(&active)
            .filter(|(_, &on)| on)
            .map(|(e, _)| e)
            .sum::<f64>();
    }
    total
}

impl Inputs {
    /// Nominal energy of the throughput section's instances (the farm's
    /// sessions on `mpeg-farm`, the devices elsewhere).
    pub fn nominal_energy(&self) -> f64 {
        if self.streams.is_empty() {
            self.devices
                .iter()
                .map(|d| nominal_energy(&self.contexts[d.ctx], &d.trace))
                .sum()
        } else {
            self.streams
                .iter()
                .map(|s| nominal_energy(&self.contexts[0], &s.trace))
                .sum()
        }
    }
}

/// A plan a device adopted during a recorded round.
#[derive(Debug, Clone)]
pub struct Adoption {
    /// Device index.
    pub device: usize,
    /// Instance whose observation triggered the adoption.
    pub instance: usize,
    /// The adopted table.
    pub probs: BranchProbs,
    /// The adopted plan.
    pub solution: Solution,
}

/// What one round produced.
#[derive(Debug, Clone, Default)]
pub struct RoundOut {
    /// Instances of the throughput section: the serve call on `mpeg-farm`,
    /// the device loops elsewhere.
    pub instances: u64,
    /// Host seconds of the throughput section.
    pub wall_s: f64,
    /// Simulated energy of the throughput section.
    pub energy: f64,
    /// Instances attempted across the whole round.
    pub attempted: u64,
    /// Instances that missed their deadline or hit a solve or simulation
    /// error.
    pub failed: u64,
    /// Device and host µs of every `observe` call that adopted a new plan.
    pub decision_us: Vec<(usize, f64)>,
    /// Digest of the simulated results.
    pub digest: u64,
    /// Serve-engine counters (`mpeg-farm`).
    pub serve: Option<ServeStats>,
    /// Instances the device loops ran.
    pub device_instances: u64,
    /// Adoptions across devices.
    pub decisions: u64,
    /// Solver calls across devices.
    pub solver_calls: u64,
    /// Summed workspace counters across devices.
    pub workspace: WorkspaceStats,
    /// Summed race counters across devices.
    pub portfolio: PortfolioStats,
    /// The adopted plans the round was asked to keep.
    pub adoptions: Vec<Adoption>,
}

fn add_workspace(sum: &mut WorkspaceStats, s: &WorkspaceStats) {
    sum.solves += s.solves;
    sum.memo_hits += s.memo_hits;
    sum.full_level_rebuilds += s.full_level_rebuilds;
    sum.dirty_level_updates += s.dirty_level_updates;
    sum.levels_recomputed += s.levels_recomputed;
    sum.graph_reuses += s.graph_reuses;
    sum.graph_rebuilds += s.graph_rebuilds;
    sum.rebinds += s.rebinds;
    sum.budget_exceeded += s.budget_exceeded;
    sum.near_hits += s.near_hits;
}

/// Which adopted plans a round keeps for validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// None: the round's memory stays the program's own.
    None,
    /// Every `n`-th adoption of each device, counting from its first.
    Every(usize),
}

/// Runs the whole workload once from the pristine managers. With a
/// recorder, spans are recorded around every call and the program's own
/// telemetry is attached. Solve and simulation errors count as failed
/// instances.
pub fn run_round(inputs: &Inputs, mut rec: Option<&mut Recorder>, keep: Keep) -> RoundOut {
    let mut out = RoundOut::default();
    let mut digest = Digest::default();
    if !inputs.streams.is_empty() {
        run_farm(inputs, rec.as_deref_mut(), &mut out, &mut digest);
    }
    let t0 = Instant::now();
    let mut energy = 0.0;
    for (d, dev) in inputs.devices.iter().enumerate() {
        energy += run_device(
            inputs,
            d,
            dev,
            rec.as_deref_mut(),
            keep,
            &mut out,
            &mut digest,
        );
    }
    if inputs.streams.is_empty() {
        out.wall_s = t0.elapsed().as_secs_f64();
        out.instances = out.device_instances;
        out.energy = energy;
    }
    out.digest = digest.value();
    out
}

fn run_farm(inputs: &Inputs, rec: Option<&mut Recorder>, out: &mut RoundOut, digest: &mut Digest) {
    let ctx = &inputs.contexts[0];
    let mut cfg = RunConfig::new()
        .workers(FARM_WORKERS)
        .shards(FARM_WORKERS)
        .cache(CacheMode::Shared {
            capacity: FARM_CACHE.0,
            stripes: FARM_CACHE.1,
        })
        .coalesce(true)
        .quantum(THRESHOLD)
        .intra_solve_workers(1)
        .engine(EngineKind::Events);
    if let Some(r) = rec.as_deref() {
        cfg = cfg.obs(r.obs());
    }
    let runner = Runner::new(cfg);
    let attempted: u64 = inputs.streams.iter().map(|s| s.trace.len() as u64).sum();
    out.attempted += attempted;
    let mut rec = rec;
    let span = rec
        .as_deref_mut()
        .map(|r| r.open("sim.serve", Tracks::SERVE, u64::MAX));
    let t0 = Instant::now();
    let report = runner.serve(ctx, &inputs.streams);
    out.wall_s = t0.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (rec, span) {
        r.close(id);
    }
    match report {
        Ok(report) => {
            for s in &report.streams {
                digest.push(s.exec.instances as u64);
                digest.push(s.exec.total_energy.to_bits());
                digest.push(s.exec.deadline_misses as u64);
                digest.push(s.reschedules as u64);
                out.energy += s.exec.total_energy;
                out.failed += s.exec.deadline_misses as u64;
            }
            out.instances = report.stats.instances as u64;
            out.serve = Some(report.stats);
        }
        Err(e) => {
            eprintln!("perfbench: serve failed: {e}");
            out.failed += attempted;
            digest.push(u64::MAX);
        }
    }
}

/// Runs one device's trace through simulate-then-observe; returns the
/// simulated energy.
fn run_device(
    inputs: &Inputs,
    d: usize,
    dev: &Device,
    mut rec: Option<&mut Recorder>,
    keep: Keep,
    out: &mut RoundOut,
    digest: &mut Digest,
) -> f64 {
    let ctx = &inputs.contexts[dev.ctx];
    let track = Tracks::device(d);
    let mut mgr = dev.manager.clone();
    if let Some(r) = rec.as_deref() {
        mgr.set_obs(r.obs(), track);
    }
    let mut ws = SimWorkspace::new(ctx, mgr.solution());
    let (mut energy, mut misses, mut failed, mut adoptions) = (0.0f64, 0u64, 0u64, 0usize);
    for (i, v) in dev.trace.iter().enumerate() {
        let req = ((d as u64) << 32) | i as u64;
        let root = rec.as_deref_mut().map(|r| r.open("request", track, req));
        let sim = rec
            .as_deref_mut()
            .map(|r| r.open("sim.instance", track, req));
        let outcome = ws.simulate(ctx, mgr.solution(), v);
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), sim) {
            r.close(id);
        }
        let mut bad = match outcome {
            Ok(o) => {
                energy += o.energy;
                misses += u64::from(!o.deadline_met);
                !o.deadline_met
            }
            Err(_) => true,
        };
        let obs_span = rec
            .as_deref_mut()
            .map(|r| r.open("core.adaptive", track, req));
        let t0 = Instant::now();
        let adopted = mgr.observe(ctx, v);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), obs_span) {
            r.close(id);
        }
        match adopted {
            Ok(true) => {
                out.decision_us.push((d, us));
                let rb = rec
                    .as_deref_mut()
                    .map(|r| r.open("sim.rebuild", track, req));
                ws.rebuild(ctx, mgr.solution());
                if let (Some(r), Some(id)) = (rec.as_deref_mut(), rb) {
                    r.close(id);
                }
                if let Keep::Every(n) = keep {
                    if adoptions % n.max(1) == 0 {
                        out.adoptions.push(Adoption {
                            device: d,
                            instance: i,
                            probs: mgr.current_probs().clone(),
                            solution: mgr.solution().clone(),
                        });
                    }
                }
                adoptions += 1;
            }
            Ok(false) => {}
            Err(_) => bad = true,
        }
        failed += u64::from(bad);
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), root) {
            r.close(id);
        }
    }
    let stats = mgr.stats();
    let n = dev.trace.len() as u64;
    out.attempted += n;
    out.failed += failed;
    out.device_instances += n;
    out.decisions += stats.reschedules as u64;
    out.solver_calls += stats.calls as u64;
    add_workspace(&mut out.workspace, &mgr.workspace_stats());
    let p = mgr.portfolio_stats();
    out.portfolio.races += p.races;
    for (sum, w) in out.portfolio.wins.iter_mut().zip(p.wins) {
        *sum += w;
    }
    digest.push(n);
    digest.push(energy.to_bits());
    digest.push(misses);
    digest.push(stats.reschedules as u64);
    digest.push(stats.calls as u64);
    energy
}
