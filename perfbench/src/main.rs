//! Benchmark entry point.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mpeg-farm|tgff-drift|mpeg-portfolio> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the inputs up several times, then repeats untraced
//! rounds for `--seconds` and prints the end-to-end metrics. `--trace 1`
//! repeats untraced rounds for half the time, runs one traced round on the
//! same inputs, validates every adopted plan, writes the spans as JSON
//! lines under the cargo target directory and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object; a human-readable summary goes to standard error.

use ctg_perfbench::alloc::{self, CountingAlloc};
use ctg_perfbench::layers::{self, LayerRun, END_TO_END};
use ctg_perfbench::report::{result_line, Metric};
use ctg_perfbench::spans::Recorder;
use ctg_perfbench::stats::{group_median_geomean, median, percentile, ratio};
use ctg_perfbench::workload::{threads_used, DEADLINE_FACTOR};
use ctg_perfbench::{run_round, setup, Inputs, Keep, RoundOut, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per run: at least the first, and more while their total stays
/// under [`SETUP_BUDGET_S`] (cheap set-ups are repeated for a steady
/// median), at most the last. `setup_s` is their median.
const SETUP_REPS: (usize, usize) = (3, 31);
/// Host seconds after which no further set-up starts.
const SETUP_BUDGET_S: f64 = 1.0;
/// Decisions a timed run collects at least, so that ten samples lie
/// beyond the p99.
const MIN_DECISIONS: usize = 1000;
/// A timed run stops after this many × `--seconds` even when short of
/// [`MIN_DECISIONS`].
const MAX_STRETCH: f64 = 3.0;
/// A further round starts only if it is expected to end within this many
/// × `--seconds`.
const OVERRUN: f64 = 1.25;
/// A timed run checks every this-many-th plan each device adopts in its
/// first round with `validate_solution` (the traced run checks all of
/// them). Keeping every plan would inflate `peak_rss_bytes`.
const VALIDATE_EVERY: usize = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Every knob is pinned in code; an inherited `CTG_*` override would
/// silently change what is measured.
fn refuse_env_overrides() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CTG_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// `VmHWM` of this process in bytes.
fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Sets the inputs up [`SETUP_REPS`] times; returns the last set and the
/// median set-up time. Earlier sets are dropped before the next starts.
fn timed_setup(args: &Args) -> Result<(Inputs, f64), String> {
    let mut times = Vec::new();
    let mut inputs: Option<Inputs> = None;
    while times.len() < SETUP_REPS.0
        || (times.len() < SETUP_REPS.1 && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(setup(args.workload, args.seed, Scale::FULL)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((inputs.expect("at least one set-up"), median(&times)))
}

/// Untraced rounds, checked against each other.
struct Timed {
    rounds: Vec<RoundOut>,
    round_wall_s: Vec<f64>,
    consistent: bool,
}

impl Timed {
    fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }
}

/// Repeats rounds for about `seconds`, and until `need_decisions`
/// decisions were collected.
fn timed_rounds(inputs: &Inputs, seconds: f64, need_decisions: usize) -> Timed {
    let start = Instant::now();
    let mut timed = Timed {
        rounds: Vec::new(),
        round_wall_s: Vec::new(),
        consistent: true,
    };
    let mut decisions = 0;
    loop {
        let t0 = Instant::now();
        // The first round keeps a sample of its adopted plans to validate.
        let keep = if timed.rounds.is_empty() {
            Keep::Every(VALIDATE_EVERY)
        } else {
            Keep::None
        };
        let round = run_round(inputs, None, keep);
        timed.round_wall_s.push(t0.elapsed().as_secs_f64());
        decisions += round.decision_us.len();
        if let Some(first) = timed.rounds.first() {
            timed.consistent &= first.digest == round.digest;
        }
        timed.rounds.push(round);
        let elapsed = start.elapsed().as_secs_f64();
        let last = timed.round_wall_s[timed.round_wall_s.len() - 1];
        let short = decisions < need_decisions && elapsed < seconds * MAX_STRETCH;
        // Another round only when it should end near the time asked for.
        let fits = elapsed + last <= seconds * OVERRUN;
        if !short && !fits {
            break;
        }
    }
    timed
}

fn end_to_end(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let (inputs, setup_s) = timed_setup(args)?;
    let timed = timed_rounds(&inputs, args.seconds, MIN_DECISIONS);
    let first = &timed.rounds[0];
    let rates: Vec<f64> = timed
        .rounds
        .iter()
        .map(|r| ratio(r.instances as f64, r.wall_s))
        .collect();
    let decisions: Vec<(usize, f64)> = timed
        .rounds
        .iter()
        .flat_map(|r| r.decision_us.iter().copied())
        .collect();
    let pooled: Vec<f64> = decisions.iter().map(|d| d.1).collect();
    let (attempted, failed) = (timed.attempted(), timed.failed());
    eprintln!("perfbench: round rates {rates:.0?} inst/s");
    eprintln!(
        "perfbench: {} seed {}: {} rounds; {} decisions from {} devices; digest {:016x}, rounds agree: {}",
        args.workload.name(),
        args.seed,
        timed.rounds.len(),
        decisions.len(),
        inputs.devices.len(),
        first.digest,
        timed.consistent
    );
    let values = [
        ("instances_per_s", median(&rates)),
        ("decision_us_p50", group_median_geomean(&decisions)),
        ("decision_us_p99", percentile(&pooled, 0.99)),
        ("setup_s", setup_s),
        ("peak_rss_bytes", peak_rss_bytes()?),
        ("energy_ratio", ratio(first.energy, inputs.nominal_energy())),
        (
            "ok_fraction",
            ratio((attempted - failed) as f64, attempted as f64),
        ),
    ];
    layers::validate(&inputs, first)?;
    let correct = timed.consistent && first.instances > 0 && decisions.len() >= MIN_DECISIONS;
    Ok((
        correct,
        attempted,
        failed,
        layers::in_table_order(&END_TO_END, &values),
    ))
}

fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-traces")
}

fn per_layer(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let inputs = &setup(args.workload, args.seed, Scale::FULL)?;
    let timed = timed_rounds(inputs, args.seconds / 2.0, 0);
    let mut rec = Recorder::new();
    alloc::set_counting(true);
    let t0 = Instant::now();
    let traced = run_round(inputs, Some(&mut rec), Keep::Every(1));
    let traced_wall_s = t0.elapsed().as_secs_f64();
    alloc::set_counting(false);
    let trace = rec.finish();
    let matches = traced.digest == timed.rounds[0].digest;
    let replay = layers::replay(inputs, &traced)?;
    let run = LayerRun {
        inputs,
        traced: &traced,
        trace: &trace,
        replay: &replay,
        traced_wall_s,
        // The first round warms the heap and caches up; compare with the
        // rounds after it.
        untraced_wall_s: median(&timed.round_wall_s[timed.round_wall_s.len().min(2) - 1..]),
    };
    let metrics = run.metrics();
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("{}.tsv", args.workload.name()));
    std::fs::write(&file, trace.to_tsv()).map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!(
        "perfbench: {} seed {}: traced digest {:016x} vs untraced {:016x}; {} adopted plans valid; {} spans ({} unparented) in {}; peak rss {} bytes",
        args.workload.name(),
        args.seed,
        traced.digest,
        timed.rounds[0].digest,
        traced.adoptions.len(),
        trace.spans.len(),
        trace.orphans(),
        file.display(),
        peak_rss_bytes()?
    );
    let attempted = timed.attempted() + traced.attempted;
    let failed = timed.failed() + traced.failed;
    let correct = matches && timed.consistent && trace.orphans() == 0;
    Ok((correct, attempted, failed, metrics))
}

fn run(args: &Args) -> Result<String, String> {
    refuse_env_overrides()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: host nproc {nproc}; threads used {}; intra-solve workers 1; deadline {}x DLS makespan",
        threads_used(args.workload),
        DEADLINE_FACTOR
    );
    let (correct, attempted, failed, metrics) = if args.trace {
        per_layer(args)?
    } else {
        end_to_end(args)?
    };
    for m in &metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(result_line(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
