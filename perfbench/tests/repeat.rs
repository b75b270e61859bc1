//! Self-tests of the benchmark at small input sizes: deterministic counts
//! repeat exactly, timed and traced rounds agree bit for bit, a seed other
//! than the default runs through the whole pipeline, and `BENCHMARK.json`
//! lists exactly the metrics the benchmark prints.

use ctg_obs::json::{self, Value};
use ctg_perfbench::layers::{self, LayerRun, END_TO_END, PER_LAYER};
use ctg_perfbench::spans::{Recorder, Tracks};
use ctg_perfbench::{run_round, setup, Keep, Scale, Workload};
use ctg_sched::SchedulerKind;

/// Counts that must repeat exactly for one seed. The farm's shared-cache
/// hit counters, and the serve solves they decide, are left out: they may
/// wobble under eviction pressure.
fn counts(workload: Workload, seed: u64) -> Vec<u64> {
    let inputs = setup(workload, seed, Scale::SMALL).expect("set-up");
    let mut rec = Recorder::new();
    let traced = run_round(&inputs, Some(&mut rec), Keep::Every(1));
    let trace = rec.finish();
    assert_eq!(trace.orphans(), 0, "every program span has a parent");
    let untraced = run_round(&inputs, None, Keep::None);
    assert_eq!(traced.digest, untraced.digest, "tracing changed a result");
    assert_eq!(traced.failed, 0);
    let replay = layers::replay(&inputs, &traced).expect("adopted plans are valid");
    let mut v = vec![
        traced.digest,
        traced.energy.to_bits(),
        traced.instances,
        traced.decisions,
        traced.solver_calls,
        traced.portfolio.races as u64,
        replay.work_units,
        replay.paths.iter().sum::<usize>() as u64,
        traced.adoptions.len() as u64,
    ];
    v.extend(traced.portfolio.wins.iter().map(|&w| w as u64));
    // Stage spans of the device loops only: how many solves the serve
    // call runs depends on its shared-cache hits.
    for name in ["dls_map", "path_enum", "stretch", "portfolio_race"] {
        v.push(
            trace
                .named(name)
                .filter(|&i| trace.spans[i].track >= Tracks::device(0))
                .count() as u64,
        );
    }
    if let Some(s) = traced.serve {
        v.extend([s.events, s.drift_events, s.requests, s.groups].map(|c| c as u64));
    }
    v
}

#[test]
fn counts_repeat_across_two_runs_of_one_seed() {
    for workload in Workload::ALL {
        assert_eq!(
            counts(workload, 1),
            counts(workload, 1),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn workloads_exercise_their_layers() {
    let farm = setup(Workload::MpegFarm, 1, Scale::SMALL).unwrap();
    let round = run_round(&farm, None, Keep::None);
    let serve = round.serve.expect("the farm serves");
    assert!(serve.drift_events > 0 && serve.shared_hits > 0);
    assert_eq!(round.portfolio.races, 0);

    let tgff = setup(Workload::TgffDrift, 1, Scale::SMALL).unwrap();
    let round = run_round(&tgff, None, Keep::None);
    assert!(round.serve.is_none() && round.decisions > 0);
    assert_eq!(round.portfolio.races, 0);

    let race = setup(Workload::MpegPortfolio, 1, Scale::SMALL).unwrap();
    let round = run_round(&race, None, Keep::None);
    assert!(round.portfolio.races > 0);
    assert_eq!(
        round.portfolio.races,
        round.portfolio.wins.iter().sum::<usize>()
    );
    assert_eq!(round.portfolio.wins[SchedulerKind::FrameDvfs.index()], 0);
}

#[test]
fn a_non_default_seed_runs_end_to_end() {
    for workload in Workload::ALL {
        let inputs = setup(workload, 7919, Scale::SMALL).expect("set-up");
        let timed = run_round(&inputs, None, Keep::None);
        let mut rec = Recorder::new();
        let traced = run_round(&inputs, Some(&mut rec), Keep::Every(1));
        let trace = rec.finish();
        assert_eq!(timed.digest, traced.digest);
        assert_eq!(timed.failed, 0, "{}", workload.name());
        assert!(inputs.nominal_energy() > 0.0 && timed.energy > 0.0);
        let replay = layers::replay(&inputs, &traced).expect("adopted plans are valid");
        let metrics = LayerRun {
            inputs: &inputs,
            traced: &traced,
            trace: &trace,
            replay: &replay,
            traced_wall_s: traced.wall_s,
            untraced_wall_s: timed.wall_s,
        }
        .metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value >= 0.0));
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(get("sim.instance.us_per_call") > 0.0);
        assert!(get("core.workspace.solve_us_p50") > 0.0);
        assert!(get("core.adaptive.decisions") > 0.0);
    }
}

fn names(list: &Value) -> Vec<(String, String, String)> {
    list.as_array()
        .expect("an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&raw).expect("valid JSON");
    let expect = |table: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(names(doc.get("end_to_end").unwrap()), expect(&END_TO_END));
    assert_eq!(names(doc.get("per_layer").unwrap()), expect(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
