#!/usr/bin/env sh
# Offline CI gate: formatting, lints, and the full test suite.
# The workspace has no external dependencies, so everything below succeeds
# without network access.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test (offline)"
cargo test -q --workspace --offline

echo "==> parallel determinism matrix (2 workers forced)"
CTG_WORKERS=2 cargo test -q --offline --test parallel_determinism

echo "==> simulator golden pins (every simulator variant and runner configuration,"
echo "    bit for bit; plain and with 2 workers forced)"
cargo test -q --offline --test sim_golden
CTG_WORKERS=2 cargo test -q --offline --test sim_golden

echo "==> throughput smoke (2 workers)"
cargo build -q --release --offline -p ctg-bench --bin throughput
CTG_WORKERS=2 ./target/release/throughput --smoke

echo "==> warm-start solver equivalence"
cargo test -q --offline --test solver_equivalence

echo "==> intra-solve determinism (2 intra-solve workers forced)"
CTG_INTRA_SOLVE=2 cargo test -q --offline --test solver_equivalence

echo "==> stretch oracle (max-delay slack scans == the cached-ratio sweep, bit for"
echo "    bit; plain and with 2 intra-solve workers forced, which the"
echo "    SolverWorkspace::solve case reads)"
cargo test -q --offline --test stretch_oracle
CTG_INTRA_SOLVE=2 cargo test -q --offline --test stretch_oracle

echo "==> race and makespan-DP oracles (warm portfolio races with pooled and"
echo "    shared list-entry stretches == a cold reference race, and the mask DP =="
echo "    the per-scenario DP, bit for bit; plain and with 2 intra-solve workers"
echo "    forced, which the list entries' path enumeration reads)"
cargo test -q --offline --test race_oracle --test makespan_dp_oracle
CTG_INTRA_SOLVE=2 cargo test -q --offline --test race_oracle --test makespan_dp_oracle

echo "==> solver bench smoke (asserts warm == cold bit-for-bit; warm p99 must"
echo "    stay within 2x of the committed BASELINE_solver.json snapshot)"
cargo build -q --release --offline -p ctg-bench --bin solver
./target/release/solver --smoke --check-baseline BASELINE_solver.json
test -s target/BENCH_solver_smoke.json

echo "==> serving-engine determinism matrix (2 workers forced)"
CTG_WORKERS=2 cargo test -q --offline --test serve_determinism

echo "==> telemetry equivalence matrix (sink off / no-op / buffered)"
cargo test -q --offline --test obs_equivalence
CTG_WORKERS=2 cargo test -q --offline --test obs_equivalence

echo "==> clippy over the obs crate (deny warnings)"
cargo clippy -p ctg-obs --all-targets --offline -- -D warnings

echo "==> overload-resilience matrix (dormant-knob equivalence + shed/quarantine"
echo "    determinism across workers, shards, cache modes; budget-off == baseline)"
cargo test -q --offline --test serve_overload
CTG_WORKERS=2 cargo test -q --offline --test serve_overload

echo "==> event-engine determinism matrix (workers x streams x arrivals x caches;"
echo "    closed-loop == lockstep bit-for-bit)"
cargo test -q --offline --test serve_events
CTG_WORKERS=2 cargo test -q --offline --test serve_events

echo "==> serve bench smoke (asserts summaries invariant across engine configs and"
echo "    engines via --compare-lockstep, runs the 10k-stream open-loop scale row,"
echo "    writes + validates a telemetry-on chrome trace)"
cargo build -q --release --offline -p ctg-bench --bin serve
CTG_WORKERS=2 ./target/release/serve --smoke --compare-lockstep --trace target/ci_serve_trace.json
test -s target/ci_serve_trace.json
test -s target/BENCH_serve_smoke.json

echo "==> campaign determinism matrix (worker invariance + kill/resume round-trip)"
cargo test -q --offline --test campaign_determinism
CTG_WORKERS=2 cargo test -q --offline --test campaign_determinism

echo "==> campaign bench smoke (8-cell grid at 2 workers: shared-artifact compile,"
echo "    JSONL cell stream, truncate-mid-line kill/resume drill asserting the"
echo "    resumed roll-up is bit-identical; JSONL validated by the strict parser)"
cargo build -q --release --offline -p ctg-bench --bin campaign
CTG_CAMPAIGN_WORKERS=2 ./target/release/campaign --smoke
test -s target/campaign_cells_smoke.jsonl
test -s target/BENCH_campaign_smoke.json

echo "==> scheduler portfolio matrix (trait pin bit-for-bit, dormant knob, race"
echo "    determinism across CTG_WORKERS x CTG_INTRA_SOLVE)"
cargo test -q --offline --test scheduler_portfolio
CTG_WORKERS=2 CTG_INTRA_SOLVE=2 cargo test -q --offline --test scheduler_portfolio

echo "==> expected-energy oracle (weights == historic scan bit-for-bit, per-scenario"
echo "    agreement) and the portfolio matrix with 2 intra-solve workers forced"
CTG_INTRA_SOLVE=2 cargo test -q --offline --test expected_energy_oracle --test scheduler_portfolio

echo "==> portfolio bench smoke (serve bench portfolio row: expected-energy"
echo "    no-regression gate vs DLS-only + reshard determinism, asserted in-bin;"
echo "    table1 asserts portfolio <= online on every row)"
cargo build -q --release --offline -p ctg-bench --bin table1
./target/release/table1 > /dev/null

echo "==> CI OK"
