# Convenience targets for the SILC workspace. The canonical tier-1 verify
# command (what CI and reviewers run) is:
#
#     cargo build --release && cargo test -q
#
.PHONY: build test bench-tradeoff bench-tradeoff-smoke bench-scale \
        bench-scale-smoke bench-latency bench-latency-smoke bench-check \
        benchmark-smoke benchmark-test chaos \
        docs deep-fuzz figures figures-smoke lint fmt protocol-check hot-loop-check \
        serve-smoke verify help

help:
	@echo "SILC workspace targets:"
	@echo "  build                  release build of every crate"
	@echo "  test                   full test suite (unit, property, integration, examples)"
	@echo "  verify                 tier-1 gate: build + test (what CI runs)"
	@echo "  bench-tradeoff         re-record BENCH_tradeoff.json (SILC vs PCP from one substrate)"
	@echo "  bench-tradeoff-smoke   CI smoke for the trade-off harness (tiny, writes to target/)"
	@echo "  bench-scale            re-record BENCH_scale.json (partitioned build + routed kNN at scale)"
	@echo "  bench-scale-smoke      CI smoke for the scale harness (tiny, writes to target/)"
	@echo "  bench-latency          re-record BENCH_latency.json (open-loop server tail latency)"
	@echo "  bench-latency-smoke    CI smoke for the latency harness (tiny, writes to target/)"
	@echo "  bench-check            validate committed BENCH_*.json against the recorders' schemas"
	@echo "  benchmark-smoke        CI smoke for the repository benchmark (BENCHMARK.json, benchmark/)"
	@echo "  benchmark-test         the repository benchmark's own unit tests (statistics, checks, trace)"
	@echo "  serve-smoke            scripted client session against a loopback silc-server"
	@echo "  protocol-check         docs/PROTOCOL.md <-> protocol.rs test lockstep gate"
	@echo "  hot-loop-check         no clock or hash in the kNN loop, the refinement step and the disk lookup"
	@echo "  chaos                  fault-injection matrix: seeded disk faults, retries, dead shards"
	@echo "  docs                   rustdoc with warnings denied (the CI docs gate)"
	@echo "  deep-fuzz              the scheduled CI fuzz pass: the proptest suites at ~10x cases"
	@echo "  figures                regenerate the paper's tables/figures as text"
	@echo "  figures-smoke          every figure experiment at 300 vertices (CI runs this)"
	@echo "  lint                   clippy -D warnings + rustfmt check"
	@echo "  fmt                    rustfmt the whole workspace"

build:
	cargo build --release

# Full test suite: unit, property, integration, doc, and example smoke tests.
test:
	cargo test -q

# Tier-1 verify: exactly what the CI gate runs.
verify: build test

# Re-record the SILC-vs-PCP trade-off (BENCH_tradeoff.json): both indexes
# built over the same network and served from the same buffer-pool
# substrate — build time, on-disk bytes, QPS/p50/p99, cache hit rates, and
# observed vs guaranteed ε error. Run ONLY when intentionally resetting the
# comparison point.
bench-tradeoff:
	cargo run --release -p silc-bench --bin bench_tradeoff

# CI smoke for the trade-off harness: tiny network, writes to target/ —
# only that both build→serialize→serve pipelines run end to end.
bench-tradeoff-smoke:
	cargo run --release -p silc-bench --bin bench_tradeoff -- --smoke

# Re-record the scale record (BENCH_scale.json): FMI round-trip →
# partitioned build → cross-shard routed kNN at n up to 100k, with the
# quadratic single-index projection each size is beating. Run ONLY when
# intentionally resetting the comparison point (the 100k size takes a
# while).
bench-scale:
	cargo run --release -p silc-bench --bin bench_scale

# CI smoke for the scale harness: one tiny size, short window, writes to
# target/ — only that the partition→build→route pipeline runs end to end.
bench-scale-smoke:
	cargo run --release -p silc-bench --bin bench_scale -- --smoke

# Re-record the open-loop latency record (BENCH_latency.json): Poisson
# arrivals through the TCP server at fractions of measured capacity,
# p50/p99/p999 from the scheduled arrival instant, Morton vs FIFO batch
# ordering and their pool hit rates. Run ONLY when intentionally resetting
# the comparison point.
bench-latency:
	cargo run --release -p silc-bench --bin bench_latency

# CI smoke for the latency harness: tiny network, short windows, writes to
# target/ — only that the open-loop sender/receiver pipeline runs.
bench-latency-smoke:
	cargo run --release -p silc-bench --bin bench_latency -- --smoke

# Scripted end-to-end session against a real loopback server: a mixed
# exact/routed/approx batch checked bit-identical to local execution, a
# malformed frame, an oversized frame, a status probe, a clean shutdown.
serve-smoke:
	cargo run --release -p silc-server --bin serve_smoke

# Spec <-> implementation lockstep: every frame type named in
# docs/PROTOCOL.md must have a `frame_<name>_…` test in protocol.rs.
protocol-check:
	scripts/check_protocol_tests.sh

# The kNN loop and the refinement step stay free of clocks and hashes: no
# `Instant`, `SystemTime` or `HashMap` above `#[cfg(test)]` in knn.rs or
# refine.rs.
hot-loop-check:
	scripts/check_hot_loop.sh

# Validate the committed bench records (and any smoke outputs already in
# target/) against the recorders' current output schemas — the CI
# bench-schema gate. Fails when a recorder's JSON fields drifted without
# updating crates/bench/src/schema.rs and re-recording.
bench-check:
	cargo run --release -p silc-bench --bin bench_check

# CI smoke for the repository benchmark (BENCHMARK.json, benchmark/ — the
# one every performance claim cites): all four workloads, traced and
# untraced, at tiny sizes with 1 s windows; bounds are not applied, answers
# are still checked. Builds into benchmark/target/. `--locked` (here and in
# benchmark-test): a product change that would make Cargo rewrite
# benchmark/Cargo.lock fails instead of quietly editing it.
benchmark-smoke:
	cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml -- --smoke

# The harness's own unit tests (percentiles, the answer checks, the trace
# breakdown, the ladder verdict). benchmark/ is outside the workspace, so
# `cargo test` at the root never runs them.
benchmark-test:
	cargo test --offline --locked --manifest-path benchmark/Cargo.toml

# Rustdoc with warnings denied — keeps the crate-level docs from rotting.
docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The scheduled CI deep-fuzz pass, runnable locally: the proptest suites
# with the case count elevated ~10x over the PR-blocking defaults (the
# proptest shim honors PROPTEST_CASES as an absolute override).
deep-fuzz:
	PROPTEST_CASES=160 cargo test --release -p silc-integration \
		--test knn_fuzz --test pcp_bounds_fuzz --test partition_fuzz \
		--test fault_injection --test format_identity_fuzz

# The fault-injection matrix on its own: seeded fault schedules against the
# disk kNN path and the PCP oracle, plus dead-shard degradation of routed
# queries. Every seed is fixed, so a failure here reproduces exactly.
chaos:
	cargo test --release -p silc-integration --test fault_injection

# Regenerate the paper's tables/figures as text via the figures binary.
figures:
	cargo run --release -p silc-bench --bin figures

# CI smoke for the figures binary: every experiment, tiny network, one
# trial — only that each report still prints.
figures-smoke:
	cargo run --release -p silc-bench --bin figures -- all --vertices 300 --trials 1 --queries 2

lint:
	cargo clippy --all-targets -- -D warnings
	cargo fmt --all --check

fmt:
	cargo fmt --all
