# Convenience targets for the SR2201 reproduction.

.PHONY: test experiments trajectory sentinel bench examples doc clippy lint campaign campaign-smoke sweep-gate metrics-demo metrics-serve-demo reconfig-demo reconfig-smoke attribution-smoke serve-smoke tournament-smoke health-smoke spans-demo all

test:
	cargo test --workspace

experiments: trajectory
	cargo run --release -p mdx-bench --bin experiments -- --json results all

# Append one metric snapshot each to BENCH_fig9.json / BENCH_fig10.json /
# BENCH_tournament.json and judge each grown file with the sentinel (an
# identical snapshot is skipped, not appended).
trajectory:
	cargo run --release -p mdx-bench --bin experiments -- trajectory --dir .

# Median/MAD regression sentinel over the committed BENCH_*.json history:
# exits nonzero when the latest snapshot of any diffed metric deviates
# from its robust baseline in the bad direction. Runs no sweeps.
sentinel:
	cargo run --release -p mdx-bench --bin experiments -- sentinel --dir .

bench:
	cargo bench --workspace

examples:
	cargo run --release --example quickstart
	cargo run --release --example fault_tolerant_routing
	cargo run --release --example broadcast_storm -- 3
	cargo run --release --example topology_explorer -- 8 8
	cargo run --release --example reliability_loop
	cargo run --release --example campaign_witness
	cargo run --release --example attribution_report

# The benchmark package is a workspace of its own (it builds against the
# crates and shims by path), so `doc` and `lint` run on it separately.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --manifest-path benchmark/Cargo.toml

clippy:
	cargo clippy --workspace --all-targets

lint:
	cargo fmt --check
	cargo clippy --workspace --all-targets -- -D warnings
	cargo fmt --check --manifest-path benchmark/Cargo.toml
	cargo clippy --offline --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings

# The full acceptance sweep: the paper scheme must be deadlock-free, the
# broken variants must not be.
campaign:
	cargo run --release -p mdx-serve -- run --scheme all --max-faults 1 --seeds 32

# Byte gate on the baseline sweep: every scheme under every single fault
# of 4x3 at 16 seeds (4,608 rows) must hash to the committed SHA-256. Any
# change to a row's bytes (engine, traffic, serialization) fails it. The
# sweep is written under target/.
sweep-gate:
	cargo run --release -p mdx-serve -- run --scheme all --max-faults 1 --seeds 16 \
		--jsonl target/baseline-sweep.jsonl --quiet
	sha256sum -c crates/campaign/tests/golden/baseline-sweep.sha256

# Small deterministic campaign gating the paper scheme on zero deadlocks.
# The flight recorder rides along: any failure auto-dumps a post-mortem.
campaign-smoke:
	cargo run --release -p mdx-serve -- run --scheme sr2201 --max-faults 1 \
		--seeds 4 --fail-on-deadlock --flight-recorder --postmortem-dir postmortems

# Telemetry dashboard: heatmap + stall timeline on the fig10/fig5 scenarios.
metrics-demo:
	cargo run --release --example telemetry_dashboard

# Production telemetry walkthrough: boots `campaign serve --tcp` with a live
# Prometheus endpoint, drives a session, scrapes the exposition, and prints
# the series the session produced.
metrics-serve-demo:
	cargo build --release -p mdx-serve
	cargo run --release --example metrics_scrape

# Live reconfiguration walkthrough: a crossbar dies mid-run, the epoch
# protocol drains/reprograms/resumes, under all three recovery policies.
reconfig-demo:
	cargo run --release --example live_reconfig

# Small deterministic live-fault campaign: every single fault on 4x4x4
# activates at cycle 40; reinject must lose nothing and every transition
# must be free of mixed-epoch wait cycles.
reconfig-smoke:
	cargo run --release -p mdx-serve -- run --scheme sr2201 --shape 4x4x4 \
		--max-faults 1 --seeds 1 --workloads fault-storm \
		--timeline 40 --recovery reinject --fail-on-deadlock --fail-on-loss \
		--jsonl reconfig-smoke.jsonl

# Deterministic attribution gate: the same faulted sweep attributed twice
# must diff clean (zero flagged phase shifts) — the phase decomposition is
# exact and replayable, not sampled. The runner also asserts per-packet
# conservation (sum of phases == latency) on every attributed row.
attribution-smoke:
	cargo run --release -p mdx-serve -- run --scheme sr2201 --shape 4x4x4 \
		--max-faults 1 --seeds 2 --workloads detour --attribution \
		--jsonl attribution-smoke-a.jsonl --quiet
	cargo run --release -p mdx-serve -- run --scheme sr2201 --shape 4x4x4 \
		--max-faults 1 --seeds 2 --workloads detour --attribution \
		--jsonl attribution-smoke-b.jsonl --quiet
	cargo run --release -p mdx-serve -- diff \
		attribution-smoke-a.jsonl attribution-smoke-b.jsonl --fail-on-shift

# Resident-service gate, three phases: (1) pipe a session (two tokens, one
# duplicate, stats, metrics, shutdown) through `campaign serve` on stdio and
# require every line to be a valid response with the duplicate answered from
# the cache; (2) run a TCP session with --metrics-addr and scrape the live
# Prometheus endpoint mid-session; (3) run a traced session with --span-log,
# validate the span-log schema, and require every root span's trace id to be
# echoed on a response line. Artifacts land under target/.
serve-smoke:
	cargo build --release -p mdx-serve
	./scripts/serve_smoke.sh

# Cross-scheme tournament gate: the whole zoo through one small grid —
# every scheme executes on its home topology, incompatible cells skip with
# reasons, the JSONL replays byte-identically, and a deadlocking cell's
# shrunken witness token replays to a deadlock. Artifacts land under target/.
tournament-smoke:
	cargo build --release -p mdx-serve
	./scripts/tournament_smoke.sh

# Health/SLO gate, end to end: `--slo` campaign rows must be the plain
# rows plus one stripped-away `health` key; a deadlock storm against a
# live `campaign serve --slo` must breach the deadlock budget on the
# health verb, the Prometheus endpoint, the `campaign watch` screen, and
# the alert log; the bench sentinel must be clean on the committed
# history and catch a synthetic collapse. Artifacts land under target/.
health-smoke:
	cargo build --release -p mdx-serve -p mdx-bench
	./scripts/health_smoke.sh

# Request-tracing walkthrough: capture a span log from a traced `campaign
# serve` session, then summarize it (critical-path breakdown + slowest
# exemplar traces) and export a Perfetto trace to open at ui.perfetto.dev.
spans-demo:
	cargo build --release -p mdx-serve
	printf '%s\n' \
		'{"cmd":"spec","id":1,"trace":"demo-1","spec":"seed 1\nflits 2\nphase 0..600 uniform rate=0.04\nstorm 200 xbar:0:1\nstorm 420 repair xbar:0:1\nhorizon 1200","shape":[4,4],"seed":5}' \
		'{"cmd":"spec","id":2,"trace":"demo-2","spec":"seed 1\nflits 2\nphase 0..600 uniform rate=0.04\nstorm 200 xbar:0:1\nstorm 420 repair xbar:0:1\nhorizon 1200","shape":[4,4],"seed":5}' \
		'{"cmd":"shutdown","id":3}' \
		| target/release/campaign serve --windows 100 \
			--span-log target/spans-demo.jsonl --span-sample 1
	target/release/campaign spans target/spans-demo.jsonl \
		--perfetto target/spans-demo-perfetto.json

all: test experiments bench doc
