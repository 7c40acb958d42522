#!/usr/bin/env sh
# Serve-mode smoke gate, three phases.
#
# Phase 1 (stdio): drive one `campaign serve` process with three token
# requests (the third a duplicate that must be answered from the result
# cache), plus stats, metrics, and shutdown, then validate every streamed
# JSONL response line against the protocol schema. The worker pool may
# answer out of order, so the duplicate goes out only after rows 1 and 2
# are back, and `stats` only after the duplicate is.
#
# Phase 2 (TCP): start `campaign serve --tcp` with a live Prometheus
# endpoint (`--metrics-addr 127.0.0.1:0`), run a session over a socket
# (the second, identical spec goes out only after the first row is back),
# scrape the endpoint mid-session, and validate the exposition format and
# the required series (per-verb request latency, cache hits, engine
# idle-tick fraction). An exit trap stops the server if a check fails.
#
# Phase 3 (spans): run a traced stdio session (`--span-log` at sample
# rate 1), validate the span-log JSONL schema, require every root span's
# trace id to be echoed on a response line (client-supplied ids
# included), and run the `campaign spans` summarizer over the log. The
# `spans` ledger is requested only after both traced rows are back.
#
# Artifacts (under target/ so the work tree stays clean):
#   target/serve-smoke-session.jsonl   the stdio response stream
#   target/serve-smoke-metrics.prom    the scraped Prometheus exposition
#   target/serve-smoke-tcp.stderr      the TCP server's banners
#   target/serve-smoke-spans.jsonl     the traced session's span log
set -eu

BIN=${CAMPAIGN_BIN:-target/release/campaign}
OUTDIR=${SERVE_SMOKE_DIR:-target}
OUT=${SERVE_SMOKE_OUT:-$OUTDIR/serve-smoke-session.jsonl}
PROM=${SERVE_SMOKE_PROM:-$OUTDIR/serve-smoke-metrics.prom}
SPANS=${SERVE_SMOKE_SPANS:-$OUTDIR/serve-smoke-spans.jsonl}
SPANOUT=$OUTDIR/serve-smoke-spans-session.jsonl
ERR=$OUTDIR/serve-smoke-tcp.stderr
mkdir -p "$OUTDIR"

SRV=
trap 'if [ -n "$SRV" ]; then kill "$SRV" 2>/dev/null || true; fi' EXIT

# Drives one stdio `campaign serve` session: `session OUT CMD...` reads
# request lines on stdin in batches separated by blank lines, sends each
# batch only after every answer to the previous one is back (the worker
# pool may answer out of order), and writes the response lines to OUT.
session() {
  python3 -c '
import subprocess, sys
out, cmd = sys.argv[1], sys.argv[2:]
batches = [b.split("\n") for b in sys.stdin.read().strip().split("\n\n")]
srv = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
lines = []
for i, batch in enumerate(batches):
    srv.stdin.write("".join(line + "\n" for line in batch))
    srv.stdin.flush()
    if i == len(batches) - 1:
        srv.stdin.close()
        lines += srv.stdout.readlines()
    else:
        lines += [srv.stdout.readline() for _ in batch]
assert srv.wait() == 0, f"{cmd} exited with an error"
open(out, "w").write("".join(lines))
' "$@"
}

# ---- Phase 1: stdio session ------------------------------------------------
# The `spec` verb mints the scenario token server-side, so the session is
# fully self-contained: requests 1 and 3 are the same spec (and therefore
# the same token) — the duplicate must come back as a cache hit.
{
  printf '%s\n' '{"cmd":"spec","id":1,"spec":"seed 1\nflits 2\nphase 0..200 uniform rate=0.03\nhorizon 600","shape":[4,3],"seed":1}'
  printf '%s\n' '{"cmd":"spec","id":2,"spec":"seed 2\nflits 2\nphase 0..200 transpose rate=0.03\nhorizon 600","shape":[4,4],"seed":2}'
  echo
  printf '%s\n' '{"cmd":"spec","id":3,"spec":"seed 1\nflits 2\nphase 0..200 uniform rate=0.03\nhorizon 600","shape":[4,3],"seed":1}'
  echo
  printf '%s\n' '{"cmd":"stats","id":4}'
  printf '%s\n' '{"cmd":"metrics","id":5}'
  printf '%s\n' '{"cmd":"shutdown","id":6}'
} | session "$OUT" "$BIN" serve --windows 100

python3 - "$OUT" <<'EOF'
import json, sys

path = sys.argv[1]
lines = [l for l in open(path) if l.strip()]
assert len(lines) == 6, f"expected 6 response lines, got {len(lines)}"

by_id = {}
for line in lines:
    resp = json.loads(line)
    assert resp["kind"] in {"row", "stats", "metrics", "ok", "error", "postmortem"}, resp
    assert resp["kind"] != "error", f"server error: {resp}"
    by_id[resp.get("id")] = resp

for rid in (1, 2, 3):
    resp = by_id[rid]
    assert resp["kind"] == "row", resp
    row = resp["row"]
    # Row schema: token, outcome, and the windowed stream summary.
    assert row["token"].startswith("MDX1."), row["token"]
    assert row["outcome"] == "completed", (rid, row["outcome"])
    assert row["stream"]["window"] == 100, row["stream"]
    assert row["stream"]["windows"] > 0

# Request 3 duplicates request 1: same token, same digest, served from the
# result cache.
assert by_id[1]["cached"] is False
assert by_id[3]["cached"] is True, "duplicate token was re-simulated"
assert by_id[1]["row"]["token"] == by_id[3]["row"]["token"]
assert by_id[1]["row"]["digest"] == by_id[3]["row"]["digest"]
assert by_id[2]["row"]["token"] != by_id[1]["row"]["token"]

stats = by_id[4]["stats"]
assert stats["served"] == 3 and stats["cache_hits"] == 1, stats
assert stats["cache_misses"] == 2, stats
assert stats["cache_evictions"] == 0, stats

# The metrics verb returns the registry snapshot as JSON.
snapshot = by_id[5]["metrics"]
families = {f["name"] for f in snapshot["families"]}
for name in ("mdx_serve_requests_total", "mdx_serve_request_seconds",
             "mdx_serve_cache_hits_total", "mdx_engine_idle_tick_fraction"):
    assert name in families, f"metrics snapshot missing {name}: {sorted(families)}"
assert by_id[6]["kind"] == "ok"

print(f"serve stdio smoke OK: 3 rows (1 cache hit), session in {path}")
EOF

# ---- Phase 2: TCP session with a live Prometheus scrape --------------------
: > "$ERR"
"$BIN" serve --tcp 127.0.0.1:0 --windows 100 --metrics-addr 127.0.0.1:0 2> "$ERR" &
SRV=$!

# Both banners carry ephemeral ports; wait for them.
i=0
while ! grep -q "listening on" "$ERR" || ! grep -q "metrics on" "$ERR"; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "error: serve --tcp did not come up" >&2
    cat "$ERR" >&2
    exit 1
  fi
  sleep 0.1
done
ADDR=$(sed -n 's/^campaign serve: listening on \([^ ]*\).*/\1/p' "$ERR" | head -1)
MADDR=$(sed -n 's/^campaign serve: metrics on \([^ ]*\).*/\1/p' "$ERR" | head -1)

python3 - "$ADDR" "$MADDR" "$PROM" <<'EOF'
import json, re, socket, sys

addr, maddr, prom = sys.argv[1], sys.argv[2], sys.argv[3]
host, port = addr.rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=30)
f = sock.makefile("rw")
spec = "seed 1\nflits 2\nphase 0..200 uniform rate=0.03\nhorizon 600"
rows = []
for i in (1, 2):
    # The duplicate goes out only after the first row is back, so it hits.
    f.write(json.dumps({"cmd": "spec", "id": i, "spec": spec,
                        "shape": [4, 3], "seed": 1}) + "\n")
    f.flush()
    rows.append(json.loads(f.readline()))
assert all(r["kind"] == "row" for r in rows), rows
assert sorted(r["cached"] for r in rows) == [False, True], rows

# Scrape the endpoint mid-session (the server is still up).
mh, mp = maddr.rsplit(":", 1)
m = socket.create_connection((mh, int(mp)), timeout=30)
m.sendall(b"GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n")
data = b""
while True:
    chunk = m.recv(65536)
    if not chunk:
        break
    data += chunk
text = data.decode()
head, _, body = text.partition("\r\n\r\n")
assert "200 OK" in head, head
assert "text/plain; version=0.0.4" in head, head
open(prom, "w").write(body)

# Exposition format: every non-comment line is `name[{labels}] value`.
sample = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$')
for line in body.splitlines():
    if not line or line.startswith("#"):
        continue
    assert sample.match(line), f"malformed exposition line: {line!r}"

for series in ("mdx_serve_requests_total", "mdx_serve_request_seconds_bucket",
               "mdx_serve_cache_hits_total", "mdx_serve_cache_misses_total",
               "mdx_engine_idle_tick_fraction", "mdx_engine_cycles_total"):
    assert series in body, f"scrape missing {series}"
# The session's cache hit is visible on the endpoint.
assert "mdx_serve_cache_hits_total 1" in body, "cache hit not on the endpoint"

f.write(json.dumps({"cmd": "shutdown", "id": 9}) + "\n")
f.flush()
ack = json.loads(f.readline())
assert ack["kind"] == "ok", ack
print(f"serve TCP smoke OK: live scrape in {prom}")
EOF

wait "$SRV"
SRV=

# ---- Phase 3: traced session with a span log -------------------------------
# Sample rate 1 keeps every trace; request 1 carries a client-chosen trace
# id that must come back on its response line *and* name its spans. The
# `spans` ledger is asked for only once both traced rows are back.
: > "$SPANS"
{
  printf '%s\n' '{"cmd":"spec","id":1,"trace":"smoke-trace-1","spec":"seed 1\nflits 2\nphase 0..200 uniform rate=0.03\nhorizon 600","shape":[4,3],"seed":1}'
  printf '%s\n' '{"cmd":"spec","id":2,"spec":"seed 1\nflits 2\nphase 0..200 uniform rate=0.03\nhorizon 600","shape":[4,3],"seed":1}'
  echo
  printf '%s\n' '{"cmd":"spans","id":3}'
  printf '%s\n' '{"cmd":"shutdown","id":4}'
} | session "$SPANOUT" "$BIN" serve --windows 100 --span-log "$SPANS" --span-sample 1

python3 - "$SPANS" "$SPANOUT" <<'EOF'
import json, sys

spans_path, session_path = sys.argv[1], sys.argv[2]
spans = [json.loads(l) for l in open(spans_path) if l.strip()]
assert spans, f"no spans in {spans_path}"

# Span-log JSONL schema: trace/span/name/start/end/unit per line, with
# optional parent and string-to-string attrs.
for s in spans:
    assert isinstance(s["trace"], str) and s["trace"], s
    assert isinstance(s["span"], int), s
    assert isinstance(s["name"], str) and s["name"], s
    assert isinstance(s["start"], int) and isinstance(s["end"], int), s
    assert s["end"] >= s["start"], s
    assert s["unit"] in {"us", "cycles"}, s
    if "parent" in s:
        assert isinstance(s["parent"], int), s
    for k, v in s.get("attrs", {}).items():
        assert isinstance(k, str) and isinstance(v, str), s

roots = [s for s in spans if "parent" not in s]
assert roots, "span log has no root spans"
assert all(r["name"] == "request" and r["unit"] == "us" for r in roots), roots

# Both run requests were traced (the second under a server-minted id),
# and each root carries the request's phase children.
traces = {r["trace"] for r in roots}
assert "smoke-trace-1" in traces, f"client trace id not in span log: {traces}"
by_root = {r["trace"]: [s for s in spans if s["trace"] == r["trace"]] for r in roots}
for trace, members in by_root.items():
    names = {s["name"] for s in members}
    assert {"queue", "serialize"} <= names, (trace, names)

# Every root span's trace id appears on a response line — the log and the
# session stream join on the echoed `trace` field.
responses = [json.loads(l) for l in open(session_path) if l.strip()]
echoed = {r.get("trace") for r in responses}
for trace in traces:
    assert trace in echoed, f"trace {trace} has spans but no response echo"

# The spans verb's ledger saw the session's traces.
ledger = next(r for r in responses if r.get("id") == 3)["spans"]
assert ledger["kept"] >= 2, ledger
print(f"serve span smoke OK: {len(spans)} spans / {len(roots)} traces in {spans_path}")
EOF

# The summarizer must digest its own log (critical-path table + exemplars).
"$BIN" spans "$SPANS" --top 3 > /dev/null

echo "serve smoke OK"
