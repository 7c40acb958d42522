#!/usr/bin/env sh
# Health/SLO smoke gate, two phases.
#
# Phase 1 (byte-identity): run the same tiny campaign twice, with and
# without `--slo`. The `--slo` rows must be the plain rows plus exactly
# one injected `health` object — stripping it must reproduce the plain
# JSONL byte-for-byte, so turning health off costs nothing and old
# consumers never see new bytes.
#
# Phase 2 (storm -> breach, end-to-end): start `campaign serve --tcp`
# with an SLO spec, an alert log, a 1s evaluation period, and a live
# Prometheus endpoint. Mint a deadlocking witness token (the paper's
# naive broadcast wedges a 4x3 storm), force it through the server four
# times, and require: every response verdict-stamped, the `health` verb
# reporting a breach on the deadlock-budget objective, the breach
# visible on the Prometheus endpoint (`mdx_health_status 2` plus the
# per-objective burn-rate gauges), `campaign watch --once` rendering the
# degraded view, and the alert log carrying a schema-valid
# pass -> warn/breach transition.
#
# Artifacts (under target/ so the work tree stays clean):
#   target/health-smoke-slo.txt        the SLO spec the server loaded
#   target/health-smoke-alerts.jsonl   the structured alert log
#   target/health-smoke-health.json    the breached HealthReport
#   target/health-smoke-metrics.prom   the scraped Prometheus exposition
#   target/health-smoke-watch.txt      the `campaign watch --once` screen
#   target/health-smoke-tcp.stderr     the TCP server's banners
set -eu

BIN=${CAMPAIGN_BIN:-target/release/campaign}
OUTDIR=${HEALTH_SMOKE_DIR:-target}
SLO=$OUTDIR/health-smoke-slo.txt
ALERTS=$OUTDIR/health-smoke-alerts.jsonl
HEALTH=$OUTDIR/health-smoke-health.json
PROM=$OUTDIR/health-smoke-metrics.prom
WATCH=$OUTDIR/health-smoke-watch.txt
ERR=$OUTDIR/health-smoke-tcp.stderr
mkdir -p "$OUTDIR"

cat > "$SLO" <<'EOF'
# Health-smoke objectives: a zero-tolerance deadlock budget, a delivery
# floor, and a p99 latency ceiling with an early-warning line.
window fast=3 slow=9
burn fast=2.0 slow=1.0
objective deadlock_budget deadlock_rate ceiling 0.0 budget=0.05
objective delivery delivery_ratio floor 0.9 budget=0.1
objective tail_latency latency_p99 ceiling 500 budget=0.1 warn=400
EOF

# ---- Phase 1: --slo output is plain output plus one key --------------------
"$BIN" run --scheme sr2201 --shape 4x3 --max-faults 0 --seeds 2 \
  --jsonl "$OUTDIR/health-smoke-plain.jsonl" --quiet > /dev/null
"$BIN" run --scheme sr2201 --shape 4x3 --max-faults 0 --seeds 2 \
  --slo "$SLO" --jsonl "$OUTDIR/health-smoke-slo-rows.jsonl" --quiet > /dev/null

python3 - "$OUTDIR/health-smoke-plain.jsonl" "$OUTDIR/health-smoke-slo-rows.jsonl" <<'EOF'
import json, sys

plain = open(sys.argv[1]).read().splitlines()
slo = open(sys.argv[2]).read().splitlines()
assert len(plain) == len(slo) and plain, (len(plain), len(slo))
for p, s in zip(plain, slo):
    row = json.loads(s)
    verdict = row.pop("health")
    assert verdict["status"] in {"pass", "warn", "breach"}, verdict
    assert {v["objective"] for v in verdict["violations"]} <= \
        {"deadlock_budget", "delivery", "tail_latency"}, verdict
    # Re-serializing without the health key must give back the plain row
    # byte-for-byte: the verdict is injected at the output layer, the row
    # structs never change.
    assert json.dumps(row, separators=(",", ":")) == p, (p, s)
print(f"health byte-identity OK: {len(plain)} rows, --slo = plain + health key")
EOF

# ---- Phase 2: storm -> breach over a live server ---------------------------
# Mint a deadlocking witness token first: the naive broadcast scheme
# wedges the 4x3 broadcast storm (the failure fig5 demonstrates).
"$BIN" run --scheme naive-broadcast --shape 4x3 --max-faults 0 --seeds 1 \
  --workloads storm --jsonl "$OUTDIR/health-smoke-naive.jsonl" --quiet \
  > /dev/null 2>&1 || true
TOKEN=$(python3 - "$OUTDIR/health-smoke-naive.jsonl" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
dead = [r for r in rows if r["outcome"] == "deadlock"]
assert dead, "naive broadcast produced no deadlock witness"
print(dead[0]["token"])
EOF
)

: > "$ERR"
"$BIN" serve --tcp 127.0.0.1:0 --workers 2 --metrics-addr 127.0.0.1:0 \
  --slo "$SLO" --alert-log "$ALERTS" --slo-every 1 2> "$ERR" &
SRV=$!

i=0
while ! grep -q "listening on" "$ERR" || ! grep -q "metrics on" "$ERR"; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "error: serve --tcp did not come up" >&2
    cat "$ERR" >&2
    kill "$SRV" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
ADDR=$(sed -n 's/^campaign serve: listening on \([^ ]*\).*/\1/p' "$ERR" | head -1)
MADDR=$(sed -n 's/^campaign serve: metrics on \([^ ]*\).*/\1/p' "$ERR" | head -1)

python3 - "$ADDR" "$TOKEN" "$HEALTH" <<'EOF'
import json, socket, sys, time

addr, token, health_out = sys.argv[1], sys.argv[2], sys.argv[3]
host, port = addr.rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=30)
f = sock.makefile("rw")

def rpc(req):
    f.write(json.dumps(req) + "\n")
    f.flush()
    return json.loads(f.readline())

# Four forced deadlock rows: the storm. Every response is verdict-stamped
# from the first line on (pass until the evaluator has seen the damage).
for i in range(4):
    r = rpc({"cmd": "run", "token": token, "id": i, "force": True})
    assert r["kind"] == "row", r
    assert r["row"]["outcome"] == "deadlock", r["row"]["outcome"]
    assert r.get("verdict") in {"pass", "warn", "breach"}, r

# Let the periodic evaluator (1s) tick over the deadlock-rate window.
deadline = time.time() + 15
while True:
    h = rpc({"cmd": "health", "id": 99, "trace": "health-smoke"})
    assert h["kind"] == "health", h
    assert h.get("trace") == "health-smoke", h
    if h["health"]["status"] == "breach" or time.time() > deadline:
        break
    time.sleep(0.5)
report = h["health"]
assert report["status"] == "breach", f"no breach within deadline: {report}"
objectives = {o["id"]: o for o in report["objectives"]}
dl = objectives["deadlock_budget"]
assert dl["status"] == "breach", dl
assert dl["fast_burn"] > 2.0 and dl["slow_burn"] > 1.0, dl
assert h.get("verdict") == "breach", h
open(health_out, "w").write(json.dumps(report, indent=2) + "\n")
print(f"health breach OK: deadlock_budget burn fast={dl['fast_burn']:.1f} "
      f"slow={dl['slow_burn']:.1f}, report in {health_out}")
EOF

# The breach is on the Prometheus endpoint: overall status gauge at 2
# (0 pass / 1 warn / 2 breach) plus per-objective burn-rate gauges.
python3 - "$MADDR" "$PROM" <<'EOF'
import socket, sys

maddr, prom = sys.argv[1], sys.argv[2]
host, port = maddr.rsplit(":", 1)
m = socket.create_connection((host, int(port)), timeout=30)
m.sendall(b"GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n")
data = b""
while True:
    chunk = m.recv(65536)
    if not chunk:
        break
    data += chunk
body = data.decode().partition("\r\n\r\n")[2]
open(prom, "w").write(body)
assert "mdx_health_status 2" in body, "overall status gauge is not breach"
for series in ("mdx_slo_burn_rate", "mdx_slo_budget_remaining"):
    assert series in body, f"scrape missing {series}"
assert 'mdx_slo_budget_remaining{objective="deadlock_budget"} 0' in body, \
    "deadlock budget not exhausted on the endpoint"
print(f"health scrape OK: breach visible on the endpoint, scrape in {prom}")
EOF

# The live top-style view renders the same breach in one screen.
"$BIN" watch "$ADDR" --once --no-clear > "$WATCH"
grep -q "health: BREACH" "$WATCH"
grep -q "deadlock_budget" "$WATCH"

python3 - "$ADDR" <<'EOF'
import json, socket, sys
addr = sys.argv[1]
host, port = addr.rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=30)
f = sock.makefile("rw")
f.write(json.dumps({"cmd": "shutdown", "id": 100}) + "\n")
f.flush()
assert json.loads(f.readline())["kind"] == "ok"
EOF
wait "$SRV"

# Alert-log JSONL schema: every line a status transition with burn rates;
# the storm must have produced a pass -> warn/breach edge.
python3 - "$ALERTS" <<'EOF'
import json, sys

alerts = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert alerts, "alert log is empty after a breach"
STATUSES = {"pass", "warn", "breach"}
for a in alerts:
    assert isinstance(a["tick"], int) and a["tick"] >= 0, a
    assert isinstance(a["objective"], str) and a["objective"], a
    assert a["from"] in STATUSES and a["to"] in STATUSES, a
    assert a["from"] != a["to"], a
    assert isinstance(a["fast_burn"], (int, float)), a
    assert isinstance(a["slow_burn"], (int, float)), a
assert any(a["objective"] == "deadlock_budget" and a["from"] == "pass"
           and a["to"] in {"warn", "breach"} for a in alerts), alerts
print(f"alert log OK: {len(alerts)} transition(s), schema valid")
EOF

echo "health smoke OK"
