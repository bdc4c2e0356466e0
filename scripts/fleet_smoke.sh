#!/bin/sh
# Smoke test for the sweep fleet: three seqavfd replicas (each with its
# own artifact store and -peers pointing at the other two) behind one
# seqavf-gateway. Drives a consistent-hash-routed sweep through the
# gateway and a 4-budget harden whose plans must come back in request
# order, checks the merged fleet-wide /metrics, then restarts one
# replica with an EMPTY artifact directory and asserts it warm-starts
# its design over the remote artifact tier (artifact.remote_hits >= 1,
# no cold solve) and serves the same sweep answer. Exits non-zero if
# any step fails.
set -eu

SEED=${SEED:-2027}
GW_ADDR=${GW_ADDR:-127.0.0.1:18100}
R1_ADDR=${R1_ADDR:-127.0.0.1:18101}
R2_ADDR=${R2_ADDR:-127.0.0.1:18102}
R3_ADDR=${R3_ADDR:-127.0.0.1:18103}
DIR=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do
        if kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$DIR"
}
trap cleanup EXIT

echo "fleet-smoke: building designgen, seqavfd, seqavf-gateway"
go build -o "$DIR/bin/" ./cmd/designgen ./cmd/seqavfd ./cmd/seqavf-gateway

echo "fleet-smoke: generating design (seed $SEED)"
"$DIR/bin/designgen" -seed "$SEED" -o "$DIR/design.nl" -pavf "$DIR/pavf.txt"

# wait_healthy ADDR polls /healthz until the listener is up (up to ~5s).
wait_healthy() {
    i=0
    until curl -sf "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "fleet-smoke: $1 never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# start_replica ADDR DIR PEERS -> sets LAST_PID; every replica loads the
# same design so the gateway can fail over freely.
start_replica() {
    "$DIR/bin/seqavfd" -listen "$1" -design "$DIR/design.nl" \
        -artifacts "$2" -peers "$3" &
    LAST_PID=$!
    PIDS="$PIDS $LAST_PID"
}

echo "fleet-smoke: starting 3 replicas"
start_replica "$R1_ADDR" "$DIR/art1" "$R2_ADDR,$R3_ADDR"
R1_PID=$LAST_PID
start_replica "$R2_ADDR" "$DIR/art2" "$R1_ADDR,$R3_ADDR"
R2_PID=$LAST_PID
start_replica "$R3_ADDR" "$DIR/art3" "$R1_ADDR,$R2_ADDR"
wait_healthy "$R1_ADDR"
wait_healthy "$R2_ADDR"
wait_healthy "$R3_ADDR"

echo "fleet-smoke: starting gateway on $GW_ADDR"
"$DIR/bin/seqavf-gateway" -listen "$GW_ADDR" \
    -replicas "$R1_ADDR,$R2_ADDR,$R3_ADDR" &
PIDS="$PIDS $!"
wait_healthy "$GW_ADDR"
echo "fleet-smoke: gateway healthy"

# Build the sweep request: the pAVF table goes into the JSON body as one
# escaped string.
{
    printf '{"design":"xeonlike_%s","workloads":[{"name":"smoke","pavf":"' "$SEED"
    awk '{printf "%s\\n", $0}' "$DIR/pavf.txt"
    printf '"}]}'
} >"$DIR/req.json"

# run_sweep OUT drives the sweep through the gateway.
run_sweep() {
    curl -sf -X POST -H 'Content-Type: application/json' \
        --data-binary "@$DIR/req.json" "http://$GW_ADDR/v1/sweep" >"$1"
    grep -q '"WeightedSeqAVF"' "$1" || {
        echo "fleet-smoke: sweep response missing WeightedSeqAVF:" >&2
        cat "$1" >&2
        exit 1
    }
}
run_sweep "$DIR/resp1.json"
echo "fleet-smoke: routed sweep ok ($(wc -c <"$DIR/resp1.json") bytes)"

# A 4-budget harden sweep routes to the design's owner in one forward;
# the plans must come back one per budget, in request order (the
# budgets are deliberately unsorted).
{
    printf '{"design":"xeonlike_%s","budgets":[64,16,256,32],"top_terms":3,"workloads":[{"name":"smoke","pavf":"' "$SEED"
    awk '{printf "%s\\n", $0}' "$DIR/pavf.txt"
    printf '"}]}'
} >"$DIR/harden.json"
curl -sf -X POST -H 'Content-Type: application/json' \
    --data-binary "@$DIR/harden.json" "http://$GW_ADDR/v1/harden" >"$DIR/harden_resp.json"
BUDGETS=$(grep -o '"budget": *[0-9.e+-]*' "$DIR/harden_resp.json" | sed 's/.*: *//' | tr '\n' ' ')
if [ "$BUDGETS" != "64 16 256 32 " ]; then
    echo "fleet-smoke: harden plans '$BUDGETS', want '64 16 256 32 ' (one per budget, request order):" >&2
    cat "$DIR/harden_resp.json" >&2
    exit 1
fi
echo "fleet-smoke: routed 4-budget harden ok (plans in request order)"

# The fleet-wide exposition must merge replica counters (the sweep we
# just ran) with the gateway's own routing counters.
curl -sf "http://$GW_ADDR/metrics" >"$DIR/metrics.prom"
grep -q '^server_sweep_ok [1-9]' "$DIR/metrics.prom" || {
    echo "fleet-smoke: merged /metrics missing server_sweep_ok:" >&2
    head -30 "$DIR/metrics.prom" >&2 || true
    exit 1
}
grep -q '^gateway_route_total [1-9]' "$DIR/metrics.prom" || {
    echo "fleet-smoke: merged /metrics missing gateway_route_total:" >&2
    head -30 "$DIR/metrics.prom" >&2 || true
    exit 1
}
echo "fleet-smoke: merged exposition ok ($(grep -c '^# TYPE' "$DIR/metrics.prom") families)"

# Rolling restart: kill replica 2 and bring it back with a FRESH, EMPTY
# artifact directory. It must warm-start its design over the remote
# tier from a peer that still holds the artifact — no cold solve.
echo "fleet-smoke: restarting replica 2 with an empty artifact dir"
kill -TERM "$R2_PID"
wait "$R2_PID" || true
start_replica "$R2_ADDR" "$DIR/art2-fresh" "$R1_ADDR,$R3_ADDR"
wait_healthy "$R2_ADDR"

curl -sf "http://$R2_ADDR/metrics.json" >"$DIR/metrics2.json"
grep -q '"artifact.remote_hits": *[1-9]' "$DIR/metrics2.json" || {
    echo "fleet-smoke: restarted replica did not pull from its peers:" >&2
    grep -o '"artifact\.[a-z_]*": *[0-9]*' "$DIR/metrics2.json" >&2 || true
    exit 1
}
grep -q '"artifact.warm_start": *[1-9]' "$DIR/metrics2.json" || {
    echo "fleet-smoke: restarted replica did not warm-start:" >&2
    grep -o '"artifact\.[a-z_]*": *[0-9]*' "$DIR/metrics2.json" >&2 || true
    exit 1
}
if grep -q '"artifact.cold_start": *[1-9]' "$DIR/metrics2.json"; then
    echo "fleet-smoke: restarted replica solved cold despite warm peers:" >&2
    grep -o '"artifact\.[a-z_]*": *[0-9]*' "$DIR/metrics2.json" >&2 || true
    exit 1
fi
echo "fleet-smoke: remote warm start confirmed ($(grep -o '"artifact.remote_hits": *[0-9]*' "$DIR/metrics2.json"))"

# The warm-started fleet must give the same answer: the sweep summary
# (WeightedSeqAVF et al.) is bit-identical because the remote artifact
# decodes to the same closed forms.
run_sweep "$DIR/resp2.json"
extract_scores() {
    grep -o '"WeightedSeqAVF": *[0-9.e+-]*' "$1"
}
if [ "$(extract_scores "$DIR/resp1.json")" != "$(extract_scores "$DIR/resp2.json")" ]; then
    echo "fleet-smoke: sweep results diverged across the rolling restart:" >&2
    extract_scores "$DIR/resp1.json" >&2
    extract_scores "$DIR/resp2.json" >&2
    exit 1
fi
echo "fleet-smoke: post-restart sweep bit-identical"

echo "fleet-smoke: shutting fleet down"
for pid in $PIDS; do
    kill -TERM "$pid" 2>/dev/null || true
done
for pid in $PIDS; do
    wait "$pid" 2>/dev/null || true
done
PIDS=""
echo "fleet-smoke: clean shutdown"
