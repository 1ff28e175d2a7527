#!/bin/sh
# cluster_smoke.sh — the CI end-to-end guard for the distributed rumord:
# start a coordinator and two workers, drive a 10⁴-repetition ensemble
# through the example client, kill one worker mid-run, and require the
# summary to be byte-identical to the same submission executed by a plain
# single-node rumord. The engine's determinism contract extends across the
# cluster — sharding, worker death and lease reassignment must never show
# up in the output.
set -eu

cd "$(dirname "$0")/.."
COORD=127.0.0.1:18090
LOCAL=127.0.0.1:18091
TMP="$(mktemp -d)"
PIDS=
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/rumord" ./cmd/rumord
go build -o "$TMP/client" ./examples/client

# A short lease TTL so the killed worker's range is reassigned within the
# smoke's patience, not the production default's. Idle workers hold a lease
# request open, so they pick up the run as soon as it is submitted.
"$TMP/rumord" -cluster -addr "$COORD" -lease-ttl 2s >"$TMP/coord.log" 2>&1 &
PIDS="$PIDS $!"
"$TMP/rumord" -addr "$LOCAL" -budget 4 >"$TMP/local.log" 2>&1 &
PIDS="$PIDS $!"

wait_healthy() {
    i=0
    until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "rumord on $1 did not become healthy; log:" >&2
            cat "$TMP/$2" >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_healthy "$COORD" coord.log
wait_healthy "$LOCAL" local.log

"$TMP/rumord" -worker -join "http://$COORD" -name smoke-w1 >"$TMP/w1.log" 2>&1 &
W1=$!
PIDS="$PIDS $W1"
"$TMP/rumord" -worker -join "http://$COORD" -name smoke-w2 >"$TMP/w2.log" 2>&1 &
PIDS="$PIDS $!"

# Hold the submission until both workers have registered, so it cannot be
# refused 503 by the zero-workers fast-fail.
i=0
until curl -fsS "http://$COORD/metrics" 2>/dev/null | grep -q '"workers":2'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "workers never registered; coordinator log:" >&2
        cat "$TMP/coord.log" >&2
        exit 1
    fi
    sleep 0.1
done

submit() {
    "$TMP/client" -addr "http://$1" -family clique -sizes 256 -reps 10000 -seed 424 -raw
}

# Distributed run, with one worker killed dead (SIGKILL — no graceful
# drain) shortly after it starts. The kill is best-effort — on a fast
# machine the ensemble may already be done — but whenever it lands mid-run,
# the worker's leases must expire and be re-executed by the survivor
# without changing a byte of output.
submit "$COORD" >"$TMP/cluster.json" &
CLIENT=$!
sleep 0.5
kill -9 "$W1" 2>/dev/null || true
wait "$CLIENT"

# The single-node reference run of the identical submission.
submit "$LOCAL" >"$TMP/local.json"

if ! cmp -s "$TMP/cluster.json" "$TMP/local.json"; then
    echo "FAIL: distributed summary differs from the single-node run" >&2
    diff "$TMP/local.json" "$TMP/cluster.json" >&2 || true
    echo "coordinator log:" >&2
    cat "$TMP/coord.log" >&2
    exit 1
fi

# The coordinator's Prometheus exposition must carry the cluster gauges and
# the shared lease round-trip histogram, which must have observed every
# settled shard of the run.
curl -fsS -H 'Accept: text/plain' "http://$COORD/metrics" >"$TMP/prom.txt"
if ! grep -q '^rumord_cluster_workers' "$TMP/prom.txt"; then
    echo "FAIL: coordinator /metrics exposition lacks rumord_cluster_workers" >&2
    exit 1
fi
for series in 'rumord_lease_roundtrip_seconds_bucket{le="+Inf"}' \
    rumord_lease_roundtrip_seconds_sum rumord_lease_roundtrip_seconds_count; do
    if ! grep -qF "$series" "$TMP/prom.txt"; then
        echo "FAIL: coordinator /metrics lacks $series" >&2
        exit 1
    fi
done
leases=$(sed -n 's/^rumord_lease_roundtrip_seconds_count \([0-9]*\)$/\1/p' "$TMP/prom.txt")
if [ "${leases:-0}" -lt 1 ]; then
    echo "FAIL: lease_roundtrip histogram counted ${leases:-0} uploads after a distributed run" >&2
    exit 1
fi

# The distributed run's flight-recorder timeline stitches coordinator and
# worker spans under the one trace ID minted at submission: lease spans
# (coordinator clock) and execute spans (worker clock, worker ID attached).
run_id=$(curl -fsS "http://$COORD/v1/runs" | sed -n 's/.*"runs":\[{"id":"\([^"]*\)".*/\1/p')
if [ -z "$run_id" ]; then
    echo "FAIL: coordinator lists no runs after the smoke ensemble" >&2
    exit 1
fi
curl -fsS "http://$COORD/v1/runs/$run_id/trace" >"$TMP/trace.json"
if ! grep -q "\"trace\":\"tr-$run_id\"" "$TMP/trace.json"; then
    echo "FAIL: trace document does not carry tr-$run_id: $(cat "$TMP/trace.json")" >&2
    exit 1
fi
for span in submitted lease execute settled; do
    if ! grep -q "\"name\":\"$span\"" "$TMP/trace.json"; then
        echo "FAIL: cluster trace lacks a $span span: $(cat "$TMP/trace.json")" >&2
        exit 1
    fi
done
if ! grep -q '"worker":"w' "$TMP/trace.json"; then
    echo "FAIL: cluster trace carries no worker-attributed spans: $(cat "$TMP/trace.json")" >&2
    exit 1
fi

reassigned=$(grep -c 'returned to pool' "$TMP/coord.log" || true)
echo "cluster smoke OK: distributed summary byte-identical to single-node, trace stitched (leases reassigned: ${reassigned:-0})"
