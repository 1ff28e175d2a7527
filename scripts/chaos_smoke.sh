#!/bin/sh
# chaos_smoke.sh — the crash-recovery end-to-end guard for rumord: a
# coordinator with durability enabled (-state-dir, -cache-dir) runs a
# 10⁴-repetition ensemble across two workers while a fault plan (-chaos)
# drops and delays worker protocol traffic; the coordinator process is then
# SIGKILLed mid-run and restarted over the same state directory. The
# restarted daemon must re-adopt the run from its journal — replaying the
# settled shards through the exact merger and re-leasing only the remainder —
# and the final summary must be byte-identical to the same submission
# executed by an undisturbed single-node rumord.
set -eu

cd "$(dirname "$0")/.."
COORD=127.0.0.1:18095
LOCAL=127.0.0.1:18096
TMP="$(mktemp -d)"
PIDS=
trap 'for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/rumord" ./cmd/rumord
go build -o "$TMP/client" ./examples/client

# A deterministic fault plan on the worker protocol: dropped connections and
# injected delays, aggressive enough to exercise every retry path but not to
# stall the smoke. The seed makes a failing run reproducible.
CHAOS='seed=11,drop=0.03,error=0.03,delay=5ms:0.10'

start_coordinator() {
    "$TMP/rumord" -cluster -addr "$COORD" -lease-ttl 2s \
        -state-dir "$TMP/state" -cache-dir "$TMP/cache" -chaos "$CHAOS" \
        >>"$TMP/coord.log" 2>&1 &
    COORD_PID=$!
    PIDS="$PIDS $COORD_PID"
}

start_coordinator
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

"$TMP/rumord" -worker -join "http://$COORD" -name chaos-w1 >"$TMP/w1.log" 2>&1 &
PIDS="$PIDS $!"
"$TMP/rumord" -worker -join "http://$COORD" -name chaos-w2 >"$TMP/w2.log" 2>&1 &
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
    "$TMP/client" -addr "http://$1" -family clique -sizes 256 -reps 10000 -seed 777 -raw
}

submit "$COORD" >"$TMP/cluster.json" &
CLIENT=$!

# Kill the coordinator dead — SIGKILL, no drain — once the run is actually
# executing, then restart it over the same state directory. The client keeps
# polling across the outage; the workers keep knocking until the restarted
# coordinator answers their re-registration.
i=0
until curl -fsS "http://$COORD/metrics" 2>/dev/null | grep -q '"running":[1-9]'; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "run never started; coordinator log:" >&2
        cat "$TMP/coord.log" >&2
        exit 1
    fi
    sleep 0.05
done
sleep 0.5
kill -9 "$COORD_PID" 2>/dev/null || true
echo "--- coordinator SIGKILLed, restarting ---" >>"$TMP/coord.log"
start_coordinator
wait_healthy "$COORD" coord.log

if ! wait "$CLIENT"; then
    echo "FAIL: client did not survive the coordinator crash; log:" >&2
    cat "$TMP/coord.log" >&2
    exit 1
fi

# The single-node reference run of the identical submission.
submit "$LOCAL" >"$TMP/local.json"

if ! cmp -s "$TMP/cluster.json" "$TMP/local.json"; then
    echo "FAIL: post-crash summary differs from the single-node run" >&2
    diff "$TMP/local.json" "$TMP/cluster.json" >&2 || true
    echo "coordinator log:" >&2
    cat "$TMP/coord.log" >&2
    exit 1
fi

# The restarted coordinator must export the recovery counters.
if ! curl -fsS -H 'Accept: text/plain' "http://$COORD/metrics" | grep -q '^rumord_cluster_runs_readopted_total'; then
    echo "FAIL: /metrics exposition lacks rumord_cluster_runs_readopted_total" >&2
    exit 1
fi

readopted=$(grep -c 're-adopted' "$TMP/coord.log" || true)
recovered=$(grep -c 'recovery: job' "$TMP/coord.log" || true)
if [ "${readopted:-0}" -eq 0 ]; then
    # The kill races run completion: on a very fast machine the ensemble may
    # settle before the SIGKILL lands, in which case recovery replays from
    # the durable caches instead of the shard journal. Byte-identity was
    # still asserted above.
    echo "WARN: coordinator finished the run before the kill; shard re-adoption not exercised this pass" >&2
fi
echo "chaos smoke OK: summary byte-identical across SIGKILL + restart under faults (runs re-adopted: ${readopted:-0}, jobs recovered: ${recovered:-0})"
