#!/usr/bin/env bash
# End-to-end distributed smoke test: launches `ekm serve` plus N real
# `ekm source` processes over loopback TCP and asserts that every
# process exits cleanly and that the run's accounting holds. Run
# locally or from the CI `distributed-e2e` matrix:
#
#   cargo build --release && scripts/distributed_e2e.sh [core|streaming|faults|replica|all]
#
# Every round runs the server-driven protocol: sources hold only their
# shard, the server drives the plan over one event-driven thread, every
# source's counters are cross-checked by the server at shutdown, and
# the round's uplink bits and centers must equal those of the
# in-process `ekm run` of the same configuration, the centers bit for
# bit. `core` covers a named distributed pipeline, a
# quantized `--stages` composition and a centralized pipeline.
# `streaming` covers the per-source merge-and-reduce pipelines.
# `faults` is the fault-injection suite: it kills a
# source mid-stage and asserts the degraded run stays within the
# documented cost-ratio bound, then kills the server mid-round and
# asserts `--resume` replays the journal to bit-identical centers and
# per-source counters, once after one crash and once after the resumed
# server crashed too. `replica` is the shard-replication failover
# suite: a killed owner must be re-homed onto its ring replica with
# results bit-identical to a never-failed twin, a dead owner plus dead
# replica must degrade cleanly, and a server crash mid-promotion must
# `--resume` to the same bit-identical end state. The default `all`
# runs everything; any other name is refused.
set -euo pipefail

SUITE=${1:-all}
case "$SUITE" in
    core | streaming | faults | replica | all) ;;
    *)
        echo "unknown suite '$SUITE' (expected core|streaming|faults|replica|all)" >&2
        exit 2
        ;;
esac
BIN=${EKM_BIN:-target/release/ekm}
PORT=${EKM_E2E_PORT:-17071}
ADDR="127.0.0.1:${PORT}"
# Hard per-process deadline: `ekm serve` blocks in accept() with no
# timeout until every source has handshaked, so a source that dies
# before connecting would otherwise hang the round (and the CI job).
ROUND_TIMEOUT=${EKM_E2E_TIMEOUT:-180}
# CI sets EKM_E2E_LOGDIR to a path it uploads as an artifact on
# failure; when unset the logs live in a scratch dir removed on exit.
if [[ -n "${EKM_E2E_LOGDIR:-}" ]]; then
    LOGDIR="$EKM_E2E_LOGDIR"
    mkdir -p "$LOGDIR"
else
    LOGDIR=$(mktemp -d)
    trap 'rm -rf "$LOGDIR"' EXIT
fi

# run_round <label> <sources> <flags...>
#   One serve + <sources> source processes; asserts the accounting lines
#   and bit-equality of the uplink and of the centers with `ekm run`.
run_round() {
    local label=$1
    shift
    local sources=$1
    shift
    local common=("$@")

    echo "=== ${label}: ${common[*]} (${sources} sources) ==="
    rm -f "$LOGDIR/serve-centers.txt" "$LOGDIR/run-centers.txt"
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" --sources "$sources" \
        --centers-out "$LOGDIR/serve-centers.txt" \
        "${common[@]}" >"$LOGDIR/serve.log" 2>&1 &
    local serve_pid=$!

    local src_pids=()
    for ((i = 0; i < sources; i++)); do
        timeout --kill-after=10 "$ROUND_TIMEOUT" \
            "$BIN" source --connect "$ADDR" --source-id "$i" --sources "$sources" \
            "${common[@]}" >"$LOGDIR/source-$i.log" 2>&1 &
        src_pids+=($!)
    done

    local failed=0
    for ((i = 0; i < sources; i++)); do
        if ! wait "${src_pids[$i]}"; then
            echo "FAIL: source $i exited nonzero"
            failed=1
        fi
    done
    # A dead source leaves serve blocked in accept(); don't wait for it.
    if [[ $failed -ne 0 ]]; then
        kill "$serve_pid" 2>/dev/null || true
    fi
    if ! wait "$serve_pid"; then
        echo "FAIL: serve exited nonzero"
        failed=1
    fi

    sed 's/^/  serve  | /' "$LOGDIR/serve.log"
    for ((i = 0; i < sources; i++)); do
        sed "s/^/  src $i  | /" "$LOGDIR/source-$i.log"
    done
    if [[ $failed -ne 0 ]]; then
        exit 1
    fi

    # The run must have transmitted real bits…
    local bits
    bits=$(sed -n 's/^total uplink-bits \([0-9]*\)$/\1/p' "$LOGDIR/serve.log")
    if [[ -z "$bits" || "$bits" -eq 0 ]]; then
        echo "FAIL: server reported no uplink bits"
        exit 1
    fi
    # …the server must have driven the protocol and cross-checked every
    # source's own counters…
    if ! grep -q "server-driven protocol" "$LOGDIR/serve.log"; then
        echo "FAIL: server did not run the server-driven protocol"
        exit 1
    fi
    if ! grep -q "per-source counters verified" "$LOGDIR/serve.log"; then
        echo "FAIL: server did not verify the per-source counters"
        exit 1
    fi
    for ((i = 0; i < sources; i++)); do
        if ! grep -q "counters verified by the server" "$LOGDIR/source-$i.log"; then
            echo "FAIL: source $i did not complete the protocol"
            exit 1
        fi
    done
    # …and the bits on the wire and the centers must equal the
    # in-process run's for the same configuration, the centers bit for
    # bit.
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" run --sources "$sources" "${common[@]}" \
        --centers-out "$LOGDIR/run-centers.txt" >"$LOGDIR/run.log" 2>&1
    local run_bits
    run_bits=$(sed -n 's/^total uplink-bits \([0-9]*\)$/\1/p' "$LOGDIR/run.log")
    if [[ "$bits" != "$run_bits" ]]; then
        echo "FAIL: TCP uplink ${bits} bits != in-process ${run_bits} bits"
        exit 1
    fi
    if ! cmp -s "$LOGDIR/serve-centers.txt" "$LOGDIR/run-centers.txt"; then
        echo "FAIL: TCP centers differ from the in-process run's"
        exit 1
    fi
    echo "OK: ${label} transmitted ${bits} uplink bits and the in-process run's centers"
}

# core: a named distributed pipeline (Algorithm 4), a quantized
# arbitrary --stages composition, and a centralized pipeline over a
# single remote source.
if [[ "$SUITE" == "core" || "$SUITE" == "all" ]]; then
    run_round "jl-bklw" 3 \
        --pipeline jl-bklw --dataset mixture --n 600 --d 40 --k 2 --seed 7
    run_round "stages" 2 \
        --stages dispca,jl,qt:8,disss --dataset mixture --n 400 --d 30 --k 2 --seed 11
    run_round "centralized" 1 \
        --pipeline jl-fss-jl --dataset mnist-like --n 500 --d 196 --k 2 --seed 5
fi

# streaming: per-source merge-and-reduce summaries across real
# processes — composed with DR/QT, with an explicit leaf size, and with
# the F32 auxiliary-payload precision.
if [[ "$SUITE" == "streaming" || "$SUITE" == "all" ]]; then
    run_round "stream" 3 \
        --stages jl,stream,qt:8 --dataset mixture --n 900 --d 40 --k 2 --seed 13
    run_round "stream-leaf" 2 \
        --stages stream,jl --leaf-size 128 --dataset mnist-like --n 600 --d 196 --k 2 --seed 17
    run_round "stream-f32" 2 \
        --stages jl,stream --precision f32 --dataset mixture --n 500 --d 30 --k 2 --seed 19
fi

# faults: the fault-injection suite over the server-driven protocol.
# Round A kills one source mid-stage and asserts the run degrades onto
# the survivors within the paper's (1+eps)/(1-frac_lost) cost-ratio
# bound. Round B kills the *server* mid-round and asserts a restarted
# `serve --resume` replays its journal to centers and per-source
# counters bit-identical to a clean twin's. Round C crashes the server,
# then its resume, and holds the second resume to the same twin. The
# measurements land in faults.json (schema ekm-fault-suite/v1),
# validated by the shared checker in scripts/bench_perf.sh.
if [[ "$SUITE" == "faults" || "$SUITE" == "all" ]]; then
    FCOMMON=(--dataset mixture --n 600 --d 40 --k 2 --stages dispca,disss --seed 9 --sources 3)

    echo "=== fault-degrade [protocol]: ${FCOMMON[*]} (source 2 killed mid-stage) ==="
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${FCOMMON[@]}" --deadline-ms 5000 \
        --centers-out "$LOGDIR/degraded-centers.txt" >"$LOGDIR/fault-serve.log" 2>&1 &
    serve_pid=$!
    src_pids=()
    for i in 0 1 2; do
        flags=()
        # Source 2 serves two commands, then exits 43 mid-stage — the
        # scripted stand-in for a dead edge device.
        [[ $i == 2 ]] && flags=(--fail-after-commands 2)
        timeout --kill-after=10 "$ROUND_TIMEOUT" \
            "$BIN" source --connect "$ADDR" --source-id "$i" "${FCOMMON[@]}" \
            "${flags[@]}" >"$LOGDIR/fault-source-$i.log" 2>&1 &
        src_pids+=($!)
    done
    for i in 0 1; do
        wait "${src_pids[$i]}" || { echo "FAIL: surviving source $i exited nonzero"; exit 1; }
    done
    if wait "${src_pids[2]}"; then
        echo "FAIL: the killed source exited zero — the fault never fired"
        exit 1
    fi
    wait "$serve_pid" || { echo "FAIL: serve did not survive the lost source"; exit 1; }
    sed 's/^/  serve  | /' "$LOGDIR/fault-serve.log"
    grep -q "degraded: source 2 lost" "$LOGDIR/fault-serve.log" \
        || { echo "FAIL: serve did not report the lost source"; exit 1; }
    grep -q "rows dropped, cost-ratio bound" "$LOGDIR/fault-serve.log" \
        || { echo "FAIL: serve did not report the degradation bound"; exit 1; }

    # Clean twin via the in-process run (bit-identical to the TCP
    # protocol for the same flags), then score both center sets on the
    # full dataset and hold the ratio to the documented bound.
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" run "${FCOMMON[@]}" --centers-out "$LOGDIR/clean-centers.txt" \
        >"$LOGDIR/fault-twin.log" 2>&1 \
        || { echo "FAIL: clean twin run failed"; exit 1; }
    degraded_cost=$("$BIN" eval "${FCOMMON[@]}" --centers "$LOGDIR/degraded-centers.txt" \
        | sed -n 's/^cost //p')
    clean_cost=$("$BIN" eval "${FCOMMON[@]}" --centers "$LOGDIR/clean-centers.txt" \
        | sed -n 's/^cost //p')
    bound=$(sed -n 's/.*rows dropped, cost-ratio bound //p' "$LOGDIR/fault-serve.log")
    rows_lost=$(sed -n 's/^degraded: \([0-9]*\) of [0-9]* rows dropped.*/\1/p' "$LOGDIR/fault-serve.log")
    rows_total=$(sed -n 's/^degraded: [0-9]* of \([0-9]*\) rows dropped.*/\1/p' "$LOGDIR/fault-serve.log")
    ratio=$(python3 -c "print($degraded_cost / $clean_cost)")
    python3 -c "import sys; sys.exit(0 if 0 < $ratio <= $bound else 1)" \
        || { echo "FAIL: degraded cost ratio $ratio exceeds the bound $bound"; exit 1; }
    echo "OK: degraded run within the bound (cost ratio $ratio <= $bound)"

    echo "=== fault-resume [protocol]: ${FCOMMON[*]} (server killed mid-round) ==="
    JOURNAL="$LOGDIR/run.journal"
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${FCOMMON[@]}" --journal "$JOURNAL" \
        --crash-after-commands 5 >"$LOGDIR/crash-serve1.log" 2>&1 &
    serve_pid=$!
    src_pids=()
    for i in 0 1 2; do
        # The sources survive the server crash: they keep reconnecting
        # for up to 120 s and answer replayed rounds from their caches.
        timeout --kill-after=10 "$ROUND_TIMEOUT" \
            "$BIN" source --connect "$ADDR" --source-id "$i" "${FCOMMON[@]}" \
            --reconnect 120 >"$LOGDIR/crash-source-$i.log" 2>&1 &
        src_pids+=($!)
    done
    if wait "$serve_pid"; then
        echo "FAIL: the first serve exited zero — the crash never fired"
        exit 1
    fi
    resume_start=$(date +%s%3N)
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${FCOMMON[@]}" --journal "$JOURNAL" --resume \
        --centers-out "$LOGDIR/resumed-centers.txt" >"$LOGDIR/crash-serve2.log" 2>&1 \
        || { echo "FAIL: the resumed serve failed"; sed 's/^/  serve2 | /' "$LOGDIR/crash-serve2.log"; exit 1; }
    resume_ms=$(( $(date +%s%3N) - resume_start ))
    for i in 0 1 2; do
        wait "${src_pids[$i]}" || { echo "FAIL: source $i did not survive the server crash"; exit 1; }
    done
    sed 's/^/  serve2 | /' "$LOGDIR/crash-serve2.log"
    grep -q "resume: replayed" "$LOGDIR/crash-serve2.log" \
        || { echo "FAIL: the resumed serve replayed nothing"; exit 1; }
    replayed=$(sed -n 's/^resume: replayed \([0-9]*\) journal record(s).*/\1/p' "$LOGDIR/crash-serve2.log")

    # Clean twin over fresh processes on a fresh port: the resumed run
    # must be indistinguishable from one that never crashed.
    TWIN_ADDR="127.0.0.1:$((PORT + 1))"
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$TWIN_ADDR" "${FCOMMON[@]}" \
        --centers-out "$LOGDIR/twin-centers.txt" >"$LOGDIR/crash-serve3.log" 2>&1 &
    serve_pid=$!
    for i in 0 1 2; do
        timeout --kill-after=10 "$ROUND_TIMEOUT" \
            "$BIN" source --connect "$TWIN_ADDR" --source-id "$i" "${FCOMMON[@]}" \
            >"$LOGDIR/twin-source-$i.log" 2>&1 &
    done
    wait "$serve_pid" || { echo "FAIL: the clean twin serve failed"; exit 1; }
    cmp -s "$LOGDIR/resumed-centers.txt" "$LOGDIR/twin-centers.txt" \
        || { echo "FAIL: resumed centers differ from the clean twin's"; exit 1; }
    grep "uplink-bits" "$LOGDIR/crash-serve2.log" | sort >"$LOGDIR/bits-resumed.txt"
    grep "uplink-bits" "$LOGDIR/crash-serve3.log" | sort >"$LOGDIR/bits-twin.txt"
    cmp -s "$LOGDIR/bits-resumed.txt" "$LOGDIR/bits-twin.txt" \
        || { echo "FAIL: resumed per-source counters differ from the clean twin's"; \
             diff "$LOGDIR/bits-resumed.txt" "$LOGDIR/bits-twin.txt" || true; exit 1; }
    echo "OK: resume replayed $replayed record(s) to bit-identical centers and counters (${resume_ms} ms)"

    echo "=== fault-resume-twice [protocol]: ${FCOMMON[*]} (server killed, resumed, killed again) ==="
    # The first crash leaves the first stage round pending on two
    # sources; the resume journals their reissued answers after that
    # round's command records, then crashes again two commands later.
    # The second resume must replay past those answers to the twin.
    TWICE="$LOGDIR/twice.journal"
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${FCOMMON[@]}" --journal "$TWICE" \
        --crash-after-commands 5 >"$LOGDIR/twice-serve1.log" 2>&1 &
    serve_pid=$!
    src_pids=()
    for i in 0 1 2; do
        timeout --kill-after=10 "$ROUND_TIMEOUT" \
            "$BIN" source --connect "$ADDR" --source-id "$i" "${FCOMMON[@]}" \
            --reconnect 120 >"$LOGDIR/twice-source-$i.log" 2>&1 &
        src_pids+=($!)
    done
    if wait "$serve_pid"; then
        echo "FAIL: the first serve exited zero — the crash never fired"
        exit 1
    fi
    if timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${FCOMMON[@]}" --journal "$TWICE" --resume \
        --crash-after-commands 2 >"$LOGDIR/twice-serve2.log" 2>&1; then
        echo "FAIL: the first resume exited zero — its crash never fired"
        exit 1
    fi
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${FCOMMON[@]}" --journal "$TWICE" --resume \
        --centers-out "$LOGDIR/twice-centers.txt" >"$LOGDIR/twice-serve3.log" 2>&1 \
        || { echo "FAIL: the second resume failed"; sed 's/^/  serve3 | /' "$LOGDIR/twice-serve3.log"; exit 1; }
    for i in 0 1 2; do
        wait "${src_pids[$i]}" || { echo "FAIL: source $i did not survive two server crashes"; exit 1; }
    done
    sed 's/^/  serve3 | /' "$LOGDIR/twice-serve3.log"
    cmp -s "$LOGDIR/twice-centers.txt" "$LOGDIR/twin-centers.txt" \
        || { echo "FAIL: twice-resumed centers differ from the clean twin's"; exit 1; }
    grep "uplink-bits" "$LOGDIR/twice-serve3.log" | sort >"$LOGDIR/bits-twice.txt"
    cmp -s "$LOGDIR/bits-twice.txt" "$LOGDIR/bits-twin.txt" \
        || { echo "FAIL: twice-resumed per-source counters differ from the clean twin's"; \
             diff "$LOGDIR/bits-twice.txt" "$LOGDIR/bits-twin.txt" || true; exit 1; }
    echo "OK: a run crashed twice resumed to bit-identical centers and counters"

    # Record the suite's measurements and hold them to the shared
    # schema checker — the same validator CI runs on bench documents.
    python3 - "$LOGDIR/faults.json" <<EOF
import json, sys
doc = {
    "schema": "ekm-fault-suite/v1",
    "degraded": {
        "cost_ratio": $ratio,
        "cost_ratio_bound": $bound,
        "rows_lost": $rows_lost,
        "rows_total": $rows_total,
    },
    "resume": {
        "replayed_records": $replayed,
        "resume_wall_ms": $resume_ms,
        "centers_bit_identical": True,
    },
}
json.dump(doc, open(sys.argv[1], "w"), indent=2)
EOF
    "$(dirname "$0")/bench_perf.sh" validate "$LOGDIR/faults.json" \
        || { echo "FAIL: faults.json failed schema validation"; exit 1; }
fi

# replica: shard replication + health-tracked failover over real TCP.
# Every shard lives on its owner plus one ring replica (r=2), kept
# cold. Round A kills an owner mid-stage: the server promotes the
# replica, replays the dead owner's completed rounds onto it, and the
# run must finish with centers, digest, and classic per-source ledger
# bit-identical to a clean twin that never lost anyone. Round B kills
# an owner AND its replica holder: the dry ring degrades that shard
# within the documented bound while the other dead source still
# recovers onto its surviving replica. Round C crashes the *server*
# mid-promotion: the restarted `serve --resume` learns the absorbed
# origin from the journal's promotion record, accepts only the
# survivors, re-fires the promotion, and must again be bit-identical
# to the clean twin. The measurements land in replica.json (schema
# ekm-replica-e2e/v1), validated by the shared checker in
# scripts/bench_perf.sh.
if [[ "$SUITE" == "replica" || "$SUITE" == "all" ]]; then
    RCOMMON=(--dataset mixture --n 600 --d 40 --k 2 --stages dispca,disss --seed 9 \
             --sources 3 --replication 2)

    echo "=== replica-twin [protocol]: ${RCOMMON[*]} (clean baseline) ==="
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${RCOMMON[@]}" \
        --centers-out "$LOGDIR/replica-twin-centers.txt" >"$LOGDIR/replica-twin.log" 2>&1 &
    serve_pid=$!
    for i in 0 1 2; do
        timeout --kill-after=10 "$ROUND_TIMEOUT" \
            "$BIN" source --connect "$ADDR" --source-id "$i" "${RCOMMON[@]}" \
            >"$LOGDIR/replica-twin-source-$i.log" 2>&1 &
    done
    wait "$serve_pid" || { echo "FAIL: the clean replica twin failed"; exit 1; }
    grep -q "replica promotions 0" "$LOGDIR/replica-twin.log" \
        || { echo "FAIL: the clean twin promoted a replica"; exit 1; }
    twin_digest=$(sed -n 's/^digest \(0x[0-9a-f]*\):.*/\1/p' "$LOGDIR/replica-twin.log")

    echo "=== replica-failover [protocol]: ${RCOMMON[*]} (owner 1 killed mid-stage) ==="
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${RCOMMON[@]}" \
        --centers-out "$LOGDIR/replica-rec-centers.txt" >"$LOGDIR/replica-serve.log" 2>&1 &
    serve_pid=$!
    src_pids=()
    for i in 0 1 2; do
        flags=()
        [[ $i == 1 ]] && flags=(--fail-after-commands 2)
        timeout --kill-after=10 "$ROUND_TIMEOUT" \
            "$BIN" source --connect "$ADDR" --source-id "$i" "${RCOMMON[@]}" \
            "${flags[@]}" >"$LOGDIR/replica-source-$i.log" 2>&1 &
        src_pids+=($!)
    done
    for i in 0 2; do
        wait "${src_pids[$i]}" || { echo "FAIL: surviving source $i exited nonzero"; exit 1; }
    done
    if wait "${src_pids[1]}"; then
        echo "FAIL: the killed owner exited zero — the fault never fired"
        exit 1
    fi
    wait "$serve_pid" || { echo "FAIL: serve did not survive the lost owner"; exit 1; }
    sed 's/^/  serve  | /' "$LOGDIR/replica-serve.log"
    grep -q "recovered: source 1 re-homed onto replica host 2" "$LOGDIR/replica-serve.log" \
        || { echo "FAIL: serve did not promote the ring replica"; exit 1; }
    if grep -q "^degraded:" "$LOGDIR/replica-serve.log"; then
        echo "FAIL: the replicated run degraded instead of recovering"
        exit 1
    fi
    promotions=$(sed -n 's/^replica promotions \([0-9]*\)$/\1/p' "$LOGDIR/replica-serve.log")
    replica_bits=$(sed -n 's/^replica-bits \([0-9]*\)$/\1/p' "$LOGDIR/replica-serve.log")
    [[ -n "$promotions" && "$promotions" -ge 1 && -n "$replica_bits" && "$replica_bits" -gt 0 ]] \
        || { echo "FAIL: the replica control-plane counters are missing"; exit 1; }

    # Recovery must be invisible in the results: same centers, same
    # digest, same classic per-source ledger as the never-failed twin
    # (the replica overhead lives on its own counters, outside both).
    cmp -s "$LOGDIR/replica-rec-centers.txt" "$LOGDIR/replica-twin-centers.txt" \
        || { echo "FAIL: recovered centers differ from the clean twin's"; exit 1; }
    rec_digest=$(sed -n 's/^digest \(0x[0-9a-f]*\):.*/\1/p' "$LOGDIR/replica-serve.log")
    [[ -n "$twin_digest" && "$rec_digest" == "$twin_digest" ]] \
        || { echo "FAIL: recovered digest ${rec_digest} != twin ${twin_digest}"; exit 1; }
    grep '^source .* uplink-bits' "$LOGDIR/replica-serve.log" | sort >"$LOGDIR/bits-rec.txt"
    grep '^source .* uplink-bits' "$LOGDIR/replica-twin.log" | sort >"$LOGDIR/bits-rtwin.txt"
    cmp -s "$LOGDIR/bits-rec.txt" "$LOGDIR/bits-rtwin.txt" \
        || { echo "FAIL: recovered per-source ledger differs from the twin's"; \
             diff "$LOGDIR/bits-rec.txt" "$LOGDIR/bits-rtwin.txt" || true; exit 1; }
    echo "OK: failover recovered bit-identically ($promotions promotion(s), $replica_bits replica bits)"

    echo "=== replica-double-fault [protocol]: ${RCOMMON[*]} (owner 1 AND replica 2 killed) ==="
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${RCOMMON[@]}" --deadline-ms 5000 \
        >"$LOGDIR/replica-dbl-serve.log" 2>&1 &
    serve_pid=$!
    src_pids=()
    for i in 0 1 2; do
        flags=()
        [[ $i == 1 || $i == 2 ]] && flags=(--fail-after-commands 2)
        timeout --kill-after=10 "$ROUND_TIMEOUT" \
            "$BIN" source --connect "$ADDR" --source-id "$i" "${RCOMMON[@]}" \
            "${flags[@]}" >"$LOGDIR/replica-dbl-source-$i.log" 2>&1 &
        src_pids+=($!)
    done
    wait "${src_pids[0]}" || { echo "FAIL: the surviving source exited nonzero"; exit 1; }
    for i in 1 2; do
        if wait "${src_pids[$i]}"; then
            echo "FAIL: killed source $i exited zero — the fault never fired"
            exit 1
        fi
    done
    wait "$serve_pid" || { echo "FAIL: serve did not survive the double fault"; exit 1; }
    sed 's/^/  serve  | /' "$LOGDIR/replica-dbl-serve.log"
    # Source 1's only replica died with it: a clean degradation within
    # the documented bound. Source 2's replica (source 0) survived: it
    # must still recover. Half recovery, half degradation — per shard.
    grep -q "degraded: source 1 lost" "$LOGDIR/replica-dbl-serve.log" \
        || { echo "FAIL: the dry ring did not degrade the shard"; exit 1; }
    grep -q "rows dropped, cost-ratio bound" "$LOGDIR/replica-dbl-serve.log" \
        || { echo "FAIL: serve did not report the degradation bound"; exit 1; }
    grep -q "recovered: source 2 re-homed onto replica host 0" "$LOGDIR/replica-dbl-serve.log" \
        || { echo "FAIL: the shard with a live replica did not recover"; exit 1; }
    dbl_promotions=$(sed -n 's/^replica promotions \([0-9]*\)$/\1/p' "$LOGDIR/replica-dbl-serve.log")
    echo "OK: dry ring degraded, live ring recovered ($dbl_promotions promotion attempt(s))"

    echo "=== replica-resume [protocol]: ${RCOMMON[*]} (server crashed mid-promotion) ==="
    RJOURNAL="$LOGDIR/replica.journal"
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${RCOMMON[@]}" --journal "$RJOURNAL" \
        --crash-after-commands 14 >"$LOGDIR/replica-crash1.log" 2>&1 &
    serve_pid=$!
    src_pids=()
    for i in 0 1 2; do
        # The owner dies for good; the survivors reconnect and answer
        # the resumed server's replays from their caches.
        flags=(--reconnect 120)
        [[ $i == 1 ]] && flags=(--fail-after-commands 2)
        timeout --kill-after=10 "$ROUND_TIMEOUT" \
            "$BIN" source --connect "$ADDR" --source-id "$i" "${RCOMMON[@]}" \
            "${flags[@]}" >"$LOGDIR/replica-crash-source-$i.log" 2>&1 &
        src_pids+=($!)
    done
    if wait "$serve_pid"; then
        echo "FAIL: the first serve exited zero — the crash never fired"
        exit 1
    fi
    timeout --kill-after=10 "$ROUND_TIMEOUT" \
        "$BIN" serve --listen "$ADDR" "${RCOMMON[@]}" --journal "$RJOURNAL" --resume \
        --centers-out "$LOGDIR/replica-res-centers.txt" >"$LOGDIR/replica-crash2.log" 2>&1 \
        || { echo "FAIL: the resumed serve failed"; sed 's/^/  serve2 | /' "$LOGDIR/replica-crash2.log"; exit 1; }
    for i in 0 2; do
        wait "${src_pids[$i]}" || { echo "FAIL: source $i did not survive the server crash"; exit 1; }
    done
    if wait "${src_pids[1]}"; then
        echo "FAIL: the killed owner exited zero — the fault never fired"
        exit 1
    fi
    sed 's/^/  serve2 | /' "$LOGDIR/replica-crash2.log"
    grep -q "absorbed source(s) will not rejoin: \[1\]" "$LOGDIR/replica-crash2.log" \
        || { echo "FAIL: the resumed serve waited for the dead owner"; exit 1; }
    grep -q "recovered: source 1 re-homed onto replica host 2" "$LOGDIR/replica-crash2.log" \
        || { echo "FAIL: the resumed serve did not re-fire the promotion"; exit 1; }
    res_replayed=$(sed -n 's/^resume: replayed \([0-9]*\) journal record(s).*/\1/p' "$LOGDIR/replica-crash2.log")
    [[ -n "$res_replayed" && "$res_replayed" -gt 0 ]] \
        || { echo "FAIL: the resumed serve replayed nothing"; exit 1; }
    cmp -s "$LOGDIR/replica-res-centers.txt" "$LOGDIR/replica-twin-centers.txt" \
        || { echo "FAIL: resumed centers differ from the clean twin's"; exit 1; }
    res_digest=$(sed -n 's/^digest \(0x[0-9a-f]*\):.*/\1/p' "$LOGDIR/replica-crash2.log")
    [[ "$res_digest" == "$twin_digest" ]] \
        || { echo "FAIL: resumed digest ${res_digest} != twin ${twin_digest}"; exit 1; }
    echo "OK: crash mid-promotion resumed bit-identically ($res_replayed record(s) replayed)"

    # Record the suite's measurements and hold them to the shared
    # schema checker — the same validator CI runs on bench documents.
    python3 - "$LOGDIR/replica.json" <<EOF
import json, sys
doc = {
    "schema": "ekm-replica-e2e/v1",
    "sources": 3,
    "replication": 2,
    "failover": {
        "promotions": $promotions,
        "replica_bits": $replica_bits,
        "centers_bit_identical": True,
        "digest_matches_clean": True,
    },
    "double_fault": {
        "lost_sources": 1,
        "promotions": $dbl_promotions,
    },
    "resume": {
        "replayed_records": $res_replayed,
        "absorbed": 1,
        "centers_bit_identical": True,
    },
}
json.dump(doc, open(sys.argv[1], "w"), indent=2)
EOF
    "$(dirname "$0")/bench_perf.sh" validate "$LOGDIR/replica.json" \
        || { echo "FAIL: replica.json failed schema validation"; exit 1; }
fi

echo "distributed e2e: all rounds passed (suite: ${SUITE})"
