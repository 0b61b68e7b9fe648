#!/usr/bin/env bash
# Perf-trajectory entry point: runs the bench_micro harness and leaves
# the machine-readable BENCH_micro.json at the workspace root. Also the
# single source of truth for validating the perf/fault JSON schemas —
# CI and the fault-injection e2e suite both call `validate` instead of
# carrying their own copies of the checks.
#
#   scripts/bench_perf.sh               # full scale (paper-shape assignment sizes)
#   scripts/bench_perf.sh smoke         # smallest sizes (CI smoke; ~seconds)
#   scripts/bench_perf.sh validate [f]  # validate an existing JSON document
#                                       # (default BENCH_micro.json) without
#                                       # re-running the benches
#
# `validate` accepts bench documents (ekm-bench-micro/v1, /v2, or /v3,
# with an optional `faults` section recording recovery-path overhead) and
# standalone fault-suite documents (ekm-fault-suite/v1, emitted by
# `scripts/distributed_e2e.sh faults`), tree-topology e2e documents
# (ekm-tree-e2e/v1, emitted by `scripts/distributed_e2e.sh tree`), and
# replica-failover e2e documents (ekm-replica-e2e/v1, emitted by
# `scripts/distributed_e2e.sh replica`). A
# fresh emit from this script is held to the stricter v3-only bar
# (including the reactor latency section); `validate` keeps accepting
# older v1/v2 recordings.
#
# Env:
#   EKM_BENCH_JSON  override the output path (default <repo>/BENCH_micro.json)
set -euo pipefail

mode="${1:-full}"
case "$mode" in
    smoke|full|validate) ;;
    *) echo "usage: $0 [smoke|full|validate [file]]" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."

# validate_json <file> [fresh]
#   fresh: the document was just emitted, so the transitional v1/v2
#   bench schemas are not acceptable — it must be v3 with both compute
#   precisions timed and the reactor section recorded.
validate_json() {
    python3 - "$@" <<'EOF'
import json, sys

path = sys.argv[1]
fresh = len(sys.argv) > 2 and sys.argv[2] == "fresh"
doc = json.load(open(path))
schema = doc["schema"]


def check_faults(f):
    # Recovery-path overhead: a degraded run stayed within the paper's
    # documented cost-ratio bound, and a crashed driver replayed its
    # journal instead of recomputing.
    deg = f["degraded"]
    assert deg["rows_total"] > deg["rows_lost"] > 0, deg
    assert deg["cost_ratio_bound"] > 1.0, deg
    assert 0 < deg["cost_ratio"] <= deg["cost_ratio_bound"], deg
    res = f["resume"]
    assert res["replayed_records"] > 0, res
    assert res["resume_wall_ms"] >= 0, res
    assert res["centers_bit_identical"] is True, res


if schema == "ekm-fault-suite/v1":
    check_faults(doc)
    print(f"{path} ok ({schema}): degraded ratio "
          f"{doc['degraded']['cost_ratio']:.4f} <= bound "
          f"{doc['degraded']['cost_ratio_bound']:.4f}, "
          f"{doc['resume']['replayed_records']} records replayed")
    sys.exit(0)

if schema == "ekm-replica-e2e/v1":
    # Replica-aware failover: a promoted replica must leave the results
    # bit-identical to a never-failed run (the replica control plane is
    # charged to its own ledger, outside the digest), a dry ring must
    # degrade instead of hanging, and a crashed server must resume a
    # mid-failover run to the same end state without the dead owner.
    assert doc["replication"] >= 2, doc
    assert doc["sources"] > doc["replication"] - 1, doc
    f = doc["failover"]
    assert f["promotions"] >= 1, f
    assert f["replica_bits"] > 0, f
    assert f["centers_bit_identical"] is True, f
    assert f["digest_matches_clean"] is True, f
    d = doc["double_fault"]
    assert d["lost_sources"] >= 1, d
    assert d["promotions"] >= 1, d
    r = doc["resume"]
    assert r["replayed_records"] > 0, r
    assert r["absorbed"] >= 1, r
    assert r["centers_bit_identical"] is True, r
    print(f"{path} ok ({schema}): {f['promotions']} promotion(s) at r="
          f"{doc['replication']}, {f['replica_bits']} replica bits, "
          f"{r['replayed_records']} records replayed after the crash")
    sys.exit(0)

if schema == "ekm-tree-e2e/v1":
    # Hierarchical aggregation: the tree topology must be a pure
    # placement change (identical digest and classic uplink ledger)
    # while bounding the merge depth and shrinking the server's fold
    # ingest below the star run's full uplink.
    import math
    t = doc["tree"]
    s = t["sources"]
    assert s > 1, t
    assert t["digest_matches_star"] is True, t
    assert t["uplink_bits"] == doc["star"]["uplink_bits"], doc
    assert 0 < t["merge_rounds"] <= math.ceil(math.log2(s)) + 1, t
    assert t["server_fold_inputs"] >= 1, t
    assert 0 < t["server_fold_bits"] < doc["star"]["uplink_bits"], doc
    print(f"{path} ok ({schema}): {t['merge_rounds']} merge rounds over "
          f"{s} sources, fold ingest {t['server_fold_bits']} < star "
          f"uplink {doc['star']['uplink_bits']}")
    sys.exit(0)

assert schema in ("ekm-bench-micro/v1", "ekm-bench-micro/v2",
                  "ekm-bench-micro/v3"), schema
if fresh:
    # A fresh emit must be v3 with the distance kernels timed in both
    # compute precisions and the event-backend reactor latency recorded
    # (the v1/v2-compat paths are only for older recordings validated
    # after the fact).
    assert schema == "ekm-bench-micro/v3", schema
    computes = {k["compute"] for k in doc["kernels"]
                if k["name"].startswith("distance/assign_blocked")}
    assert computes == {"f64", "f32"}, computes
assert doc["kernels"], "no kernel timings recorded"
assert doc["assign_speedups"], "no assignment speedups recorded"
assert doc["transb_speedups"], "no matmul_transb speedups recorded"
assert doc["stage_cache"]["hits"] > 0, "stage cache never hit"
if schema in ("ekm-bench-micro/v2", "ekm-bench-micro/v3"):
    for k in doc["kernels"]:
        assert k["compute"] in ("f64", "f32"), k
        assert k["workers"] >= 1, k
    assert doc["f32_speedups"], "no f32 compute speedups recorded"
    for r in doc["f32_speedups"]:
        assert r["compute"] == "f32" and r["blocked_f32_ns"] > 0, r
    assert doc["tile_sweep"], "no CENTER_TILE/POINT_BLOCK sweep recorded"
    for r in doc["assign_speedups"]:
        # The parallel-scalar comparison is either present or explicitly
        # labeled as skipped on single-worker hosts — never silently absent.
        assert "scalar_par_ns" in r or r.get("scalar_par", "").startswith("skipped"), r
reactor_note = ""
if schema == "ekm-bench-micro/v3":
    # Event-backend reactor: both backends measured over real loopback
    # rounds, the zero-copy wire path engaged (every counted frame saved
    # one header write syscall), and — when the host granted an epoll
    # instance — the epoll median at least 5x under the 200 us
    # sleep-poll park floor. An epoll-less host (sandbox, non-Linux)
    # still records both rows; the sleep fallback engages for both.
    rx = doc["reactor"]
    assert rx["sleep_floor_ns"] == 200_000, rx
    assert rx["syscalls_avoided"] > 0, rx
    backends = {b["reactor"]: b for b in rx["backends"]}
    assert set(backends) == {"sleep", "epoll"}, backends
    for b in rx["backends"]:
        assert b["median_round_ns"] > 0 and b["rounds"] > 0, b
        assert b["engaged"] in ("sleep", "epoll"), b
    if rx["epoll_available"]:
        epoll = backends["epoll"]
        assert epoll["engaged"] == "epoll", epoll
        bar = rx["sleep_floor_ns"] / 5
        assert epoll["median_round_ns"] <= bar, \
            f"epoll median {epoll['median_round_ns']} ns above {bar} ns"
        reactor_note = (f", epoll {epoll['median_round_ns'] / 1e3:.1f} us/round"
                        f" (floor {rx['sleep_floor_ns'] / 1e3:.0f} us)")
    else:
        reactor_note = ", reactor: epoll unavailable (sleep fallback)"
if "faults" in doc:
    check_faults(doc["faults"])
print(f"{path} ok ({schema}): {len(doc['kernels'])} kernels"
      + reactor_note
      + (", faults section present" if "faults" in doc else ""))
EOF
}

if [[ "$mode" == "validate" ]]; then
    file="${2:-BENCH_micro.json}"
    test -s "$file" || { echo "error: $file is missing or empty" >&2; exit 1; }
    validate_json "$file"
    exit 0
fi

EKM_PERF_SCALE="$mode" cargo bench -p ekm-bench --bench bench_micro

out="${EKM_BENCH_JSON:-BENCH_micro.json}"
test -s "$out" || { echo "error: $out was not written" >&2; exit 1; }

validate_json "$out" fresh

echo "bench_perf: $out ($mode scale)"
