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
# `validate` accepts bench documents (ekm-bench-micro/v1 to /v4, with
# an optional `faults` section recording recovery-path overhead) and
# standalone fault-suite documents (ekm-fault-suite/v1, emitted by
# `scripts/distributed_e2e.sh faults`) and replica-failover e2e
# documents (ekm-replica-e2e/v1, emitted by
# `scripts/distributed_e2e.sh replica`). A fresh emit from this script
# is held to the stricter v4-only bar (including the reactor latency
# row); `validate` keeps accepting older v1–v3 recordings.
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
#   fresh: the document was just emitted, so the older bench schemas
#   are not acceptable — it must be v4 with both compute precisions
#   timed and the reactor row recorded.
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

assert schema in ("ekm-bench-micro/v1", "ekm-bench-micro/v2",
                  "ekm-bench-micro/v3", "ekm-bench-micro/v4"), schema
if fresh:
    # A fresh emit must be v4 with the distance kernels timed in both
    # compute precisions and the event-backend reactor latency recorded
    # (the v1–v3 paths are only for older recordings validated after
    # the fact).
    assert schema == "ekm-bench-micro/v4", schema
    computes = {k["compute"] for k in doc["kernels"]
                if k["name"].startswith("distance/assign_blocked")}
    assert computes == {"f64", "f32"}, computes
    # The dense kernels at the paper's MNIST shapes must stay in the
    # trajectory: the JL product, its Gram, FSS's top-33 eigenpairs of
    # that Gram, and the pseudo-inverse.
    names = {k["name"] for k in doc["kernels"]}
    for row in ("linalg/matmul_2000x784x392", "linalg/gram_2000x392",
                "linalg/top_eigen_392_t33", "linalg/pinv_784x392"):
        assert row in names, f"kernel row {row} missing"
    # The serve-path upload layers: the quantized coreset codec, the
    # source's whole transmit (in-place quantize, encode, frame write)
    # and the server's reassembly of its frame.
    for row in ("wire/encode_q8_10000x784", "wire/decode_q8_10000x784",
                "wire/transmit_q8_10000x784", "frame/reassemble_upload_qt"):
        assert row in names, f"codec/frame row {row} missing"
    # The server solve at the same shape: three k = 2 restarts over the
    # 10000 x 784 summary.
    assert "clustering/kmeans_k2_10000x784_r3" in names, \
        "server-solve row clustering/kmeans_k2_10000x784_r3 missing"
    # The stage cache's hit path at the sweep's shard shape: a jl,fss
    # run whose two stages both hit.
    assert "cache/hit_jl_fss_10000x196" in names, \
        "stage-cache row cache/hit_jl_fss_10000x196 missing"
    # The dataset build of the MNIST-shaped workloads: the mixture draw
    # and the paper's normalization.
    for row in ("data/mixture_10000x784", "data/normalize_10000x784"):
        assert row in names, f"dataset-build row {row} missing"
assert doc["kernels"], "no kernel timings recorded"
assert doc["assign_speedups"], "no assignment speedups recorded"
assert doc["transb_speedups"], "no matmul_transb speedups recorded"
assert doc["stage_cache"]["hits"] > 0, "stage cache never hit"
if schema != "ekm-bench-micro/v1":
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
# Event-backend reactor: at most 40 us per loopback command round, with
# the single-write wire path engaged (every counted frame saved one
# header write syscall). A v3 recording timed a sleep-poll row too; its
# epoll row is held to the same bar whenever the host granted epoll.
reactor_note = ""
if schema == "ekm-bench-micro/v4":
    rx = doc["reactor"]
    assert rx["syscalls_avoided"] > 0, rx
    assert rx["median_round_ns"] <= 40_000, \
        f"reactor median {rx['median_round_ns']} ns above 40000 ns"
    reactor_note = f", reactor {rx['median_round_ns'] / 1e3:.1f} us/round"
if schema == "ekm-bench-micro/v3":
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
