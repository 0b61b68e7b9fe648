//! Accuracy suite for the f32 *compute* precision (`ekm run --compute
//! f32`): the distance kernels on the sources and the server run in f32
//! while f64 stays the default and the bit-reproducibility reference.
//!
//! Unlike the wire-precision tests (`tests/quantization_pipeline.rs`,
//! which round what is *transmitted*), the compute path rounds what is
//! *computed*, so the contract is the same shape but applies to every
//! named pipeline: bounded relative center perturbation against the f64
//! twin, and a cost-ratio bound against the X* proxy. `EKM_SCALE=full`
//! grows the workload to the paper-adjacent shape.

use edge_kmeans::core::pipelines;
use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::net::wire::Compute;
use edge_kmeans::prelude::*;

const SOURCES: usize = 4;

fn scale() -> (usize, usize) {
    if std::env::var("EKM_SCALE").is_ok_and(|v| v.eq_ignore_ascii_case("full")) {
        (2400, 14)
    } else {
        (600, 10)
    }
}

fn workload(seed: u64) -> Matrix {
    let (n, side) = scale();
    let ds = MnistLike::new(n, side).with_seed(seed).generate().unwrap();
    normalize_paper(&ds.points).0
}

/// Runs a named pipeline end to end at the given compute precision.
fn run_at(name: &str, data: &Matrix, compute: Compute) -> RunOutput {
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(23)
        .with_compute(compute);
    let pipe = pipelines::named(name, params).unwrap();
    if pipe.is_distributed() {
        let parts = partition_uniform(data, SOURCES, pipe.params().seed).unwrap();
        let mut net = Network::new(SOURCES);
        pipe.run_shards(&parts, &mut net).unwrap()
    } else {
        let mut net = Network::new(1);
        pipe.run(data, &mut net).unwrap()
    }
}

/// Relative Frobenius distance between two center sets — the "center
/// perturbation" metric of the compute-precision accuracy contract.
fn relative_center_perturbation(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape());
    let mut diff = 0.0f64;
    let mut norm = 0.0f64;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        diff += (x - y) * (x - y);
        norm += x * x;
    }
    (diff / norm.max(f64::MIN_POSITIVE)).sqrt()
}

#[test]
fn f32_compute_contract_holds_on_all_named_pipelines() {
    let data = workload(41);
    let reference = evaluation::reference(&data, 2, 5, 1).unwrap();
    for name in pipelines::NAMES {
        let full = run_at(name, &data, Compute::F64);
        let single = run_at(name, &data, Compute::F32);
        // f32 only changes kernel arithmetic, never what goes on the wire
        // per point — the summary sizes must agree exactly.
        assert_eq!(
            full.summary_points, single.summary_points,
            "{name}: summary size changed under f32 compute"
        );
        let rel = relative_center_perturbation(&full.centers, &single.centers);
        assert!(rel < 1e-2, "{name}: relative center perturbation {rel}");
        let nc_full = evaluation::normalized_cost(&data, &full.centers, reference.cost).unwrap();
        let nc_single =
            evaluation::normalized_cost(&data, &single.centers, reference.cost).unwrap();
        assert!(
            nc_single < nc_full * 1.05 + 0.01,
            "{name}: f32 cost {nc_single} vs f64 {nc_full}"
        );
    }
}

#[test]
fn f64_compute_is_the_default_bit_for_bit() {
    // `Compute::F64` is not a near-equal twin of the default — it IS the
    // default: explicit and implicit spellings must agree bitwise.
    let data = workload(43);
    let (n, d) = data.shape();
    for name in ["jl-fss-jl", "bklw"] {
        let explicit = run_at(name, &data, Compute::F64);
        let params = SummaryParams::practical(2, n, d).with_seed(23);
        let pipe = pipelines::named(name, params).unwrap();
        let implicit = if pipe.is_distributed() {
            let parts = partition_uniform(&data, SOURCES, pipe.params().seed).unwrap();
            let mut net = Network::new(SOURCES);
            pipe.run_shards(&parts, &mut net).unwrap()
        } else {
            let mut net = Network::new(1);
            pipe.run(&data, &mut net).unwrap()
        };
        assert!(
            explicit.centers.approx_eq(&implicit.centers, 0.0),
            "{name}: explicit f64 diverged from the default"
        );
        assert_eq!(explicit.uplink_bits, implicit.uplink_bits, "{name}");
    }
}

#[test]
fn f32_compute_is_deterministic() {
    // Lower precision must not mean lower reproducibility: f32 runs are
    // bit-identical on rerun, like everything else in the repo.
    let data = workload(47);
    for name in ["jl-fss", "bklw-jl"] {
        let a = run_at(name, &data, Compute::F32);
        let b = run_at(name, &data, Compute::F32);
        assert!(
            a.centers.approx_eq(&b.centers, 0.0),
            "{name}: f32 rerun diverged"
        );
        assert_eq!(a.uplink_bits, b.uplink_bits, "{name}");
    }
}
