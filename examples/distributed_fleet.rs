//! A fleet of edge devices jointly computes k-means (paper §5).
//!
//! Run with `cargo run --release --example distributed_fleet`.
//!
//! Ten data sources each hold a shard of an MNIST-like image dataset.
//! They cooperate with the edge server through the disPCA + disSS
//! protocols — either directly (BKLW) or after a shared-seed JL projection
//! (Algorithm 4, JL+BKLW) — and the example prints the per-source and
//! total traffic the run's ledger measured, bit by bit.

use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, side, k, m) = (4_000, 16, 2, 10);
    let d = side * side;

    let raw = MnistLike::new(n, side).with_seed(3).generate()?.points;
    let (dataset, _) = normalize_paper(&raw);
    let shards = partition_uniform(&dataset, m, 11)?;
    println!(
        "fleet: {m} devices, {n} images x {d} pixels total ({} per device)\n",
        shards[0].rows()
    );

    let reference = evaluation::reference(&dataset, k, 5, 1)?;
    let params = SummaryParams::practical(k, n, d).with_seed(9);

    for pipeline in [
        Box::new(Bklw::new(params.clone())) as Box<dyn DistributedPipeline>,
        Box::new(JlBklw::new(params.clone())),
    ] {
        let mut net = Network::new(m);
        let out = pipeline.run(&shards, &mut net)?;
        let nc = evaluation::normalized_cost(&dataset, &out.centers, reference.cost)?;
        println!("=== {} ===", pipeline.name());
        println!("  normalized k-means cost : {nc:.4}");
        println!(
            "  total uplink             : {} bits ({:.2e} normalized)",
            out.uplink_bits,
            out.normalized_comm(n, d)
        );
        println!("  total downlink           : {} bits", out.downlink_bits);
        println!("  union coreset size       : {} points", out.summary_points);
        println!("  per-source uplink bits   :");
        for i in 0..m {
            println!("    device {i:>2}: {:>10} bits", net.stats().uplink_bits(i));
        }
        println!("  uplink by protocol phase :");
        for (kind, bits) in net.stats().uplink_bits_by_kind() {
            println!(
                "    {kind:<18} {bits:>10} bits ({:.1}%)",
                100.0 * *bits as f64 / out.uplink_bits as f64
            );
        }
        println!();
    }

    println!("JL+BKLW shrinks every device's SVD summary from O(k d / eps^2) to");
    println!("O(k log n / eps^4) scalars — the basis now lives in the projected space.");
    Ok(())
}
