//! Quickstart: one edge device offloads k-means to an edge server.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! Generates a normalized synthetic workload, runs the paper's
//! Algorithm 3 (JL+FSS+JL) against the no-reduction and FSS baselines,
//! and prints the three metrics the paper evaluates: normalized k-means
//! cost, normalized communication cost, and data-source running time.

use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, d, k) = (4_000, 128, 2);

    // A data source at the network edge collects n points in d dimensions.
    let raw = GaussianMixture::new(n, d, k)
        .with_separation(4.0)
        .with_cluster_std(1.0)
        .with_seed(7)
        .generate()?
        .points;
    let (dataset, _) = normalize_paper(&raw);
    println!("dataset: {n} points x {d} dims, k = {k}");

    // Reference solution computed from the full data (the X* proxy).
    let reference = evaluation::reference(&dataset, k, 5, 1)?;
    println!("reference k-means cost: {:.4}\n", reference.cost);

    let params = SummaryParams::practical(k, n, d).with_seed(42);
    println!(
        "summary parameters: coreset {} points, PCA dim {}, JL dims {} -> {}\n",
        params.coreset_size, params.pca_dim, params.jl_dim_before, params.jl_dim_after
    );

    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10}",
        "pipeline", "norm. cost", "norm. comm", "source (s)", "summary"
    );
    let pipelines = [
        NoReduction::new(params.clone()).into_stage_pipeline(),
        Fss::new(params.clone()).into_stage_pipeline(),
        JlFss::new(params.clone()).into_stage_pipeline(),
        FssJl::new(params.clone()).into_stage_pipeline(),
        JlFssJl::new(params.clone()).into_stage_pipeline(),
    ];
    let mut net = Network::new(1);
    for pipe in pipelines {
        let out = pipe.run(&dataset, &mut net)?;
        let nc = evaluation::normalized_cost(&dataset, &out.centers, reference.cost)?;
        println!(
            "{:<12} {:>12.4} {:>12.2e} {:>12.4} {:>10}",
            pipe.name(),
            nc,
            out.normalized_comm(n, d),
            out.source_seconds,
            out.summary_points,
        );
    }

    println!("\nAll pipelines solve the same problem; the JL-based ones do it in a");
    println!("fraction of the bits (compare the `norm. comm` column with NR = 1).");
    Ok(())
}
