//! Why the order of DR and CR matters (paper §4.3, Table 2).
//!
//! Run with `cargo run --release --example order_matters`.
//!
//! The paper's central structural finding: applying JL before FSS gives
//! near-linear device complexity but a log(n) communication term; applying
//! it after gives constant communication but super-linear complexity; and
//! JL+FSS+JL combines the strengths of both. This example measures all
//! three on a tall (large n) and a wide (large d) dataset and shows the
//! predicted crossover.

use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::prelude::*;

fn run_all(dataset: &Matrix, label: &str) -> Result<(), Box<dyn std::error::Error>> {
    let (n, d) = dataset.shape();
    println!("=== {label}: n = {n}, d = {d} ===");
    let reference = evaluation::reference(dataset, 2, 4, 1)?;
    let params = SummaryParams::practical(2, n, d).with_seed(23);
    println!(
        "{:<12} {:>11} {:>13} {:>12}",
        "pipeline", "norm. cost", "norm. comm", "source (s)"
    );
    for pipe in [
        JlFss::new(params.clone()).into_stage_pipeline(),
        FssJl::new(params.clone()).into_stage_pipeline(),
        JlFssJl::new(params.clone()).into_stage_pipeline(),
    ] {
        let mut net = Network::new(1);
        let out = pipe.run(dataset, &mut net)?;
        let nc = evaluation::normalized_cost(dataset, &out.centers, reference.cost)?;
        println!(
            "{:<12} {:>11.4} {:>13.3e} {:>12.4}",
            pipe.name(),
            nc,
            out.normalized_comm(n, d),
            out.source_seconds
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Tall: many points, moderate dimension — FSS+JL pays its
    // O(nd·min(n,d)) complexity through the full-dimensional SVD.
    let tall_raw = GaussianMixture::new(12_000, 64, 2)
        .with_separation(4.0)
        .with_seed(1)
        .generate()?
        .points;
    run_all(&normalize_paper(&tall_raw).0, "tall dataset")?;

    // Wide: high dimension — JL+FSS's log(n)-sized projection pays off in
    // both time and bits (the d >> log n regime of Table 2).
    let wide_raw = GaussianMixture::new(2_000, 1_024, 2)
        .with_separation(4.0)
        .with_seed(2)
        .generate()?
        .points;
    run_all(&normalize_paper(&wide_raw).0, "wide dataset")?;

    println!("JL+FSS+JL keeps the low bits of FSS+JL and the low device time of");
    println!("JL+FSS on both shapes — Theorem 4.4's \"best of both\" in practice.");
    Ok(())
}
