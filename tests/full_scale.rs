//! Paper-scale validation, ignored by default (minutes to hours).
//!
//! Run with:
//!
//! ```bash
//! cargo test --release --test full_scale -- --ignored --nocapture
//! ```
//!
//! These reproduce the paper's operating point (MNIST-scale shapes) where
//! the scale coupling documented in EXPERIMENTS.md disappears and the
//! normalized costs of the JL pipelines approach the paper's 1.0x values.

use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::prelude::*;

#[test]
#[ignore = "paper-scale run (tens of minutes); invoke with --ignored"]
fn paper_scale_mnist_single_source() {
    let ds = MnistLike::new(60_000, 28).with_seed(1).generate().unwrap();
    let (data, _) = normalize_paper(&ds.points);
    let (n, d) = data.shape();
    assert_eq!((n, d), (60_000, 784));

    let reference = evaluation::reference(&data, 2, 3, 1).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(2);
    println!(
        "paper scale params: coreset {}, pca {}, jl {} -> {}",
        params.coreset_size, params.pca_dim, params.jl_dim_before, params.jl_dim_after
    );

    let mut net = Network::new(1);
    for pipe in [
        JlFss::new(params.clone()).into_stage_pipeline(),
        JlFssJl::new(params.clone()).into_stage_pipeline(),
    ] {
        let out = pipe.run(&data, &mut net).unwrap();
        let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
        let comm = out.normalized_comm(n, d);
        println!(
            "{}: cost {nc:.4}, comm {comm:.3e}, source {:.2}s",
            pipe.name(),
            out.source_seconds
        );
        // At paper scale the lift loss shrinks: Fig 1(a)'s regime.
        assert!(nc < 1.15, "{}: normalized cost {nc}", pipe.name());
        // Table 3's regime: well under 1% of the raw bits.
        assert!(comm < 0.02, "{}: comm {comm}", pipe.name());
    }
}

#[test]
#[ignore = "paper-scale distributed run; invoke with --ignored"]
fn paper_scale_distributed() {
    let ds = MnistLike::new(60_000, 28).with_seed(3).generate().unwrap();
    let (data, _) = normalize_paper(&ds.points);
    let (n, d) = data.shape();
    let shards = edge_kmeans::data::partition::partition_uniform(&data, 10, 4).unwrap();
    let reference = evaluation::reference(&data, 2, 3, 2).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(5);

    let mut net = Network::new(10);
    let out = JlBklw::new(params).run_shards(&shards, &mut net).unwrap();
    let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
    let comm = out.normalized_comm(n, d);
    println!("JL+BKLW @ paper scale: cost {nc:.4}, comm {comm:.3e}");
    assert!(nc < 1.15, "normalized cost {nc}");
    assert!(comm < 0.05, "comm {comm}");
}
