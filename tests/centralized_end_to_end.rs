//! End-to-end integration tests for the single-source pipelines on the
//! paper-regime workloads (§7.2, Figure 1 / Table 3 conditions, scaled).

use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::neurips_like::NeurIpsLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::prelude::*;

fn mnist_like_small(n: usize, side: usize, seed: u64) -> Matrix {
    let ds = MnistLike::new(n, side).with_seed(seed).generate().unwrap();
    normalize_paper(&ds.points).0
}

fn neurips_like_small(n: usize, d: usize, seed: u64) -> Matrix {
    let ds = NeurIpsLike::new(n, d).with_seed(seed).generate().unwrap();
    normalize_paper(&ds.points).0
}

fn pipelines(p: &SummaryParams) -> Vec<StagePipeline> {
    vec![
        Fss::new(p.clone()).into_stage_pipeline(),
        JlFss::new(p.clone()).into_stage_pipeline(),
        FssJl::new(p.clone()).into_stage_pipeline(),
        JlFssJl::new(p.clone()).into_stage_pipeline(),
    ]
}

#[test]
fn figure1_regime_mnist_like_costs_near_one() {
    let data = mnist_like_small(1500, 14, 1);
    let (n, d) = data.shape();
    let reference = evaluation::reference(&data, 2, 5, 1).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(5);
    for pipe in pipelines(&params) {
        let mut net = Network::new(1);
        let out = pipe.run(&data, &mut net).unwrap();
        let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
        // Paper Fig. 1(a) reports ≤ 1.09 at full MNIST scale. At reduced
        // scale the post-CR JL dimension is a much smaller fraction of d
        // (to keep the paper's communication ratios), which inflates the
        // Π⁺ center-lift loss to ≈ (1 − d''/d)·(k1/k2 − 1); see
        // EXPERIMENTS.md "Scale coupling". 1.35 bounds that regime.
        assert!(
            nc < 1.35,
            "{}: normalized cost {nc} too far from 1",
            pipe.name()
        );
        assert!(
            nc > 0.95,
            "{}: normalized cost {nc} suspiciously low",
            pipe.name()
        );
    }
}

#[test]
fn figure1_regime_neurips_like_costs_near_one() {
    let data = neurips_like_small(1200, 400, 2);
    let (n, d) = data.shape();
    let reference = evaluation::reference(&data, 2, 5, 2).unwrap();
    let params = SummaryParams::practical(2, n, d).with_seed(6);
    for pipe in pipelines(&params) {
        let mut net = Network::new(1);
        let out = pipe.run(&data, &mut net).unwrap();
        let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
        // Paper Fig. 1(b) reaches 1.25 on the real NeurIPS data; the
        // reduced-scale lift loss adds a bit more (see above).
        assert!(nc < 1.4, "{}: normalized cost {nc}", pipe.name());
    }
}

#[test]
fn table3_shape_all_reductions_below_percent_of_raw() {
    // Table 3: every summary method transmits < 1% of the raw dataset at
    // paper scale; at our reduced scale the coreset is a larger fraction,
    // but must still be a drastic (>90%) reduction and the JL methods must
    // beat plain FSS.
    let data = mnist_like_small(2500, 14, 3);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d).with_seed(7);
    let mut comm = std::collections::HashMap::new();
    for pipe in pipelines(&params) {
        let mut net = Network::new(1);
        let out = pipe.run(&data, &mut net).unwrap();
        comm.insert(pipe.name(), out.normalized_comm(n, d));
    }
    for (name, c) in &comm {
        assert!(
            *c < 0.1,
            "{name}: normalized comm {c} not a drastic reduction"
        );
    }
    assert!(comm["JL+FSS"] < comm["FSS"], "JL+FSS must beat FSS on comm");
    assert!(comm["FSS+JL"] < comm["FSS"], "FSS+JL must beat FSS on comm");
    assert!(
        comm["JL+FSS+JL"] <= comm["JL+FSS"] + 1e-12,
        "JL+FSS+JL must not exceed JL+FSS on comm"
    );
}

#[test]
fn running_time_ordering_on_wide_data() {
    // Table 2 complexity column: for d large, the JL-first pipelines are
    // much cheaper at the source than the exact-SVD-first ones. Compared
    // on deterministic operation counts (`source_ops`), not wall-clock —
    // wall-clock 2× ratios flake under parallel test load.
    let data = neurips_like_small(800, 600, 4);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d).with_seed(8);
    let mut net = Network::new(1);
    let jlfss = JlFss::new(params.clone()).run(&data, &mut net).unwrap();
    let fssjl = FssJl::new(params.clone()).run(&data, &mut net).unwrap();
    let jlfssjl = JlFssJl::new(params).run(&data, &mut net).unwrap();
    assert!(
        jlfss.source_ops * 2 < fssjl.source_ops,
        "JL+FSS {} vs FSS+JL {} ops",
        jlfss.source_ops,
        fssjl.source_ops
    );
    assert!(
        jlfssjl.source_ops * 2 < fssjl.source_ops,
        "JL+FSS+JL {} vs FSS+JL {} ops",
        jlfssjl.source_ops,
        fssjl.source_ops
    );
}

#[test]
fn centers_live_in_original_space_and_are_finite() {
    let data = mnist_like_small(800, 12, 5);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d).with_seed(9);
    for pipe in pipelines(&params) {
        let mut net = Network::new(1);
        let out = pipe.run(&data, &mut net).unwrap();
        assert_eq!(out.centers.shape(), (2, d), "{}", pipe.name());
        assert!(
            out.centers.as_slice().iter().all(|v| v.is_finite()),
            "{}: non-finite center coordinates",
            pipe.name()
        );
    }
}

#[test]
fn different_seeds_give_different_summaries_same_quality() {
    let data = mnist_like_small(1000, 12, 6);
    let (n, d) = data.shape();
    let reference = evaluation::reference(&data, 2, 5, 3).unwrap();
    let mut costs = Vec::new();
    for seed in [10u64, 20, 30] {
        let params = SummaryParams::practical(2, n, d).with_seed(seed);
        let mut net = Network::new(1);
        let out = JlFssJl::new(params).run(&data, &mut net).unwrap();
        costs.push(evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap());
    }
    // Monte-Carlo spread exists but every run is good.
    for c in &costs {
        assert!(*c < 1.4, "cost {c}");
    }
}

#[test]
fn no_reduction_baseline_matches_reference() {
    let data = mnist_like_small(600, 10, 7);
    let (n, d) = data.shape();
    let params = SummaryParams::practical(2, n, d)
        .with_seed(1)
        .with_kmeans_restarts(5);
    let mut net = Network::new(1);
    let out = NoReduction::new(params).run(&data, &mut net).unwrap();
    let reference = evaluation::reference(&data, 2, 5, 1).unwrap();
    let nc = evaluation::normalized_cost(&data, &out.centers, reference.cost).unwrap();
    assert!((nc - 1.0).abs() < 0.05, "NR normalized cost {nc}");
    // And NR's comm is the raw dataset (within header overhead).
    let norm_comm = out.normalized_comm(n, d);
    assert!((1.0..1.01).contains(&norm_comm), "NR comm {norm_comm}");
}
