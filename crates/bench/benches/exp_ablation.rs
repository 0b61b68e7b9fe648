//! Ablation studies for the design choices the paper leaves open.
//!
//! 1. **JL family** — Theorem 3.1 admits any sub-Gaussian family; the
//!    paper cites dense Gaussian and Achlioptas sparse-sign matrices
//!    (\[32\]–\[34\]). Same target dimension, same pipeline: does the
//!    family change quality, bits, or time?
//! 2. **Coreset weight mode** — the plain unbiased sensitivity weights
//!    versus the deterministic-total variant of \[4\] (paper footnote 8)
//!    that FSS/disSS rely on.
//! 3. **Second projection dimension** — Algorithm 3's `d''` trades
//!    communication against the center-lift quality; sweep it.
//! 4. **JL placement around BKLW** — §5.2 argues that applying JL *after*
//!    BKLW keeps the communication order of BKLW while adding error, so
//!    only the JL-*before* ordering (Algorithm 4) is worthwhile. Verified
//!    head-to-head.

use ekm_bench::config::{monte_carlo_runs, Scale};
use ekm_bench::datasets::mnist_workload;
use ekm_bench::report;
use ekm_bench::runner::{make_reference, run_mc, Factory, MonteCarlo};
use ekm_core::distributed::{Bklw, BklwJl, JlBklw};
use ekm_core::params::SummaryParams;
use ekm_core::pipelines::JlFssJl;
use ekm_coreset::sensitivity::WeightMode;
use ekm_coreset::SensitivitySampler;
use ekm_linalg::Matrix;
use ekm_sketch::JlKind;

fn jl_kind_ablation(data: &Matrix, mc: usize) {
    let (n, d) = data.shape();
    let single_source = std::slice::from_ref(data);
    let reference = make_reference(data, 2);
    let base = SummaryParams::practical(2, n, d);
    let mut results: Vec<MonteCarlo> = Vec::new();
    for (label, kind) in [
        ("gaussian", JlKind::Gaussian),
        ("achlioptas", JlKind::Achlioptas),
    ] {
        let params = base.clone().with_jl_kind(kind);
        let mut mc_run = run_mc(data, single_source, &reference, mc, &params, |p| {
            JlFssJl::new(p).into_stage_pipeline()
        });
        mc_run.name = format!("JL+FSS+JL[{label}]");
        results.push(mc_run);
    }
    let refs: Vec<&MonteCarlo> = results.iter().collect();
    report::print_mean_table(
        "ablation",
        "jl_kind",
        "Ablation 1: JL family (same dimensions, same pipeline)",
        &refs,
    );
}

fn weight_mode_ablation(data: &Matrix) {
    println!("\nAblation 2: sensitivity-sampling weight mode (coreset cost distortion)");
    println!("{:<22} {:>14} {:>14}", "mode", "max distortion", "Σw - n");
    let n = data.rows() as f64;
    for (label, mode) in [
        ("plain", WeightMode::Plain),
        ("deterministic-total", WeightMode::DeterministicTotal),
    ] {
        let mut worst = 0.0f64;
        let mut weight_gap = 0.0f64;
        for seed in 0..6u64 {
            let coreset = SensitivitySampler::new(2, 200)
                .with_seed(seed)
                .with_weight_mode(mode)
                .sample(data, None)
                .expect("sample");
            weight_gap = weight_gap.max((coreset.total_weight() - n).abs());
            for cs in 0..3u64 {
                let x = ekm_linalg::random::gaussian_matrix(100 + cs, 2, data.cols(), 0.3);
                let truth = ekm_clustering::cost::cost(data, &x).expect("cost");
                let approx = coreset.cost(&x).expect("coreset cost");
                worst = worst.max((approx / truth - 1.0).abs());
            }
        }
        println!("{label:<22} {worst:>14.4} {weight_gap:>14.2e}");
    }
    println!("(deterministic-total trades a little bias for exact mass preservation)");
}

fn second_projection_ablation(data: &Matrix, mc: usize) {
    let (n, d) = data.shape();
    let single_source = std::slice::from_ref(data);
    let reference = make_reference(data, 2);
    let base = SummaryParams::practical(2, n, d);
    let dims = [8usize, 16, 32, 64, 128];
    let columns = vec!["norm_cost".to_string(), "norm_comm".to_string()];
    let mut rows = Vec::new();
    for &d2 in &dims {
        let params = base.clone().with_jl_dim_after(d2);
        let mc_run = run_mc(data, single_source, &reference, mc, &params, |p| {
            JlFssJl::new(p).into_stage_pipeline()
        });
        rows.push((
            d2 as f64,
            vec![
                mc_run.mean(|t| t.normalized_cost),
                mc_run.mean(|t| t.normalized_comm),
            ],
        ));
    }
    report::print_series_table(
        "ablation",
        "second_projection",
        "Ablation 3: Algorithm 3's post-CR dimension d'' (cost/comm tradeoff)",
        "d''",
        &columns,
        &rows,
    );
}

fn jl_placement_ablation(data: &Matrix, mc: usize) {
    use ekm_data::partition::partition_uniform;

    let (n, d) = data.shape();
    let shards = partition_uniform(data, 10, 0xAB1).expect("partition");
    let reference = make_reference(data, 2);
    let base = SummaryParams::practical(2, n, d);
    let factories: [Factory; 3] = [
        |p| Bklw::new(p).into_stage_pipeline(),
        |p| JlBklw::new(p).into_stage_pipeline(),
        |p| BklwJl::new(p).into_stage_pipeline(),
    ];
    let results: Vec<MonteCarlo> = factories
        .into_iter()
        .map(|f| run_mc(data, &shards, &reference, mc, &base, f))
        .collect();
    let refs: Vec<&MonteCarlo> = results.iter().collect();
    report::print_mean_table(
        "ablation",
        "jl_placement",
        "Ablation 4: JL placement around BKLW (§5.2 — only JL-before helps)",
        &refs,
    );
}

fn main() {
    report::banner("Ablations: JL family, weight mode, post-CR dimension, JL placement");
    let workload = mnist_workload(Scale::from_env(), 81);
    let mc = monte_carlo_runs(3);
    jl_kind_ablation(&workload.data, mc);
    weight_mode_ablation(&workload.data);
    second_projection_ablation(&workload.data, mc);
    jl_placement_ablation(&workload.data, mc);
    println!("\nExpected: the JL family is immaterial (any sub-Gaussian family");
    println!("satisfies Theorem 3.1); deterministic-total keeps Σw = n exactly;");
    println!("growing d'' buys cost at a linear price in bits; JL after BKLW");
    println!("keeps BKLW's communication order while adding error (§5.2).");
}
