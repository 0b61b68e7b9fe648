//! Experiment: **Figure 1 + Table 3** — single-source joint DR and CR.
//!
//! Reproduces, per dataset (MNIST-like, NeurIPS-like):
//! * Figure 1: CDFs over Monte-Carlo runs of the normalized k-means cost
//!   and of the data-source running time for FSS, JL+FSS (Alg 1), FSS+JL
//!   (Alg 2), and JL+FSS+JL (Alg 3);
//! * Table 3: mean normalized communication cost, with NR = 1 by
//!   definition.
//!
//! `EKM_SCALE=full` runs the paper's dataset shapes; the default reduced
//! scale preserves the comparative shapes (see EXPERIMENTS.md).

use ekm_bench::config::{monte_carlo_runs, Scale};
use ekm_bench::datasets::{mnist_workload, neurips_workload, Workload};
use ekm_bench::report;
use ekm_bench::runner::{make_reference, run_mc, Factory, MonteCarlo};
use ekm_core::params::SummaryParams;
use ekm_core::pipelines::{Fss, FssJl, JlFss, JlFssJl};

fn run_dataset(workload: &Workload, mc: usize) -> Vec<MonteCarlo> {
    let data = &workload.data;
    let (n, d) = data.shape();
    println!(
        "\n--- dataset {} ({n} x {d}), k = 2, {mc} Monte-Carlo runs ---",
        workload.name
    );
    let reference = make_reference(data, 2);
    println!("reference k-means cost: {:.4}", reference.cost);
    let params = SummaryParams::practical(2, n, d);

    let factories: [Factory; 4] = [
        |p| Fss::new(p).into_stage_pipeline(),
        |p| JlFss::new(p).into_stage_pipeline(),
        |p| FssJl::new(p).into_stage_pipeline(),
        |p| JlFssJl::new(p).into_stage_pipeline(),
    ];
    factories
        .into_iter()
        .map(|f| run_mc(data, std::slice::from_ref(data), &reference, mc, &params, f))
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let mc = monte_carlo_runs(10);
    report::banner("Figure 1 + Table 3: single-source joint DR and CR");

    for (tag, workload) in [
        ("mnist", mnist_workload(scale, 41)),
        ("neurips", neurips_workload(scale, 42)),
    ] {
        let results = run_dataset(&workload, mc);
        let refs: Vec<&MonteCarlo> = results.iter().collect();
        report::print_cdfs(
            "fig1_table3",
            &format!("fig1_{tag}_cost"),
            "normalized k-means cost (Figure 1, left panels)",
            &refs,
            |t| t.normalized_cost,
        );
        report::print_cdfs(
            "fig1_table3",
            &format!("fig1_{tag}_time"),
            "data-source running time in seconds (Figure 1, right panels)",
            &refs,
            |t| t.source_seconds,
        );
        report::print_mean_table(
            "fig1_table3",
            &format!("table3_{tag}"),
            &format!(
                "Table 3 ({}): mean metrics (NR normalized comm = 1 by definition)",
                workload.name
            ),
            &refs,
        );
    }
    println!("\nExpected shapes (paper): all four algorithms cluster near cost 1;");
    println!("JL-augmented methods transmit fewer bits than FSS; JL-first methods");
    println!("are fastest at the data source.");
}
