//! Experiment: **Figure 2 + Table 4** — multi-source joint DR and CR.
//!
//! Ten data sources hold random shards of the dataset (paper §7.1).
//! Reproduces, per dataset:
//! * Figure 2: CDFs of normalized k-means cost and source running time
//!   for BKLW and JL+BKLW (Algorithm 4);
//! * Table 4: mean normalized communication cost.

use ekm_bench::config::{monte_carlo_runs, Scale, DISTRIBUTED_SOURCES};
use ekm_bench::datasets::{mnist_workload, neurips_workload, Workload};
use ekm_bench::report;
use ekm_bench::runner::{make_reference, run_mc, Factory, MonteCarlo};
use ekm_core::distributed::{Bklw, JlBklw};
use ekm_core::params::SummaryParams;
use ekm_data::partition::partition_uniform;

fn run_dataset(workload: &Workload, mc: usize) -> Vec<MonteCarlo> {
    let data = &workload.data;
    let (n, d) = data.shape();
    println!(
        "\n--- dataset {} ({n} x {d}), k = 2, m = {DISTRIBUTED_SOURCES}, {mc} Monte-Carlo runs ---",
        workload.name
    );
    let shards = partition_uniform(data, DISTRIBUTED_SOURCES, 0xA11).expect("partition");
    let reference = make_reference(data, 2);
    println!("reference k-means cost: {:.4}", reference.cost);
    let params = SummaryParams::practical(2, n, d);

    let factories: [Factory; 2] = [
        |p| Bklw::new(p).into_stage_pipeline(),
        |p| JlBklw::new(p).into_stage_pipeline(),
    ];
    factories
        .into_iter()
        .map(|f| run_mc(data, &shards, &reference, mc, &params, f))
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let mc = monte_carlo_runs(10);
    report::banner("Figure 2 + Table 4: multi-source joint DR and CR");

    for (tag, workload) in [
        ("mnist", mnist_workload(scale, 51)),
        ("neurips", neurips_workload(scale, 52)),
    ] {
        let results = run_dataset(&workload, mc);
        let refs: Vec<&MonteCarlo> = results.iter().collect();
        report::print_cdfs(
            "fig2_table4",
            &format!("fig2_{tag}_cost"),
            "normalized k-means cost (Figure 2, left panels)",
            &refs,
            |t| t.normalized_cost,
        );
        report::print_cdfs(
            "fig2_table4",
            &format!("fig2_{tag}_time"),
            "max per-source running time in seconds (Figure 2, right panels)",
            &refs,
            |t| t.source_seconds,
        );
        report::print_mean_table(
            "fig2_table4",
            &format!("table4_{tag}"),
            &format!(
                "Table 4 ({}): mean metrics (NR normalized comm = 1 by definition)",
                workload.name
            ),
            &refs,
        );
    }
    println!("\nExpected shapes (paper): JL+BKLW achieves a similar cost to BKLW at");
    println!("a lower communication cost and lower per-source running time.");
}
