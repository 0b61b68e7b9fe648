//! The Monte-Carlo trial runner for every pipeline series.

use ekm_core::evaluation::{normalized_cost, reference, Reference};
use ekm_core::params::SummaryParams;
use ekm_core::StagePipeline;
use ekm_linalg::Matrix;
use ekm_net::Network;

/// Metrics of one pipeline trial — the three quantities §7.1 evaluates.
#[derive(Debug, Clone, Copy)]
pub struct TrialMetrics {
    /// `cost(P, X)/cost(P, X*)`.
    pub normalized_cost: f64,
    /// Transmitted bits over raw-dataset bits.
    pub normalized_comm: f64,
    /// Data-source computation seconds.
    pub source_seconds: f64,
    /// Server computation seconds.
    pub server_seconds: f64,
}

/// Aggregate of a Monte-Carlo series.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// Pipeline display name.
    pub name: String,
    /// Per-trial metrics (one per seed).
    pub trials: Vec<TrialMetrics>,
}

impl MonteCarlo {
    /// Mean of a metric selected by `f`.
    pub fn mean<F: Fn(&TrialMetrics) -> f64>(&self, f: F) -> f64 {
        if self.trials.is_empty() {
            return f64::NAN;
        }
        self.trials.iter().map(&f).sum::<f64>() / self.trials.len() as f64
    }

    /// The sorted values of a metric (for CDF output).
    pub fn sorted<F: Fn(&TrialMetrics) -> f64>(&self, f: F) -> Vec<f64> {
        let mut v: Vec<f64> = self.trials.iter().map(&f).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
        v
    }
}

/// Computes the experiment's reference solution (`X*` proxy).
pub fn make_reference(data: &Matrix, k: usize) -> Reference {
    reference(data, k, 5, 0xEC0).expect("reference solve")
}

/// Builds one trial's pipeline from its seeded parameters.
pub type Factory = fn(SummaryParams) -> StagePipeline;

/// Runs `mc` Monte-Carlo trials of the pipeline `factory` builds, over
/// `shards` (one per data source; a single-source series passes the
/// whole dataset as its one shard), scoring each against `data`.
///
/// Trial `r` runs at seed `0x5EED + 7919·r`, or `0xD157 + 104729·r` for
/// a multi-source pipeline.
pub fn run_mc(
    data: &Matrix,
    shards: &[Matrix],
    reference: &Reference,
    mc: usize,
    base_params: &SummaryParams,
    factory: Factory,
) -> MonteCarlo {
    let (n, d) = data.shape();
    let probe = factory(base_params.clone());
    let (seed, stride) = if probe.is_distributed() {
        (0xD157, 104729)
    } else {
        (0x5EED, 7919)
    };
    let trials = (0..mc as u64)
        .map(|run| {
            let pipe = factory(base_params.clone().with_seed(seed + stride * run));
            let mut net = Network::new(shards.len());
            let out = pipe.run_shards(shards, &mut net).expect("pipeline run");
            TrialMetrics {
                normalized_cost: normalized_cost(data, &out.centers, reference.cost)
                    .expect("cost evaluation"),
                normalized_comm: out.normalized_comm(n, d),
                source_seconds: out.source_seconds,
                server_seconds: out.server_seconds,
            }
        })
        .collect();
    MonteCarlo {
        name: probe.name(),
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_core::pipelines::{Bklw, JlFss};

    #[test]
    fn mc_collects_single_and_multi_source_trials() {
        let raw = ekm_data::synth::GaussianMixture::new(300, 20, 2)
            .with_separation(4.0)
            .with_seed(1)
            .generate()
            .unwrap()
            .points;
        let data = ekm_data::normalize::normalize_paper(&raw).0;
        let reference = make_reference(&data, 2);
        let params = SummaryParams::practical(2, 300, 20);
        let shards = ekm_data::partition::partition_uniform(&data, 3, 7).unwrap();
        for (shards, factory, name) in [
            (
                std::slice::from_ref(&data),
                (|p| JlFss::new(p).into_stage_pipeline()) as Factory,
                "JL+FSS",
            ),
            (&shards[..], |p| Bklw::new(p).into_stage_pipeline(), "BKLW"),
        ] {
            let mc = run_mc(&data, shards, &reference, 3, &params, factory);
            assert_eq!(mc.trials.len(), 3);
            assert_eq!(mc.name, name);
            assert!(mc.mean(|t| t.normalized_cost) > 0.5, "{name}");
            let sorted = mc.sorted(|t| t.normalized_cost);
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
