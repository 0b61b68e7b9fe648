//! The stage plan and its in-process entry points.
//!
//! A [`StagePipeline`] is an ordered [`Stage`] list plus the shared
//! [`SummaryParams`]. The eight paper pipelines are rows of one table of
//! stage lists ([`crate::pipelines::named`]); arbitrary compositions —
//! including ones the paper never evaluated — are just other lists:
//!
//! ```
//! use ekm_core::engine::StagePipeline;
//! use ekm_core::params::SummaryParams;
//! use ekm_net::Network;
//! use ekm_linalg::Matrix;
//!
//! let data = Matrix::from_fn(400, 24, |i, j| {
//!     ((i % 2) as f64) * 4.0 + ((i * 31 + j * 17) % 11) as f64 * 0.05
//! });
//! let params = SummaryParams::practical(2, 400, 24).with_seed(7);
//! // A composition the paper never ran: JL, then FSS, then quantize.
//! let pipe = StagePipeline::from_names("jl,fss,qt", params).unwrap();
//! let mut net = Network::new(1);
//! let out = pipe.run(&data, &mut net).unwrap();
//! assert_eq!(out.centers.shape(), (2, 24));
//! assert!(out.uplink_bits > 0);
//! ```
//!
//! Every run takes the same path: the server-side driver
//! ([`crate::driver`]) executes the plan against one
//! [`SourceExecutor`] per data source ([`crate::executor`]), each
//! holding only its own shard. The entry points here wire them up in
//! process — executor threads over the channel backend
//! ([`ekm_net::protocol::channel_pairs`]), the driver on the calling
//! thread — and a single data source is simply a run with one executor.
//! `ekm serve` and `ekm source` run the same driver and executors
//! across processes over the event-driven TCP backend
//! ([`ekm_net::event`]).

use crate::executor::{SourceExecutor, SourceRunReport};
use crate::params::{replica_origins, SummaryParams};
use crate::stage::{display_name, Stage};
use crate::{run_driver, CoreError, Result, RunOutput, StageCache};
use ekm_linalg::Matrix;
use ekm_net::protocol::{channel_pairs, CommandTransport};
use ekm_net::{NetError, Network, NetworkStats, RoutingTransport};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// A summary pipeline as an ordered stage list: the plan the driver and
/// the source executors share, plus a display name.
#[derive(Debug, Clone)]
pub struct StagePipeline {
    stages: Vec<Stage>,
    params: SummaryParams,
    name: Option<String>,
}

impl StagePipeline {
    /// Builds a pipeline from an explicit stage list.
    pub fn new(stages: Vec<Stage>, params: SummaryParams) -> Self {
        StagePipeline {
            stages,
            params,
            name: None,
        }
    }

    /// Builds a pipeline from a comma-separated stage list
    /// (`"jl,fss,qt"`).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStageName`] for unknown tokens.
    pub fn from_names(list: &str, params: SummaryParams) -> Result<Self> {
        Ok(StagePipeline::new(Stage::parse_list(list)?, params))
    }

    /// Overrides the display name (the paper pipelines use their
    /// legend names, e.g. "BKLW" instead of "disPCA+disSS").
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// The stage list.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The shared parameters.
    pub fn params(&self) -> &SummaryParams {
        &self.params
    }

    /// `true` if any stage runs an interactive multi-source protocol.
    pub fn is_distributed(&self) -> bool {
        self.stages.iter().any(Stage::is_distributed)
    }

    /// Display name: the override if set, else the stage tokens joined
    /// paper-legend style (`"JL+FSS+QT"`, empty list → `"NR"`).
    pub fn name(&self) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => display_name(&self.stages),
        }
    }

    /// Runs the pipeline on a single data source holding `data`, and
    /// adds the run's traffic to source 0 of `net`.
    ///
    /// # Errors
    ///
    /// Propagates configuration, numeric, and protocol failures.
    pub fn run(&self, data: &Matrix, net: &mut Network) -> Result<RunOutput> {
        self.run_lent(vec![Cow::Borrowed(data)], net, None)
    }

    /// Runs the pipeline over per-source shards (one per data source;
    /// all shards share a dimensionality), and adds the run's traffic
    /// to the first `shards.len()` sources of `net`.
    ///
    /// # Errors
    ///
    /// Propagates configuration, numeric, and protocol failures.
    pub fn run_shards(&self, shards: &[Matrix], net: &mut Network) -> Result<RunOutput> {
        self.run_lent(shards.iter().map(Cow::Borrowed).collect(), net, None)
    }

    /// [`StagePipeline::run`] with stage-output memoization: every
    /// executor looks its source-local stage outputs up in (and stores
    /// them into) `cache`, so sweeps whose compositions share a prefix
    /// compute it once. Outputs and bit accounting are bit-identical to
    /// an uncached run.
    ///
    /// # Errors
    ///
    /// Propagates configuration, numeric, and protocol failures.
    pub fn run_cached(
        &self,
        data: &Matrix,
        net: &mut Network,
        cache: &mut StageCache,
    ) -> Result<RunOutput> {
        self.run_lent(vec![Cow::Borrowed(data)], net, Some(cache))
    }

    /// [`StagePipeline::run_shards`] with stage-output memoization (see
    /// [`StagePipeline::run_cached`]).
    ///
    /// # Errors
    ///
    /// Propagates configuration, numeric, and protocol failures.
    pub fn run_shards_cached(
        &self,
        shards: &[Matrix],
        net: &mut Network,
        cache: &mut StageCache,
    ) -> Result<RunOutput> {
        self.run_lent(shards.iter().map(Cow::Borrowed).collect(), net, Some(cache))
    }

    /// Runs the pipeline over owned shards: one executor thread per
    /// shard — each holding **only its shard** — and the driver in the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// See [`run_driver`]; executor failures surface as
    /// [`NetError::RemoteAbort`] with the source's reason.
    pub fn run_channel(&self, shards: Vec<Matrix>) -> Result<RunOutput> {
        self.run_channel_detailed(shards).map(|(out, _, _)| out)
    }

    /// [`StagePipeline::run_channel`] returning the driver's
    /// [`NetworkStats`] and every executor's [`SourceRunReport`] for
    /// inspection (isolation tests, the CLI's accounting lines).
    ///
    /// # Errors
    ///
    /// See [`StagePipeline::run_channel`].
    pub fn run_channel_detailed(
        &self,
        shards: Vec<Matrix>,
    ) -> Result<(RunOutput, NetworkStats, Vec<SourceRunReport>)> {
        self.run_executors(shards.into_iter().map(Cow::Owned).collect(), None)
    }

    /// The library entry points: executors borrow the caller's shards,
    /// share the caller's cache, and the run's counters are added into
    /// the caller's ledger.
    fn run_lent(
        &self,
        shards: Vec<Cow<'_, Matrix>>,
        net: &mut Network,
        mut cache: Option<&mut StageCache>,
    ) -> Result<RunOutput> {
        if shards.len() > net.sources() {
            return Err(CoreError::Net(NetError::UnknownSource {
                source: shards.len() - 1,
                sources: net.sources(),
            }));
        }
        let shared = cache.as_deref_mut().map(|c| Mutex::new(std::mem::take(c)));
        let run = self.run_executors(shards, shared.as_ref());
        if let (Some(cache), Some(shared)) = (cache, shared) {
            // Executors hold the lock only inside the cache's own
            // consistent-at-every-step methods (see `executor::lock`).
            *cache = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
        }
        let (out, stats, _) = run?;
        net.absorb(&stats);
        Ok(out)
    }

    /// The one in-process run: executor threads over the channel
    /// backend behind the replica router, the driver on this thread.
    fn run_executors(
        &self,
        shards: Vec<Cow<'_, Matrix>>,
        cache: Option<&Mutex<StageCache>>,
    ) -> Result<(RunOutput, NetworkStats, Vec<SourceRunReport>)> {
        if shards.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "no shards",
            });
        }
        let m = shards.len();
        let r = self.params.replication;
        // Cold replica copies handed to each holder, per the canonical
        // ring assignment (empty at the default replication of 1).
        let replica_sets: Vec<BTreeMap<usize, Matrix>> = (0..m)
            .map(|holder| {
                replica_origins(holder, m, r)
                    .into_iter()
                    .map(|o| (o, shards[o].as_ref().clone()))
                    .collect()
            })
            .collect();
        let (hub, endpoints) = channel_pairs(m);
        let mut routed = RoutingTransport::new(hub);
        std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .zip(shards)
                .zip(replica_sets)
                .enumerate()
                .map(|(i, ((mut endpoint, shard), replicas))| {
                    let mut executor =
                        SourceExecutor::lending(&self.stages, &self.params, i, m, shard)
                            .with_replicas(replicas)
                            .with_cache(cache);
                    scope.spawn(move || executor.serve(&mut endpoint))
                })
                .collect();
            let out = run_driver(self, &mut routed);
            let reports: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let out = out?;
            let mut skipped = vec![false; m];
            if let Some(deg) = &out.degraded {
                for &(i, _) in &deg.lost_sources {
                    skipped[i] = true;
                }
            }
            if let Some(rec) = &out.recovered {
                for &(i, _) in &rec.promoted {
                    skipped[i] = true;
                }
            }
            let mut source_reports = Vec::with_capacity(m);
            for (i, report) in reports.into_iter().enumerate() {
                match report {
                    // A dropped source has no run report, and a
                    // recovered one died mid-run — the degradation or
                    // recovery record already names it (the promoted
                    // persona's ledger was verified by the fin round).
                    _ if skipped[i] => continue,
                    Ok(Ok(r)) => source_reports.push(r),
                    Ok(Err(e)) => return Err(e),
                    Err(_) => {
                        return Err(CoreError::Protocol {
                            reason: "executor thread panicked",
                        })
                    }
                }
            }
            Ok((out, routed.stats().clone(), source_reports))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekm_data::partition::partition_uniform;
    use ekm_data::synth::GaussianMixture;

    fn workload(n: usize, d: usize, seed: u64) -> Matrix {
        let raw = GaussianMixture::new(n, d, 2)
            .with_separation(4.0)
            .with_cluster_std(1.0)
            .with_seed(seed)
            .generate()
            .unwrap()
            .points;
        ekm_data::normalize::normalize_paper(&raw).0
    }

    fn params(n: usize, d: usize) -> SummaryParams {
        SummaryParams::practical(2, n, d).with_seed(11)
    }

    #[test]
    fn empty_stage_list_is_no_reduction() {
        let data = workload(300, 12, 1);
        let p = params(300, 12);
        let pipe = StagePipeline::new(vec![], p);
        assert_eq!(pipe.name(), "NR");
        let mut net = Network::new(1);
        let out = pipe.run(&data, &mut net).unwrap();
        assert_eq!(out.centers.shape(), (2, 12));
        assert_eq!(out.summary_points, 300);
        // Raw upload: about n·d doubles plus framing.
        assert!(out.uplink_bits as usize > 300 * 12 * 64);
    }

    #[test]
    fn novel_composition_runs_end_to_end() {
        // jl,fss,qt,jl — a point in the composition space the paper
        // never evaluated (quantize, then project again).
        let data = workload(500, 40, 2);
        let p = params(500, 40);
        let pipe = StagePipeline::from_names("jl,fss,qt,jl", p).unwrap();
        assert_eq!(pipe.name(), "JL+FSS+QT+JL");
        let mut net = Network::new(1);
        let out = pipe.run(&data, &mut net).unwrap();
        assert_eq!(out.centers.shape(), (2, 40));
        assert!(out.centers.as_slice().iter().all(|v| v.is_finite()));
        assert!(out.summary_points < 500);
    }

    #[test]
    fn qt_only_pipeline_quantizes_raw_upload() {
        let data = workload(200, 10, 3);
        let p = params(200, 10);
        let mut net = Network::new(1);
        let nr = StagePipeline::new(vec![], p.clone())
            .run(&data, &mut net)
            .unwrap();
        let qt = StagePipeline::from_names("qt:8", p).unwrap();
        let out = qt.run(&data, &mut net).unwrap();
        assert_eq!(out.summary_points, 200);
        assert!(
            out.uplink_bits < nr.uplink_bits / 2,
            "qt-only {} vs raw {}",
            out.uplink_bits,
            nr.uplink_bits
        );
    }

    #[test]
    fn runs_add_into_the_callers_ledger() {
        let data = workload(400, 10, 4);
        let shards = partition_uniform(&data, 3, 5).unwrap();
        let pipe = StagePipeline::from_names("dispca,disss", params(400, 10)).unwrap();
        let (out, stats, reports) = pipe.run_channel_detailed(shards.clone()).unwrap();
        let mut net = Network::new(4);
        pipe.run_shards(&shards, &mut net).unwrap();
        pipe.run_shards(&shards, &mut net).unwrap();
        assert_eq!(net.stats().total_uplink_bits(), 2 * out.uplink_bits);
        assert_eq!(net.stats().total_downlink_bits(), 2 * out.downlink_bits);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(net.stats().uplink_bits(i), 2 * stats.uplink_bits(i));
            assert_eq!(report.uplink_bits, stats.uplink_bits(i));
        }
        assert_eq!(net.stats().uplink_bits(3), 0);
        // A ledger narrower than the run is refused before any work.
        assert!(matches!(
            pipe.run_shards(&shards, &mut Network::new(2)),
            Err(CoreError::Net(NetError::UnknownSource { .. }))
        ));
    }

    #[test]
    fn cached_runs_are_bit_identical_and_reuse_shared_prefixes() {
        let data = workload(500, 24, 21);
        let p = params(500, 24);
        let mut cache = StageCache::new();
        for list in ["jl,fss,qt:4", "jl,fss,qt:8", "jl,fss,qt:8,jl"] {
            let pipe = StagePipeline::from_names(list, p.clone()).unwrap();
            let mut net_cold = Network::new(1);
            let cold = pipe.run(&data, &mut net_cold).unwrap();
            let mut net_hot = Network::new(1);
            let hot = pipe.run_cached(&data, &mut net_hot, &mut cache).unwrap();
            assert!(cold.centers.approx_eq(&hot.centers, 0.0), "{list}");
            assert_eq!(cold.uplink_bits, hot.uplink_bits, "{list}");
            assert_eq!(cold.downlink_bits, hot.downlink_bits, "{list}");
            assert_eq!(cold.source_ops, hot.source_ops, "{list}");
            assert_eq!(cold.summary_points, hot.summary_points, "{list}");
            assert_eq!(net_cold.stats(), net_hot.stats(), "{list}");
        }
        // The jl,fss prefix ran once; the second and third compositions
        // replayed it, and only the third's trailing jl ran cold.
        assert_eq!(cache.misses(), 3, "jl, fss, trailing jl");
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn upstream_quantizer_does_not_split_cache_entries() {
        // QT only arms the wire quantizer, which the cacheable stages
        // never read — so fss after qt:4 and after qt:8 share one entry.
        let data = workload(300, 14, 22);
        let p = params(300, 14);
        let mut cache = StageCache::new();
        for list in ["qt:4,fss", "qt:8,fss"] {
            let pipe = StagePipeline::from_names(list, p.clone()).unwrap();
            let mut net = Network::new(1);
            pipe.run_cached(&data, &mut net, &mut cache).unwrap();
        }
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn cached_stream_shards_match_uncached() {
        let data = workload(1000, 16, 23);
        let shards = partition_uniform(&data, 4, 6).unwrap();
        let p = params(1000, 16).with_coreset_size(90);
        let pipe = StagePipeline::from_names("jl,stream,qt", p).unwrap();
        let mut net_cold = Network::new(4);
        let cold = pipe.run_shards(&shards, &mut net_cold).unwrap();
        let mut cache = StageCache::new();
        let mut net_hot = Network::new(4);
        let hot = pipe
            .run_shards_cached(&shards, &mut net_hot, &mut cache)
            .unwrap();
        assert!(cold.centers.approx_eq(&hot.centers, 0.0));
        assert_eq!(cold.uplink_bits, hot.uplink_bits);
        assert_eq!(net_cold.stats(), net_hot.stats());
        // Each of the 4 executors looks up its own jl and stream output.
        assert_eq!((cache.hits(), cache.misses()), (0, 8));
        // A second cached run replays both cacheable stages everywhere.
        let mut net_again = Network::new(4);
        let again = pipe
            .run_shards_cached(&shards, &mut net_again, &mut cache)
            .unwrap();
        assert!(cold.centers.approx_eq(&again.centers, 0.0));
        assert_eq!(cold.source_ops, again.source_ops);
        assert_eq!((cache.hits(), cache.misses()), (8, 8));
    }

    #[test]
    fn cache_misses_on_different_seed_or_data() {
        let data = workload(250, 10, 24);
        let pipe = |seed: u64| {
            StagePipeline::from_names("jl,fss", params(250, 10).with_seed(seed)).unwrap()
        };
        let mut cache = StageCache::new();
        let mut net = Network::new(1);
        pipe(1).run_cached(&data, &mut net, &mut cache).unwrap();
        pipe(2).run_cached(&data, &mut net, &mut cache).unwrap();
        assert_eq!(cache.hits(), 0, "different seed must not hit");
        let other = workload(250, 10, 25);
        pipe(1).run_cached(&other, &mut net, &mut cache).unwrap();
        assert_eq!(cache.hits(), 0, "different data must not hit");
        assert_eq!(cache.misses(), 6);
    }

    #[test]
    fn per_source_accounting_is_exact() {
        let data = workload(800, 16, 5);
        let shards = partition_uniform(&data, 8, 10).unwrap();
        let p = params(800, 16);
        let pipe = StagePipeline::from_names("dispca,disss", p).unwrap();
        let mut net = Network::new(8);
        let out = pipe.run_shards(&shards, &mut net).unwrap();
        let per_source: u64 = (0..8).map(|i| net.stats().uplink_bits(i)).sum();
        assert_eq!(out.uplink_bits, per_source);
        assert!((0..8).all(|i| net.stats().uplink_bits(i) > 0));
        let by_kind_total: u64 = net.stats().uplink_bits_by_kind().values().sum();
        assert_eq!(by_kind_total, out.uplink_bits);
    }

    #[test]
    fn stream_stage_summarizes_every_source() {
        let data = workload(1200, 18, 12);
        let shards = partition_uniform(&data, 4, 7).unwrap();
        let p = params(1200, 18).with_coreset_size(120);
        let pipe = StagePipeline::from_names("jl,stream,qt", p).unwrap();
        assert!(pipe.is_distributed(), "stream shards like disPCA/disSS");
        let mut net = Network::new(4);
        let out = pipe.run_shards(&shards, &mut net).unwrap();
        assert_eq!(out.centers.shape(), (2, 18));
        assert!(out.centers.as_slice().iter().all(|v| v.is_finite()));
        // Each source shipped a bounded summary, not its shard.
        assert!(out.summary_points < 1200 / 2, "{}", out.summary_points);
        assert!((0..4).all(|i| net.stats().uplink_bits(i) > 0));
        assert!(out.source_ops > 0);
    }

    #[test]
    fn stream_composes_with_stages_that_accept_weights() {
        // Downstream of the per-source summaries: jl, qt (and both
        // together). The refused compositions are rows of
        // `stage::tests::check_plan_states_every_composition_rule`.
        let data = workload(400, 10, 14);
        let shards = partition_uniform(&data, 2, 3).unwrap();
        for list in ["stream", "stream,jl", "stream,qt", "jl,stream,jl,qt"] {
            let pipe = StagePipeline::from_names(list, params(400, 10)).unwrap();
            let mut net = Network::new(2);
            let out = pipe.run_shards(&shards, &mut net).unwrap();
            assert_eq!(out.centers.shape(), (2, 10), "{list}");
        }
    }

    #[test]
    fn dispca_alone_ships_coordinates() {
        let data = workload(400, 20, 9);
        let shards = partition_uniform(&data, 4, 5).unwrap();
        let p = params(400, 20).with_pca_dim(4);
        let pipe = StagePipeline::from_names("dispca", p).unwrap();
        let mut net = Network::new(4);
        let out = pipe.run_shards(&shards, &mut net).unwrap();
        assert_eq!(out.centers.shape(), (2, 20));
        assert_eq!(out.summary_points, 400);
        // Coordinates are t-dimensional, so cheaper than the raw upload.
        let raw_bits = 400 * 20 * 64;
        assert!(out.uplink_bits < raw_bits as u64);
    }

    #[test]
    fn name_override_and_derivation() {
        let p = params(100, 10);
        let pipe = StagePipeline::from_names("dispca,disss", p.clone()).unwrap();
        assert_eq!(pipe.name(), "disPCA+disSS");
        assert_eq!(pipe.with_name("BKLW").name(), "BKLW");
        assert!(
            StagePipeline::from_names("jl,fss", p)
                .unwrap()
                .stages()
                .len()
                == 2
        );
    }
}
