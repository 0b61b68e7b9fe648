//! Pipeline run results.

use ekm_linalg::Matrix;

/// How a degraded run lost data: which sources were dropped and the
/// paper-derived bound on the cost it can have cost.
///
/// The paper's sampling bounds tolerate a dropped source with a
/// quantified hit: the surviving sources still summarize their `1 − p`
/// fraction of the data within `(1 + ε)`, so against the full-data twin
/// the degraded centers' cost is heuristically bounded by
/// `(1 + ε) / (1 − p)` where `p` is the fraction of rows lost. The CI
/// fault suite asserts the *measured* ratio stays under this bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// `(source id, why it was declared lost)` for every dropped source.
    pub lost_sources: Vec<(usize, String)>,
    /// Rows held by the dropped sources.
    pub rows_lost: usize,
    /// Rows described by all sources at the start of the run.
    pub rows_total: usize,
    /// The documented cost-ratio bound `(1 + ε) / (1 − rows_lost /
    /// rows_total)` the degraded run is expected to stay within.
    pub cost_ratio_bound: f64,
}

/// How a run absorbed source losses *without* losing data: every listed
/// source died mid-run but a promoted replica answered its remaining
/// rounds from a replayed copy of its shard, so the centers, digest,
/// and classic ledgers are bit-identical to a run where the replica
/// owned the shard from the start. Contrast [`Degradation`], the
/// last-resort record when no replica survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// `(origin, promoted host)` for every source that finished the run
    /// absorbed by a replica. The rounds replayed onto promoted personas
    /// are the transport's count, `NetworkStats::replayed_rounds`.
    pub promoted: Vec<(usize, usize)>,
}

/// The result of one end-to-end pipeline run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// k-means centers mapped back to the original space (`k × d`).
    pub centers: Matrix,
    /// Total bits the data source(s) sent to the server.
    pub uplink_bits: u64,
    /// Total bits the server sent to the data source(s).
    pub downlink_bits: u64,
    /// Wall-clock seconds of data-source-side computation (max over
    /// sources in the distributed setting — sources work in parallel).
    pub source_seconds: f64,
    /// Wall-clock seconds of server-side computation.
    pub server_seconds: f64,
    /// Deterministic count of the dominant source-side floating-point
    /// operations (max over sources per phase, summed over phases) — the
    /// complexity metric the wall-clock fields proxy, but exact across
    /// runs, machines, and thread counts. Use this for Table 2-style
    /// ordering comparisons; use `source_seconds` for reporting.
    pub source_ops: u64,
    /// Number of summary points the server clustered.
    pub summary_points: usize,
    /// `Some` when the run completed without every source: which shards
    /// were dropped and the asserted cost-ratio bound. `None` for a
    /// clean, full-source run.
    pub degraded: Option<Degradation>,
    /// `Some` when replica promotion absorbed one or more source losses
    /// bit-identically. Independent of `degraded`: a run can recover
    /// some sources and still degrade others whose replicas ran out.
    pub recovered: Option<Recovery>,
}

impl RunOutput {
    /// Normalized communication cost: uplink bits over the raw-dataset bit
    /// size (`n·d` doubles) — the paper's Table 3/4 metric.
    pub fn normalized_comm(&self, n: usize, d: usize) -> f64 {
        self.uplink_bits as f64 / ((n * d) as f64 * 64.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_comm_metric() {
        let out = RunOutput {
            centers: Matrix::zeros(2, 3),
            uplink_bits: 64,
            downlink_bits: 0,
            source_seconds: 0.0,
            server_seconds: 0.0,
            source_ops: 0,
            summary_points: 5,
            degraded: None,
            recovered: None,
        };
        // 64 bits over 10×10×64 = 6400 raw bits = 0.01.
        assert!((out.normalized_comm(10, 10) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn degradation_records_the_documented_bound() {
        let d = Degradation {
            lost_sources: vec![(2, "disconnected".to_string())],
            rows_lost: 200,
            rows_total: 600,
            cost_ratio_bound: (1.0 + 0.5) / (1.0 - 200.0 / 600.0),
        };
        assert!((d.cost_ratio_bound - 2.25).abs() < 1e-12);
    }
}
