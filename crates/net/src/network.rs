//! The run ledger: per-source, per-direction transmitted-bit counters.
//!
//! Every data-plane payload of the server-driven protocol is charged
//! its exact encoded bit length as it passes through a transport
//! ([`crate::protocol::charge_command`] / [`crate::protocol::charge_response`]),
//! so communication totals are measured, not estimated. [`Network`] is
//! a caller-held ledger that accumulates the [`NetworkStats`] of every
//! run handed to it.

use std::collections::BTreeMap;

/// Per-direction, per-source transmission counters.
///
/// The classic ledgers (uplink/downlink bits, messages, by-kind) describe
/// the *protocol* cost and are identical across aggregation topologies by
/// construction. The tree-topology counters (`relay_*`, `server_fold_*`,
/// `merge_levels`) describe the *physical placement* of that traffic
/// under `--topology tree`: peer-merge payloads relayed through the
/// server, the single folded root the server actually receives, and the
/// per-level active sets proving the `O(log s)` round count. They stay
/// zero/empty on star runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    uplink_bits: Vec<u64>,
    downlink_bits: Vec<u64>,
    uplink_msgs: Vec<u64>,
    downlink_msgs: Vec<u64>,
    uplink_by_kind: BTreeMap<&'static str, u64>,
    relay_bits: Vec<u64>,
    server_fold_bits: u64,
    server_fold_inputs: u64,
    /// `(gather, level) → active summary holders entering the level`.
    merge_levels: BTreeMap<(u8, u64), u64>,
    replica_promotions: u64,
    replayed_rounds: u64,
    replica_bits: u64,
}

impl NetworkStats {
    /// Zeroed counters for `sources` sources. Public so replaying
    /// transports (the journal layer in `ekm_core`) can rebuild an exact
    /// ledger outside this crate.
    pub fn new(sources: usize) -> Self {
        NetworkStats {
            uplink_bits: vec![0; sources],
            downlink_bits: vec![0; sources],
            uplink_msgs: vec![0; sources],
            downlink_msgs: vec![0; sources],
            uplink_by_kind: BTreeMap::new(),
            relay_bits: vec![0; sources],
            server_fold_bits: 0,
            server_fold_inputs: 0,
            merge_levels: BTreeMap::new(),
            replica_promotions: 0,
            replayed_rounds: 0,
            replica_bits: 0,
        }
    }

    /// Number of sources tracked.
    pub fn sources(&self) -> usize {
        self.uplink_bits.len()
    }

    /// Bits source `i` sent to the server.
    pub fn uplink_bits(&self, source: usize) -> u64 {
        self.uplink_bits[source]
    }

    /// Bits the server sent to source `i`.
    pub fn downlink_bits(&self, source: usize) -> u64 {
        self.downlink_bits[source]
    }

    /// Total uplink bits over all sources — the paper's "communication
    /// cost over all the data sources".
    pub fn total_uplink_bits(&self) -> u64 {
        self.uplink_bits.iter().sum()
    }

    /// Total downlink bits over all sources.
    pub fn total_downlink_bits(&self) -> u64 {
        self.downlink_bits.iter().sum()
    }

    /// Total messages sent upstream.
    pub fn total_uplink_messages(&self) -> u64 {
        self.uplink_msgs.iter().sum()
    }

    /// Total messages sent downstream.
    pub fn total_downlink_messages(&self) -> u64 {
        self.downlink_msgs.iter().sum()
    }

    /// Normalized uplink communication cost: total uplink bits divided by
    /// the bit size of the raw dataset (`n·d` doubles) — the paper's
    /// Table 3/4 metric, where "NR" (transmit raw data) scores 1.
    pub fn normalized_uplink(&self, n: usize, d: usize) -> f64 {
        let raw_bits = (n as f64) * (d as f64) * 64.0;
        self.total_uplink_bits() as f64 / raw_bits
    }

    /// Uplink bits broken down by message kind (protocol phase): e.g.
    /// "svd-summary" is the disPCA term Algorithm 4 shrinks, "coreset" is
    /// the disSS samples, "cost-report" the scalar round of footnote 1.
    pub fn uplink_bits_by_kind(&self) -> &BTreeMap<&'static str, u64> {
        &self.uplink_by_kind
    }

    /// Charges one uplink message of `bits` to `source` (shared by every
    /// transport backend, so accounting is identical by construction;
    /// public for the journal-replay accounting path).
    pub fn charge_uplink(&mut self, source: usize, bits: usize, kind: &'static str) {
        self.uplink_bits[source] += bits as u64;
        self.uplink_msgs[source] += 1;
        *self.uplink_by_kind.entry(kind).or_insert(0) += bits as u64;
    }

    /// Charges one downlink message of `bits` to `source` (public for
    /// the journal-replay accounting path).
    pub fn charge_downlink(&mut self, source: usize, bits: usize) {
        self.downlink_bits[source] += bits as u64;
        self.downlink_msgs[source] += 1;
    }

    /// Charges one tree-topology relay message of `bits` touching
    /// `source` — a peer summary forwarded through the server during a
    /// pairwise merge. Kept off the classic ledgers so those stay
    /// bit-identical to the star topology.
    pub fn charge_relay(&mut self, source: usize, bits: u64) {
        self.relay_bits[source] += bits;
    }

    /// Charges the folded root summary the server keeps as a fold input
    /// under `--topology tree` (exactly one per gather on a fault-free
    /// run).
    pub fn charge_server_fold(&mut self, bits: u64) {
        self.server_fold_bits += bits;
        self.server_fold_inputs += 1;
    }

    /// Records the active holder count entering merge level `level` of
    /// gather `gather`. Idempotent per `(gather, level)`, so reissued or
    /// journal-replayed commands cannot inflate the record.
    pub fn note_merge_level(&mut self, gather: u8, level: u64, active: u64) {
        self.merge_levels.entry((gather, level)).or_insert(active);
    }

    /// Relay bits that passed through `source` during tree merges.
    pub fn relay_bits(&self, source: usize) -> u64 {
        self.relay_bits[source]
    }

    /// Total tree-topology relay bits over all sources.
    pub fn total_relay_bits(&self) -> u64 {
        self.relay_bits.iter().sum()
    }

    /// Data-plane bits the server actually received as fold inputs under
    /// `--topology tree` (the folded roots only).
    pub fn server_fold_bits(&self) -> u64 {
        self.server_fold_bits
    }

    /// Number of fold inputs the server received under `--topology tree`
    /// (one per gather on a fault-free run, regardless of `s`).
    pub fn server_fold_inputs(&self) -> u64 {
        self.server_fold_inputs
    }

    /// The recorded merge levels: `(gather, level) → active holders`.
    pub fn merge_levels(&self) -> &BTreeMap<(u8, u64), u64> {
        &self.merge_levels
    }

    /// Charges one replica-promotion control exchange of `bits`: the
    /// promote command, the replayed-round wrappers' overhead, and their
    /// acknowledgements. Kept off the classic ledgers so a recovered run
    /// stays bit-identical to its never-failed twin there; the recovery
    /// cost is observable here instead.
    pub fn charge_promotion(&mut self, bits: u64) {
        self.replica_promotions += 1;
        self.replica_bits += bits;
    }

    /// Charges one replayed round of `bits` delivered to a promoted
    /// replica while it caught up to its dead origin's state.
    pub fn charge_replay(&mut self, bits: u64) {
        self.replayed_rounds += 1;
        self.replica_bits += bits;
    }

    /// Charges replica-plane control bits that are neither a promotion
    /// nor a full replayed round (forward-wrapper overhead on live
    /// rounds routed to a promoted host).
    pub fn charge_replica_bits(&mut self, bits: u64) {
        self.replica_bits += bits;
    }

    /// Replica promotions performed during the run (a dead owner's
    /// shard answered by a replica from then on).
    pub fn replica_promotions(&self) -> u64 {
        self.replica_promotions
    }

    /// Completed rounds replayed to promoted replicas to rebuild their
    /// dead origins' state.
    pub fn replayed_rounds(&self) -> u64 {
        self.replayed_rounds
    }

    /// Total replica-plane bits: promotions, replayed rounds, and
    /// forward-wrapper overhead. Zero on a fault-free run.
    pub fn replica_bits(&self) -> u64 {
        self.replica_bits
    }

    /// The deepest per-gather level count (merge rounds plus the root
    /// emit) — the number the `O(log s)` contract bounds.
    pub fn max_merge_rounds(&self) -> u64 {
        let mut per_gather: BTreeMap<u8, u64> = BTreeMap::new();
        for &(gather, level) in self.merge_levels.keys() {
            let e = per_gather.entry(gather).or_insert(0);
            *e = (*e).max(level + 1);
        }
        per_gather.values().copied().max().unwrap_or(0)
    }
}

/// A caller-held ledger for `m` data sources: the pipeline entry points
/// add each run's [`NetworkStats`] into it, so one `Network` can total a
/// sequence of runs.
#[derive(Debug, Clone)]
pub struct Network {
    sources: usize,
    stats: NetworkStats,
}

impl Network {
    /// Creates a ledger for `m` data sources and one server.
    ///
    /// # Panics
    ///
    /// Panics if `sources == 0`.
    pub fn new(sources: usize) -> Self {
        assert!(sources > 0, "network needs at least one source");
        Network {
            sources,
            stats: NetworkStats::new(sources),
        }
    }

    /// Number of data sources.
    pub fn sources(&self) -> usize {
        self.sources
    }

    /// Adds one run's counters into this ledger, source by source
    /// (merge levels keep their first record, as
    /// [`NetworkStats::note_merge_level`] does).
    ///
    /// # Panics
    ///
    /// Panics if `run` tracks more sources than this ledger.
    pub fn absorb(&mut self, run: &NetworkStats) {
        assert!(
            run.sources() <= self.sources,
            "absorbed counters for {} sources into a ledger of {}",
            run.sources(),
            self.sources
        );
        let stats = &mut self.stats;
        for i in 0..run.sources() {
            stats.uplink_bits[i] += run.uplink_bits[i];
            stats.downlink_bits[i] += run.downlink_bits[i];
            stats.uplink_msgs[i] += run.uplink_msgs[i];
            stats.downlink_msgs[i] += run.downlink_msgs[i];
            stats.relay_bits[i] += run.relay_bits[i];
        }
        for (kind, bits) in &run.uplink_by_kind {
            *stats.uplink_by_kind.entry(kind).or_insert(0) += bits;
        }
        stats.server_fold_bits += run.server_fold_bits;
        stats.server_fold_inputs += run.server_fold_inputs;
        for (&(gather, level), &active) in &run.merge_levels {
            stats.note_merge_level(gather, level, active);
        }
        stats.replica_promotions += run.replica_promotions;
        stats.replayed_rounds += run.replayed_rounds;
        stats.replica_bits += run.replica_bits;
    }

    /// Read access to the accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_accounting_exact() {
        let mut stats = NetworkStats::new(3);
        stats.charge_uplink(1, 40, "cost-report");
        stats.charge_uplink(1, 40, "cost-report");
        assert_eq!(stats.uplink_bits(1), 80);
        assert_eq!(stats.uplink_bits(0), 0);
        assert_eq!(stats.total_uplink_bits(), 80);
        assert_eq!(stats.total_uplink_messages(), 2);
        assert_eq!(stats.uplink_bits_by_kind()["cost-report"], 80);
    }

    #[test]
    fn normalized_uplink_metric() {
        let mut stats = NetworkStats::new(1);
        // The full "raw dataset" of 10×4 doubles plus 72 bits of framing.
        stats.charge_uplink(0, 10 * 4 * 64 + 72, "raw-data");
        let norm = stats.normalized_uplink(10, 4);
        assert!(norm > 1.0 && norm < 1.05, "normalized {norm}");
    }

    #[test]
    fn absorb_adds_every_counter_source_by_source() {
        let mut run = NetworkStats::new(2);
        run.charge_uplink(0, 10, "coreset");
        run.charge_uplink(1, 7, "cost-report");
        run.charge_downlink(1, 3);
        run.charge_relay(1, 5);
        run.note_merge_level(1, 0, 2);
        run.charge_promotion(9);
        let mut net = Network::new(3);
        net.absorb(&run);
        net.absorb(&run);
        let stats = net.stats();
        assert_eq!(stats.uplink_bits(0), 20);
        assert_eq!(stats.uplink_bits(1), 14);
        assert_eq!(stats.uplink_bits(2), 0);
        assert_eq!(stats.downlink_bits(1), 6);
        assert_eq!(stats.total_uplink_messages(), 4);
        assert_eq!(stats.uplink_bits_by_kind()["coreset"], 20);
        assert_eq!(stats.relay_bits(1), 10);
        assert_eq!(stats.merge_levels()[&(1, 0)], 2);
        assert_eq!(stats.replica_promotions(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn zero_sources_panics() {
        let _ = Network::new(0);
    }

    #[test]
    #[should_panic(expected = "absorbed counters")]
    fn absorbing_a_wider_run_panics() {
        Network::new(2).absorb(&NetworkStats::new(5));
    }
}
