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
/// the *protocol* cost. The replica-plane counters (promotions, replayed
/// rounds, replica bits) describe the recovery traffic of promoted
/// replicas, kept apart so a recovered run's classic ledgers equal its
/// never-failed twin's. They stay zero on a fault-free run.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    uplink_bits: Vec<u64>,
    downlink_bits: Vec<u64>,
    uplink_msgs: Vec<u64>,
    downlink_msgs: Vec<u64>,
    uplink_by_kind: BTreeMap<&'static str, u64>,
    replica_promotions: u64,
    replayed_rounds: u64,
    replica_bits: u64,
    /// The last round each source answered, by which
    /// [`crate::protocol::charge_response`] tells a round's first answer
    /// from a later copy: bookkeeping, not a counter, so equality
    /// ignores it and [`Network::absorb`] leaves it alone.
    pub(crate) answered: Vec<u64>,
}

/// Two ledgers are equal when their counters are.
impl PartialEq for NetworkStats {
    fn eq(&self, other: &Self) -> bool {
        self.uplink_bits == other.uplink_bits
            && self.downlink_bits == other.downlink_bits
            && self.uplink_msgs == other.uplink_msgs
            && self.downlink_msgs == other.downlink_msgs
            && self.uplink_by_kind == other.uplink_by_kind
            && self.replica_promotions == other.replica_promotions
            && self.replayed_rounds == other.replayed_rounds
            && self.replica_bits == other.replica_bits
    }
}

impl Eq for NetworkStats {}

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
            replica_promotions: 0,
            replayed_rounds: 0,
            replica_bits: 0,
            answered: vec![0; sources],
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

    /// Adds one run's counters into this ledger, source by source.
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
        }
        for (kind, bits) in &run.uplink_by_kind {
            *stats.uplink_by_kind.entry(kind).or_insert(0) += bits;
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
