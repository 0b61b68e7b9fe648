//! Folds a traced unit's spans into the per-layer metrics.
//!
//! A layer's self time is its span's duration minus the part its direct
//! child spans cover. The run and serve paths split the unit's wall time
//! into disjoint shares:
//!
//! ```text
//! unit = transport.connect + transport.send + executor.critical
//!      + transport.round_overhead + driver.self + journal.self
//!      + trace.bookkeeping + unattributed
//! ```
//!
//! where `transport.recv = executor.critical + transport.round_overhead`
//! exactly: each wait in `recv` is split into the part the awaited
//! source spent executing and the rest. On the sweep path the unit
//! splits into the seven `engine.*` pipeline times plus unattributed.

use crate::trace::{Recorder, Span};
use std::collections::BTreeMap;

/// The executor command kinds reported as `executor.<kind>_s`.
pub const EXECUTOR_KINDS: [&str; 7] = ["jl", "fss", "dispca", "disss", "deliver", "qt", "transmit"];

/// Engine pipeline spans reported as `engine.<name>_s`.
pub const ENGINE_PIPES: [&str; 7] = [
    "nr",
    "fss",
    "jl-fss",
    "fss-jl",
    "jl-fss-jl",
    "bklw",
    "jl-bklw",
];

/// Per-layer totals folded from one traced unit.
#[derive(Debug, Default)]
pub struct Layers {
    /// Seconds by metric name.
    pub seconds: BTreeMap<String, f64>,
    /// Counts by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Seconds of the unit the layer shares above account for.
    pub attributed_s: f64,
}

impl Layers {
    fn add_s(&mut self, name: impl Into<String>, s: f64) {
        *self.seconds.entry(name.into()).or_insert(0.0) += s;
    }

    fn add_n(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// Seconds recorded under `name` (0 when the layer never ran).
    pub fn s(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    /// Count recorded under `name` (0 when the layer never ran).
    pub fn n(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Folds the driver's and every source's spans.
pub fn fold(driver: &Recorder, sources: &[Recorder]) -> Layers {
    let mut layers = Layers::default();
    let spans = &driver.spans;
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.seconds();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let self_s = s.seconds() - child_s[i];
        match s.name {
            "transport.connect" | "transport.send" | "transport.recv" => {
                layers.add_s(format!("{}_s", s.name), s.seconds());
                layers.add_n("transport.frame_bytes", s.bytes as f64);
                if s.label == "reissue" {
                    layers.add_n("transport.reissues", 1.0);
                }
            }
            "driver" => layers.add_s("driver.self_s", self_s),
            name if name.starts_with("journal.") => layers.add_s("journal.self_s", self_s),
            "trace.annotate" => layers.add_s("trace.bookkeeping_s", s.seconds()),
            "engine" => layers.add_s(format!("engine.{}_s", s.label), s.seconds()),
            _ => {}
        }
    }
    for rec in sources {
        for s in &rec.spans {
            match s.name {
                "executor.busy" => {
                    layers.add_s("executor.busy_s", s.seconds());
                    if EXECUTOR_KINDS.contains(&s.label) {
                        layers.add_s(format!("executor.{}_s", s.label), s.seconds());
                    }
                    layers.add_n("executor.commands", 1.0);
                    layers.add_n("executor.ops", s.ops as f64);
                }
                "executor.idle" => layers.add_s("executor.idle_s", s.seconds()),
                _ => {}
            }
        }
    }
    fold_rounds(&mut layers, spans, sources);
    layers.attributed_s = [
        "transport.connect_s",
        "transport.send_s",
        "executor.critical_s",
        "transport.round_overhead_s",
        "driver.self_s",
        "journal.self_s",
        "trace.bookkeeping_s",
    ]
    .iter()
    .map(|name| layers.s(name))
    .sum::<f64>()
        + ENGINE_PIPES
            .iter()
            .map(|p| layers.s(&format!("engine.{p}_s")))
            .sum::<f64>();
    layers
}

/// Splits the driver's `recv` waits. The j-th receive from source i
/// answers source i's j-th busy span: the part of the wait that overlaps
/// that busy span is the executor's critical share, the rest (the
/// response in flight, framing, decoding, wake-up) is the transport's
/// round overhead. Both are non-negative and sum to `transport.recv_s`.
/// A round is a run of sends followed by a run of receives.
fn fold_rounds(layers: &mut Layers, driver: &[Span], sources: &[Recorder]) {
    // Busy intervals per source, in order.
    let mut busy: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for rec in sources {
        let source = rec.thread.expect("source recorders name their source");
        let spans = rec.spans.iter().filter(|s| s.name == "executor.busy");
        busy.entry(source)
            .or_default()
            .extend(spans.map(|s| (s.start_ns, s.end_ns)));
    }
    let mut answered: BTreeMap<usize, usize> = BTreeMap::new();
    let (mut rounds, mut receiving) = (0u64, false);
    let (mut critical_ns, mut overhead_ns) = (0u64, 0u64);
    for s in driver {
        match s.name {
            "transport.send" => receiving = false,
            "transport.recv" => {
                if !receiving {
                    rounds += 1;
                    receiving = true;
                }
                let peer = s.peer.expect("recv spans name their source");
                let j = answered.entry(peer).or_insert(0);
                let (b0, b1) = busy
                    .get(&peer)
                    .and_then(|v| v.get(*j))
                    .copied()
                    .unwrap_or((0, 0));
                *j += 1;
                let wait = s.end_ns.saturating_sub(s.start_ns);
                let overlap = s.end_ns.min(b1).saturating_sub(s.start_ns.max(b0));
                critical_ns += overlap;
                overhead_ns += wait - overlap;
            }
            _ => {}
        }
    }
    layers.add_s("executor.critical_s", critical_ns as f64 * 1e-9);
    layers.add_s("transport.round_overhead_s", overhead_ns as f64 * 1e-9);
    layers.add_n("transport.rounds", rounds as f64);
}
