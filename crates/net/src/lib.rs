//! The edge network of the server-driven protocol, with exact
//! transmitted-bit accounting.
//!
//! The paper's central metric is *communication cost* — how many bits the
//! data sources push over their wireless uplinks. This crate makes that
//! measurement real rather than analytical:
//!
//! * [`bitstream`] — a `BitWriter`/`BitReader` pair for non-byte-aligned
//!   payloads (a quantized scalar occupies `1 + 11 + s` bits, paper §6.1);
//! * [`wire`] — the encoding of scalars, vectors, and matrices at either
//!   full or quantized precision;
//! * [`messages`] — the protocol messages exchanged by the paper's
//!   algorithms (raw data, coresets, SVD summaries for disPCA, cost
//!   reports and sample allocations for disSS, final centers);
//! * [`protocol`] — the command/response vocabulary between the server
//!   driver and the source executors, the [`CommandTransport`] /
//!   [`SourceEndpoint`] pair every backend implements, and the
//!   in-process channel backend;
//! * [`network`] — the per-source bit ledger ([`NetworkStats`]) every
//!   backend charges, and the caller-held [`Network`] that totals runs;
//! * [`frame`] — length-prefixed framing (bit-exact lengths) for sockets;
//! * [`fnv`] — the streaming FNV-1a hash behind fingerprints and digests;
//! * [`event`] — the TCP backend: one reactor thread multiplexing every
//!   source connection, the handshake, and the end-of-run [`RunDigest`];
//! * [`routing`] — replica failover routing over any backend.
//!
//! Every data-plane payload stays in its exact wire encoding end to end,
//! so anything lossy about the format (quantization, f32 auxiliaries)
//! shapes the computation identically on every backend.
//!
//! # Example
//!
//! ```
//! use ekm_net::messages::Message;
//! use ekm_net::protocol::{charge_response, Payload, Response};
//! use ekm_net::NetworkStats;
//!
//! let msg = Message::CostReport { cost: 42.0 };
//! let payload = Payload::of(&msg);
//! assert_eq!(payload.decode().unwrap(), msg);
//! let mut stats = NetworkStats::new(2);
//! let up = Response::Up { round: 1, payload, ops: 0, seconds: 0.0 };
//! charge_response(&mut stats, 0, &up).unwrap();
//! assert!(stats.uplink_bits(0) > 0);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the epoll syscall shim in [`reactor`] carries the
// crate's single scoped `#[allow(unsafe_code)]` (three libc declarations).
#![deny(unsafe_code)]

pub mod bitstream;
mod error;
pub mod event;
pub mod fnv;
pub mod frame;
pub mod messages;
pub mod network;
pub mod protocol;
pub mod reactor;
#[cfg(test)]
mod reference;
pub mod routing;
pub mod wire;

pub use error::NetError;
pub use event::{EventServerBinding, EventTcpServer, EventTcpSource, RunDigest};
pub use frame::FrameBuf;
pub use network::{Network, NetworkStats};
pub use protocol::{
    Command, CommandTransport, DeadlinePolicy, EncodedCommand, Payload, Response, SourceEndpoint,
};
pub use reactor::{Reactor, ReactorChoice, ReactorKind};
pub use routing::RoutingTransport;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, NetError>;
