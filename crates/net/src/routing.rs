//! Replica-failover routing over any [`CommandTransport`].
//!
//! [`RoutingTransport`] keeps a per-source route table. An un-routed
//! source's traffic passes straight through. Once the driver promotes a
//! replica host for a dead source ([`CommandTransport::promote`]), every
//! command for that origin is wrapped in [`Command::Forward`] to the
//! host and every matching [`Response::Forwarded`] is unwrapped back,
//! so the layers above (journal, driver) keep addressing the origin as
//! if it were alive — journal entries stay origin-keyed and the classic
//! ledgers stay bit-identical to a run where the replica owned the
//! shard from the start. Only the wrapper overhead and the promotion
//! handshake are charged, to the replica-plane counters.
//!
//! Because a host's physical connection now carries two sources'
//! responses, receives demultiplex: a response for a different origin
//! than the one awaited is parked in a per-source pending queue and
//! handed out on that origin's next receive.

use crate::protocol::{
    check_source, Command, CommandTransport, DeadlinePolicy, EncodedCommand, Response,
};
use crate::{NetError, NetworkStats, Result};
use std::collections::VecDeque;

/// A [`CommandTransport`] layer that re-homes dead sources onto their
/// promoted replica hosts. See the module docs.
pub struct RoutingTransport<T: CommandTransport> {
    inner: T,
    /// `route[origin] = Some(host)` once `origin` is absorbed.
    route: Vec<Option<usize>>,
    /// Responses received while waiting for a different source on the
    /// same physical connection.
    pending: Vec<VecDeque<Response>>,
}

impl<T: CommandTransport> RoutingTransport<T> {
    /// Wraps `inner` with an empty route table: behavior is identical
    /// to the bare transport until a promotion arms a route.
    pub fn new(inner: T) -> Self {
        let m = inner.sources();
        RoutingTransport {
            inner,
            route: vec![None; m],
            pending: vec![VecDeque::new(); m],
        }
    }

    /// Recovers the wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Parks `resp` on the queue of the source it answers for.
    fn park(&mut self, physical: usize, resp: Response) {
        match resp {
            Response::Forwarded { origin, resp } => {
                self.pending[origin as usize].push_back(*resp);
            }
            other => self.pending[physical].push_back(other),
        }
    }
}

impl<T: CommandTransport> CommandTransport for RoutingTransport<T> {
    fn sources(&self) -> usize {
        self.inner.sources()
    }

    fn send_encoded(&mut self, source: usize, enc: &EncodedCommand) -> Result<()> {
        check_source(source, self.sources())?;
        match self.route[source] {
            // The shared encoding survives only the common un-routed
            // path; a routed origin's command travels to its host wrapped
            // in `Forward`, which is a frame of its own.
            None => self.inner.send_encoded(source, enc),
            Some(host) => self.inner.send_encoded(
                host,
                &EncodedCommand::new(Command::Forward {
                    origin: source as u64,
                    cmd: Box::new(enc.command().clone()),
                }),
            ),
        }
    }

    fn recv(&mut self, source: usize) -> Result<Response> {
        check_source(source, self.sources())?;
        loop {
            if let Some(resp) = self.pending[source].pop_front() {
                return Ok(resp);
            }
            let physical = self.route[source].unwrap_or(source);
            match self.inner.recv(physical)? {
                Response::Forwarded { origin, resp } if origin as usize == source => {
                    return Ok(*resp);
                }
                // A loss on the physical connection is this origin's
                // loss: the host (or the source itself) is gone.
                lost @ Response::SourceLost { .. } => return Ok(lost),
                resp if physical == source && !matches!(resp, Response::Forwarded { .. }) => {
                    return Ok(resp);
                }
                other => self.park(physical, other),
            }
        }
    }

    fn stats(&self) -> &NetworkStats {
        self.inner.stats()
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.inner.set_deadline(policy);
    }

    fn promote(&mut self, origin: usize, host: usize) -> Result<()> {
        check_source(origin, self.sources())?;
        check_source(host, self.sources())?;
        if origin == host || self.route[host].is_some() {
            return Err(NetError::ProtocolViolation {
                context: "promote",
                expected: "a live host distinct from the origin",
                got: format!("host {host} for origin {origin}"),
            });
        }
        self.inner.send(
            host,
            &Command::Promote {
                origin: origin as u64,
            },
        )?;
        loop {
            match self.inner.recv(host)? {
                Response::Promoted { origin: o, .. } if o as usize == origin => {
                    // Re-promotion after a host change: drop any stale
                    // parked responses from the previous persona.
                    self.pending[origin].clear();
                    self.route[origin] = Some(host);
                    return Ok(());
                }
                Response::SourceLost { reason } => {
                    return Err(NetError::Transport {
                        context: "promote",
                        detail: format!("host {host} lost during promotion: {reason}"),
                    });
                }
                Response::Err { reason } => {
                    return Err(NetError::Transport {
                        context: "promote",
                        detail: format!("host {host} rejected the promotion: {reason}"),
                    });
                }
                other => self.park(host, other),
            }
        }
    }

    fn replaying(&self) -> bool {
        self.inner.replaying()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::channel_pairs;
    use crate::SourceEndpoint;

    #[test]
    fn unrouted_traffic_passes_through_untouched() {
        let (hub, mut endpoints) = channel_pairs(2);
        let mut routed = RoutingTransport::new(hub);
        let t = std::thread::spawn(move || {
            let cmd = endpoints[1].recv_command().unwrap();
            assert_eq!(cmd, Command::Describe);
            endpoints[1]
                .send_response(Response::Done {
                    round: 1,
                    rows: 5,
                    cols: 2,
                    ops: 0,
                    seconds: 0.0,
                })
                .unwrap();
        });
        routed.send(1, &Command::Describe).unwrap();
        let resp = routed.recv(1).unwrap();
        assert!(matches!(resp, Response::Done { rows: 5, .. }));
        t.join().unwrap();
        assert_eq!(routed.stats().replica_bits(), 0);
        assert_eq!(routed.stats().replica_promotions(), 0);
    }

    #[test]
    fn a_routed_origin_speaks_through_its_host() {
        let (hub, mut endpoints) = channel_pairs(2);
        let mut routed = RoutingTransport::new(hub);
        let t = std::thread::spawn(move || {
            // The host acks the promotion, then answers a forwarded
            // round interleaved with its own.
            let cmd = endpoints[1].recv_command().unwrap();
            assert!(matches!(cmd, Command::Promote { origin: 0 }));
            endpoints[1]
                .send_response(Response::Promoted {
                    origin: 0,
                    round: 0,
                })
                .unwrap();
            let cmd = endpoints[1].recv_command().unwrap();
            let Command::Forward { origin: 0, cmd } = cmd else {
                panic!("expected a forward, got {cmd:?}");
            };
            assert_eq!(*cmd, Command::Describe);
            // Own response first: the driver awaiting the origin must
            // park it for the host's own receive.
            endpoints[1]
                .send_response(Response::Done {
                    round: 9,
                    rows: 1,
                    cols: 1,
                    ops: 0,
                    seconds: 0.0,
                })
                .unwrap();
            endpoints[1]
                .send_response(Response::Forwarded {
                    origin: 0,
                    resp: Box::new(Response::Done {
                        round: 1,
                        rows: 7,
                        cols: 3,
                        ops: 0,
                        seconds: 0.0,
                    }),
                })
                .unwrap();
        });
        routed.promote(0, 1).unwrap();
        assert_eq!(routed.route[0], Some(1));
        routed.send(0, &Command::Describe).unwrap();
        let resp = routed.recv(0).unwrap();
        assert!(matches!(resp, Response::Done { rows: 7, .. }));
        // The host's own response was parked, not dropped.
        let own = routed.recv(1).unwrap();
        assert!(matches!(own, Response::Done { round: 9, .. }));
        t.join().unwrap();
        assert_eq!(routed.stats().replica_promotions(), 1);
        assert!(routed.stats().replica_bits() > 0);
    }

    #[test]
    fn promoting_onto_an_absorbed_host_is_rejected() {
        let (hub, endpoints) = channel_pairs(3);
        let mut routed = RoutingTransport::new(hub);
        routed.route[1] = Some(2);
        assert!(routed.promote(0, 1).is_err());
        assert!(routed.promote(2, 2).is_err());
        drop(endpoints);
    }
}
