//! The driver's per-source health state machine.
//!
//! PR 7's straggler handling was a one-bit `reissued` flag; replication
//! turns it into an explicit machine the driver consults on every
//! transport loss:
//!
//! ```text
//! healthy ──loss──▶ suspect ──loss──▶ promote next replica ──▶ absorbed
//!    ▲                 │(reissue)        │ (none left / all dead)
//!    └──── response ───┘                 ▼
//!                                     degraded
//! ```
//!
//! A suspect source gets exactly one reissue (the existing recovery);
//! a second loss consumes the next surviving replica from the canonical
//! ring ([`crate::params::replica_holders`]). A promotion that fails
//! (the chosen host is itself dead) consumes the next replica directly
//! — no reissue is owed between failed promotion attempts, the command
//! never reached anyone. Only when the ring is exhausted does the
//! machine settle on [`RecoveryAction::Degrade`], PR 7's last resort.
//!
//! The machine is pure (no transport, no clock) so the proptests in
//! `tests/fault_tolerance.rs` can drive it with arbitrary loss patterns
//! and assert the ordering invariants directly.

use std::collections::VecDeque;

/// What the driver must do about the loss just reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Re-send the in-flight round wrapped in `Command::Reissue`.
    Reissue,
    /// Promote `host`'s cold replica and replay the completed rounds.
    Promote {
        /// The replica holder to promote.
        host: usize,
    },
    /// No replica survives: mark the source lost and degrade.
    Degrade,
}

/// The per-source machine. See the module docs for the transition
/// diagram.
#[derive(Debug, Clone)]
pub struct HealthMachine {
    /// Replica holders not yet consumed, in canonical ring order.
    replicas: VecDeque<usize>,
    host: Option<usize>,
    suspect: bool,
    dead: bool,
}

impl HealthMachine {
    /// A machine over the source's replica holders in promotion order
    /// (empty = unreplicated, PR 7 behavior).
    pub fn new(replicas: Vec<usize>) -> Self {
        HealthMachine {
            replicas: replicas.into(),
            host: None,
            suspect: false,
            dead: false,
        }
    }

    /// The promoted host, if the source is absorbed.
    pub fn host(&self) -> Option<usize> {
        self.host
    }

    /// A round response arrived: the source (or its persona) answers.
    pub fn on_response(&mut self) {
        self.suspect = false;
    }

    /// A transport loss: the first against a non-suspect earns one
    /// reissue, every further one consumes the next replica (a fresh
    /// host for an absorbed source included) until the ring runs dry.
    pub fn on_loss(&mut self) -> RecoveryAction {
        if self.dead {
            return RecoveryAction::Degrade;
        }
        if !self.suspect {
            self.suspect = true;
            return RecoveryAction::Reissue;
        }
        self.next_replica()
    }

    /// The host chosen by the last [`RecoveryAction::Promote`] could not
    /// be promoted (itself dead): consume the next replica directly —
    /// the command never reached anyone, so no reissue is owed.
    pub fn on_promotion_failed(&mut self) -> RecoveryAction {
        if self.dead {
            return RecoveryAction::Degrade;
        }
        self.next_replica()
    }

    fn next_replica(&mut self) -> RecoveryAction {
        match self.replicas.pop_front() {
            Some(host) => {
                self.host = Some(host);
                self.suspect = false;
                RecoveryAction::Promote { host }
            }
            None => {
                self.host = None;
                self.dead = true;
                RecoveryAction::Degrade
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreplicated_machine_reissues_once_then_degrades() {
        let mut h = HealthMachine::new(vec![]);
        assert_eq!(h.on_loss(), RecoveryAction::Reissue);
        assert_eq!(h.on_loss(), RecoveryAction::Degrade);
        assert_eq!(h.host(), None);
        assert_eq!(h.on_loss(), RecoveryAction::Degrade);
    }

    #[test]
    fn a_response_clears_suspicion_and_re_earns_the_reissue() {
        let mut h = HealthMachine::new(vec![]);
        assert_eq!(h.on_loss(), RecoveryAction::Reissue);
        h.on_response();
        assert_eq!(h.on_loss(), RecoveryAction::Reissue);
    }

    #[test]
    fn replicas_are_consumed_in_ring_order_then_degrade() {
        let mut h = HealthMachine::new(vec![3, 4]);
        assert_eq!(h.on_loss(), RecoveryAction::Reissue);
        assert_eq!(h.on_loss(), RecoveryAction::Promote { host: 3 });
        assert_eq!(h.host(), Some(3));
        // The promoted host dies too: reissue once, then the next ring
        // entry.
        assert_eq!(h.on_loss(), RecoveryAction::Reissue);
        assert_eq!(h.on_loss(), RecoveryAction::Promote { host: 4 });
        assert_eq!(h.on_loss(), RecoveryAction::Reissue);
        assert_eq!(h.on_loss(), RecoveryAction::Degrade);
        assert_eq!(h.host(), None);
        assert_eq!(h.on_loss(), RecoveryAction::Degrade);
    }

    #[test]
    fn failed_promotions_walk_the_ring_without_extra_reissues() {
        let mut h = HealthMachine::new(vec![1, 2, 3]);
        assert_eq!(h.on_loss(), RecoveryAction::Reissue);
        assert_eq!(h.on_loss(), RecoveryAction::Promote { host: 1 });
        assert_eq!(h.on_promotion_failed(), RecoveryAction::Promote { host: 2 });
        assert_eq!(h.on_promotion_failed(), RecoveryAction::Promote { host: 3 });
        assert_eq!(h.on_promotion_failed(), RecoveryAction::Degrade);
        assert_eq!(h.host(), None);
        assert_eq!(h.on_loss(), RecoveryAction::Degrade);
    }
}
