//! Malicious-server behaviours.
//!
//! Each adversary wraps one or more honest [`crate::ServerCore`]s and deviates in a
//! specific, paper-motivated way:
//!
//! | Adversary | Paper artifact | Violation |
//! |---|---|---|
//! | [`ForkServer`] | Fig. 1, §3 | partition attack: two user groups see divergent histories |
//! | [`DropServer`] | §1 "single-user availability" / Fig. 3 setup | acknowledges one update but never applies it |
//! | [`RollbackServer`] | replay of stale states | rewinds the database to an earlier state for everyone |
//! | [`TamperServer`] | §1 "single-user integrity" | silently edits stored data with no user operation |
//! | [`CounterSkipServer`] | Thm. 4.1 proof scenario | presents the same counter value for two operations |
//! | [`LieServer`] | §4.1 | returns an answer inconsistent with the authenticated state |
//! | [`StaleReadServer`] | freshness violation | serves reads from a frozen snapshot while applying writes |
//! | [`HideKeyServer`] | §4.1 | answers "absent" for a present key, hiding its leaf behind pair digests |
//!
//! All implement [`ServerApi`], so the simulator can swap them in for the
//! honest server without clients knowing.

mod counter_skip;
mod drop_op;
mod fork;
mod hide_key;
mod lie;
mod rollback;
mod stale_read;
mod tamper;

pub use counter_skip::CounterSkipServer;
pub use drop_op::DropServer;
pub use fork::ForkServer;
pub use hide_key::HideKeyServer;
pub use lie::LieServer;
pub use rollback::RollbackServer;
pub use stale_read::StaleReadServer;
pub use tamper::TamperServer;

use crate::server::ServerApi;
use crate::types::Ctr;

/// When an adversary switches from honest behaviour to its attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Attack when the server's operation counter reaches this value.
    AtCtr(Ctr),
    /// Never attack (behaves honestly; useful as a control).
    Never,
}

impl Trigger {
    /// True iff the attack should be active at counter `ctr`.
    pub fn fires(&self, ctr: Ctr) -> bool {
        match self {
            Trigger::AtCtr(t) => ctr >= *t,
            Trigger::Never => false,
        }
    }
}

/// Boxed adversary constructor table used by the experiments: name → server.
pub fn all_adversaries(
    config: &crate::types::ProtocolConfig,
    trigger: Trigger,
    n_users: u32,
) -> Vec<(&'static str, Box<dyn ServerApi>)> {
    let half: Vec<u32> = (0..n_users / 2).collect();
    vec![
        (
            "fork",
            Box::new(ForkServer::new(config, trigger, &half)) as Box<dyn ServerApi>,
        ),
        ("drop", Box::new(DropServer::new(config, trigger))),
        ("rollback", Box::new(RollbackServer::new(config, trigger))),
        ("tamper", Box::new(TamperServer::new(config, trigger))),
        (
            "counter-skip",
            Box::new(CounterSkipServer::new(config, trigger)),
        ),
        ("lie", Box::new(LieServer::new(config, trigger))),
        (
            "stale-read",
            Box::new(StaleReadServer::new(config, trigger)),
        ),
        ("hide-key", Box::new(HideKeyServer::new(config, trigger))),
    ]
}

/// Shared plumbing: delegate the non-op parts of [`ServerApi`] to a single
/// inner core. (Adversaries with multiple branches implement routing
/// themselves.)
macro_rules! delegate_deposits_to_core {
    ($field:ident) => {
        fn deposit_signature(&mut self, _user: tcvs_crypto::UserId, s: crate::msg::SignedState) {
            self.$field.store_signature(s);
        }
        fn deposit_epoch_state(&mut self, s: crate::msg::SignedEpochState) {
            self.$field.store_epoch_state(s);
        }
        fn fetch_epoch_states(
            &mut self,
            _requester: tcvs_crypto::UserId,
            epoch: crate::types::Epoch,
        ) -> Vec<crate::msg::SignedEpochState> {
            self.$field.epoch_states(epoch)
        }
        fn deposit_checkpoint(&mut self, c: crate::msg::SignedCheckpoint) {
            self.$field.store_checkpoint(c);
        }
        fn fetch_checkpoint(
            &mut self,
            _requester: tcvs_crypto::UserId,
            epoch: crate::types::Epoch,
        ) -> Option<crate::msg::SignedCheckpoint> {
            self.$field.checkpoint(epoch)
        }
        fn metrics(&self) -> crate::server::ServerMetrics {
            self.$field.metrics()
        }
    };
}
pub(crate) use delegate_deposits_to_core;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_semantics() {
        assert!(!Trigger::AtCtr(5).fires(4));
        assert!(Trigger::AtCtr(5).fires(5));
        assert!(Trigger::AtCtr(5).fires(6));
        assert!(!Trigger::Never.fires(u64::MAX));
    }

    #[test]
    fn adversary_table_covers_all_six() {
        let config = crate::types::ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 10,
        };
        let advs = all_adversaries(&config, Trigger::AtCtr(3), 4);
        let names: Vec<_> = advs.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "fork",
                "drop",
                "rollback",
                "tamper",
                "counter-skip",
                "lie",
                "stale-read",
                "hide-key"
            ]
        );
    }
}
