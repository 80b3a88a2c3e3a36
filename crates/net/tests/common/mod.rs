//! A server that is honest on the serialized path and lies everywhere it
//! answers from `ServerApi::read_snapshot`, shared by the test binaries
//! that check the two consumers of that snapshot: bootstrap and the state
//! sample a late joiner anchors at.

use tcvs_core::{
    Epoch, HonestServer, Op, ProtocolConfig, ReadSnapshot, ServerApi, ServerMetrics,
    ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, UserId,
};

/// Every operation and deposit is served by an honest core. A shadow core
/// receives the same operations, with each `Put`'s value replaced by
/// `b"forged"`, and every snapshot comes from the shadow: same counter and
/// last user as the honest state, a different root.
pub struct ShadowReadServer {
    honest: HonestServer,
    shadow: HonestServer,
}

impl ShadowReadServer {
    pub fn new(config: &ProtocolConfig) -> ShadowReadServer {
        ShadowReadServer {
            honest: HonestServer::new(config),
            shadow: HonestServer::new(config),
        }
    }
}

impl ServerApi for ShadowReadServer {
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        let forged = match op {
            Op::Put(key, _) => Op::Put(key.clone(), b"forged".to_vec()),
            other => other.clone(),
        };
        self.shadow.handle_op(user, &forged, round);
        self.honest.handle_op(user, op, round)
    }

    fn deposit_signature(&mut self, user: UserId, s: SignedState) {
        self.honest.deposit_signature(user, s);
    }

    fn deposit_epoch_state(&mut self, s: SignedEpochState) {
        self.honest.deposit_epoch_state(s);
    }

    fn fetch_epoch_states(&mut self, requester: UserId, epoch: Epoch) -> Vec<SignedEpochState> {
        self.honest.fetch_epoch_states(requester, epoch)
    }

    fn deposit_checkpoint(&mut self, c: SignedCheckpoint) {
        self.honest.deposit_checkpoint(c);
    }

    fn fetch_checkpoint(&mut self, requester: UserId, epoch: Epoch) -> Option<SignedCheckpoint> {
        self.honest.fetch_checkpoint(requester, epoch)
    }

    fn metrics(&self) -> ServerMetrics {
        self.honest.metrics()
    }

    fn read_snapshot(&self) -> Option<ReadSnapshot> {
        self.shadow.read_snapshot()
    }
}
