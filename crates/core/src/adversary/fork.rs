//! The partition (fork) attack of Fig. 1 / §3.
//!
//! Until the trigger, the server is honest. At the trigger it silently
//! clones the database: group A users continue on branch A, everyone else
//! on branch B. Each branch is *internally* perfectly consistent — every
//! per-operation check passes — so without external communication the two
//! groups can never notice that they have diverged (Theorem 3.1). The
//! broadcast sync-up (Protocols I/II) or the epoch audit (Protocol III) is
//! what exposes the fork.

use std::collections::BTreeSet;

use tcvs_crypto::UserId;
use tcvs_merkle::Op;

use crate::msg::{BatchResponse, ServerResponse, SignedCheckpoint, SignedEpochState, SignedState};
use crate::server::{ServerApi, ServerCore, ServerMetrics};
use crate::types::{Epoch, ProtocolConfig};

use super::Trigger;

/// A server mounting the partition attack.
pub struct ForkServer {
    branch_a: ServerCore,
    branch_b: Option<ServerCore>,
    group_a: BTreeSet<UserId>,
    trigger: Trigger,
}

impl ForkServer {
    /// Creates a fork server; users in `group_a` stay on branch A after the
    /// trigger fires, all others move to branch B.
    pub fn new(config: &ProtocolConfig, trigger: Trigger, group_a: &[UserId]) -> ForkServer {
        ForkServer {
            branch_a: ServerCore::new(config),
            branch_b: None,
            group_a: group_a.iter().copied().collect(),
            trigger,
        }
    }

    /// True iff the database has already been forked.
    pub fn forked(&self) -> bool {
        self.branch_b.is_some()
    }

    fn maybe_fork(&mut self) {
        if self.branch_b.is_none() && self.trigger.fires(self.branch_a.ctr()) {
            self.branch_b = Some(self.branch_a.clone());
        }
    }

    fn branch_for(&mut self, user: UserId) -> &mut ServerCore {
        match &mut self.branch_b {
            Some(b) if !self.group_a.contains(&user) => b,
            _ => &mut self.branch_a,
        }
    }
}

impl ServerApi for ForkServer {
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        self.maybe_fork();
        self.branch_for(user).process(user, op, round)
    }

    /// Serves windows too, so the fork can split a window's pre-state. A
    /// window is one exchange: the fork happens before the first request
    /// whose pre-state counter has reached the trigger.
    fn handle_op_batch(
        &mut self,
        user: UserId,
        _seq: u64,
        ops: &[Op],
        round: u64,
    ) -> Option<BatchResponse> {
        self.maybe_fork();
        self.branch_for(user).process_batch(user, ops, round)
    }

    fn deposit_signature(&mut self, user: UserId, s: SignedState) {
        self.branch_for(user).store_signature(s);
    }

    fn deposit_epoch_state(&mut self, s: SignedEpochState) {
        let user = s.user;
        self.branch_for(user).store_epoch_state(s);
    }

    fn fetch_epoch_states(&mut self, requester: UserId, epoch: Epoch) -> Vec<SignedEpochState> {
        self.branch_for(requester).epoch_states(epoch)
    }

    fn deposit_checkpoint(&mut self, c: SignedCheckpoint) {
        let user = c.checker;
        self.branch_for(user).store_checkpoint(c);
    }

    fn fetch_checkpoint(&mut self, requester: UserId, epoch: Epoch) -> Option<SignedCheckpoint> {
        self.branch_for(requester).checkpoint(epoch)
    }

    fn metrics(&self) -> ServerMetrics {
        let mut m = self.branch_a.metrics();
        if let Some(b) = &self.branch_b {
            let mb = b.metrics();
            m.ops += mb.ops;
            m.msgs_in += mb.msgs_in;
            m.msgs_out += mb.msgs_out;
            m.bytes_out += mb.bytes_out;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_merkle::u64_key;

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 10,
        }
    }

    #[test]
    fn pre_fork_everyone_shares_one_history() {
        let mut s = ForkServer::new(&config(), Trigger::AtCtr(100), &[0]);
        let r0 = s.handle_op(0, &Op::Put(u64_key(1), vec![1]), 0);
        let r1 = s.handle_op(1, &Op::Get(u64_key(1)), 1);
        assert_eq!(r0.ctr, 0);
        assert_eq!(r1.ctr, 1);
        assert_eq!(r1.last_user, 0);
        assert!(!s.forked());
    }

    #[test]
    fn post_fork_branches_diverge_silently() {
        let mut s = ForkServer::new(&config(), Trigger::AtCtr(2), &[0]);
        s.handle_op(0, &Op::Put(u64_key(1), vec![1]), 0);
        s.handle_op(1, &Op::Get(u64_key(1)), 1);
        // Trigger fires at ctr 2: user 0 writes on branch A.
        let ra = s.handle_op(0, &Op::Put(u64_key(9), vec![9]), 2);
        assert!(s.forked());
        assert_eq!(ra.ctr, 2);
        // User 1's next op lands on branch B, which never saw key 9 and
        // whose counter continues from the fork point — internally valid.
        let rb = s.handle_op(1, &Op::Get(u64_key(9)), 3);
        assert_eq!(rb.ctr, 2, "branch B counter continues from fork point");
        assert_eq!(rb.result, tcvs_merkle::OpResult::Value(None));
    }

    #[test]
    fn branches_remain_internally_consistent() {
        // Each branch's responses still verify as a correct chain: the
        // per-operation replay cannot expose the fork.
        let mut s = ForkServer::new(&config(), Trigger::AtCtr(1), &[0]);
        s.handle_op(0, &Op::Put(u64_key(1), vec![1]), 0);
        let op = Op::Put(u64_key(2), vec![2]);
        let r = s.handle_op(1, &op, 1); // branch B
        let (_, verified) = tcvs_merkle::replay_unanchored(4, &r.vo, &op, Some(&r.result)).unwrap();
        // Next B op chains from that new root.
        let op2 = Op::Get(u64_key(2));
        let r2 = s.handle_op(1, &op2, 2);
        let (old_root, _) =
            tcvs_merkle::replay_unanchored(4, &r2.vo, &op2, Some(&r2.result)).unwrap();
        assert_eq!(old_root, verified.new_root);
    }

    #[test]
    fn never_trigger_stays_honest() {
        let mut s = ForkServer::new(&config(), Trigger::Never, &[0]);
        for i in 0..20 {
            s.handle_op((i % 3) as u32, &Op::Put(u64_key(i), vec![i as u8]), i);
        }
        assert!(!s.forked());
        assert_eq!(s.metrics().ops, 20);
    }
}
