//! The hide-key attack: the server answers a read of a key that *is*
//! present with "no such entry", and ships a proof whose leaf for that key
//! is nothing but pair digests.
//!
//! Every digest in that proof is honest, so it still commits to the true
//! root. What it cannot do is prove absence: a leaf that hides entries
//! behind their digests proves only the entries it ships whole, and an
//! absence needs the whole neighbourhood (Bauer's keyed hash tree,
//! PAPERS.md). The client's replay reaches a hidden key and reports
//! `IncompleteProof` on the attacked op itself — per op or inside a
//! batched window, under every protocol.

use tcvs_crypto::UserId;
use tcvs_merkle::{Op, OpResult};

use crate::msg::{BatchResponse, ServerResponse};
use crate::server::{ServerApi, ServerCore};
use crate::types::{Ctr, ProtocolConfig};

use super::{delegate_deposits_to_core, Trigger};

/// A server that, once the trigger fires, hides the first present key a
/// `Get` asks for.
pub struct HideKeyServer {
    core: ServerCore,
    trigger: Trigger,
    hidden_at: Option<Ctr>,
}

impl HideKeyServer {
    /// Creates a hide-key server.
    pub fn new(config: &ProtocolConfig, trigger: Trigger) -> HideKeyServer {
        HideKeyServer {
            core: ServerCore::new(config),
            trigger,
            hidden_at: None,
        }
    }

    /// The counter of the op whose key was hidden, once it happened.
    pub fn hidden_at(&self) -> Option<Ctr> {
        self.hidden_at
    }

    /// True iff the `Get` at counter `ctr` is the read to attack: the
    /// trigger has fired, nothing was hidden yet, and the honest answer
    /// found the key.
    fn attacks(&self, ctr: Ctr, result: &OpResult) -> bool {
        self.hidden_at.is_none()
            && self.trigger.fires(ctr)
            && matches!(result, OpResult::Value(Some(_)))
    }
}

impl ServerApi for HideKeyServer {
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        let mut resp = self.core.process(user, op, round);
        if let Op::Get(key) = op {
            if self.attacks(resp.ctr, &resp.result) {
                self.hidden_at = Some(resp.ctr);
                resp.result = OpResult::Value(None);
                resp.vo.withhold(key);
            }
        }
        resp
    }

    /// Serves windows too, so the attack also reaches the batched verifier.
    fn handle_op_batch(
        &mut self,
        user: UserId,
        _seq: u64,
        ops: &[Op],
        round: u64,
    ) -> Option<BatchResponse> {
        let mut resp = self.core.process_batch(user, ops, round)?;
        let target =
            ops.iter()
                .zip(&resp.results)
                .enumerate()
                .find_map(|(i, (op, result))| match op {
                    Op::Get(key) if self.attacks(resp.ctr + i as Ctr, result) => Some((i, key)),
                    _ => None,
                });
        if let Some((i, key)) = target {
            self.hidden_at = Some(resp.ctr + i as Ctr);
            resp.results[i] = OpResult::Value(None);
            resp.proof.withhold(key);
        }
        Some(resp)
    }

    delegate_deposits_to_core!(core);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client2::tests_support::fresh_client;
    use crate::types::Deviation;
    use tcvs_merkle::{replay_unanchored, u64_key, VerifyError};

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 10,
        }
    }

    /// A server holding keys 0..8, with the hide armed from counter 8 on.
    fn armed() -> HideKeyServer {
        let mut s = HideKeyServer::new(&config(), Trigger::AtCtr(8));
        for i in 0..8u64 {
            s.handle_op(0, &Op::Put(u64_key(i), vec![i as u8]), i);
        }
        s
    }

    #[test]
    fn hides_only_a_present_key_and_only_once() {
        let mut s = armed();
        // An absent key and a write pass through untouched.
        let absent = Op::Get(u64_key(99));
        let r = s.handle_op(0, &absent, 8);
        assert_eq!(r.result, OpResult::Value(None));
        assert!(replay_unanchored(4, &r.vo, &absent, Some(&r.result)).is_ok());
        s.handle_op(0, &Op::Put(u64_key(1), vec![7]), 9);
        assert_eq!(s.hidden_at(), None);

        let op = Op::Get(u64_key(3));
        let r = s.handle_op(0, &op, 10);
        assert_eq!(s.hidden_at(), Some(10));
        assert_eq!(r.result, OpResult::Value(None));
        assert_eq!(
            r.vo.root_digest(),
            s.core.root_digest(),
            "every digest is honest"
        );
        assert_eq!(
            replay_unanchored(4, &r.vo, &op, Some(&r.result)).map(|_| ()),
            Err(VerifyError::IncompleteProof)
        );
        // The same proof does not verify the honest answer either.
        let honest = OpResult::Value(Some(vec![3]));
        assert_eq!(
            replay_unanchored(4, &r.vo, &op, Some(&honest)).map(|_| ()),
            Err(VerifyError::IncompleteProof)
        );

        let r = s.handle_op(0, &op, 11);
        assert_eq!(r.result, OpResult::Value(Some(vec![3])), "honest again");
        assert!(replay_unanchored(4, &r.vo, &op, Some(&r.result)).is_ok());
    }

    #[test]
    fn protocol2_client_detects_the_hidden_key_in_a_window() {
        let mut s = armed();
        let mut c = fresh_client(0, &config());
        let window = vec![
            Op::Get(u64_key(99)),
            Op::Put(u64_key(2), vec![9]),
            Op::Get(u64_key(5)),
            Op::Get(u64_key(6)),
        ];
        let resp = s.handle_op_batch(0, 0, &window, 8);
        assert_eq!(s.hidden_at(), Some(10), "the first present-key Get");
        assert!(resp.is_some_and(|r| matches!(
            c.handle_batch_response(&window, &r),
            Err(Deviation::BadProof(VerifyError::IncompleteProof))
        )));
    }
}
