//! The untagged-XOR strawman (§4.3, "a first attempt").
//!
//! Identical to Protocol II except the state tokens are `h(M(D) ‖ ctr)` —
//! no user tag. All states that occur twice cancel at sync-up, so the check
//! only sees the first and last state. Fig. 3 shows why this is unsound:
//! by replaying a state to multiple users the server can give intermediate
//! nodes even degree without the graph being a path, violating availability
//! undetected. Experiment E4 reproduces exactly that.

use tcvs_crypto::{Digest, UserId};
use tcvs_merkle::{replay_unanchored, Op, OpResult};

use crate::msg::{ServerResponse, SyncShare};
use crate::protocol::{Port, Protocol};
use crate::state::untagged_token;
use crate::types::{Ctr, Deviation, ProtocolConfig};

/// Client for the naive (untagged) XOR protocol.
pub struct NaiveXorClient {
    user: UserId,
    config: ProtocolConfig,
    initial: Digest,
    sigma: Digest,
    last: Option<Digest>,
    gctr: Ctr,
    lctr: u64,
}

impl NaiveXorClient {
    /// Creates a client knowing `M(D₀)`.
    pub fn new(user: UserId, root0: &Digest, config: ProtocolConfig) -> NaiveXorClient {
        NaiveXorClient {
            user,
            config,
            initial: untagged_token(root0, 0),
            sigma: Digest::ZERO,
            last: None,
            gctr: 0,
            lctr: 0,
        }
    }

    /// Processes a server response (same per-op checks as Protocol II, but
    /// untagged accumulation).
    pub fn handle_response(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
    ) -> Result<OpResult, Deviation> {
        if resp.ctr < self.gctr {
            return Err(Deviation::CounterRegression {
                seen: resp.ctr,
                expected_at_least: self.gctr,
            });
        }
        let (old_root, verified) =
            replay_unanchored(self.config.order, &resp.vo, op, Some(&resp.result))
                .map_err(Deviation::BadProof)?;
        let old_token = untagged_token(&old_root, resp.ctr);
        let new_token = untagged_token(&verified.new_root, resp.ctr + 1);
        self.sigma ^= old_token;
        self.sigma ^= new_token;
        self.last = Some(new_token);
        self.gctr = resp.ctr + 1;
        self.lctr += 1;
        Ok(verified.result)
    }
}

impl Protocol for NaiveXorClient {
    const LABEL: &'static str = "naive-xor";

    fn step<P: Port>(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
        _round: u64,
        _port: &mut P,
    ) -> Result<OpResult, P::Error> {
        Ok(self.handle_response(op, resp)?)
    }

    fn sync_share(&self) -> Option<SyncShare> {
        Some(SyncShare {
            user: self.user,
            lctr: self.lctr,
            gctr: self.gctr,
            sigma: self.sigma,
            last: self.last,
        })
    }

    /// The same shape as Protocol II's predicate.
    fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        let x = shares.iter().fold(Digest::ZERO, |acc, s| acc ^ s.sigma);
        if shares.iter().all(|s| s.lctr == 0) {
            return x == Digest::ZERO;
        }
        match self.last {
            Some(last) => self.initial ^ last == x,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{HonestServer, ServerApi};
    use tcvs_merkle::u64_key;

    fn setup(n: u32) -> (Vec<NaiveXorClient>, HonestServer) {
        let config = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 100,
        };
        let server = HonestServer::new(&config);
        let root0 = server.core().root_digest();
        let clients = (0..n)
            .map(|u| NaiveXorClient::new(u, &root0, config))
            .collect();
        (clients, server)
    }

    #[test]
    fn honest_run_passes() {
        let (mut clients, mut server) = setup(2);
        for i in 0..10u64 {
            let u = (i % 2) as usize;
            let op = Op::Put(u64_key(i % 3), vec![i as u8]);
            let resp = server.handle_op(u as u32, &op, i);
            clients[u].handle_response(&op, &resp).unwrap();
        }
        let shares: Vec<SyncShare> = clients.iter().filter_map(|c| c.sync_share()).collect();
        assert_eq!(shares.len(), 2, "the strawman has a sync-up");
        assert!(clients.iter().any(|c| c.sync_succeeds(&shares)));
    }

    #[test]
    fn per_op_integrity_still_caught() {
        // The strawman still has the Merkle layer: outright lies fail.
        let (mut clients, mut server) = setup(1);
        let op = Op::Get(u64_key(1));
        let mut resp = server.handle_op(0, &op, 0);
        resp.result = tcvs_merkle::OpResult::Value(Some(b"lie".to_vec()));
        assert!(matches!(
            clients[0].handle_response(&op, &resp),
            Err(Deviation::BadProof(_))
        ));
    }
}
