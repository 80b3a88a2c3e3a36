//! Protocol I client (§4.2): signed root digests + operation counter +
//! broadcast sync-up every `k` operations.
//!
//! Per operation, the server returns `(Q(D), v(Q,D), ctr, j, sig)` where
//! `sig = sigⱼ(h(M(D) ‖ ctr))`. The client
//!
//! 1. computes `M(D)` from the verification object,
//! 2. checks `sig` is a legitimate signature over `h(M(D) ‖ ctr)`,
//! 3. replays the operation to obtain `M(D′)`,
//! 4. updates `lctrᵢ ← lctrᵢ + 1`, `gctrᵢ ← ctr + 1`, and
//! 5. returns `sigᵢ(h(M(D′) ‖ ctr + 1))` for deposit at the server.
//!
//! The deposit (step 5) is an extra, *blocking* message: the server cannot
//! serve the next operation until it holds the new signature. Protocol II
//! removes exactly this cost (experiments E2 and E6 measure it).
//!
//! The per-user state is constant-size (§2.2.5): two counters plus the
//! signing key.

use tcvs_crypto::{Digest, KeyRegistry, Keyring};
use tcvs_merkle::{verify_response, Op, OpResult};
use tcvs_obs::{stage, Event, EventKind, SpanContext, Tracer};

use crate::msg::{ServerResponse, SignedState, SyncShare};
use crate::protocol::{Anchor, Deposit, Port, Protocol};
use crate::state::signed_payload;
use crate::types::{Ctr, Deviation, ProtocolConfig};

/// Protocol I client state machine.
pub struct Client1 {
    keyring: Keyring,
    registry: KeyRegistry,
    config: ProtocolConfig,
    /// Total operations this user has performed (`lctrᵢ`).
    lctr: u64,
    /// Last seen global counter + 1 (`gctrᵢ`).
    gctr: Ctr,
    /// Operations since the last sync-up (drives the sync trigger).
    ops_since_sync: u64,
    /// Event tracer (disabled by default; see [`Protocol::set_tracer`]).
    tracer: Tracer,
    /// Trace context of the operation currently being verified (set by the
    /// transport layer before `handle_response`); emitted events link to it.
    current_span: Option<SpanContext>,
}

impl Client1 {
    /// Creates a client. `keyring` is this user's signing identity;
    /// `registry` holds every user's authentic public key.
    pub fn new(keyring: Keyring, registry: KeyRegistry, config: ProtocolConfig) -> Client1 {
        Client1 {
            keyring,
            registry,
            config,
            lctr: 0,
            gctr: 0,
            ops_since_sync: 0,
            tracer: Tracer::disabled(),
            current_span: None,
        }
    }

    /// This user's id.
    pub fn user(&self) -> tcvs_crypto::UserId {
        self.keyring.user
    }

    /// `lctrᵢ`: operations performed so far.
    pub fn lctr(&self) -> u64 {
        self.lctr
    }

    /// Does the message-independent half of the next signature now (see
    /// [`Keyring::prepare`]). The deposit holds every other user's request
    /// at the server, so this runs once the deposit is on its way — never
    /// between receiving a response and depositing.
    fn prepare_signature(&mut self) {
        self.keyring.prepare();
    }

    /// Initialization step: the elected user signs `h(M(D₀) ‖ 0)` for
    /// deposit at the server before any operation (protocol line 2).
    pub fn sign_initial(&mut self, root0: &Digest) -> Result<SignedState, Deviation> {
        let payload = signed_payload(root0, 0);
        let sig = self
            .keyring
            .sign(&payload)
            .map_err(|_| Deviation::KeyExhausted)?;
        Ok(SignedState {
            signer: self.keyring.user,
            root: *root0,
            ctr: 0,
            sig,
        })
    }

    /// Processes the server's response to `op`.
    ///
    /// On success returns the authenticated answer plus the signature over
    /// the new state, which the caller must deposit at the server before the
    /// server may serve the next operation.
    pub fn handle_response(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
    ) -> Result<(OpResult, SignedState), Deviation> {
        let out = self.handle_response_inner(op, resp);
        self.trace_outcome(&out);
        out
    }

    /// Emits the deposit/detection event for a completed verification.
    fn trace_outcome(&self, out: &Result<(OpResult, SignedState), Deviation>) {
        match out {
            Ok((_, deposit)) => {
                let ctr = deposit.ctr;
                self.tracer.emit(|| {
                    Event::new(self.gctr, EventKind::Deposit, self.keyring.user)
                        .detail(format!("ctr={ctr} lctr={} gctr={}", self.lctr, self.gctr))
                        .span_opt(self.current_span.map(|c| c.child(stage::DEPOSIT)))
                });
            }
            Err(dev) => {
                self.tracer.emit(|| {
                    Event::new(self.gctr, EventKind::Detection, self.keyring.user)
                        .detail(format!("{dev} lctr={} gctr={}", self.lctr, self.gctr))
                        .span_opt(self.current_span.map(|c| c.child(stage::VERDICT)))
                });
            }
        }
    }

    fn handle_response_inner(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
    ) -> Result<(OpResult, SignedState), Deviation> {
        // Step 2-3: the signature must be present and legitimate for the
        // state the verification object commits to.
        let signed = resp.sig.as_ref().ok_or(Deviation::BadSignature)?;

        // Replay first to learn the content-committed M(D) and M(D');
        // anchor the proof to the root the signature attests.
        let verified = verify_response(
            &signed.root,
            self.config.order,
            &resp.vo,
            op,
            Some(&resp.result),
            None,
        )
        .map_err(Deviation::BadProof)?;

        // The signature must cover exactly (M(D), ctr) as presented.
        if signed.ctr != resp.ctr {
            return Err(Deviation::BadSignature);
        }
        let payload = signed_payload(&signed.root, resp.ctr);
        if !self.registry.verify(signed.signer, &payload, &signed.sig) {
            return Err(Deviation::BadSignature);
        }

        // Step 5: bookkeeping.
        self.lctr += 1;
        self.gctr = resp.ctr + 1;
        self.ops_since_sync += 1;

        // Step 6: sign the new state for deposit.
        let new_payload = signed_payload(&verified.new_root, resp.ctr + 1);
        let sig = self
            .keyring
            .sign(&new_payload)
            .map_err(|_| Deviation::KeyExhausted)?;
        let deposit = SignedState {
            signer: self.keyring.user,
            root: verified.new_root,
            ctr: resp.ctr + 1,
            sig,
        };
        Ok((verified.result, deposit))
    }

    /// This user's broadcast share for a sync-up.
    pub fn sync_share(&self) -> SyncShare {
        SyncShare {
            user: self.keyring.user,
            lctr: self.lctr,
            gctr: self.gctr,
            sigma: Digest::ZERO,
            last: None,
        }
    }

    /// Evaluates this user's success predicate over all broadcast shares:
    /// `gctrᵢ == Σₖ lctrₖ`.
    pub fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        let total: u64 = shares.iter().map(|s| s.lctr).sum();
        let ok = self.gctr == total;
        self.tracer.emit(|| {
            Event::new(self.gctr, EventKind::SyncUp, self.keyring.user)
                .detail(format!(
                    "{} gctr={} total_lctr={total}",
                    if ok { "ok" } else { "fail" },
                    self.gctr
                ))
                .span_opt(self.current_span.map(|c| c.child(stage::SYNC)))
        });
        ok
    }

    /// Protocol I initialization: the elected user signs `h(M(D₀) ‖ 0)`,
    /// deposits it before any operation, then prepares its next key.
    pub fn deposit_initial<P: Port>(
        &mut self,
        root0: &Digest,
        port: &mut P,
    ) -> Result<(), P::Error> {
        let init = self.sign_initial(root0)?;
        port.deposit(Deposit::Signature(init))?;
        self.prepare_signature();
        Ok(())
    }
}

impl Protocol for Client1 {
    const LABEL: &'static str = "protocol-1";

    /// Verifies, deposits the signature over the new state (the deposit
    /// the blocking server waits for), then prepares the next one-time key.
    fn step<P: Port>(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
        _round: u64,
        port: &mut P,
    ) -> Result<OpResult, P::Error> {
        let (result, deposit) = self.handle_response(op, resp)?;
        port.deposit(Deposit::Signature(deposit))?;
        // The server is released; build the next one-time key while it
        // serves the other users.
        self.prepare_signature();
        Ok(result)
    }

    /// Deposit, sync-up, and verdict events carry this client's counter
    /// values (logical time, so traced runs stay deterministic).
    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Deposit and detection spans land in the trace of `ctx`, the root
    /// context the transport put on the wire for this operation.
    fn set_current_span(&mut self, ctx: Option<SpanContext>) {
        self.current_span = ctx;
    }

    fn anchor(&self) -> Option<Anchor> {
        Some(Anchor {
            order: self.config.order,
            gctr: self.gctr,
        })
    }

    /// True after `k` own operations since the last sync-up.
    fn wants_sync(&self) -> bool {
        self.ops_since_sync >= self.config.k
    }

    fn sync_share(&self) -> Option<SyncShare> {
        Some(Client1::sync_share(self))
    }

    fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        Client1::sync_succeeds(self, shares)
    }

    fn sync_done(&mut self) {
        self.ops_since_sync = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Direct;
    use crate::server::{HonestServer, ServerApi};
    use tcvs_crypto::setup_users;
    use tcvs_merkle::u64_key;

    fn setup(n: u32) -> (Vec<Client1>, HonestServer, ProtocolConfig) {
        let config = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 100,
        };
        let (rings, registry) = setup_users([9u8; 32], n, 6);
        let clients: Vec<Client1> = rings
            .into_iter()
            .map(|r| Client1::new(r, registry.clone(), config))
            .collect();
        let mut server = HonestServer::new(&config);
        // Elect user 0 to sign the initial state.
        let mut clients = clients;
        let root0 = server.core().root_digest();
        clients[0]
            .deposit_initial(&root0, &mut Direct(&mut server))
            .unwrap();
        (clients, server, config)
    }

    fn run_op(c: &mut Client1, s: &mut HonestServer, op: Op, round: u64) -> OpResult {
        let resp = s.handle_op(c.user(), &op, round);
        c.step(&op, &resp, round, &mut Direct(s)).unwrap()
    }

    #[test]
    fn honest_interleaving_verifies() {
        let (mut clients, mut server, _) = setup(3);
        for i in 0..30u64 {
            let user = (i % 3) as usize;
            let op = if i % 2 == 0 {
                Op::Put(u64_key(i % 7), vec![i as u8])
            } else {
                Op::Get(u64_key((i - 1) % 7))
            };
            run_op(&mut clients[user], &mut server, op, i);
        }
        assert_eq!(clients.iter().map(|c| c.lctr()).sum::<u64>(), 30);
        // Sync: the most recent operator must succeed.
        let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
        assert!(clients.iter().any(|c| c.sync_succeeds(&shares)));
    }

    #[test]
    fn sync_trigger_counts_own_ops() {
        let (mut clients, mut server, config) = setup(2);
        for i in 0..config.k {
            run_op(&mut clients[0], &mut server, Op::Get(u64_key(0)), i);
        }
        assert!(clients[0].wants_sync());
        assert!(!clients[1].wants_sync());
        clients[0].sync_done();
        assert!(!clients[0].wants_sync());
    }

    #[test]
    fn forged_signature_rejected() {
        let (mut clients, mut server, _) = setup(2);
        run_op(
            &mut clients[0],
            &mut server,
            Op::Put(u64_key(1), vec![1]),
            0,
        );
        let op = Op::Get(u64_key(1));
        let mut resp = server.handle_op(1, &op, 1);
        // Corrupt the signature bytes.
        if let Some(s) = resp.sig.as_mut() {
            s.sig.auth_path[0].0[0] ^= 1;
        }
        assert!(matches!(
            clients[1].handle_response(&op, &resp),
            Err(Deviation::BadSignature)
        ));
    }

    #[test]
    fn missing_signature_rejected() {
        let (mut clients, mut server, _) = setup(1);
        let op = Op::Get(u64_key(0));
        let mut resp = server.handle_op(0, &op, 0);
        resp.sig = None;
        assert!(matches!(
            clients[0].handle_response(&op, &resp),
            Err(Deviation::BadSignature)
        ));
    }

    #[test]
    fn mismatched_ctr_in_signature_rejected() {
        let (mut clients, mut server, _) = setup(1);
        let op = Op::Get(u64_key(0));
        let mut resp = server.handle_op(0, &op, 0);
        // Server lies about ctr relative to the signed one.
        resp.ctr = 5;
        let err = clients[0].handle_response(&op, &resp).unwrap_err();
        assert!(matches!(
            err,
            Deviation::BadSignature | Deviation::BadProof(_)
        ));
    }

    #[test]
    fn tampered_answer_rejected() {
        let (mut clients, mut server, _) = setup(1);
        run_op(
            &mut clients[0],
            &mut server,
            Op::Put(u64_key(1), vec![7]),
            0,
        );
        let op = Op::Get(u64_key(1));
        let mut resp = server.handle_op(0, &op, 1);
        resp.result = tcvs_merkle::OpResult::Value(Some(vec![66]));
        assert!(matches!(
            clients[0].handle_response(&op, &resp),
            Err(Deviation::BadProof(_))
        ));
    }

    #[test]
    fn sync_detects_lost_operation() {
        // Simulate a server that dropped an op: counts disagree.
        let (mut clients, mut server, _) = setup(2);
        run_op(
            &mut clients[0],
            &mut server,
            Op::Put(u64_key(1), vec![1]),
            0,
        );
        run_op(
            &mut clients[1],
            &mut server,
            Op::Put(u64_key(2), vec![2]),
            1,
        );
        let mut shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
        // Forge: pretend user 0 actually did 3 ops that the server hid.
        shares[0].lctr = 3;
        assert!(!clients.iter().any(|c| c.sync_succeeds(&shares)));
    }

    #[test]
    fn zero_ops_sync_trivially_succeeds() {
        let (clients, _server, _) = setup(3);
        let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
        assert!(clients.iter().all(|c| c.sync_succeeds(&shares)));
    }
}
