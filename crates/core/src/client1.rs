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
use tcvs_merkle::{verify_batch_response, verify_response, Op, OpResult, VerifyError};
use tcvs_obs::{stage, Event, EventKind, SpanContext, Tracer};

use crate::msg::{PipelinedResponse, ServerResponse, SignedState, SyncShare};
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
    /// The last state this user *verified* — `(M(D), ctr)` after its most
    /// recent operation (or the initial state, for the elected signer).
    /// The pipelined path anchors behind the served op, so this is the
    /// client's own defense line: any backfill window it accepts must pass
    /// through this exact state, pinning the server to the history this
    /// client has already observed.
    frontier: Option<(Digest, Ctr)>,
    /// Operations since the last sync-up (drives the sync trigger).
    ops_since_sync: u64,
    /// Event tracer (disabled by default; see [`Client1::set_tracer`]).
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
            frontier: None,
            ops_since_sync: 0,
            tracer: Tracer::disabled(),
            current_span: None,
        }
    }

    /// Attaches an event tracer: deposit, sync-up, and verdict events are
    /// emitted with this client's counter values. Events carry logical time
    /// (`gctr`), so traced runs stay deterministic.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Sets (or clears) the wire trace context subsequent verdict events
    /// attach to. The transport handle calls this once per operation with
    /// the same root context it put on the wire, so the client's deposit /
    /// detection spans land in the same trace as the server's handling.
    pub fn set_current_span(&mut self, ctx: Option<SpanContext>) {
        self.current_span = ctx;
    }

    /// This user's id.
    pub fn user(&self) -> tcvs_crypto::UserId {
        self.keyring.user
    }

    /// `lctrᵢ`: operations performed so far.
    pub fn lctr(&self) -> u64 {
        self.lctr
    }

    /// `gctrᵢ`: last seen counter + 1.
    pub fn gctr(&self) -> Ctr {
        self.gctr
    }

    /// Does the message-independent half of the next signature now (see
    /// [`Keyring::prepare`]). The deposit holds every other user's request
    /// at the server, so a transport calls this once the deposit is on its
    /// way — never between receiving a response and depositing.
    pub fn prepare_signature(&mut self) {
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
        self.frontier = Some((*root0, 0));
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

    /// Processes a pipelined-deposit response to `op` (see
    /// [`PipelinedResponse`]).
    ///
    /// The signature may attest a state *behind* the served operation; the
    /// response carries the intervening operations (`backfill`) and a proof
    /// anchored at the signed root. The client verifies the lagging
    /// signature, replays backfill + own op from the signed state, checks
    /// the claimed answer against the replay, and — exactly as in the
    /// blocking path — signs the resulting root at `resp.ctr + 1` for
    /// deposit. A caught-up pipeline (`backfill` empty, `sig.ctr ==
    /// resp.ctr`) makes this path verify the same facts as
    /// [`Client1::handle_response`].
    pub fn handle_pipelined_response(
        &mut self,
        op: &Op,
        presp: &PipelinedResponse,
    ) -> Result<(OpResult, SignedState), Deviation> {
        let out = self.handle_pipelined_response_inner(op, presp);
        self.trace_outcome(&out);
        out
    }

    fn handle_pipelined_response_inner(
        &mut self,
        op: &Op,
        presp: &PipelinedResponse,
    ) -> Result<(OpResult, SignedState), Deviation> {
        let resp = &presp.resp;
        let signed = resp.sig.as_ref().ok_or(Deviation::BadSignature)?;

        // The backfill must account for *exactly* the counter gap between
        // the signed state and the served operation: a shorter window would
        // leave unanchored transitions, a longer one would replay ops the
        // signature already covers.
        if signed
            .ctr
            .checked_add(presp.backfill.len() as u64)
            .is_none_or(|expected| expected != resp.ctr)
        {
            return Err(Deviation::BadSignature);
        }
        // The window must pass through this client's verified frontier:
        // the anchor may not sit *after* it (that would let the server
        // rewrite in-flight history this client already observed — the
        // replayed root is compared against the frontier below), and the
        // served counter may not sit before it (counter reuse).
        if let Some((_, fctr)) = self.frontier {
            if resp.ctr < fctr {
                return Err(Deviation::CounterRegression {
                    seen: resp.ctr,
                    expected_at_least: fctr,
                });
            }
            if signed.ctr > fctr {
                return Err(Deviation::BadSignature);
            }
        }
        let payload = signed_payload(&signed.root, signed.ctr);
        if !self.registry.verify(signed.signer, &payload, &signed.sig) {
            return Err(Deviation::BadSignature);
        }

        // Replay the backfill and then our own operation, anchored at the
        // signed root. Every claimed intermediate transition is thereby
        // content-bound to a legitimately signed state.
        let window: Vec<Op> = presp
            .backfill
            .iter()
            .map(|(_, o)| o.clone())
            .chain(std::iter::once(op.clone()))
            .collect();
        let steps = verify_batch_response(
            &signed.root,
            self.config.order,
            &presp.base_proof,
            &window,
            None,
            None,
        )
        .map_err(Deviation::BadProof)?;
        let final_step = steps.last().expect("window contains our own op");
        if final_step.result != resp.result {
            return Err(Deviation::BadProof(VerifyError::AnswerMismatch));
        }

        // Frontier continuity: the replayed state at the frontier counter
        // must be byte-identical to the state this client verified there.
        // A server that forges any backfill op before the frontier shifts
        // that root and is caught here, immediately.
        if let Some((froot, fctr)) = self.frontier {
            let j = (fctr - signed.ctr) as usize;
            let root_at_frontier = if j == 0 {
                signed.root
            } else {
                steps[j - 1].new_root
            };
            if root_at_frontier != froot {
                return Err(Deviation::BadProof(VerifyError::RootMismatch));
            }
        }

        // Step 5: bookkeeping.
        self.lctr += 1;
        self.gctr = resp.ctr + 1;
        self.frontier = Some((final_step.new_root, resp.ctr + 1));
        self.ops_since_sync += 1;

        // Step 6: sign the new state for deposit.
        let new_payload = signed_payload(&final_step.new_root, resp.ctr + 1);
        let sig = self
            .keyring
            .sign(&new_payload)
            .map_err(|_| Deviation::KeyExhausted)?;
        let deposit = SignedState {
            signer: self.keyring.user,
            root: final_step.new_root,
            ctr: resp.ctr + 1,
            sig,
        };
        Ok((final_step.result.clone(), deposit))
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
        self.frontier = Some((verified.new_root, resp.ctr + 1));
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

    /// True iff this user has completed `k` operations since the last
    /// sync-up and should announce one on the broadcast channel.
    pub fn wants_sync(&self) -> bool {
        self.ops_since_sync >= self.config.k
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

    /// Records that a sync-up round completed (resets the trigger).
    pub fn sync_done(&mut self) {
        self.ops_since_sync = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let init = clients[0].sign_initial(&root0).unwrap();
        server.deposit_signature(0, init);
        (clients, server, config)
    }

    fn run_op(c: &mut Client1, s: &mut HonestServer, op: Op, round: u64) -> OpResult {
        let resp = s.handle_op(c.user(), &op, round);
        let (result, deposit) = c.handle_response(&op, &resp).unwrap();
        s.deposit_signature(c.user(), deposit);
        result
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

    mod pipelined {
        use super::*;
        use crate::msg::PipelinedResponse;
        use tcvs_merkle::{prune_for_ops, BatchProof, MerkleTree};

        /// Serves `op` for user 0 pipelined: the deposits for
        /// `backfill_ops` (performed by user 1) are still in flight, so the
        /// stored signature lags behind by the backfill length. `base` is
        /// the tree at the signed state.
        fn serve_pipelined(
            server: &mut HonestServer,
            base: &MerkleTree,
            backfill_ops: &[Op],
            op: &Op,
            round: u64,
        ) -> PipelinedResponse {
            let mut window: Vec<Op> = backfill_ops.to_vec();
            window.push(op.clone());
            let base_proof = BatchProof::new(prune_for_ops(base, &window));
            let resp = server.handle_op(0, op, round);
            PipelinedResponse {
                resp,
                base_proof,
                backfill: backfill_ops.iter().map(|o| (1, o.clone())).collect(),
            }
        }

        /// `setup` + one blocking op by user 0 (establishing its frontier)
        /// + two in-flight ops by user 1 whose deposits are withheld.
        fn pipelined_setup() -> (Vec<Client1>, HonestServer, MerkleTree, Vec<Op>) {
            let (mut clients, mut server, _) = setup(2);
            run_op(
                &mut clients[0],
                &mut server,
                Op::Put(u64_key(9), vec![9]),
                0,
            );
            let base = server.core().db().clone();
            let backfill_ops = vec![Op::Put(u64_key(1), vec![1]), Op::Put(u64_key(2), vec![2])];
            for (i, op) in backfill_ops.iter().enumerate() {
                server.handle_op(1, op, 1 + i as u64); // deposits in flight
            }
            (clients, server, base, backfill_ops)
        }

        #[test]
        fn lagging_signature_with_backfill_verifies() {
            let (mut clients, mut server, base, backfill_ops) = pipelined_setup();
            let op = Op::Get(u64_key(1));
            let presp = serve_pipelined(&mut server, &base, &backfill_ops, &op, 3);
            assert_eq!(presp.resp.sig.as_ref().unwrap().ctr, 1);
            assert_eq!(presp.resp.ctr, 3);
            let (result, deposit) = clients[0].handle_pipelined_response(&op, &presp).unwrap();
            assert_eq!(result, OpResult::Value(Some(vec![1])));
            assert_eq!(deposit.ctr, 4);
            assert_eq!(deposit.root, server.core().root_digest());
            assert_eq!(clients[0].gctr(), 4);
            assert_eq!(clients[0].lctr(), 2);
        }

        #[test]
        fn caught_up_pipeline_matches_blocking_path() {
            // Empty backfill (sig.ctr == resp.ctr): the pipelined verifier
            // accepts exactly what the blocking one would.
            let (mut clients, mut server, _) = setup(1);
            run_op(
                &mut clients[0],
                &mut server,
                Op::Put(u64_key(1), vec![1]),
                0,
            );
            let base = server.core().db().clone();
            let op = Op::Get(u64_key(1));
            let presp = serve_pipelined(&mut server, &base, &[], &op, 1);
            assert_eq!(
                presp.resp.sig.as_ref().unwrap().ctr,
                presp.resp.ctr,
                "pipeline is caught up"
            );
            let (result, deposit) = clients[0].handle_pipelined_response(&op, &presp).unwrap();
            assert_eq!(result, OpResult::Value(Some(vec![1])));
            assert_eq!(deposit.root, server.core().root_digest());
        }

        #[test]
        fn wrong_backfill_length_rejected() {
            let (mut clients, mut server, base, backfill_ops) = pipelined_setup();
            let op = Op::Get(u64_key(1));
            let mut presp = serve_pipelined(&mut server, &base, &backfill_ops, &op, 3);
            presp.backfill.pop(); // window no longer spans the counter gap
            assert!(matches!(
                clients[0].handle_pipelined_response(&op, &presp),
                Err(Deviation::BadSignature)
            ));
        }

        #[test]
        fn tampered_answer_rejected() {
            let (mut clients, mut server, base, backfill_ops) = pipelined_setup();
            let op = Op::Get(u64_key(1));
            let mut presp = serve_pipelined(&mut server, &base, &backfill_ops, &op, 3);
            presp.resp.result = OpResult::Value(Some(vec![66]));
            assert!(matches!(
                clients[0].handle_pipelined_response(&op, &presp),
                Err(Deviation::BadProof(_))
            ));
        }

        #[test]
        fn proof_anchored_at_wrong_state_rejected() {
            let (mut clients, mut server, _base, backfill_ops) = pipelined_setup();
            let op = Op::Get(u64_key(1));
            // Build the proof from the *post*-backfill tree: its root no
            // longer matches the signed anchor.
            let wrong_base = server.core().db().clone();
            let presp = serve_pipelined(&mut server, &wrong_base, &backfill_ops, &op, 3);
            assert!(matches!(
                clients[0].handle_pipelined_response(&op, &presp),
                Err(Deviation::BadProof(VerifyError::RootMismatch))
            ));
        }

        #[test]
        fn forged_backfill_content_breaks_the_anchor() {
            // The server substitutes a different op for user 1's committed
            // Put inside the window. The replay is anchored at the signed
            // root, so the forged window's final state disagrees with the
            // true database — the claimed answer can only match one of the
            // two chains, and this client's own next anchor exposes it.
            let (mut clients, mut server, base, backfill_ops) = pipelined_setup();
            let op = Op::Get(u64_key(1));
            let mut presp = serve_pipelined(&mut server, &base, &backfill_ops, &op, 3);
            // Forge: claim user 1 wrote 77 where it wrote 1. The honest
            // answer (Value(Some([1]))) now disagrees with the forged
            // window's replay.
            let forged = vec![Op::Put(u64_key(1), vec![77]), backfill_ops[1].clone()];
            presp.base_proof = BatchProof::new(prune_for_ops(&base, &{
                let mut w = forged.clone();
                w.push(op.clone());
                w
            }));
            presp.backfill = forged.into_iter().map(|o| (1, o)).collect();
            assert!(matches!(
                clients[0].handle_pipelined_response(&op, &presp),
                Err(Deviation::BadProof(VerifyError::AnswerMismatch))
            ));
        }

        #[test]
        fn window_rewriting_own_history_rejected() {
            // User 0 verified the state after its own op at ctr 0 (its
            // frontier). A window whose replay passes through ctr 1 with a
            // different root — rewriting user 0's own observed history —
            // must be rejected even though everything else is consistent.
            let (mut clients, mut server, _) = setup(2);
            run_op(
                &mut clients[0],
                &mut server,
                Op::Put(u64_key(9), vec![9]),
                0,
            );
            // Fabricate an alternate chain from genesis: same sig anchor
            // (ctr 0) but user 0's op replaced.
            let root0 = MerkleTree::with_order(4).root_digest();
            let mut alt = MerkleTree::with_order(4);
            let alt_ops = vec![Op::Put(u64_key(9), vec![99])];
            let mut window = alt_ops.clone();
            let op = Op::Get(u64_key(9));
            window.push(op.clone());
            let base_proof = BatchProof::new(prune_for_ops(&alt, &window));
            let init = clients[1].sign_initial(&root0).unwrap();
            for w in &window {
                tcvs_merkle::apply_op(&mut alt, w).unwrap();
            }
            let mut resp = server.handle_op(0, &op, 1);
            resp.sig = Some(init);
            resp.result = OpResult::Value(Some(vec![99]));
            let presp = PipelinedResponse {
                resp,
                base_proof,
                backfill: alt_ops.into_iter().map(|o| (1, o)).collect(),
            };
            assert!(matches!(
                clients[0].handle_pipelined_response(&op, &presp),
                Err(Deviation::BadProof(VerifyError::RootMismatch))
            ));
        }

        #[test]
        fn anchor_ahead_of_frontier_rejected() {
            // An anchor *after* this client's frontier would skip the part
            // of history the frontier pins; the client refuses it.
            let (mut clients, mut server, base, backfill_ops) = pipelined_setup();
            let op = Op::Get(u64_key(1));
            // User 1's deposit for its first in-flight op now lands, moving
            // the stored signature to ctr 2 — past user 0's frontier (1).
            let sig2 = {
                // Reconstruct user 1's deposit over the state after its
                // first backfill op (ctr 2) by replaying from base.
                let mut t = base.clone();
                tcvs_merkle::apply_op(&mut t, &backfill_ops[0]).unwrap();
                let payload = signed_payload(&t.root_digest(), 2);
                let sig = clients[1].keyring.sign(&payload).unwrap();
                SignedState {
                    signer: clients[1].keyring.user,
                    root: t.root_digest(),
                    ctr: 2,
                    sig,
                }
            };
            server.deposit_signature(1, sig2);
            let mut presp = serve_pipelined(&mut server, &base, &backfill_ops, &op, 3);
            assert!(presp.resp.sig.as_ref().unwrap().ctr > 1);
            // Trim the backfill to span sig.ctr..resp.ctr.
            presp.backfill.remove(0);
            assert!(matches!(
                clients[0].handle_pipelined_response(&op, &presp),
                Err(Deviation::BadSignature)
            ));
        }
    }
}
