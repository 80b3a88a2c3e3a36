//! Protocol II client (§4.3): signature-free XOR state accumulators.
//!
//! Per operation, the server returns `(Q(D), v(Q,D), ctr, j)` — no
//! signature, no extra blocking message. The client maintains
//!
//! * `σᵢ` — XOR of every state token it has witnessed, where a state token
//!   is `h(M(D) ‖ ctr ‖ user)` with `user` the user who *created* the state
//!   (the tag that forces in-degree ≤ 1 in the state graph, Lemma 4.1, and
//!   defeats the Fig. 3 replay that breaks the untagged strawman);
//! * `lastᵢ` — the most recent state token it created;
//! * `gctrᵢ` — the last seen counter + 1 (counter must be strictly
//!   increasing across this user's operations);
//! * `lctrᵢ` — its own operation count (sync-up trigger).
//!
//! At sync-up all users broadcast `σᵢ`; in an honest run every intermediate
//! state token appears exactly twice (once created, once consumed) and
//! cancels, leaving `initial ⊕ final`. Exactly the user who performed the
//! final operation finds `initial ⊕ lastᵢ == ⊕ₖ σₖ` and announces success.
//!
//! Note: the paper's step 4 reads "error if `ctr ≤ gctrᵢ`", which would
//! reject a user's own back-to-back operations (its step 6 sets
//! `gctrᵢ = ctr + 1`); we implement the evidently intended check
//! `ctr < gctrᵢ` ⇒ error.

use tcvs_crypto::{Digest, UserId};
use tcvs_merkle::{
    replay_batch_unanchored, replay_unanchored, BatchVerified, Op, OpResult, Verified,
};
use tcvs_obs::{stage, Event, EventKind, SpanContext, Tracer};

use crate::evidence::{EvidenceBuilder, EvidenceKind, TriggerInfo};
use crate::forensics::{LoggedTransition, TransitionLog};
use crate::msg::{BatchResponse, ServerResponse, SyncShare};
use crate::protocol::{Anchor, Exchange, Port, Protocol};
use crate::state::{initial_token, state_token};
use crate::sync::protocol2_sync_ok;
use crate::types::{Ctr, Deviation, ProtocolConfig};

/// Protocol II client state machine. Constant-size state (§2.2.5).
pub struct Client2 {
    user: UserId,
    config: ProtocolConfig,
    /// The session's anchor token: the genesis token, or the join-point
    /// token of a mid-history join (the `initial` of the sync-up predicate).
    initial: Digest,
    /// XOR accumulator `σᵢ`.
    sigma: Digest,
    /// Last state token created by this user.
    last: Option<Digest>,
    /// Last seen counter + 1.
    gctr: Ctr,
    /// Own operation count.
    lctr: u64,
    ops_since_sync: u64,
    /// Optional transition log for post-mortem fault localization (the
    /// future-work extension in [`crate::forensics`]). `None` keeps the
    /// paper's constant-memory guarantee (§2.2.5).
    log: Option<TransitionLog>,
    /// Event tracer (disabled by default; see [`Protocol::set_tracer`]).
    tracer: Tracer,
    /// Trace context of the operation currently being verified (set by the
    /// transport layer before `handle_response`); emitted events link to it.
    current_span: Option<SpanContext>,
}

impl Client2 {
    /// Creates a client knowing the initial root digest `M(D₀)`.
    pub fn new(user: UserId, root0: &Digest, config: ProtocolConfig) -> Client2 {
        Client2 {
            user,
            config,
            initial: initial_token(root0),
            sigma: Digest::ZERO,
            last: None,
            gctr: 0,
            lctr: 0,
            ops_since_sync: 0,
            log: None,
            tracer: Tracer::disabled(),
            current_span: None,
        }
    }

    /// A session that joins **mid-history**, anchored at a published state
    /// `(root, ctr, last_user)` — e.g. the server's sampled state, or the
    /// state of a server restored by verified state sync.
    ///
    /// The σ fold telescopes from the join-point state token instead of
    /// the genesis token: at sync-up, `initial ⊕ lastᵢ` cancels exactly the
    /// transitions witnessed *since the join*, so a late joiner (or a
    /// client of a server restored from a peer's chunks) evaluates the
    /// Protocol II predicate over its own era without replaying history.
    /// The join anchor is the server's word until then: joining at a lie
    /// surfaces as a failed sync-up, same as any fork.
    pub fn join(
        user: UserId,
        root: &Digest,
        ctr: Ctr,
        last_user: UserId,
        config: ProtocolConfig,
    ) -> Client2 {
        Client2 {
            user,
            config,
            initial: state_token(root, ctr, last_user),
            sigma: Digest::ZERO,
            last: None,
            gctr: ctr,
            lctr: 0,
            ops_since_sync: 0,
            log: None,
            tracer: Tracer::disabled(),
            current_span: None,
        }
    }

    /// Enables transition logging (trades constant memory for exact fault
    /// localization via [`crate::forensics::diagnose`]).
    pub fn enable_logging(&mut self) {
        self.log = Some(TransitionLog::new());
    }

    /// The transition log, if logging was enabled.
    pub fn transition_log(&self) -> Option<&TransitionLog> {
        self.log.as_ref()
    }

    /// This user's id.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// `lctrᵢ`.
    pub fn lctr(&self) -> u64 {
        self.lctr
    }

    /// `gctrᵢ`.
    pub fn gctr(&self) -> Ctr {
        self.gctr
    }

    /// Current accumulator (exposed for the simulator's diagnostics).
    pub fn sigma(&self) -> Digest {
        self.sigma
    }

    /// Processes the server's response to `op`, returning the authenticated
    /// answer.
    pub fn handle_response(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
    ) -> Result<OpResult, Deviation> {
        let out = self.handle_response_inner(op, resp);
        match &out {
            Ok(_) => {
                self.tracer.emit(|| {
                    Event::new(self.gctr, EventKind::Deposit, self.user)
                        .detail(format!("accum lctr={} gctr={}", self.lctr, self.gctr))
                        .span_opt(self.current_span.map(|c| c.child(stage::DEPOSIT)))
                });
            }
            Err(dev) => {
                self.tracer.emit(|| {
                    Event::new(self.gctr, EventKind::Detection, self.user)
                        .detail(format!("{dev} lctr={} gctr={}", self.lctr, self.gctr))
                        .span_opt(self.current_span.map(|c| c.child(stage::VERDICT)))
                });
            }
        }
        out
    }

    fn handle_response_inner(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
    ) -> Result<OpResult, Deviation> {
        let (old_root, verified) = check_reply(self.anchor_now(), op, resp)?;

        // Step 6: accumulate the witnessed transition.
        let old_token = state_token(&old_root, resp.ctr, resp.last_user);
        let new_token = state_token(&verified.new_root, resp.ctr + 1, self.user);
        self.sigma ^= old_token;
        self.sigma ^= new_token;
        self.last = Some(new_token);
        self.gctr = resp.ctr + 1;
        self.lctr += 1;
        self.ops_since_sync += 1;
        if let Some(log) = &mut self.log {
            log.record(LoggedTransition {
                old_token,
                new_token,
                ctr: resp.ctr,
                user: self.user,
            });
        }
        Ok(verified.result)
    }

    /// Processes the server's response to a batched window of `ops`,
    /// returning the authenticated per-op answers.
    ///
    /// Verification replays the whole window on the single shared proof,
    /// checking every claimed answer; the accumulator update *telescopes*:
    /// within the window every intermediate state is both created and
    /// consumed by this user at consecutive counters, so the intermediate
    /// tokens cancel in XOR and only the pre-window and post-window tokens
    /// touch `σᵢ`. The replay therefore computes no intermediate root.
    /// `σᵢ`, `lastᵢ` and the counters are bit-identical to calling
    /// [`Client2::handle_response`] once per op — experiment-visible state
    /// cannot tell the two paths apart.
    ///
    /// The forensic log, when enabled, counts exchanges: one transition
    /// per window, from the pre-window token at `ctr` to the post-window
    /// token at `ctr + n`. No other user can consume an intermediate state
    /// of the window, so [`crate::forensics::diagnose`] locates a fork or
    /// an orphan exactly as on the per-op log; only
    /// `CleanPath.length` differs.
    pub fn handle_batch_response(
        &mut self,
        ops: &[Op],
        resp: &BatchResponse,
    ) -> Result<Vec<OpResult>, Deviation> {
        let out = self.handle_batch_response_inner(ops, resp);
        match &out {
            Ok(results) => {
                let n = results.len();
                self.tracer.emit(|| {
                    Event::new(self.gctr, EventKind::Deposit, self.user)
                        .detail(format!(
                            "accum batch={n} lctr={} gctr={}",
                            self.lctr, self.gctr
                        ))
                        .span_opt(self.current_span.map(|c| c.child(stage::DEPOSIT)))
                });
            }
            Err(dev) => {
                self.tracer.emit(|| {
                    Event::new(self.gctr, EventKind::Detection, self.user)
                        .detail(format!("{dev} lctr={} gctr={}", self.lctr, self.gctr))
                        .span_opt(self.current_span.map(|c| c.child(stage::VERDICT)))
                });
            }
        }
        out
    }

    fn handle_batch_response_inner(
        &mut self,
        ops: &[Op],
        resp: &BatchResponse,
    ) -> Result<Vec<OpResult>, Deviation> {
        if ops.is_empty() && resp.results.is_empty() {
            return Ok(Vec::new());
        }
        let (old_root, verified) = check_window(self.anchor_now(), ops, resp)?;

        // Step 6, telescoped: intermediate tokens are created and consumed
        // by this user at consecutive counters and cancel under XOR.
        let n = ops.len() as u64;
        let first_token = state_token(&old_root, resp.ctr, resp.last_user);
        let last_token = state_token(&verified.new_root, resp.ctr + n, self.user);
        self.sigma ^= first_token;
        self.sigma ^= last_token;
        if let Some(log) = &mut self.log {
            log.record(LoggedTransition {
                old_token: first_token,
                new_token: last_token,
                ctr: resp.ctr,
                user: self.user,
            });
        }
        self.last = Some(last_token);
        self.gctr = resp.ctr + n;
        self.lctr += n;
        self.ops_since_sync += n;
        Ok(verified.results)
    }

    /// The anchor the next reply is checked against. Nothing changes it
    /// before a check fails, so at a rejection it is the anchor that reply
    /// was checked against.
    fn anchor_now(&self) -> Anchor {
        Anchor {
            order: self.config.order,
            gctr: self.gctr,
        }
    }

    /// This user's broadcast share.
    pub fn sync_share(&self) -> SyncShare {
        SyncShare {
            user: self.user,
            lctr: self.lctr,
            gctr: self.gctr,
            sigma: self.sigma,
            last: self.last,
        }
    }

    /// The evidence of a failed sync-up, `None` when the shares pass: this
    /// user's [`Protocol::evidence`] with every user's share in place of
    /// its own. The sync-up harness grafts in what one client cannot know
    /// — the other users' logs, which fork diagnosis needs to name the
    /// fork point — before `.build()`.
    pub fn sync_evidence(
        &self,
        seed: u64,
        captured_at: u64,
        shares: &[SyncShare],
    ) -> Option<EvidenceBuilder> {
        if protocol2_sync_ok(&self.initial, shares) {
            return None;
        }
        let b = self.evidence(
            EvidenceKind::ProtocolVerdict,
            seed,
            captured_at,
            &Deviation::SyncFailed,
            None,
        )?;
        let b = b.description(format!("user {} saw the sync-up fail", self.user));
        Some(b.shares(shares.to_vec()))
    }

    /// This user's success predicate:
    /// `h(M(D₀) ‖ 0 ‖ ⊥) ⊕ lastᵢ == ⊕ₖ σₖ` — or, if no operation has ever
    /// happened anywhere, the trivial all-zero check.
    pub fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        let x = shares.iter().fold(Digest::ZERO, |acc, s| acc ^ s.sigma);
        let ok = if shares.iter().all(|s| s.lctr == 0) {
            x == Digest::ZERO
        } else {
            match self.last {
                Some(last) => self.initial ^ last == x,
                None => false,
            }
        };
        self.tracer.emit(|| {
            Event::new(self.gctr, EventKind::SyncUp, self.user)
                .detail(format!(
                    "{} lctr={} gctr={}",
                    if ok { "ok" } else { "fail" },
                    self.lctr,
                    self.gctr
                ))
                .span_opt(self.current_span.map(|c| c.child(stage::SYNC)))
        });
        ok
    }
}

/// Protocol II's check of one reply, before any state changes: step 4
/// (the counter this user sees must not regress) and step 5 (the proof
/// replays `op` to the claimed answer, yielding `M(D)` and `M(D′)`). A pure
/// function of the client's anchor, so a cold audit re-runs it on a sealed
/// [`Exchange`] exactly as the client ran it.
pub(crate) fn check_reply(
    anchor: Anchor,
    op: &Op,
    resp: &ServerResponse,
) -> Result<(Digest, Verified), Deviation> {
    check_ctr(anchor, resp.ctr)?;
    replay_unanchored(anchor.order, &resp.vo, op, Some(&resp.result)).map_err(Deviation::BadProof)
}

/// [`check_reply`] for a batched window: the pre-window counter must not
/// regress, and one replay of the whole window yields `M(D)` before it and
/// `M(D′)` after it.
pub(crate) fn check_window(
    anchor: Anchor,
    ops: &[Op],
    resp: &BatchResponse,
) -> Result<(Digest, BatchVerified), Deviation> {
    check_ctr(anchor, resp.ctr)?;
    replay_batch_unanchored(anchor.order, &resp.proof, ops, Some(&resp.results))
        .map_err(Deviation::BadProof)
}

fn check_ctr(anchor: Anchor, ctr: Ctr) -> Result<(), Deviation> {
    if ctr < anchor.gctr {
        return Err(Deviation::CounterRegression {
            seen: ctr,
            expected_at_least: anchor.gctr,
        });
    }
    Ok(())
}

impl Protocol for Client2 {
    const LABEL: &'static str = "protocol-2";

    fn step<P: Port>(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
        _round: u64,
        _port: &mut P,
    ) -> Result<OpResult, P::Error> {
        Ok(self.handle_response(op, resp)?)
    }

    /// Accumulation, sync-up, and verdict events carry this client's
    /// counter values (logical time, so traced runs stay deterministic).
    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Verdict spans land in the trace of `ctx`, the root context the
    /// transport put on the wire for this operation.
    fn set_current_span(&mut self, ctx: Option<SpanContext>) {
        self.current_span = ctx;
    }

    /// True after `k` own operations since the last sync-up.
    fn wants_sync(&self) -> bool {
        self.ops_since_sync >= self.config.k
    }

    fn sync_share(&self) -> Option<SyncShare> {
        Some(Client2::sync_share(self))
    }

    fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        Client2::sync_succeeds(self, shares)
    }

    fn sync_done(&mut self) {
        self.ops_since_sync = 0;
    }

    fn anchor(&self) -> Option<Anchor> {
        Some(self.anchor_now())
    }

    /// The exchange, plus this client's side of the record: the detecting
    /// user, its anchor token, its sync share, and its transition log when
    /// logging is on.
    fn evidence(
        &self,
        kind: EvidenceKind,
        seed: u64,
        captured_at: u64,
        deviation: &Deviation,
        exchange: Option<Exchange>,
    ) -> Option<EvidenceBuilder> {
        let mut b = EvidenceBuilder::new(kind, seed, Self::LABEL)
            .captured_at(captured_at)
            .description(format!(
                "user {} rejected a server response at lctr {}",
                self.user, self.lctr
            ))
            .trigger(TriggerInfo {
                user: Some(self.user),
                ..TriggerInfo::from_deviation(deviation)
            })
            .exchange(exchange)
            .initial(self.initial)
            .shares(vec![Client2::sync_share(self)]);
        if let Some(log) = &self.log {
            b = b.transition_log(self.user, log);
        }
        Some(b)
    }
}

/// Helpers for sibling modules' tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use tcvs_merkle::MerkleTree;

    /// A Client2 for `user` over the canonical empty initial root.
    pub(crate) fn fresh_client(user: UserId, config: &ProtocolConfig) -> Client2 {
        let root0 = MerkleTree::with_order(config.order).root_digest();
        Client2::new(user, &root0, *config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{HonestServer, ServerApi};
    use tcvs_merkle::u64_key;

    fn setup(n: u32) -> (Vec<Client2>, HonestServer, ProtocolConfig) {
        let config = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 100,
        };
        let server = HonestServer::new(&config);
        let root0 = server.core().root_digest();
        let clients = (0..n).map(|u| Client2::new(u, &root0, config)).collect();
        (clients, server, config)
    }

    fn run_op(c: &mut Client2, s: &mut HonestServer, op: Op, round: u64) -> OpResult {
        let resp = s.handle_op(c.user(), &op, round);
        c.handle_response(&op, &resp).unwrap()
    }

    fn sync_outcome(clients: &[Client2]) -> bool {
        let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
        clients.iter().any(|c| c.sync_succeeds(&shares))
    }

    #[test]
    fn honest_run_sync_succeeds_for_exactly_the_last_operator() {
        let (mut clients, mut server, _) = setup(3);
        for i in 0..24u64 {
            let u = ((i * 2 + 1) % 3) as usize;
            let op = if i % 3 == 0 {
                Op::Put(u64_key(i % 5), vec![i as u8])
            } else {
                Op::Get(u64_key(i % 5))
            };
            run_op(&mut clients[u], &mut server, op, i);
        }
        let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
        let successes: Vec<bool> = clients.iter().map(|c| c.sync_succeeds(&shares)).collect();
        assert_eq!(successes.iter().filter(|&&b| b).count(), 1);
        // The last op (i = 23) was by user ((23*2+1) % 3) = 2.
        assert!(successes[2]);
    }

    #[test]
    fn back_to_back_own_ops_accepted() {
        // Regression guard for the paper's off-by-one: a user's consecutive
        // ops see ctr == gctr and must be accepted.
        let (mut clients, mut server, _) = setup(1);
        for i in 0..5 {
            run_op(
                &mut clients[0],
                &mut server,
                Op::Put(u64_key(1), vec![i]),
                i as u64,
            );
        }
        assert_eq!(clients[0].lctr(), 5);
        assert!(sync_outcome(&clients));
    }

    #[test]
    fn counter_regression_detected_immediately() {
        let (mut clients, mut server, _) = setup(1);
        run_op(
            &mut clients[0],
            &mut server,
            Op::Put(u64_key(1), vec![1]),
            0,
        );
        let op = Op::Get(u64_key(1));
        let mut resp = server.handle_op(0, &op, 1);
        resp.ctr = 0; // replayed counter
        assert!(matches!(
            clients[0].handle_response(&op, &resp),
            Err(Deviation::CounterRegression {
                seen: 0,
                expected_at_least: 1
            })
        ));
    }

    #[test]
    fn zero_op_sync_trivially_succeeds() {
        let (clients, _, _) = setup(4);
        assert!({
            let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
            clients.iter().all(|c| c.sync_succeeds(&shares))
        });
    }

    #[test]
    fn dropped_state_breaks_sync() {
        // Two users operate; we then erase one user's accumulator as if the
        // server had hidden that user's transition from the chain.
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
        shares[0].sigma = Digest::ZERO; // user 0's transition vanishes
        assert!(!clients.iter().any(|c| c.sync_succeeds(&shares)));
    }

    #[test]
    fn tampered_answer_rejected() {
        let (mut clients, mut server, _) = setup(1);
        run_op(
            &mut clients[0],
            &mut server,
            Op::Put(u64_key(3), vec![3]),
            0,
        );
        let op = Op::Get(u64_key(3));
        let mut resp = server.handle_op(0, &op, 1);
        resp.result = tcvs_merkle::OpResult::Value(Some(vec![99]));
        assert!(matches!(
            clients[0].handle_response(&op, &resp),
            Err(Deviation::BadProof(_))
        ));
    }

    #[test]
    fn wants_sync_after_k_ops() {
        let (mut clients, mut server, config) = setup(1);
        for i in 0..config.k {
            assert!(!clients[0].wants_sync());
            run_op(&mut clients[0], &mut server, Op::Get(u64_key(0)), i);
        }
        assert!(clients[0].wants_sync());
        clients[0].sync_done();
        assert!(!clients[0].wants_sync());
    }

    #[test]
    fn batched_window_is_bitwise_equivalent_to_per_op_path() {
        // Same op stream, two transcripts: one per-op, one batched in
        // windows. All verifier-visible state must match exactly.
        let ops: Vec<Op> = (0..16u64)
            .map(|i| {
                if i % 3 == 0 {
                    Op::Put(u64_key(i % 5), vec![i as u8; 4])
                } else {
                    Op::Get(u64_key(i % 5))
                }
            })
            .collect();

        let (mut per_op, mut sa, _) = setup(1);
        for (i, op) in ops.iter().enumerate() {
            run_op(&mut per_op[0], &mut sa, op.clone(), i as u64);
        }

        let (mut batched, mut sb, _) = setup(1);
        let mut expected = Vec::new();
        for window in ops.chunks(4) {
            let resp = sb.handle_op_batch(0, 0, window, 0).unwrap();
            expected.extend(batched[0].handle_batch_response(window, &resp).unwrap());
        }
        assert_eq!(per_op[0].sigma(), batched[0].sigma());
        assert_eq!(per_op[0].gctr(), batched[0].gctr());
        assert_eq!(per_op[0].lctr(), batched[0].lctr());
        assert_eq!(per_op[0].last, batched[0].last);
        assert_eq!(sa.core().root_digest(), sb.core().root_digest());
        assert!(sync_outcome(&batched));
    }

    #[test]
    fn batched_forged_result_detected() {
        let (mut clients, mut server, _) = setup(1);
        let window = vec![Op::Put(u64_key(1), vec![1]), Op::Get(u64_key(1))];
        let mut resp = server.handle_op_batch(0, 0, &window, 0).unwrap();
        resp.results[1] = tcvs_merkle::OpResult::Value(Some(vec![99]));
        assert!(matches!(
            clients[0].handle_batch_response(&window, &resp),
            Err(Deviation::BadProof(_))
        ));
    }

    #[test]
    fn batched_counter_regression_detected() {
        let (mut clients, mut server, _) = setup(1);
        let w1 = vec![Op::Put(u64_key(1), vec![1]), Op::Put(u64_key(2), vec![2])];
        let r1 = server.handle_op_batch(0, 0, &w1, 0).unwrap();
        clients[0].handle_batch_response(&w1, &r1).unwrap();
        let w2 = vec![Op::Get(u64_key(1))];
        let mut r2 = server.handle_op_batch(0, 0, &w2, 0).unwrap();
        r2.ctr = 0; // replayed pre-window counter
        assert!(matches!(
            clients[0].handle_batch_response(&w2, &r2),
            Err(Deviation::CounterRegression { .. })
        ));
    }

    #[test]
    fn batched_dropped_result_detected() {
        let (mut clients, mut server, _) = setup(1);
        let window = vec![Op::Put(u64_key(1), vec![1]), Op::Get(u64_key(1))];
        let mut resp = server.handle_op_batch(0, 0, &window, 0).unwrap();
        resp.results.pop();
        assert!(matches!(
            clients[0].handle_batch_response(&window, &resp),
            Err(Deviation::BadProof(
                tcvs_merkle::VerifyError::BatchLengthMismatch
            ))
        ));
    }

    #[test]
    fn batched_windows_interleave_with_per_op_users() {
        // One user batches, another uses the per-op path; the sync-up
        // algebra must still close.
        let (mut clients, mut server, _) = setup(2);
        let window = vec![
            Op::Put(u64_key(1), vec![1]),
            Op::Put(u64_key(2), vec![2]),
            Op::Get(u64_key(1)),
        ];
        let resp = server.handle_op_batch(0, 0, &window, 0).unwrap();
        clients[0].handle_batch_response(&window, &resp).unwrap();
        run_op(&mut clients[1], &mut server, Op::Get(u64_key(2)), 3);
        let window2 = vec![Op::Get(u64_key(2)), Op::Put(u64_key(3), vec![3])];
        let resp2 = server.handle_op_batch(0, 0, &window2, 4).unwrap();
        clients[0].handle_batch_response(&window2, &resp2).unwrap();
        assert!(sync_outcome(&clients));
    }

    #[test]
    fn sigma_is_order_sensitive_but_content_exact() {
        // Two honest interleavings of the same ops produce different sigmas
        // per user, yet both pass the global check.
        let (mut ca, mut sa, _) = setup(2);
        run_op(&mut ca[0], &mut sa, Op::Put(u64_key(1), vec![1]), 0);
        run_op(&mut ca[1], &mut sa, Op::Put(u64_key(2), vec![2]), 1);
        assert!(sync_outcome(&ca));

        let (mut cb, mut sb, _) = setup(2);
        run_op(&mut cb[1], &mut sb, Op::Put(u64_key(2), vec![2]), 0);
        run_op(&mut cb[0], &mut sb, Op::Put(u64_key(1), vec![1]), 1);
        assert!(sync_outcome(&cb));
        assert_ne!(ca[0].sigma(), cb[0].sigma());
    }
}
