//! Protocol III client (§4.4): epoch-based detection with **no external
//! communication** — the untrusted server itself relays the users' signed
//! accumulator states.
//!
//! Time is divided into epochs of `t` rounds. The permitted workload is
//! restricted: every user performs at least two operations per epoch. Then:
//!
//! * During an epoch, each user accumulates Protocol II state tokens into
//!   an epoch-scoped `σᵢ` / `lastᵢ`.
//! * On its **first** operation in a new epoch, the user snapshots the
//!   finished epoch's `(σᵢ, lastᵢ)` (Fig. 4, point A).
//! * On its **second** operation, it deposits the snapshot — signed — on
//!   the server (point B).
//! * In epoch `e + 2`, the epoch-`e` **checker** (user `e mod n`) fetches
//!   all users' signed epoch-`e` states and runs the Protocol II
//!   synchronization check against the epoch's initial token (point C); the
//!   epoch's initial token is the previous epoch's audited final token,
//!   carried in a checker-signed [`SignedCheckpoint`] stored on the server.
//!
//! Signatures make deposited states unforgeable; *withholding* them is
//! itself detectable (the checker reports a missing state). Theorem 4.3:
//! every deviation is detected within two epochs — a **time** bound, unlike
//! the operation-count bounds of Protocols I and II.
//!
//! The client additionally cross-checks the server's announced epoch
//! against its own partially-synchronous clock (±1 epoch tolerance): a
//! server that freezes or skips epochs is itself deviating.

use tcvs_crypto::{Digest, KeyRegistry, Keyring, UserId};
use tcvs_merkle::{replay_unanchored, Op, OpResult};
use tcvs_obs::{stage, Event, EventKind, SpanContext, Tracer};

use crate::msg::{ServerResponse, SignedCheckpoint, SignedEpochState};
use crate::state::{initial_token, state_token};
use crate::types::{Ctr, Deviation, Epoch, ProtocolConfig};

/// Protocol III client state machine.
pub struct Client3 {
    keyring: Keyring,
    registry: KeyRegistry,
    n_users: u32,
    config: ProtocolConfig,
    /// `M(D₀)`'s token (epoch 0's initial token).
    initial0: Digest,
    /// Epoch-scoped accumulator.
    sigma: Digest,
    /// Epoch-scoped last-created token.
    last: Option<Digest>,
    /// Operations performed in the current epoch.
    ops_in_epoch: u64,
    /// The epoch this client believes it is in.
    cur_epoch: Epoch,
    /// Last seen counter + 1.
    gctr: Ctr,
    /// Total own operations.
    lctr: u64,
    /// Signed snapshots awaiting deposit (sent with the 2nd op of an epoch).
    pending_deposits: Vec<SignedEpochState>,
    /// The next epoch this user is the designated checker for.
    audit_cursor: Epoch,
    /// Event tracer (disabled by default; see [`Client3::set_tracer`]).
    tracer: Tracer,
    /// Trace context of the operation currently being verified (set by the
    /// transport layer before `handle_response`); emitted events link to it.
    current_span: Option<SpanContext>,
}

impl Client3 {
    /// Creates a client. `n_users` drives the checker rotation; `root0` is
    /// the common-knowledge initial root digest.
    pub fn new(
        keyring: Keyring,
        registry: KeyRegistry,
        n_users: u32,
        root0: &Digest,
        config: ProtocolConfig,
    ) -> Client3 {
        let audit_cursor = keyring.user as Epoch;
        Client3 {
            keyring,
            registry,
            n_users,
            config,
            initial0: initial_token(root0),
            sigma: Digest::ZERO,
            last: None,
            ops_in_epoch: 0,
            cur_epoch: 0,
            gctr: 0,
            lctr: 0,
            pending_deposits: Vec::new(),
            audit_cursor,
            tracer: Tracer::disabled(),
            current_span: None,
        }
    }

    /// Attaches an event tracer: epoch-state deposits, audits, and verdict
    /// events are emitted with counter / epoch values. Events carry logical
    /// time (`gctr` or the audited epoch), so traced runs stay deterministic.
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
    pub fn user(&self) -> UserId {
        self.keyring.user
    }

    /// Total operations performed.
    pub fn lctr(&self) -> u64 {
        self.lctr
    }

    /// The epoch this client is currently accumulating for.
    pub fn cur_epoch(&self) -> Epoch {
        self.cur_epoch
    }

    /// Does the message-independent half of the next signature now (see
    /// [`Keyring::prepare`]), so the next epoch-state or checkpoint deposit
    /// signs from a ready key.
    pub fn prepare_signature(&mut self) {
        self.keyring.prepare();
    }

    /// Signs the epoch snapshot for deposit.
    fn sign_epoch_state(
        &mut self,
        epoch: Epoch,
        sigma: Digest,
        last: Option<Digest>,
        ops: u64,
    ) -> Result<SignedEpochState, Deviation> {
        let payload =
            SignedEpochState::payload(self.keyring.user, epoch, &sigma, last.as_ref(), ops);
        let sig = self
            .keyring
            .sign(&payload)
            .map_err(|_| Deviation::KeyExhausted)?;
        Ok(SignedEpochState {
            user: self.keyring.user,
            epoch,
            sigma,
            last,
            ops,
            sig,
        })
    }

    /// Processes the server's response to `op`. `round` is the client's own
    /// clock reading (partial synchrony).
    ///
    /// Returns the authenticated answer plus any signed epoch states that
    /// must now be deposited on the server (non-empty on the second
    /// operation of a new epoch).
    pub fn handle_response(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
        round: u64,
    ) -> Result<(OpResult, Vec<SignedEpochState>), Deviation> {
        let out = self.handle_response_inner(op, resp, round);
        match &out {
            Ok((_, deposits)) => {
                for d in deposits {
                    let (epoch, ops) = (d.epoch, d.ops);
                    self.tracer.emit(|| {
                        Event::new(self.gctr, EventKind::Deposit, self.keyring.user)
                            .detail(format!("epoch={epoch} ops={ops} gctr={}", self.gctr))
                            .span_opt(self.current_span.map(|c| c.child(stage::DEPOSIT)))
                    });
                }
            }
            Err(dev) => {
                self.tracer.emit(|| {
                    Event::new(self.gctr, EventKind::Detection, self.keyring.user)
                        .detail(format!(
                            "{dev} epoch={} lctr={} gctr={}",
                            self.cur_epoch, self.lctr, self.gctr
                        ))
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
        round: u64,
    ) -> Result<(OpResult, Vec<SignedEpochState>), Deviation> {
        // Partial-synchrony cross-check of the server's epoch claim.
        let expected = round / self.config.epoch_len;
        if resp.epoch.abs_diff(expected) > 1 {
            return Err(Deviation::EpochSkew {
                claimed: resp.epoch,
                expected,
            });
        }
        // Epochs may only move forward.
        if resp.epoch < self.cur_epoch {
            return Err(Deviation::EpochSkew {
                claimed: resp.epoch,
                expected: self.cur_epoch,
            });
        }
        // Counter monotonicity (same as Protocol II).
        if resp.ctr < self.gctr {
            return Err(Deviation::CounterRegression {
                seen: resp.ctr,
                expected_at_least: self.gctr,
            });
        }

        // Epoch rollover: snapshot the finished epoch before accumulating
        // anything for the new one (Fig. 4, point A).
        if resp.epoch > self.cur_epoch {
            let sigma = std::mem::replace(&mut self.sigma, Digest::ZERO);
            let last = self.last.take();
            let ops = std::mem::replace(&mut self.ops_in_epoch, 0);
            let finished = self.cur_epoch;
            let snap = self.sign_epoch_state(finished, sigma, last, ops)?;
            self.pending_deposits.push(snap);
            // Epochs this user slept through entirely (workload violations
            // in honest runs, but deposit empty states so the audit can
            // distinguish "no ops" from "state withheld").
            for e in finished + 1..resp.epoch {
                let empty = self.sign_epoch_state(e, Digest::ZERO, None, 0)?;
                self.pending_deposits.push(empty);
            }
            self.cur_epoch = resp.epoch;
        }

        // The operation itself: Protocol II token accumulation.
        let (old_root, verified) =
            replay_unanchored(self.config.order, &resp.vo, op, Some(&resp.result))
                .map_err(Deviation::BadProof)?;
        let old_token = state_token(&old_root, resp.ctr, resp.last_user);
        let new_token = state_token(&verified.new_root, resp.ctr + 1, self.keyring.user);
        self.sigma ^= old_token;
        self.sigma ^= new_token;
        self.last = Some(new_token);
        self.gctr = resp.ctr + 1;
        self.lctr += 1;
        self.ops_in_epoch += 1;

        // Deposit snapshots with the second operation of the epoch
        // (Fig. 4, point B).
        let deposits = if self.ops_in_epoch >= 2 {
            std::mem::take(&mut self.pending_deposits)
        } else {
            Vec::new()
        };
        Ok((verified.result, deposits))
    }

    /// If this user currently owes an audit, the epoch to audit.
    ///
    /// User `u` audits epochs `u, u + n, u + 2n, …`; the audit of epoch `e`
    /// runs during epoch `e + 2` or later (point C).
    pub fn pending_audit(&self) -> Option<Epoch> {
        (self.audit_cursor + 2 <= self.cur_epoch).then_some(self.audit_cursor)
    }

    /// Performs the audit of `epoch` over the states fetched from the
    /// server. `prev_checkpoint` is the server-stored checkpoint of
    /// `epoch - 1` (`None` is valid only for epoch 0).
    ///
    /// On success returns the signed checkpoint to deposit; on failure the
    /// deviation that was detected.
    pub fn audit(
        &mut self,
        epoch: Epoch,
        states: &[SignedEpochState],
        prev_checkpoint: Option<&SignedCheckpoint>,
    ) -> Result<SignedCheckpoint, Deviation> {
        let out = self.audit_inner(epoch, states, prev_checkpoint);
        match &out {
            Ok(_) => {
                self.tracer.emit(|| {
                    Event::new(epoch, EventKind::Audit, self.keyring.user)
                        .detail(format!("ok epoch={epoch}"))
                        .span_opt(self.current_span.map(|c| c.child(stage::SYNC)))
                });
            }
            Err(dev) => {
                self.tracer.emit(|| {
                    Event::new(epoch, EventKind::Detection, self.keyring.user)
                        .detail(format!("audit {dev} epoch={epoch}"))
                        .span_opt(self.current_span.map(|c| c.child(stage::VERDICT)))
                });
            }
        }
        out
    }

    fn audit_inner(
        &mut self,
        epoch: Epoch,
        states: &[SignedEpochState],
        prev_checkpoint: Option<&SignedCheckpoint>,
    ) -> Result<SignedCheckpoint, Deviation> {
        // Establish the epoch's initial token.
        let initial = if epoch == 0 {
            self.initial0
        } else {
            let cp = prev_checkpoint.ok_or(Deviation::EpochCheckFailed(epoch))?;
            if cp.epoch != epoch - 1 {
                return Err(Deviation::EpochCheckFailed(epoch));
            }
            let expected_checker = ((epoch - 1) % self.n_users as Epoch) as UserId;
            if cp.checker != expected_checker {
                return Err(Deviation::BadEpochSignature(epoch - 1));
            }
            let payload = SignedCheckpoint::payload(cp.epoch, cp.checker, &cp.final_token);
            if !self.registry.verify(cp.checker, &payload, &cp.sig) {
                return Err(Deviation::BadEpochSignature(epoch - 1));
            }
            cp.final_token
        };

        // Every user's signed state must be present and authentic.
        let mut x = Digest::ZERO;
        let mut lasts: Vec<Digest> = Vec::new();
        let mut total_ops = 0u64;
        for u in 0..self.n_users {
            let s = states
                .iter()
                .find(|s| s.user == u && s.epoch == epoch)
                .ok_or(Deviation::MissingEpochState { epoch, user: u })?;
            let payload =
                SignedEpochState::payload(s.user, s.epoch, &s.sigma, s.last.as_ref(), s.ops);
            if !self.registry.verify(s.user, &payload, &s.sig) {
                return Err(Deviation::BadEpochSignature(epoch));
            }
            x ^= s.sigma;
            total_ops += s.ops;
            if let Some(l) = s.last {
                lasts.push(l);
            }
        }

        // The Protocol II synchronization check, scoped to this epoch.
        let final_token = if total_ops == 0 {
            if x != Digest::ZERO {
                return Err(Deviation::EpochCheckFailed(epoch));
            }
            initial
        } else {
            *lasts
                .iter()
                .find(|&&l| initial ^ l == x)
                .ok_or(Deviation::EpochCheckFailed(epoch))?
        };

        // Sign and return the checkpoint for the next epoch's audit.
        let payload = SignedCheckpoint::payload(epoch, self.keyring.user, &final_token);
        let sig = self
            .keyring
            .sign(&payload)
            .map_err(|_| Deviation::KeyExhausted)?;
        self.audit_cursor += self.n_users as Epoch;
        Ok(SignedCheckpoint {
            epoch,
            checker: self.keyring.user,
            final_token,
            sig,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{HonestServer, ServerApi};
    use tcvs_crypto::setup_users;
    use tcvs_merkle::u64_key;

    const EPOCH_LEN: u64 = 10;

    fn setup(n: u32) -> (Vec<Client3>, HonestServer) {
        let config = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: EPOCH_LEN,
        };
        let server = HonestServer::new(&config);
        let root0 = server.core().root_digest();
        let (rings, registry) = setup_users([4u8; 32], n, 5);
        let clients = rings
            .into_iter()
            .map(|r| Client3::new(r, registry.clone(), n, &root0, config))
            .collect();
        (clients, server)
    }

    /// Runs one op through server + client, forwarding deposits and audits.
    fn step(c: &mut Client3, s: &mut HonestServer, op: Op, round: u64) -> OpResult {
        let resp = s.handle_op(c.user(), &op, round);
        let (result, deposits) = c.handle_response(&op, &resp, round).unwrap();
        for d in deposits {
            s.deposit_epoch_state(d);
        }
        if let Some(e) = c.pending_audit() {
            let states = s.fetch_epoch_states(c.user(), e);
            let prev = if e == 0 {
                None
            } else {
                s.fetch_checkpoint(c.user(), e - 1)
            };
            let cp = c.audit(e, &states, prev.as_ref()).unwrap();
            s.deposit_checkpoint(cp);
        }
        result
    }

    /// Drives `epochs` epochs with every user doing `ops_per_epoch` ops.
    fn drive(clients: &mut [Client3], server: &mut HonestServer, epochs: u64, ops_per_epoch: u64) {
        let n = clients.len() as u64;
        for e in 0..epochs {
            for j in 0..ops_per_epoch {
                for u in 0..n {
                    // Spread ops across the epoch's rounds.
                    let round = e * EPOCH_LEN + (j * n + u) % EPOCH_LEN;
                    let op = Op::Put(u64_key((u * 17 + j) % 23), vec![e as u8, j as u8]);
                    step(&mut clients[u as usize], server, op, round);
                }
            }
        }
    }

    #[test]
    fn honest_epochs_audit_cleanly() {
        let (mut clients, mut server) = setup(3);
        drive(&mut clients, &mut server, 6, 2);
        // Audits for epochs 0..=3 must have produced checkpoints.
        for e in 0..4 {
            assert!(
                server.fetch_checkpoint(0, e).is_some(),
                "missing checkpoint for epoch {e}"
            );
        }
    }

    #[test]
    fn checkpoints_chain_final_tokens() {
        let (mut clients, mut server) = setup(2);
        drive(&mut clients, &mut server, 5, 2);
        let c0 = server.fetch_checkpoint(0, 0).unwrap();
        let c1 = server.fetch_checkpoint(0, 1).unwrap();
        assert_eq!(c0.epoch, 0);
        assert_eq!(c1.epoch, 1);
        assert_ne!(c0.final_token, c1.final_token);
        // Checker rotation: epoch e checked by user e mod n.
        assert_eq!(c0.checker, 0);
        assert_eq!(c1.checker, 1);
    }

    #[test]
    fn epoch_skew_detected() {
        let (mut clients, mut server) = setup(1);
        let op = Op::Get(u64_key(0));
        let mut resp = server.handle_op(0, &op, 0);
        resp.epoch = 7; // server lies wildly about the epoch
        assert!(matches!(
            clients[0].handle_response(&op, &resp, 0),
            Err(Deviation::EpochSkew {
                claimed: 7,
                expected: 0
            })
        ));
    }

    #[test]
    fn stuck_epoch_detected_by_local_clock() {
        let (mut clients, mut server) = setup(1);
        // Server processes at round 0 forever; client's clock says epoch 5.
        let op = Op::Get(u64_key(0));
        let resp = server.handle_op(0, &op, 0);
        let round = 5 * EPOCH_LEN;
        assert!(matches!(
            clients[0].handle_response(&op, &resp, round),
            Err(Deviation::EpochSkew { .. })
        ));
    }

    #[test]
    fn missing_state_detected_at_audit() {
        let (mut clients, mut server) = setup(2);
        drive(&mut clients, &mut server, 4, 2);
        // Audit epoch 2 manually with user 1's state withheld.
        let states: Vec<SignedEpochState> = server
            .fetch_epoch_states(0, 2)
            .into_iter()
            .filter(|s| s.user != 1)
            .collect();
        let prev = server.fetch_checkpoint(0, 1);
        // Force user 0 to audit epoch 2 (not its turn; bypass via fresh client).
        let err = clients[0].audit(2, &states, prev.as_ref()).unwrap_err();
        assert_eq!(err, Deviation::MissingEpochState { epoch: 2, user: 1 });
    }

    #[test]
    fn forged_epoch_state_detected_at_audit() {
        let (mut clients, mut server) = setup(2);
        drive(&mut clients, &mut server, 4, 2);
        let mut states = server.fetch_epoch_states(0, 2);
        states[0].sigma.0[0] ^= 1; // server tampers with a stored state
        let prev = server.fetch_checkpoint(0, 1);
        let err = clients[0].audit(2, &states, prev.as_ref()).unwrap_err();
        assert_eq!(err, Deviation::BadEpochSignature(2));
    }

    #[test]
    fn missing_checkpoint_fails_audit() {
        let (mut clients, mut server) = setup(2);
        drive(&mut clients, &mut server, 4, 2);
        let states = server.fetch_epoch_states(0, 2);
        let err = clients[0].audit(2, &states, None).unwrap_err();
        assert_eq!(err, Deviation::EpochCheckFailed(2));
    }

    #[test]
    fn wrong_checker_checkpoint_rejected() {
        let (mut clients, mut server) = setup(2);
        drive(&mut clients, &mut server, 4, 2);
        let states = server.fetch_epoch_states(0, 2);
        let mut prev = server.fetch_checkpoint(0, 1).unwrap();
        prev.checker = 0; // epoch 1's checker must be user 1
        let err = clients[0].audit(2, &states, Some(&prev)).unwrap_err();
        assert_eq!(err, Deviation::BadEpochSignature(1));
    }

    #[test]
    fn counter_regression_detected() {
        let (mut clients, mut server) = setup(1);
        step(
            &mut clients[0],
            &mut server,
            Op::Put(u64_key(1), vec![1]),
            0,
        );
        let op = Op::Get(u64_key(1));
        let mut resp = server.handle_op(0, &op, 1);
        resp.ctr = 0;
        assert!(matches!(
            clients[0].handle_response(&op, &resp, 1),
            Err(Deviation::CounterRegression { .. })
        ));
    }

    #[test]
    fn deposits_happen_on_second_op_of_epoch() {
        let (mut clients, mut server) = setup(1);
        // Epoch 0: two ops, no deposits yet (nothing finished).
        let op = Op::Get(u64_key(0));
        for round in [0, 1] {
            let resp = server.handle_op(0, &op, round);
            let (_, deps) = clients[0].handle_response(&op, &resp, round).unwrap();
            assert!(deps.is_empty());
        }
        // First op of epoch 1: snapshot taken, not yet deposited.
        let resp = server.handle_op(0, &op, EPOCH_LEN);
        let (_, deps) = clients[0].handle_response(&op, &resp, EPOCH_LEN).unwrap();
        assert!(deps.is_empty(), "deposit must wait for the second op");
        // Second op of epoch 1: deposit released.
        let resp = server.handle_op(0, &op, EPOCH_LEN + 1);
        let (_, deps) = clients[0]
            .handle_response(&op, &resp, EPOCH_LEN + 1)
            .unwrap();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].epoch, 0);
        assert_eq!(deps[0].ops, 2);
    }
}
