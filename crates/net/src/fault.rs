//! Deterministic fault injection for the threaded deployment: a middleware
//! thread interposed between client handles and the server thread.
//!
//! A [`FaultLink`] executes a [`FaultPlan`] against live traffic. Faults
//! apply only to the **first delivery** of each operation `(user, seq)` —
//! retries pass through clean — so a bounded-retry client always converges:
//! benign faults cost latency, never correctness, and the protocol oracles
//! can assert zero false deviation alarms under any plan.
//!
//! Fault semantics on the wire:
//!
//! * `DropRequest` — the request is discarded; the client's reply channel
//!   disconnects and it retries.
//! * `DropReply` — the request is forwarded but its reply sender is swapped
//!   for a dead end; the server executes (journaling the reply) and the
//!   client's retry is answered from the journal. This is the at-most-once
//!   hazard exactly-once semantics exist for.
//! * `Delay(r)` — delivery is held back roughly `r` milliseconds (the
//!   threaded stand-in for `r` rounds).
//! * `Duplicate` — the request is forwarded twice; the server's journal
//!   absorbs the second copy without re-executing.
//! * `ReorderNext` — the request is stashed and delivered after the next
//!   message that passes the link (an adjacent reorder).
//! * `CrashRestart` — after forwarding the request, the link crash-restarts
//!   the server and waits for the restart to complete.
//!
//! Deposits and fetches are never faulted: the plan's unit is the operation,
//! matching [`FaultPlan`]'s simulator semantics. Every operation — plain
//! or batched window — travels as one call shape and is faulted the same
//! way. A client bound to a link never runs a call inline on the server
//! (that would bypass the plan): the link forwards everything into the
//! server thread's queue, where it is counted like any other request.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Sender};
use parking_lot::Mutex;
use tcvs_core::{FaultCounts, FaultKind, FaultPlan, UserId};
use tcvs_obs::{stage, Event, EventKind};

use crate::obs::NetStats;
use crate::server::{sealed, Endpoint, Request, Wire, WireHandle};

/// How long one simulated delay round lasts on the wire.
const ROUND: Duration = Duration::from_millis(1);

/// A fault-injecting link in front of a server. Bind clients to it exactly
/// as they would bind to the [`crate::NetServer`] itself.
pub struct FaultLink {
    tx: Sender<Request>,
    applied: Arc<Mutex<FaultCounts>>,
}

impl sealed::Sealed for FaultLink {}

impl Endpoint for FaultLink {
    fn wire(&self) -> WireHandle {
        WireHandle(Wire::link(self.tx.clone()))
    }
}

impl FaultLink {
    /// Interposes a fault-injecting thread between future clients and
    /// `server`, executing `plan` against the operations that pass through
    /// (in arrival order; the `n`-th distinct operation is op index `n`).
    pub fn interpose(server: &impl Endpoint, plan: FaultPlan) -> FaultLink {
        FaultLink::interpose_observed(server, plan, NetStats::disabled())
    }

    /// Like [`FaultLink::interpose`], but each injected fault also emits a
    /// [`EventKind::FaultInjected`] event through `stats` (logical time =
    /// the op index the fault hit).
    pub fn interpose_observed(
        server: &impl Endpoint,
        plan: FaultPlan,
        stats: NetStats,
    ) -> FaultLink {
        let down = server.wire().0;
        let (tx, rx) = unbounded::<Request>();
        let applied = Arc::new(Mutex::new(FaultCounts::default()));
        let counts = Arc::clone(&applied);
        // Detached: the thread exits when every client sender and the
        // FaultLink handle are gone, or when the downstream server is.
        std::thread::spawn(move || {
            let mut seen: HashSet<(UserId, u64)> = HashSet::new();
            let mut op_index: u64 = 0;
            let mut stash: Option<Request> = None;
            while let Ok(req) = rx.recv() {
                let mut stashed_now = false;
                let delivered = match req {
                    Request::Call(call) if seen.insert((call.head.user, call.head.seq)) => {
                        let fault = plan.fault_at(op_index);
                        if let Some(kind) = fault {
                            stats.tracer.emit(|| {
                                Event::new(op_index, EventKind::FaultInjected, call.head.user)
                                    .detail(format!("{kind:?}"))
                                    .span_opt(call.head.ctx.map(|c| c.child(stage::FAULT)))
                            });
                        }
                        op_index += 1;
                        match fault {
                            None => down.send(call.into()).is_ok(),
                            Some(FaultKind::DropRequest) => {
                                counts.lock().drops += 1;
                                // Dropping the request (and its reply sender
                                // with it) disconnects the client's wait; it
                                // retries.
                                true
                            }
                            Some(FaultKind::DropReply) => {
                                counts.lock().drops += 1;
                                down.send(call.severed().into()).is_ok()
                            }
                            Some(FaultKind::Delay(rounds)) => {
                                counts.lock().delays += 1;
                                std::thread::sleep(ROUND * rounds.min(1000) as u32);
                                down.send(call.into()).is_ok()
                            }
                            Some(FaultKind::Duplicate) => {
                                counts.lock().duplicates += 1;
                                // The copy shares the reply sender: the
                                // server's journal absorbs whichever copy
                                // arrives second.
                                down.send(call.clone().into()).is_ok()
                                    && down.send(call.into()).is_ok()
                            }
                            Some(FaultKind::ReorderNext) => {
                                counts.lock().reorders += 1;
                                // Two back-to-back reorders would collide;
                                // release the older one first.
                                if let Some(prev) = stash.take() {
                                    let _ = down.send(prev);
                                }
                                stash = Some(call.into());
                                stashed_now = true;
                                true
                            }
                            Some(FaultKind::Storage(_)) => {
                                // Storage faults apply between the engine
                                // and its medium, not on the wire; the link
                                // counts them and passes the request clean.
                                counts.lock().storage += 1;
                                down.send(call.into()).is_ok()
                            }
                            Some(FaultKind::CrashRestart) => {
                                counts.lock().crashes += 1;
                                down.send(call.into()).is_ok() && {
                                    let (ack_tx, ack_rx) = bounded(1);
                                    down.send(Request::Crash { ack: ack_tx }).is_ok()
                                        && ack_rx.recv().is_ok()
                                }
                            }
                        }
                    }
                    // Retries, deposits, fetches, shutdown: pass through.
                    other => down.send(other).is_ok(),
                };
                if !delivered {
                    return;
                }
                if !stashed_now {
                    if let Some(prev) = stash.take() {
                        if down.send(prev).is_err() {
                            return;
                        }
                    }
                }
            }
            // All senders gone: release anything still stashed.
            if let Some(prev) = stash.take() {
                let _ = down.send(prev);
            }
        });
        FaultLink { tx, applied }
    }

    /// Faults actually applied so far (a prefix of the plan if the run was
    /// shorter than the plan).
    pub fn applied(&self) -> FaultCounts {
        *self.applied.lock()
    }
}
