//! The client half of chunked verified state sync: fetch a chunk manifest
//! and its chunks over the wire, verify every chunk against the anchor
//! before admitting it, and assemble the full tree.
//!
//! A [`BootstrapClient`] rides the same bounded-retry transport machinery as
//! every other client ([`crate::RetryPolicy`] + the server's request
//! channel), tolerates out-of-order and duplicate delivery (the assembler
//! does), and is **resumable**: an interrupted bootstrap keeps its admitted
//! chunks, and [`BootstrapClient::rebind`] can even move the session to a
//! different peer serving the same snapshot — that is how a server that
//! lost its disk catches up from whichever replica still holds its state.
//!
//! Trust model: the transport, the manifest, and every chunk are untrusted.
//! The only trusted input is the anchor root the caller pins (from a
//! signed state, a sync-up or out-of-band); with no pin, the client verifies
//! internal consistency against the *served* anchor, and the caller must
//! check [`BootstrapReport::root`] against an independently learned root
//! before acting on the data.

use tcvs_core::{Ctr, Digest, EvidenceBuilder, EvidenceBundle, EvidenceKind, TriggerInfo, UserId};
use tcvs_merkle::{ChunkAssembler, ChunkError, ChunkManifest, MerkleTree};

use crate::client::Link;
use crate::error::{NetError, RetryPolicy};
use crate::obs::NetStats;
use crate::server::{Endpoint, Request};

/// Why a bootstrap attempt failed.
#[derive(Debug)]
pub enum BootstrapError {
    /// Transport failure (server gone, retries exhausted).
    Net(NetError),
    /// The endpoint serves no bootstrap path (e.g. an adversarial server
    /// with no read snapshot).
    Unsupported,
    /// The manifest failed to decode or validate.
    Manifest(ChunkError),
    /// The served manifest's anchor does not match the root the caller
    /// pinned.
    AnchorMismatch {
        /// The root the caller expected.
        expected: Digest,
        /// The root the manifest declared.
        got: Digest,
    },
    /// The server declined a chunk of this session's snapshot (it has moved
    /// on), and re-fetching the manifest did not recover within the retry
    /// budget. The session is retained: rebinding to a peer that still
    /// holds the snapshot resumes where this left off.
    ChunkUnavailable {
        /// The declined chunk index.
        index: u32,
    },
    /// Chunk verification failed — a forged, truncated, reordered, or
    /// cross-snapshot chunk, detected at the exact offending index.
    Chunk {
        /// The offending chunk index.
        index: u32,
        /// What the verifier rejected.
        error: ChunkError,
    },
    /// Final assembly failed (an inconsistent manifest that under-covers
    /// the tree surfaces here).
    Assembly(ChunkError),
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::Net(e) => write!(f, "bootstrap transport: {e}"),
            BootstrapError::Unsupported => write!(f, "endpoint serves no bootstrap path"),
            BootstrapError::Manifest(e) => write!(f, "bootstrap manifest: {e}"),
            BootstrapError::AnchorMismatch { .. } => {
                write!(f, "served manifest does not anchor to the pinned root")
            }
            BootstrapError::ChunkUnavailable { index } => {
                write!(f, "server no longer serves chunk {index} of this snapshot")
            }
            BootstrapError::Chunk { index, error } => {
                write!(f, "chunk {index} rejected: {error}")
            }
            BootstrapError::Assembly(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl std::error::Error for BootstrapError {}

impl From<NetError> for BootstrapError {
    fn from(e: NetError) -> BootstrapError {
        BootstrapError::Net(e)
    }
}

/// The outcome of a completed bootstrap: the verified tree and how much it
/// cost to fetch.
#[derive(Debug)]
pub struct BootstrapReport {
    /// The assembled tree — recomputed bottom-up, its root equals
    /// [`BootstrapReport::root`].
    pub tree: MerkleTree,
    /// The anchor the tree verified against.
    pub root: Digest,
    /// The counter the snapshot was current as of.
    pub ctr: Ctr,
    /// Chunks fetched over the wire by this client, lifetime total for the
    /// session (resumed sessions keep counting).
    pub chunks_fetched: u64,
    /// Payload bytes fetched over the wire, lifetime total for the session.
    pub bytes_fetched: u64,
}

/// An in-flight assembly, kept across failed attempts so a bootstrap can
/// resume instead of starting over.
struct Session {
    assembler: ChunkAssembler,
    ctr: Ctr,
    chunks_fetched: u64,
    bytes_fetched: u64,
}

/// Fetches, verifies, and assembles a chunked snapshot from an endpoint.
pub struct BootstrapClient {
    link: Link,
    session: Option<Session>,
    evidence: Option<EvidenceBundle>,
    evidence_seed: u64,
}

impl BootstrapClient {
    /// Binds a bootstrap client to `server` (any endpoint — a
    /// [`crate::NetServer`] or a [`crate::FaultLink`] in front of one).
    pub fn new(user: UserId, server: &impl Endpoint) -> BootstrapClient {
        BootstrapClient {
            link: Link::new(user, server),
            session: None,
            evidence: None,
            evidence_seed: 0,
        }
    }

    /// Stamps captured evidence bundles with the run seed that produced
    /// them.
    pub fn set_evidence_seed(&mut self, seed: u64) {
        self.evidence_seed = seed;
    }

    /// Takes the evidence bundle captured at the most recent rejected
    /// bootstrap (a forged chunk, a spliced snapshot, a mismatched anchor),
    /// if any.
    pub fn take_evidence(&mut self) -> Option<EvidenceBundle> {
        self.evidence.take()
    }

    /// Replaces the retry policy (timeouts, attempts, jitter).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.link.policy = policy;
    }

    /// Attaches observability handles (transport retry counters).
    pub fn set_stats(&mut self, stats: NetStats) {
        self.link.stats = stats;
    }

    /// Moves this client (and its in-flight session, if any) to a different
    /// endpoint. Admitted chunks are kept: if the new peer serves the same
    /// snapshot, the bootstrap resumes with only the missing chunks.
    pub fn rebind(&mut self, server: &impl Endpoint) {
        self.link.wire = server.wire().0;
    }

    /// Discards any in-flight session.
    pub fn reset(&mut self) {
        self.session = None;
    }

    /// Chunk indices still missing from the in-flight session, if one
    /// exists (ascending).
    pub fn missing(&self) -> Option<Vec<u32>> {
        self.session.as_ref().map(|s| s.assembler.missing())
    }

    /// Runs a bootstrap to completion: fetch (or resume) the manifest,
    /// fetch and verify every missing chunk, assemble, and run the final
    /// recompute-the-anchor gate.
    ///
    /// With `expected_anchor` pinned, the manifest must declare exactly
    /// that root — a server that moved to a newer snapshot is an
    /// [`BootstrapError::AnchorMismatch`], never silently accepted. With no
    /// pin, the client follows the server's current snapshot, re-fetching
    /// the manifest (bounded by the retry policy) if the snapshot moves
    /// mid-bootstrap.
    pub fn bootstrap(
        &mut self,
        expected_anchor: Option<&Digest>,
    ) -> Result<BootstrapReport, BootstrapError> {
        let result = self.bootstrap_inner(expected_anchor);
        if let Err(e) = &result {
            self.capture_forgery(e, expected_anchor);
        }
        result
    }

    /// Builds and stashes an evidence bundle when the bootstrap failed in a
    /// *verification-shaped* way — a forged or spliced chunk, a manifest
    /// that does not anchor to the pinned root, an assembly that does not
    /// recompute to its anchor. Transport trouble (server gone, chunk
    /// unavailable, no bootstrap path) proves nothing and captures nothing.
    fn capture_forgery(&mut self, e: &BootstrapError, expected_anchor: Option<&Digest>) {
        if self.evidence.is_some() {
            return;
        }
        let user = Some(self.link.user);
        let trigger = match e {
            BootstrapError::Chunk { index, error } => TriggerInfo {
                deviation: "bootstrap-chunk-forged".to_string(),
                detail: format!("chunk {index} rejected: {error}"),
                user,
                ctr: Some(u64::from(*index)),
            },
            BootstrapError::AnchorMismatch { expected, got } => TriggerInfo {
                deviation: "bootstrap-anchor-mismatch".to_string(),
                detail: format!("pinned {expected}, served manifest anchors {got}"),
                user,
                ctr: None,
            },
            BootstrapError::Assembly(err) => TriggerInfo {
                deviation: "bootstrap-assembly-failed".to_string(),
                detail: format!("assembly gate: {err}"),
                user,
                ctr: None,
            },
            BootstrapError::Manifest(err) => TriggerInfo {
                deviation: "bootstrap-manifest-invalid".to_string(),
                detail: format!("manifest rejected: {err}"),
                user,
                ctr: None,
            },
            BootstrapError::Net(_)
            | BootstrapError::Unsupported
            | BootstrapError::ChunkUnavailable { .. } => return,
        };
        let (chunks, bytes) = self
            .session
            .as_ref()
            .map_or((0, 0), |s| (s.chunks_fetched, s.bytes_fetched));
        let mut b = EvidenceBuilder::new(
            EvidenceKind::BootstrapForgery,
            self.evidence_seed,
            "bootstrap",
        )
        .captured_at(chunks)
        .description(format!(
            "chunked state sync rejected after {chunks} chunks / {bytes} bytes admitted"
        ))
        .trigger(trigger);
        if let Some(anchor) = expected_anchor {
            b = b.initial(*anchor);
        }
        self.evidence = Some(b.build());
    }

    fn bootstrap_inner(
        &mut self,
        expected_anchor: Option<&Digest>,
    ) -> Result<BootstrapReport, BootstrapError> {
        let restarts = self.link.policy.max_attempts.max(1);
        for _ in 0..restarts {
            self.ensure_session(expected_anchor)?;
            match self.fill_session() {
                Ok(()) => return self.finish(),
                Err(BootstrapError::ChunkUnavailable { index }) => {
                    // The server may have moved to a new snapshot. Re-fetch
                    // the manifest: same anchor → the decline was transient
                    // and the session stands; new anchor → start a fresh
                    // session (or fail loudly if the caller pinned a root).
                    match self.refresh_session(expected_anchor) {
                        Ok(()) => continue,
                        Err(_) => return Err(BootstrapError::ChunkUnavailable { index }),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        let index = self.missing().and_then(|m| m.first().copied()).unwrap_or(0);
        Err(BootstrapError::ChunkUnavailable { index })
    }

    /// Starts a session if none is in flight (or if the caller's pin no
    /// longer matches the session's anchor).
    fn ensure_session(&mut self, expected_anchor: Option<&Digest>) -> Result<(), BootstrapError> {
        if let (Some(sess), Some(exp)) = (&self.session, expected_anchor) {
            if sess.assembler.manifest().anchor != *exp {
                self.session = None;
            }
        }
        if self.session.is_none() {
            let manifest = self.fetch_manifest(expected_anchor)?;
            self.start_session(manifest)?;
        }
        Ok(())
    }

    /// Re-fetches the manifest after a declined chunk. Keeps the session
    /// when the anchor is unchanged, replaces it when the server moved on
    /// (and no pin forbids following).
    fn refresh_session(&mut self, expected_anchor: Option<&Digest>) -> Result<(), BootstrapError> {
        let (mbytes, ctr) = self.fetch_manifest_raw()?;
        let manifest = ChunkManifest::from_bytes(&mbytes).map_err(BootstrapError::Manifest)?;
        if let Some(exp) = expected_anchor {
            if manifest.anchor != *exp {
                return Err(BootstrapError::AnchorMismatch {
                    expected: *exp,
                    got: manifest.anchor,
                });
            }
        }
        match &self.session {
            Some(sess) if sess.assembler.manifest().anchor == manifest.anchor => Ok(()),
            _ => self.start_session((manifest, ctr)),
        }
    }

    fn fetch_manifest(
        &mut self,
        expected_anchor: Option<&Digest>,
    ) -> Result<(ChunkManifest, Ctr), BootstrapError> {
        let (mbytes, ctr) = self.fetch_manifest_raw()?;
        let manifest = ChunkManifest::from_bytes(&mbytes).map_err(BootstrapError::Manifest)?;
        if let Some(exp) = expected_anchor {
            if manifest.anchor != *exp {
                return Err(BootstrapError::AnchorMismatch {
                    expected: *exp,
                    got: manifest.anchor,
                });
            }
        }
        Ok((manifest, ctr))
    }

    fn fetch_manifest_raw(&mut self) -> Result<(Vec<u8>, Ctr), BootstrapError> {
        self.link
            .call(|reply| Request::BootstrapManifest { reply })?
            .ok_or(BootstrapError::Unsupported)
    }

    fn start_session(
        &mut self,
        (manifest, ctr): (ChunkManifest, Ctr),
    ) -> Result<(), BootstrapError> {
        let assembler = ChunkAssembler::new(manifest).map_err(BootstrapError::Manifest)?;
        // Lifetime counters survive session replacement: the report charges
        // the *whole* bootstrap, including work thrown away when a moving
        // snapshot forced a restart.
        let (chunks, bytes) = self
            .session
            .as_ref()
            .map_or((0, 0), |s| (s.chunks_fetched, s.bytes_fetched));
        self.session = Some(Session {
            assembler,
            ctr,
            chunks_fetched: chunks,
            bytes_fetched: bytes,
        });
        Ok(())
    }

    /// Fetches and admits every missing chunk of the current session.
    fn fill_session(&mut self) -> Result<(), BootstrapError> {
        loop {
            let (anchor, missing) = {
                let sess = self.session.as_ref().expect("session in flight");
                (sess.assembler.manifest().anchor, sess.assembler.missing())
            };
            if missing.is_empty() {
                return Ok(());
            }
            for index in missing {
                let bytes = self
                    .link
                    .call(|reply| Request::BootstrapChunk {
                        anchor,
                        index,
                        reply,
                    })?
                    .ok_or(BootstrapError::ChunkUnavailable { index })?;
                let sess = self.session.as_mut().expect("session in flight");
                sess.chunks_fetched += 1;
                sess.bytes_fetched += bytes.len() as u64;
                sess.assembler
                    .admit(index, &bytes)
                    .map_err(|error| BootstrapError::Chunk { index, error })?;
            }
        }
    }

    /// Consumes the completed session and runs the final assembly gate.
    fn finish(&mut self) -> Result<BootstrapReport, BootstrapError> {
        let sess = self.session.take().expect("session in flight");
        let ctr = sess.ctr;
        let (chunks_fetched, bytes_fetched) = (sess.chunks_fetched, sess.bytes_fetched);
        let tree = sess.assembler.finish().map_err(BootstrapError::Assembly)?;
        let root = tree.root_digest();
        Ok(BootstrapReport {
            tree,
            root,
            ctr,
            chunks_fetched,
            bytes_fetched,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use crossbeam::channel::{unbounded, Sender};
    use tcvs_core::NO_USER;
    use tcvs_merkle::{u64_key, ChunkSource, MerkleTree};

    use crate::server::{sealed, Wire, WireHandle};

    const BUDGET: usize = 200;

    fn tree(n: u64) -> MerkleTree {
        let mut t = MerkleTree::with_order(4);
        for i in 0..n {
            t.insert(u64_key(i), vec![(i % 251) as u8; 9]).unwrap();
        }
        t
    }

    /// A chunk server whose chunk responses pass through `mutate(index,
    /// honest_bytes)`: return the honest bytes, forged bytes, or `None` to
    /// decline. The manifest is always served honestly.
    struct FakePeer {
        tx: Sender<Request>,
    }

    impl sealed::Sealed for FakePeer {}
    impl Endpoint for FakePeer {
        fn wire(&self) -> WireHandle {
            WireHandle(Wire::link(self.tx.clone()))
        }
    }

    fn fake_peer(
        src: &MerkleTree,
        ctr: Ctr,
        mutate: impl Fn(u32, Vec<u8>) -> Option<Vec<u8>> + Send + 'static,
    ) -> FakePeer {
        let source = ChunkSource::new(src, BUDGET).unwrap();
        let (tx, rx) = unbounded::<Request>();
        std::thread::spawn(move || {
            while let Ok(req) = rx.recv() {
                match req {
                    Request::BootstrapManifest { reply } => {
                        let _ = reply.send(Some((source.manifest().to_bytes(), ctr)));
                    }
                    Request::BootstrapChunk { index, reply, .. } => {
                        let honest = source.chunk(index);
                        let _ = reply.send(honest.and_then(|b| mutate(index, b)));
                    }
                    // Any other request is dropped (its reply sender with
                    // it); a fake peer serves only the bootstrap path.
                    _ => {}
                }
            }
        });
        FakePeer { tx }
    }

    fn client(peer: &FakePeer) -> BootstrapClient {
        let mut c = BootstrapClient::new(NO_USER, peer);
        c.set_retry_policy(RetryPolicy::fail_fast(Duration::from_secs(5)));
        c
    }

    #[test]
    fn honest_fake_peer_round_trips() {
        let t = tree(120);
        let peer = fake_peer(&t, 120, |_, b| Some(b));
        let report = client(&peer)
            .bootstrap(Some(&t.root_digest()))
            .expect("honest peer");
        assert_eq!(report.root, t.root_digest());
        assert_eq!(report.ctr, 120);
        assert_eq!(report.tree.to_bytes(), t.to_bytes(), "byte-identical tree");
        assert!(report.chunks_fetched > 1, "multi-chunk transfer");
    }

    /// A lying chunk server is detected at the exact offending chunk: for
    /// every index, a peer that forges *that* chunk (bit flip in the node
    /// region) fails the bootstrap with `Chunk {{ index }}` — never with a
    /// wrong index, never by silently accepting.
    #[test]
    fn lying_chunk_server_detected_at_exact_chunk() {
        let t = tree(120);
        let anchor = t.root_digest();
        let n = ChunkSource::new(&t, BUDGET).unwrap().num_chunks();
        assert!(n >= 3, "need several chunks, got {n}");
        for bad in 0..n {
            let peer = fake_peer(&t, 120, move |i, mut b| {
                if i == bad {
                    // Flip a byte well past the codec header, inside the
                    // encoded node region, so the payload stays decodable
                    // but its content no longer matches the anchor.
                    let at = b.len() - 1 - b.len() / 4;
                    b[at] ^= 0x01;
                }
                Some(b)
            });
            match client(&peer).bootstrap(Some(&anchor)) {
                Err(BootstrapError::Chunk { index, .. }) => {
                    assert_eq!(index, bad, "detected at the offending chunk")
                }
                other => panic!("forged chunk {bad} not detected: {other:?}"),
            }
        }
    }

    /// Cross-snapshot splicing: a peer that answers chunk `bad` from a
    /// *different* snapshot (same shape, different values) is caught at
    /// exactly that chunk by the anchor check.
    #[test]
    fn spliced_chunk_detected_at_exact_chunk() {
        let t = tree(120);
        let mut other = tree(120);
        other.insert(u64_key(7), vec![0xEE; 9]).unwrap();
        let source_b = ChunkSource::new(&other, BUDGET).unwrap();
        let anchor = t.root_digest();
        let n = ChunkSource::new(&t, BUDGET).unwrap().num_chunks();
        let common = n.min(source_b.num_chunks());
        for bad in 0..common {
            let sb = ChunkSource::new(&other, BUDGET).unwrap();
            let peer = fake_peer(
                &t,
                120,
                move |i, b| if i == bad { sb.chunk(i) } else { Some(b) },
            );
            match client(&peer).bootstrap(Some(&anchor)) {
                Err(BootstrapError::Chunk { index, .. }) => assert_eq!(index, bad),
                // Same-shape splice of an identical range is content-equal
                // only if the ranges differ in no byte — impossible here
                // because chunk `bad` of `other` either covers key 7 (value
                // differs) or anchors to a different root.
                other => panic!("spliced chunk {bad} not detected: {other:?}"),
            }
        }
    }

    /// A rejected bootstrap (forged chunk) stashes an auditable evidence
    /// bundle naming the offending chunk; transport trouble captures
    /// nothing.
    #[test]
    fn forged_chunk_captures_bootstrap_evidence() {
        let t = tree(120);
        let anchor = t.root_digest();
        let peer = fake_peer(&t, 120, |i, mut b| {
            if i == 1 {
                let at = b.len() - 1 - b.len() / 4;
                b[at] ^= 0x01;
            }
            Some(b)
        });
        let mut c = client(&peer);
        c.set_evidence_seed(42);
        assert!(matches!(
            c.bootstrap(Some(&anchor)),
            Err(BootstrapError::Chunk { index: 1, .. })
        ));
        let bundle = c.take_evidence().expect("forgery captured");
        assert!(c.take_evidence().is_none(), "stash holds one bundle");
        assert_eq!(bundle.kind, tcvs_core::EvidenceKind::BootstrapForgery);
        assert_eq!(bundle.seed, 42);
        assert_eq!(bundle.trigger.deviation, "bootstrap-chunk-forged");
        assert_eq!(bundle.trigger.ctr, Some(1), "the offending chunk index");
        assert_eq!(bundle.initial, Some(anchor), "the pinned anchor rides");
        let report = tcvs_core::audit_bytes(&bundle.to_bytes());
        assert!(report.accepted, "{:?}", report.rejection);
        assert_eq!(report.kind.as_deref(), Some("bootstrap-forgery"));

        // A dying (but honest) peer proves nothing and captures nothing.
        let n = ChunkSource::new(&t, BUDGET).unwrap().num_chunks();
        let split = n / 2;
        let dying = fake_peer(&t, 120, move |i, b| (i < split).then_some(b));
        let mut c = client(&dying);
        assert!(matches!(
            c.bootstrap(Some(&anchor)),
            Err(BootstrapError::ChunkUnavailable { .. })
        ));
        assert!(c.take_evidence().is_none());
    }

    /// A peer that pins a root the server does not serve fails loudly with
    /// `AnchorMismatch` before any chunk is admitted.
    #[test]
    fn pinned_anchor_mismatch_fails_before_chunks() {
        let t = tree(60);
        let peer = fake_peer(&t, 60, |_, b| Some(b));
        let wrong = tree(61).root_digest();
        match client(&peer).bootstrap(Some(&wrong)) {
            Err(BootstrapError::AnchorMismatch { expected, got }) => {
                assert_eq!(expected, wrong);
                assert_eq!(got, t.root_digest());
            }
            other => panic!("expected anchor mismatch, got {other:?}"),
        }
    }

    /// Resumability: a peer that dies mid-transfer leaves a session with
    /// exactly the missing chunks; rebinding to a healthy replica finishes
    /// the bootstrap fetching *only* those, and the lifetime counters
    /// charge the whole journey.
    #[test]
    fn interrupted_bootstrap_resumes_on_rebind() {
        let t = tree(120);
        let anchor = t.root_digest();
        let n = ChunkSource::new(&t, BUDGET).unwrap().num_chunks();
        assert!(n >= 3);
        let split = n / 2;
        let dying = fake_peer(&t, 120, move |i, b| if i < split { Some(b) } else { None });
        let mut c = client(&dying);
        match c.bootstrap(Some(&anchor)) {
            Err(BootstrapError::ChunkUnavailable { index }) => assert_eq!(index, split),
            other => panic!("expected unavailable at {split}, got {other:?}"),
        }
        let missing = c.missing().expect("session retained");
        assert_eq!(missing, (split..n).collect::<Vec<u32>>());

        let healthy = fake_peer(&t, 120, |_, b| Some(b));
        c.rebind(&healthy);
        let report = c.bootstrap(Some(&anchor)).expect("resumed bootstrap");
        assert_eq!(report.root, anchor);
        assert_eq!(
            report.chunks_fetched,
            u64::from(n),
            "split chunks from the dying peer + the rest from the replica, \
             none re-fetched"
        );
        assert_eq!(report.tree.to_bytes(), t.to_bytes());
    }

    /// With no pinned root, a server that moved to a new snapshot between
    /// the manifest and the chunks is followed: the client re-fetches the
    /// manifest and completes against the *new* anchor.
    #[test]
    fn unpinned_bootstrap_follows_a_moving_snapshot() {
        let t_old = tree(60);
        let t_new = tree(90);
        let new_root = t_new.root_digest();
        let old_manifest = ChunkSource::new(&t_old, BUDGET)
            .unwrap()
            .manifest()
            .to_bytes();
        let source_new = ChunkSource::new(&t_new, BUDGET).unwrap();
        let (tx, rx) = unbounded::<Request>();
        std::thread::spawn(move || {
            let mut manifests = 0u32;
            while let Ok(req) = rx.recv() {
                match req {
                    Request::BootstrapManifest { reply } => {
                        manifests += 1;
                        // First manifest: the old snapshot. Every later
                        // one: the server has moved on.
                        let m = if manifests == 1 {
                            old_manifest.clone()
                        } else {
                            source_new.manifest().to_bytes()
                        };
                        let _ = reply.send(Some((m, u64::from(manifests))));
                    }
                    Request::BootstrapChunk {
                        anchor,
                        index,
                        reply,
                    } => {
                        // Only the new snapshot's chunks are still served.
                        let b = (anchor == source_new.manifest().anchor)
                            .then(|| source_new.chunk(index))
                            .flatten();
                        let _ = reply.send(b);
                    }
                    _ => {}
                }
            }
        });
        let peer = FakePeer { tx };
        let mut c = BootstrapClient::new(NO_USER, &peer);
        c.set_retry_policy(RetryPolicy {
            max_attempts: 3,
            base_timeout: Duration::from_secs(5),
            max_jitter: Duration::ZERO,
        });
        let report = c.bootstrap(None).expect("followed the moving snapshot");
        assert_eq!(report.root, new_root);
        assert_eq!(report.tree.to_bytes(), t_new.to_bytes());
    }
}
