//! Verified database sessions: the transport seam between CVS commands and
//! the protocol clients.
//!
//! CVS commands only need "execute this operation with verification". Any
//! protocol client over any transport can provide that; [`VerifiedDb`] is
//! the trait, and [`Session`] is the batteries-included in-process
//! implementation: any protocol client over any [`ServerApi`], as a
//! Protocol II [`DirectSession`] or an unverified [`UnverifiedSession`].

use tcvs_core::{
    Client2, Direct, Op, OpResult, Protocol, ProtocolConfig, ServerApi, SyncShare, TrustedClient,
    UserId,
};
use tcvs_merkle::MerkleTree;

use crate::error::CvsError;

/// A database session whose operations are verified by a trusted-CVS
/// protocol client (or, for baselines, not verified at all).
pub trait VerifiedDb {
    /// Executes one operation. [`CvsError::Deviation`] means the server
    /// deviated and the session must stop; [`CvsError::Network`] means a
    /// benign transport failure that may be retried.
    fn execute(&mut self, op: &Op) -> Result<OpResult, CvsError>;
}

/// Blanket impl so any closure can act as a session — this is how the
/// threaded clients in `tcvs-net` (or custom transports) plug in.
impl<F> VerifiedDb for F
where
    F: FnMut(&Op) -> Result<OpResult, CvsError>,
{
    fn execute(&mut self, op: &Op) -> Result<OpResult, CvsError> {
        self(op)
    }
}

/// An in-process session: a protocol client `C` talking straight to a
/// server (honest or adversarial). Rounds advance one per operation.
pub struct Session<S, C> {
    server: S,
    user: UserId,
    client: C,
    round: u64,
}

/// A Protocol II session.
pub type DirectSession<S> = Session<S, Client2>;

/// An unverified session: the trusted baseline for the macro-benchmarks.
pub type UnverifiedSession<S> = Session<S, TrustedClient>;

impl<S: ServerApi> DirectSession<S> {
    /// Creates a session for `user` over `server` (which must be freshly
    /// initialized — the client assumes the empty-database initial root).
    pub fn new(user: UserId, server: S, config: ProtocolConfig) -> DirectSession<S> {
        let root0 = MerkleTree::with_order(config.order).root_digest();
        Session::over(server, user, Client2::new(user, &root0, config))
    }

    /// This session's sync-up share (for out-of-band sync with other
    /// sessions of the same server).
    pub fn sync_share(&self) -> SyncShare {
        self.client.sync_share()
    }

    /// Evaluates the Protocol II sync-up predicate.
    pub fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        self.client.sync_succeeds(shares)
    }
}

impl<S: ServerApi> UnverifiedSession<S> {
    /// Creates a baseline session.
    pub fn new(user: UserId, server: S) -> UnverifiedSession<S> {
        Session::over(server, user, TrustedClient)
    }
}

impl<S: ServerApi, C: Protocol> Session<S, C> {
    fn over(server: S, user: UserId, client: C) -> Session<S, C> {
        Session {
            server,
            user,
            client,
            round: 0,
        }
    }

    /// Access to the underlying server (to share it across sessions in
    /// tests, hand it to another user, or inspect it).
    pub fn server_mut(&mut self) -> &mut S {
        &mut self.server
    }

    /// Consumes the session, returning the server.
    pub fn into_server(self) -> S {
        self.server
    }
}

impl<S: ServerApi, C: Protocol> VerifiedDb for Session<S, C> {
    fn execute(&mut self, op: &Op) -> Result<OpResult, CvsError> {
        let resp = self.server.handle_op(self.user, op, self.round);
        let out = self
            .client
            .step(op, &resp, self.round, &mut Direct(&mut self.server));
        self.round += 1;
        Ok(out?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_core::HonestServer;
    use tcvs_merkle::u64_key;

    #[test]
    fn direct_session_verifies_ops() {
        let config = ProtocolConfig {
            order: 8,
            ..ProtocolConfig::default()
        };
        let server = HonestServer::new(&config);
        let mut s = DirectSession::new(0, server, config);
        let r = s.execute(&Op::Put(u64_key(1), b"hello".to_vec())).unwrap();
        assert_eq!(r, OpResult::Replaced(None));
        let r = s.execute(&Op::Get(u64_key(1))).unwrap();
        assert_eq!(r, OpResult::Value(Some(b"hello".to_vec())));
    }

    #[test]
    fn closure_session_works() {
        let config = ProtocolConfig::default();
        let mut server = HonestServer::new(&config);
        let mut round = 0u64;
        let mut session = move |op: &Op| -> Result<OpResult, CvsError> {
            let resp = server.handle_op(0, op, round);
            round += 1;
            Ok(resp.result)
        };
        let r = session.execute(&Op::Get(u64_key(9))).unwrap();
        assert_eq!(r, OpResult::Value(None));
    }
}
