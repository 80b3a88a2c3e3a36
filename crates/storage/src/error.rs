//! Storage-layer errors.

use std::fmt;

use tcvs_store::enc::DecodeError;

/// Errors from the storage engine or the medium beneath it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The medium failed (I/O error, injected torn write, dead medium).
    Io(String),
    /// A record or checkpoint body failed to decode.
    Decode(DecodeError),
    /// A payload offered for writing exceeds the maximum frame size
    /// ([`crate::log::MAX_PAYLOAD`]); writing it would produce a frame the
    /// next recovery classifies as corruption, so it is rejected up front.
    TooLarge {
        /// What was being written ("commit" or "checkpoint").
        what: &'static str,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// Recovery stopped at interior log corruption and the caller did not
    /// opt into salvaging the surviving prefix: acknowledged operations may
    /// be lost, so serving must not resume without an operator decision.
    Unrecoverable(String),
    /// The medium holds segments or checkpoint files but no
    /// [`crate::log::FORMAT_MARKER`]: they were written under another
    /// format, so this build's check would fail every frame and read it as
    /// corruption. Recovery refuses the medium before reading, repairing or
    /// salvaging anything.
    UnknownFormat {
        /// The first such file found.
        file: String,
    },
    /// A verified-chunk restore ([`crate::DurableServer::open_from_chunks`])
    /// was refused: a chunk or manifest failed verification against the
    /// anchor, the stream was incomplete, or the target storage already
    /// holds durable state that bootstrap must not clobber.
    Bootstrap(String),
}

impl StorageError {
    /// Shorthand for a medium-level failure.
    pub fn io(msg: impl Into<String>) -> StorageError {
        StorageError::Io(msg.into())
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(msg) => write!(f, "storage i/o: {msg}"),
            StorageError::Decode(e) => write!(f, "storage decode: {e}"),
            StorageError::TooLarge { what, bytes } => {
                write!(
                    f,
                    "{what} payload of {bytes} bytes exceeds the maximum frame size"
                )
            }
            StorageError::Unrecoverable(msg) => write!(f, "unrecoverable: {msg}"),
            StorageError::UnknownFormat { file } => write!(
                f,
                "{file} has no {} marker beside it: it was written under another \
                 format, which this build refuses to read",
                crate::log::FORMAT_MARKER
            ),
            StorageError::Bootstrap(msg) => write!(f, "bootstrap: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<DecodeError> for StorageError {
    fn from(e: DecodeError) -> StorageError {
        StorageError::Decode(e)
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e.to_string())
    }
}
