//! Error handling for the OPA platform.
//!
//! A single workspace-wide error enum keeps the public API surface small and
//! lets cross-crate call chains propagate failures with `?` without
//! conversion boilerplate.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The error type for all OPA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value was invalid (empty cluster, zero-sized buffer,
    /// merge factor below 2, …). The payload explains which one and why.
    InvalidConfig(String),
    /// A job was submitted whose pieces are inconsistent (e.g. an
    /// incremental framework chosen for a reducer that does not implement
    /// `init/cb/fn`).
    InvalidJob(String),
    /// A simulated storage operation failed (reading an unknown spill file,
    /// double-sealing a bucket, exceeding a fixed-capacity device…).
    Storage(String),
    /// The engine detected an internal invariant violation. Seeing this is
    /// always a bug in OPA itself, never a user error.
    Internal(String),
    /// A job run panicked — in a user function, a stream callback or the
    /// engine — and the engine caught the panic. The payload is the panic
    /// message.
    Panicked(String),
}

impl Error {
    /// Shorthand constructor for [`Error::InvalidConfig`].
    pub fn config(msg: impl Into<String>) -> Self {
        Error::InvalidConfig(msg.into())
    }

    /// Shorthand constructor for [`Error::InvalidJob`].
    pub fn job(msg: impl Into<String>) -> Self {
        Error::InvalidJob(msg.into())
    }

    /// Shorthand constructor for [`Error::Storage`].
    pub fn storage(msg: impl Into<String>) -> Self {
        Error::Storage(msg.into())
    }

    /// Shorthand constructor for [`Error::Internal`].
    pub fn internal(msg: impl Into<String>) -> Self {
        Error::Internal(msg.into())
    }

    /// Shorthand constructor for [`Error::Panicked`].
    pub fn panicked(msg: impl Into<String>) -> Self {
        Error::Panicked(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            Error::InvalidJob(m) => write!(f, "invalid job: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Internal(m) => write!(f, "internal invariant violated: {m}"),
            Error::Panicked(m) => write!(f, "job panicked: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = Error::config("merge factor must be >= 2");
        assert_eq!(
            e.to_string(),
            "invalid configuration: merge factor must be >= 2"
        );
        let e = Error::internal("negative buffer fill");
        assert!(e.to_string().contains("internal invariant"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::storage("x"), Error::storage("x"));
        assert_ne!(Error::storage("x"), Error::internal("x"));
    }

    #[test]
    fn error_implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::job("bad"));
    }
}
