//! Error types for cache configuration and simulation.

use std::error::Error;
use std::fmt;

/// Errors produced when configuring or driving a simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A cache geometry parameter was invalid.
    InvalidGeometry {
        /// The offending parameter.
        field: &'static str,
        /// The constraint that was violated.
        constraint: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidGeometry { field, constraint } => {
                write!(f, "invalid cache geometry `{field}`: {constraint}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::InvalidGeometry {
            field: "assoc",
            constraint: "must divide set count",
        };
        assert_eq!(
            e.to_string(),
            "invalid cache geometry `assoc`: must divide set count"
        );
    }

    #[test]
    fn send_sync_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
    }
}
