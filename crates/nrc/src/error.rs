//! Error types shared by the NRC front end.

use std::fmt;

/// Errors raised while type checking or evaluating NRC expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NrcError {
    /// A variable was referenced but is not bound in the environment.
    UnboundVariable(String),
    /// A tuple projection referenced a field that does not exist.
    UnknownField {
        /// The missing attribute name.
        field: String,
        /// Where the access happened.
        context: String,
    },
    /// An operation received a value of an unexpected kind.
    TypeMismatch {
        /// The kind the operation needed.
        expected: String,
        /// The kind it received.
        found: String,
        /// Where the mismatch happened.
        context: String,
    },
    /// Division by zero during evaluation.
    DivisionByZero,
    /// An integer result left the `i64` range (named by the operation).
    IntegerOverflow(&'static str),
    /// Anything else.
    Other(String),
}

impl fmt::Display for NrcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NrcError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            NrcError::UnknownField { field, context } => {
                write!(f, "unknown field `{field}` in {context}")
            }
            NrcError::TypeMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {found}"
            ),
            NrcError::DivisionByZero => write!(f, "division by zero"),
            NrcError::IntegerOverflow(op) => write!(f, "integer overflow in {op}"),
            NrcError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for NrcError {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NrcError>;
