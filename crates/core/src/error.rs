//! Error types for the calculus layer.

use hpl_model::{EventId, ModelError};
use std::error::Error;
use std::fmt;

/// Errors raised by universe construction and enumeration.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A computation refers to a different system size than the universe.
    SystemSizeMismatch {
        /// The universe's system size.
        expected: usize,
        /// The offending computation's system size.
        found: usize,
    },
    /// Two computations bind the same event id to different events — the
    /// "all events are distinguished" convention is violated.
    InconsistentEvent {
        /// The ambiguous event id.
        event: EventId,
    },
    /// Enumeration exceeded the configured computation budget.
    EnumerationBudgetExceeded {
        /// The configured maximum number of computations.
        max_computations: usize,
    },
    /// A quotient evaluator under
    /// [`QuotientPolicy::Reject`](crate::QuotientPolicy) refused a
    /// formula the symmetry-soundness checker classified out of
    /// contract. The payload names the offending knowledge operator,
    /// the orbit-variant subformula inside it, and the violating
    /// generator or atom.
    QuotientUnsound(Box<crate::soundness::SoundnessViolation>),
    /// Expanding quotient satisfaction counts through orbit
    /// multiplicities overflowed `u64`
    /// ([`Orbits::expanded_count`](crate::Orbits::expanded_count)).
    MultiplicityOverflow,
    /// A fault-model universe construction was given a configuration the
    /// simulator rejects (invalid network parameters, out-of-range crash
    /// schedule); see [`crate::fault_universe::build_fault_universe`].
    InvalidFaultModel {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// An incremental enumeration was handed a frontier that does not
    /// match the protocol or configuration it is being resumed under
    /// (wrong system size, wrong quotient mode, or a horizon
    /// shallower than the frontier's own); see
    /// [`extend_sharded`](crate::extend_sharded).
    FrontierMismatch {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// An underlying model-layer error.
    Model(ModelError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::SystemSizeMismatch { expected, found } => write!(
                f,
                "computation is over {found} processes but the universe has {expected}"
            ),
            CoreError::InconsistentEvent { event } => {
                write!(f, "event id {event} bound to two different events")
            }
            CoreError::EnumerationBudgetExceeded { max_computations } => write!(
                f,
                "enumeration exceeded the budget of {max_computations} computations"
            ),
            CoreError::QuotientUnsound(v) => {
                write!(f, "quotient evaluation rejected: {v}")
            }
            CoreError::MultiplicityOverflow => {
                write!(f, "orbit multiplicity expansion overflowed u64")
            }
            CoreError::InvalidFaultModel { reason } => {
                write!(f, "invalid fault model: {reason}")
            }
            CoreError::FrontierMismatch { reason } => {
                write!(f, "frontier does not match this extension: {reason}")
            }
            CoreError::Model(e) => write!(f, "invalid computation: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errors = [
            CoreError::SystemSizeMismatch {
                expected: 2,
                found: 3,
            },
            CoreError::InconsistentEvent {
                event: EventId::new(1),
            },
            CoreError::EnumerationBudgetExceeded {
                max_computations: 10,
            },
            CoreError::Model(ModelError::NotAPrefix),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_chain() {
        let e = CoreError::from(ModelError::NotAPrefix);
        assert!(e.source().is_some());
        assert!(CoreError::InconsistentEvent {
            event: EventId::new(0)
        }
        .source()
        .is_none());
    }
}
