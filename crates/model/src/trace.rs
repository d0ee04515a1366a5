//! A compact, line-oriented text codec for computations.
//!
//! The workspace deliberately avoids serialization dependencies (see
//! DESIGN.md §5); this module provides a small human-readable format for
//! persisting and exchanging traces:
//!
//! ```text
//! computation 3          # header: system size
//! S 0 0 1 0              # send:    event process to   message
//! R 1 1 0 0              # receive: event process from message
//! I 2 2 7                # internal: event process action
//! ```
//!
//! Comments (`# …`) and blank lines are ignored. [`to_text`] and
//! [`from_text`] round-trip every valid computation.

use crate::computation::Computation;
use crate::error::ModelError;
use crate::event::{Event, EventKind};
use crate::id::{ActionId, EventId, MessageId, ProcessId};
use std::error::Error;
use std::fmt;

/// Errors produced when parsing the text trace format.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceParseError {
    /// The `computation <n>` header line is missing or malformed.
    MissingHeader,
    /// A line does not match any known record shape.
    BadRecord {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
    },
    /// The parsed events do not form a valid computation.
    Invalid(ModelError),
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::MissingHeader => write!(f, "missing 'computation <n>' header"),
            TraceParseError::BadRecord { line } => write!(f, "unrecognized record on line {line}"),
            TraceParseError::BadNumber { line } => write!(f, "bad numeric field on line {line}"),
            TraceParseError::Invalid(e) => write!(f, "parsed events are invalid: {e}"),
        }
    }
}

impl Error for TraceParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceParseError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for TraceParseError {
    fn from(e: ModelError) -> Self {
        TraceParseError::Invalid(e)
    }
}

/// Serializes a computation to the text trace format.
#[must_use]
pub fn to_text(z: &Computation) -> String {
    let mut out = String::new();
    out.push_str(&format!("computation {}\n", z.system_size()));
    for e in z.iter() {
        match e.kind() {
            EventKind::Send { to, message } => out.push_str(&format!(
                "S {} {} {} {}\n",
                e.id().index(),
                e.process().index(),
                to.index(),
                message.index()
            )),
            EventKind::Receive { from, message } => out.push_str(&format!(
                "R {} {} {} {}\n",
                e.id().index(),
                e.process().index(),
                from.index(),
                message.index()
            )),
            EventKind::Internal { action } => out.push_str(&format!(
                "I {} {} {}\n",
                e.id().index(),
                e.process().index(),
                action.tag()
            )),
        }
    }
    out
}

/// Parses a computation from the text trace format.
///
/// # Errors
///
/// Returns a [`TraceParseError`] if the header is missing, a record is
/// malformed, or the event sequence is not a valid system computation.
pub fn from_text(text: &str) -> Result<Computation, TraceParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty());

    let (hline, header) = lines.next().ok_or(TraceParseError::MissingHeader)?;
    let mut hparts = header.split_whitespace();
    if hparts.next() != Some("computation") {
        return Err(TraceParseError::MissingHeader);
    }
    let system_size: usize = hparts
        .next()
        .ok_or(TraceParseError::MissingHeader)?
        .parse()
        .map_err(|_| TraceParseError::BadNumber { line: hline })?;
    if hparts.next().is_some() {
        return Err(TraceParseError::MissingHeader);
    }

    let mut events = Vec::new();
    for (line, l) in lines {
        let mut parts = l.split_whitespace();
        let tag = parts.next().ok_or(TraceParseError::BadRecord { line })?;
        let num = |parts: &mut std::str::SplitWhitespace<'_>| -> Result<usize, TraceParseError> {
            parts
                .next()
                .ok_or(TraceParseError::BadRecord { line })?
                .parse()
                .map_err(|_| TraceParseError::BadNumber { line })
        };
        let event = match tag {
            "S" => {
                let id = num(&mut parts)?;
                let proc = num(&mut parts)?;
                let to = num(&mut parts)?;
                let msg = num(&mut parts)?;
                Event::new(
                    EventId::new(id),
                    ProcessId::new(proc),
                    EventKind::Send {
                        to: ProcessId::new(to),
                        message: MessageId::new(msg),
                    },
                )
            }
            "R" => {
                let id = num(&mut parts)?;
                let proc = num(&mut parts)?;
                let from = num(&mut parts)?;
                let msg = num(&mut parts)?;
                Event::new(
                    EventId::new(id),
                    ProcessId::new(proc),
                    EventKind::Receive {
                        from: ProcessId::new(from),
                        message: MessageId::new(msg),
                    },
                )
            }
            "I" => {
                let id = num(&mut parts)?;
                let proc = num(&mut parts)?;
                let action = num(&mut parts)?;
                Event::new(
                    EventId::new(id),
                    ProcessId::new(proc),
                    EventKind::Internal {
                        action: ActionId::new(action as u32),
                    },
                )
            }
            _ => return Err(TraceParseError::BadRecord { line }),
        };
        if parts.next().is_some() {
            return Err(TraceParseError::BadRecord { line });
        }
        events.push(event);
    }
    Ok(Computation::from_events(system_size, events)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{random_computation, ComputationBuilder};
    use proptest::prelude::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn roundtrip_simple() {
        let mut b = ComputationBuilder::new(3);
        let m = b.send(pid(0), pid(1)).unwrap();
        b.receive(pid(1), m).unwrap();
        b.internal_with(pid(2), ActionId::new(7)).unwrap();
        let z = b.finish();
        let text = to_text(&z);
        let back = from_text(&text).unwrap();
        assert_eq!(z, back);
    }

    #[test]
    fn roundtrip_empty() {
        let z = Computation::empty(5);
        assert_eq!(from_text(&to_text(&z)).unwrap(), z);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a trace\ncomputation 2  # two processes\n\nS 0 0 1 0\n# interleaved comment\nR 1 1 0 0\n";
        let z = from_text(text).unwrap();
        assert_eq!(z.len(), 2);
        assert_eq!(z.system_size(), 2);
    }

    #[test]
    fn header_errors() {
        assert_eq!(from_text("").unwrap_err(), TraceParseError::MissingHeader);
        assert_eq!(
            from_text("S 0 0 1 0").unwrap_err(),
            TraceParseError::MissingHeader
        );
        assert_eq!(
            from_text("computation").unwrap_err(),
            TraceParseError::MissingHeader
        );
        assert!(matches!(
            from_text("computation x").unwrap_err(),
            TraceParseError::BadNumber { .. }
        ));
        assert_eq!(
            from_text("computation 2 extra").unwrap_err(),
            TraceParseError::MissingHeader
        );
    }

    #[test]
    fn record_errors() {
        assert!(matches!(
            from_text("computation 2\nX 0 0 1 0").unwrap_err(),
            TraceParseError::BadRecord { line: 2 }
        ));
        assert!(matches!(
            from_text("computation 2\nS 0 0 1").unwrap_err(),
            TraceParseError::BadRecord { line: 2 }
        ));
        assert!(matches!(
            from_text("computation 2\nS 0 0 1 0 9").unwrap_err(),
            TraceParseError::BadRecord { line: 2 }
        ));
        assert!(matches!(
            from_text("computation 2\nI a 0 0").unwrap_err(),
            TraceParseError::BadNumber { line: 2 }
        ));
    }

    #[test]
    fn invalid_computation_rejected() {
        let err = from_text("computation 2\nR 0 1 0 0").unwrap_err();
        assert!(matches!(err, TraceParseError::Invalid(_)));
        use std::error::Error;
        assert!(err.source().is_some());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(seed in 0u64..300, steps in 0usize..40) {
            let z = random_computation(4, steps, seed);
            prop_assert_eq!(from_text(&to_text(&z)).unwrap(), z);
        }
    }
}
