//! Translator error type.

use std::fmt;

/// Errors raised while parsing or rendering templates, or asking the answer
/// which of its tuples join.
#[derive(Debug, Clone, PartialEq)]
pub enum NlgError {
    /// A template failed to parse.
    Parse { template: String, message: String },
    /// A template referenced a variable absent from the bindings.
    UnknownVariable(String),
    /// A template referenced an undefined macro.
    UnknownMacro(String),
    /// A loop variable was used outside its loop.
    UnknownLoopVariable(String),
    /// An indexed variable access was out of range.
    IndexOutOfRange { variable: String, index: usize },
    /// Macro expansion exceeded the recursion limit (cyclic macros).
    MacroRecursion(String),
    /// The answer database refused a probe for joining tuples.
    Answer(precis_core::CoreError),
}

impl fmt::Display for NlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NlgError::Parse { template, message } => {
                write!(f, "template parse error in {template:?}: {message}")
            }
            NlgError::UnknownVariable(v) => write!(f, "unknown template variable @{v}"),
            NlgError::UnknownMacro(m) => write!(f, "unknown macro %{m}%"),
            NlgError::UnknownLoopVariable(v) => write!(f, "loop variable ${v}$ not in scope"),
            NlgError::IndexOutOfRange { variable, index } => {
                write!(f, "index {index} out of range for @{variable}")
            }
            NlgError::MacroRecursion(m) => write!(f, "macro recursion involving %{m}%"),
            NlgError::Answer(e) => write!(f, "answer database: {e}"),
        }
    }
}

impl std::error::Error for NlgError {}

impl From<precis_core::CoreError> for NlgError {
    fn from(e: precis_core::CoreError) -> Self {
        NlgError::Answer(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(NlgError::UnknownVariable("TITLE".into())
            .to_string()
            .contains("@TITLE"));
        assert!(NlgError::UnknownMacro("M".into())
            .to_string()
            .contains("%M%"));
        let e = NlgError::IndexOutOfRange {
            variable: "X".into(),
            index: 4,
        };
        assert!(e.to_string().contains('4'));
    }
}
