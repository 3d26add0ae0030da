//! Diagnostics shared by the verifier, parsers, and dialect hooks.

use std::error::Error;
use std::fmt;

/// The error type produced by verification, parsing, and dialect hooks.
///
/// A diagnostic carries a primary message plus optional notes providing
/// context (the enclosing operation, the constraint that failed, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    message: String,
    notes: Vec<String>,
    /// Byte offset into the source text for parser diagnostics, if known.
    offset: Option<usize>,
}

impl Diagnostic {
    /// Creates a diagnostic with the given primary message.
    pub fn new(message: impl Into<String>) -> Self {
        Diagnostic { message: message.into(), notes: Vec::new(), offset: None }
    }

    /// Creates a diagnostic anchored at a byte offset in some source text.
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        Diagnostic { message: message.into(), notes: Vec::new(), offset: Some(offset) }
    }

    /// Appends a note and returns the diagnostic (builder style).
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Appends a note in place.
    pub fn add_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The primary message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Attached notes, in the order they were added.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Byte offset into the source text, for parser diagnostics.
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }

    /// Sets the source offset if not already known.
    pub fn or_offset(mut self, offset: usize) -> Self {
        self.offset.get_or_insert(offset);
        self
    }

    /// Renders the diagnostic against `source`, resolving the byte offset to
    /// a line/column pair and quoting the offending line.
    pub fn render(&self, source: &str) -> String {
        let mut out = String::new();
        match self.offset {
            Some(offset) => {
                let (line, col) = line_col(source, offset);
                out.push_str(&format!("error at {line}:{col}: {}", self.message));
                if let Some(text) = source.lines().nth(line - 1) {
                    out.push_str(&format!("\n  | {text}\n  | {}^", " ".repeat(col - 1)));
                }
            }
            None => out.push_str(&format!("error: {}", self.message)),
        }
        for note in &self.notes {
            out.push_str(&format!("\n  note: {note}"));
        }
        out
    }
}

/// Translates a byte `offset` in `source` into a 1-based `(line, column)`.
fn line_col(source: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(source.len());
    let mut line = 1;
    let mut col = 1;
    for (i, ch) in source.char_indices() {
        if i >= offset {
            break;
        }
        if ch == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        for note in &self.notes {
            write!(f, "; note: {note}")?;
        }
        Ok(())
    }
}

impl Error for Diagnostic {}

/// Convenience alias used across the crate.
pub type Result<T, E = Diagnostic> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_notes() {
        let d = Diagnostic::new("bad operand").with_note("while verifying cmath.mul");
        assert_eq!(d.to_string(), "bad operand; note: while verifying cmath.mul");
    }

    #[test]
    fn render_resolves_line_and_column() {
        let src = "Dialect x {\n  Typo y\n}";
        let offset = src.find("Typo").unwrap();
        let d = Diagnostic::at(offset, "unknown directive `Typo`");
        let rendered = d.render(src);
        assert!(rendered.contains("error at 2:3"), "{rendered}");
        assert!(rendered.contains("Typo y"), "{rendered}");
    }

    #[test]
    fn line_col_of_first_byte() {
        assert_eq!(line_col("abc", 0), (1, 1));
        assert_eq!(line_col("a\nbc", 2), (2, 1));
        assert_eq!(line_col("a\nbc", 3), (2, 2));
    }
}
