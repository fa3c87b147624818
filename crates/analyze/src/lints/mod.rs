//! The lint passes.
//!
//! Every lint is a pure function over a [`FileCtx`] (lexed file plus
//! precomputed test regions); the engine owns file discovery and waiver
//! application. See `DESIGN.md` §14 for the taxonomy and the recipe for
//! adding a lint.

pub mod env_registry;
pub mod nan_ordering;
pub mod numerical_class;
pub mod panic_freedom;
pub mod unsafe_audit;

use crate::diag::{Finding, LintId};
use crate::lexer::{Tok, TokKind};
use crate::structure::in_regions;
use crate::waiver::snippet_at;

/// Everything a lint needs to look at one file.
pub struct FileCtx<'a> {
    /// File content.
    pub src: &'a str,
    /// Lexed tokens.
    pub toks: &'a [Tok],
    /// Root-relative path with `/` separators.
    pub file: &'a str,
    /// Sorted byte ranges of `#[cfg(test)]` / `#[test]` code.
    pub test_regions: &'a [(usize, usize)],
}

impl<'a> FileCtx<'a> {
    /// Whether the token lies in test-only code.
    pub fn is_test(&self, t: &Tok) -> bool {
        in_regions(self.test_regions, t.start)
    }

    /// Builds a finding anchored at a token.
    pub fn finding(&self, lint: LintId, t: &Tok, message: String) -> Finding {
        Finding {
            lint,
            file: self.file.to_string(),
            line: t.line,
            col: t.col,
            message,
            snippet: snippet_at(self.src, t.line),
        }
    }

    /// The text of token `i`.
    pub fn text(&self, i: usize) -> &'a str {
        self.toks[i].text(self.src)
    }

    /// Whether code token `i` is the ident `name` immediately followed
    /// (ignoring comments) by the punct `p`.
    pub fn ident_then(&self, i: usize, name: &str, p: &str) -> bool {
        self.toks[i].kind == TokKind::Ident
            && self.text(i) == name
            && crate::structure::next_code(self.toks, i + 1)
                .is_some_and(|j| self.toks[j].kind == TokKind::Punct && self.text(j) == p)
    }
}
