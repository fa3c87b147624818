//! Inline waivers: `// vpec-allow: <lint> -- <reason>`.
//!
//! A waiver suppresses findings of the named lint on its own line and on
//! the line directly below it (so it can sit as a trailing comment or on
//! its own line above the flagged expression). The reason is mandatory —
//! a waiver without one, or naming an unknown lint, is itself a finding,
//! and so is a waiver that suppressed nothing: both keep the waiver
//! inventory honest.

use crate::diag::{Finding, LintId};
use crate::lexer::{Tok, TokKind};

/// The comment marker that opens a waiver.
pub const MARKER: &str = "vpec-allow:";

/// One parsed waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The waived lint.
    pub lint: LintId,
    /// 1-based line the waiver comment starts on.
    pub line: u32,
    /// The justification after `--`.
    pub reason: String,
}

/// Scans a file's comment tokens for waivers. Returns the well-formed
/// waivers plus findings for malformed ones.
pub fn collect(src: &str, toks: &[Tok], file: &str) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment && t.kind != TokKind::BlockComment {
            continue;
        }
        // Only comments that *start* with the marker are waivers; prose
        // that mentions `vpec-allow:` mid-sentence (docs, examples) is not.
        let stripped = t.text(src).trim_start_matches(['/', '*', '!']).trim_start();
        if !stripped.starts_with(MARKER) {
            continue;
        }
        let spec = stripped[MARKER.len()..].trim_end_matches("*/").trim();
        let bad = |message: String| Finding {
            lint: LintId::Waiver,
            file: file.to_string(),
            line: t.line,
            col: t.col,
            message,
            snippet: snippet_at(src, t.line),
        };
        let (name, reason) = match spec.split_once("--") {
            Some((n, r)) => (n.trim(), r.trim()),
            None => (spec, ""),
        };
        let Some(lint) = LintId::parse(name) else {
            findings.push(bad(format!(
                "waiver names unknown lint `{name}` (known: nan-ordering, panic-freedom, \
                 unsafe-audit, numerical-class, env-var-registry)"
            )));
            continue;
        };
        if reason.is_empty() {
            findings.push(bad(format!(
                "waiver for `{lint}` is missing its mandatory reason \
                 (write `// vpec-allow: {lint} -- <why this is sound>`)"
            )));
            continue;
        }
        waivers.push(Waiver {
            lint,
            line: t.line,
            reason: reason.to_string(),
        });
    }
    (waivers, findings)
}

/// Applies `waivers` to `findings`: suppressed findings are removed and
/// counted, and each waiver that matched nothing becomes a finding.
/// Returns (surviving findings, waived count).
pub fn apply(
    findings: Vec<Finding>,
    waivers: &[Waiver],
    src: &str,
    file: &str,
) -> (Vec<Finding>, usize) {
    let mut used = vec![false; waivers.len()];
    let mut kept = Vec::with_capacity(findings.len());
    let mut waived = 0usize;
    for f in findings {
        let hit = waivers.iter().position(|w| {
            w.lint == f.lint && (f.line == w.line || f.line == w.line + 1)
        });
        match hit {
            // The waiver meta-lint itself can never be waived.
            Some(i) if f.lint != LintId::Waiver => {
                used[i] = true;
                waived += 1;
            }
            _ => kept.push(f),
        }
    }
    for (w, _) in waivers.iter().zip(&used).filter(|(_, &u)| !u) {
        kept.push(Finding {
            lint: LintId::Waiver,
            file: file.to_string(),
            line: w.line,
            col: 1,
            message: format!(
                "waiver for `{}` suppressed nothing — remove it or move it next to the \
                 finding it covers",
                w.lint
            ),
            snippet: snippet_at(src, w.line),
        });
    }
    (kept, waived)
}

/// The trimmed text of 1-based `line` in `src`.
pub fn snippet_at(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn finding(lint: LintId, line: u32) -> Finding {
        Finding {
            lint,
            file: "f.rs".into(),
            line,
            col: 1,
            message: "m".into(),
            snippet: "s".into(),
        }
    }

    #[test]
    fn parses_well_formed_waiver() {
        let src = "// vpec-allow: nan-ordering -- NaN maps to a violation on purpose\nlet x = 1;\n";
        let (ws, bad) = collect(src, &lex(src), "f.rs");
        assert!(bad.is_empty());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].lint, LintId::NanOrdering);
        assert_eq!(ws[0].line, 1);
        assert!(ws[0].reason.contains("on purpose"));
    }

    #[test]
    fn missing_reason_is_a_finding() {
        let src = "// vpec-allow: nan-ordering\n";
        let (ws, bad) = collect(src, &lex(src), "f.rs");
        assert!(ws.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].lint, LintId::Waiver);
        assert!(bad[0].message.contains("mandatory reason"));
        // `-- ` with empty reason is equally malformed.
        let src = "// vpec-allow: panic-freedom -- \n";
        let (ws, bad) = collect(src, &lex(src), "f.rs");
        assert!(ws.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn unknown_lint_is_a_finding() {
        let src = "// vpec-allow: no-such-lint -- because\n";
        let (ws, bad) = collect(src, &lex(src), "f.rs");
        assert!(ws.is_empty());
        assert!(bad[0].message.contains("unknown lint"));
        // The waiver meta-lint cannot be named either.
        let src = "// vpec-allow: waiver -- nope\n";
        let (_, bad) = collect(src, &lex(src), "f.rs");
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn waiver_covers_same_and_next_line_only() {
        let src = "// vpec-allow: nan-ordering -- reason\nx\ny\n";
        let (ws, _) = collect(src, &lex(src), "f.rs");
        let fs = vec![
            finding(LintId::NanOrdering, 1),
            finding(LintId::NanOrdering, 2),
            finding(LintId::NanOrdering, 3),
            finding(LintId::PanicFreedom, 2),
        ];
        let (kept, waived) = apply(fs, &ws, src, "f.rs");
        assert_eq!(waived, 2);
        // Line 3 (too far) and the wrong-lint finding survive.
        assert!(kept.iter().any(|f| f.lint == LintId::NanOrdering && f.line == 3));
        assert!(kept.iter().any(|f| f.lint == LintId::PanicFreedom));
    }

    #[test]
    fn unused_waiver_is_a_finding() {
        let src = "let a = 1; // vpec-allow: panic-freedom -- stale\n";
        let (ws, _) = collect(src, &lex(src), "f.rs");
        let (kept, waived) = apply(Vec::new(), &ws, src, "f.rs");
        assert_eq!(waived, 0);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].lint, LintId::Waiver);
        assert!(kept[0].message.contains("suppressed nothing"));
    }

    #[test]
    fn waivers_in_strings_are_ignored() {
        let src = "let s = \"// vpec-allow: nan-ordering -- fake\";\n";
        let (ws, bad) = collect(src, &lex(src), "f.rs");
        assert!(ws.is_empty());
        assert!(bad.is_empty());
    }
}
