//! `unsafe-audit`: the workspace is unsafe-free.
//!
//! Every crate root forbids `unsafe_code`; this lint keeps the promise
//! lexically visible and catches what the compiler attribute cannot: a
//! crate root that drops its `#![forbid]`. Any `unsafe` token and any
//! `#[allow(unsafe_code)]` attribute is a finding.

use super::FileCtx;
use crate::diag::{Finding, LintId};
use crate::lexer::TokKind;
use crate::structure::{match_delim, next_code};

/// Runs the lint.
pub fn run(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind == TokKind::Ident && ctx.text(i) == "unsafe" {
            out.push(ctx.finding(
                LintId::UnsafeAudit,
                t,
                "`unsafe` in a workspace whose promise is safe code everywhere".to_string(),
            ));
        } else if t.kind == TokKind::Punct && ctx.text(i) == "#" {
            // `#[allow(unsafe_code)]`: detect at the `#`.
            let Some(b) = next_code(ctx.toks, i + 1).filter(|&b| ctx.text(b) == "[") else {
                continue;
            };
            let close = match_delim(ctx.src, ctx.toks, b);
            let idents: Vec<&str> = ctx.toks[b + 1..close]
                .iter()
                .filter(|a| a.kind == TokKind::Ident)
                .map(|a| a.text(ctx.src))
                .collect();
            if idents == ["allow", "unsafe_code"] {
                out.push(ctx.finding(
                    LintId::UnsafeAudit,
                    t,
                    "`#[allow(unsafe_code)]` lifts a crate root's `#![forbid]`".to_string(),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::structure::test_regions;

    fn run_on(src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let regions = test_regions(src, &toks);
        run(&FileCtx {
            src,
            toks: &toks,
            file: "crates/core/src/x.rs",
            test_regions: &regions,
        })
    }

    #[test]
    fn unsafe_is_flagged_even_with_a_safety_comment() {
        assert_eq!(run_on("fn f() { unsafe { *p } }").len(), 1);
        let src = "// SAFETY: row-disjoint per the protocol.\nfn f() { unsafe { g() } }\n";
        assert_eq!(run_on(src).len(), 1);
        // `unsafe fn` and the block inside it are two findings.
        let src = "/// # Safety\n/// Caller holds the lock.\nunsafe fn row() { unsafe { g() } }\n";
        assert_eq!(run_on(src).len(), 2);
    }

    #[test]
    fn allow_attr_is_flagged() {
        let fs = run_on("#[allow(unsafe_code)]\nmod m {}");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn other_lint_level_attrs_are_clean() {
        let src =
            "#![deny(unsafe_code)]\n#![forbid(unsafe_code)]\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_are_clean() {
        let src = "// the pool once needed unsafe for a row view\nlet s = \"unsafe\";\n";
        assert!(run_on(src).is_empty());
    }
}
