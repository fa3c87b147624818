//! `nan-ordering`: the thrice-fixed NaN-unsafe float-ordering class.
//!
//! `PartialOrd` on floats returns `None` for NaN; code that funnels it
//! through `partial_cmp(..).unwrap()` panics on the first NaN, and
//! `unwrap_or(Equal)` silently de-sorts — both have corrupted window
//! selection in this repo before (PR 3, PR 8). The fix is `total_cmp`,
//! which orders NaN deterministically, usually after validating
//! finiteness at the boundary.
//!
//! Findings fire on every `partial_cmp` call in code (string literals
//! and comments never trigger), anchored at the enclosing
//! `sort_by`/`sort_unstable_by`/`max_by`/`min_by` combinator when there
//! is one so a chain reads as a single finding. Comparator combinators
//! whose closure uses `total_cmp` (or integer `cmp`) are clean.
//! Deliberate NaN-propagation checks (`x.partial_cmp(&y) !=
//! Some(Greater)` treats NaN as a violation) carry an inline waiver
//! stating exactly that.

use super::FileCtx;
use crate::diag::{Finding, LintId};
use crate::lexer::TokKind;
use crate::structure::{match_delim, next_code};

/// Comparator combinators worth anchoring a finding at.
const COMBINATORS: [&str; 4] = ["sort_by", "sort_unstable_by", "max_by", "min_by"];

/// Runs the lint. Applies to all code, tests included: a NaN-unsafe test
/// comparator masks exactly the bug class the tests exist to catch.
pub fn run(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    // partial_cmp tokens already reported via an enclosing combinator.
    let mut consumed = vec![false; ctx.toks.len()];
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = ctx.text(i);
        if COMBINATORS.contains(&name) && ctx.ident_then(i, name, "(") {
            let open = next_code(ctx.toks, i + 1).expect("checked by ident_then");
            let close = match_delim(ctx.src, ctx.toks, open);
            let inner: Vec<usize> = (open + 1..close)
                .filter(|&j| {
                    ctx.toks[j].kind == TokKind::Ident && ctx.text(j) == "partial_cmp"
                })
                .collect();
            if !inner.is_empty() {
                for &j in &inner {
                    consumed[j] = true;
                }
                out.push(ctx.finding(
                    LintId::NanOrdering,
                    t,
                    format!(
                        "`{name}` comparator uses `partial_cmp` — NaN de-sorts or panics \
                         here; compare with `total_cmp` (validate finiteness first if NaN \
                         must be an error)"
                    ),
                ));
            }
        }
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind == TokKind::Ident && ctx.text(i) == "partial_cmp" && !consumed[i] {
            out.push(ctx.finding(
                LintId::NanOrdering,
                t,
                "`partial_cmp` on floats is `None` for NaN — use `total_cmp` for \
                 ordering, or waive with the reason NaN deliberately maps to a \
                 violation/short-circuit"
                    .to_string(),
            ));
        }
    }
    out.sort_by_key(|f| (f.line, f.col));
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
            file: "f.rs",
            test_regions: &regions,
        })
    }

    #[test]
    fn flags_partial_cmp_sort_once_at_the_combinator() {
        let fs = run_on("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("sort_by"));
        let fs = run_on("let m = xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap_or(Eq));");
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("max_by"));
    }

    #[test]
    fn flags_bare_partial_cmp() {
        let fs = run_on("if a.partial_cmp(&b) != Some(Ordering::Greater) { bail(); }");
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("total_cmp"));
    }

    #[test]
    fn total_cmp_forms_are_clean() {
        assert!(run_on("v.sort_by(|a, b| a.total_cmp(b));").is_empty());
        assert!(run_on("v.sort_by(|a, b| a.abs().total_cmp(&b.abs()));").is_empty());
        assert!(run_on("v.sort_unstable_by(f64::total_cmp);").is_empty());
        assert!(run_on("pairs.sort_by(|a, b| b.1.cmp(&a.1));").is_empty());
        assert!(run_on("xs.sort_by_key(|&v| deg[v]);").is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trigger() {
        assert!(run_on("// a.partial_cmp(b).unwrap() would be bad\nlet x = 1;").is_empty());
        assert!(run_on("let s = \"partial_cmp\"; /* sort_by partial_cmp */").is_empty());
        assert!(run_on("let s = r#\"v.sort_by(|a,b| a.partial_cmp(b))\"#;").is_empty());
    }

    #[test]
    fn fires_inside_test_code_too() {
        let src = "#[cfg(test)]\nmod t {\n fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n}\n";
        assert_eq!(run_on(src).len(), 1);
    }
}
