//! `unsafe-audit`: every `unsafe` is allowlisted, justified and counted.
//!
//! Every crate root forbids `unsafe_code`, and the workspace policy
//! ([`crate::Config::for_workspace`]) allowlists no module. The lint
//! keeps the machinery for an allowlist so a future exception has to be
//! pinned and justified:
//!
//! * any `unsafe` token or `#[allow(unsafe_code)]` attribute outside the
//!   allowlisted modules is a finding;
//! * inside an allowlisted module, every `unsafe` must carry a
//!   `// SAFETY:` comment (or a `# Safety` doc section for `unsafe fn`)
//!   on the same line or within the five lines above it;
//! * the `#[allow(unsafe_code)]` count per allowlisted file is pinned
//!   exactly — growth *and* shrinkage are findings, so crate-doc prose
//!   can never drift from reality again (it once claimed one escape
//!   hatch when there were three).

use super::FileCtx;
use crate::diag::{Finding, LintId, Severity};
use crate::lexer::TokKind;
use crate::structure::{match_delim, next_code};

/// How far above an `unsafe` token its SAFETY comment may sit (lines).
const SAFETY_WINDOW: u32 = 5;

/// Runs the lint. `allowlist` maps root-relative module paths to their
/// pinned `#[allow(unsafe_code)]` count.
pub fn run(ctx: &FileCtx<'_>, allowlist: &[(String, usize)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let pinned = allowlist
        .iter()
        .find(|(p, _)| p == ctx.file)
        .map(|&(_, n)| n);

    // Comment lines that discharge a SAFETY obligation.
    let safety_comments: Vec<(u32, u32)> = ctx
        .toks
        .iter()
        .filter(|t| {
            (t.kind == TokKind::LineComment || t.kind == TokKind::BlockComment)
                && (t.text(ctx.src).contains("SAFETY:") || t.text(ctx.src).contains("# Safety"))
        })
        .map(|t| (t.line, t.end_line))
        .collect();

    let mut allow_count = 0usize;
    let mut first_allow_tok = None;
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident {
            // `#[allow(unsafe_code)]`: detect at the `#`.
            if t.kind == TokKind::Punct && ctx.text(i) == "#" {
                if let Some(b) = next_code(ctx.toks, i + 1) {
                    if ctx.text(b) == "[" {
                        let close = match_delim(ctx.src, ctx.toks, b);
                        let idents: Vec<&str> = ctx.toks[b + 1..close]
                            .iter()
                            .filter(|a| a.kind == TokKind::Ident)
                            .map(|a| a.text(ctx.src))
                            .collect();
                        if idents == ["allow", "unsafe_code"] {
                            allow_count += 1;
                            first_allow_tok.get_or_insert(i);
                            if pinned.is_none() {
                                out.push(ctx.finding(
                                    LintId::UnsafeAudit,
                                    Severity::Deny,
                                    t,
                                    "`#[allow(unsafe_code)]` outside the allowlisted modules \
                                     — the workspace is unsafe-free (an exception needs an \
                                     allowlist entry in `vpec_analyze::Config` with a pinned \
                                     count and a design-doc entry)"
                                        .to_string(),
                                ));
                            }
                        }
                    }
                }
            }
            continue;
        }
        if ctx.text(i) != "unsafe" {
            continue;
        }
        if pinned.is_none() {
            out.push(ctx.finding(
                LintId::UnsafeAudit,
                Severity::Deny,
                t,
                "`unsafe` outside the allowlisted modules — the workspace promise is \
                 safe code everywhere"
                    .to_string(),
            ));
            continue;
        }
        let covered = safety_comments.iter().any(|&(start, end)| {
            end + SAFETY_WINDOW >= t.line && start <= t.line
        });
        if !covered {
            out.push(ctx.finding(
                LintId::UnsafeAudit,
                Severity::Deny,
                t,
                format!(
                    "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section) \
                     on the same line or within the {SAFETY_WINDOW} lines above — state \
                     the invariant that makes this sound"
                ),
            ));
        }
    }

    if let Some(expected) = pinned {
        if allow_count != expected && !ctx.toks.is_empty() {
            let anchor = first_allow_tok.map_or(&ctx.toks[0], |i| &ctx.toks[i]);
            out.push(ctx.finding(
                LintId::UnsafeAudit,
                Severity::Deny,
                anchor,
                format!(
                    "{} has {allow_count} `#[allow(unsafe_code)]` attributes but the \
                     allowlist pins exactly {expected} — update the pin in \
                     `vpec_analyze::Config::for_workspace` AND the comment in the crate's \
                     `lib.rs` that explains it, so prose and policy move together",
                    ctx.file
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::structure::test_regions;

    fn run_on(file: &str, src: &str, allowlist: &[(String, usize)]) -> Vec<Finding> {
        let toks = lex(src);
        let regions = test_regions(src, &toks);
        run(
            &FileCtx {
                src,
                toks: &toks,
                file,
                test_regions: &regions,
            },
            allowlist,
        )
    }

    fn pool_allow(n: usize) -> Vec<(String, usize)> {
        vec![("crates/numerics/src/pool.rs".to_string(), n)]
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let fs = run_on(
            "crates/core/src/x.rs",
            "fn f() { unsafe { *p } }",
            &pool_allow(1),
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("outside the allowlisted"));
    }

    #[test]
    fn allow_attr_outside_allowlist_is_flagged() {
        let fs = run_on(
            "crates/core/src/x.rs",
            "#[allow(unsafe_code)]\nmod m {}",
            &pool_allow(1),
        );
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn safety_comment_within_window_passes() {
        let src = "#[allow(unsafe_code)]\nmod m {\n// SAFETY: row-disjoint per the protocol.\nfn f() { unsafe { g() } }\n}\n";
        assert!(run_on("crates/numerics/src/pool.rs", src, &pool_allow(1)).is_empty());
        // Doc-section form for unsafe fn.
        let src = "#[allow(unsafe_code)]\n/// # Safety\n/// Caller holds the row lock.\nunsafe fn row() {}\n";
        assert!(run_on("crates/numerics/src/pool.rs", src, &pool_allow(1)).is_empty());
    }

    #[test]
    fn missing_safety_comment_is_flagged() {
        let src = "#[allow(unsafe_code)]\nmod m {\nfn f() { unsafe { g() } }\n}\n";
        let fs = run_on("crates/numerics/src/pool.rs", src, &pool_allow(1));
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("SAFETY"));
        // A SAFETY comment too far above does not count.
        let src = "#[allow(unsafe_code)]\n// SAFETY: stale.\n\n\n\n\n\n\nfn f() { unsafe { g() } }\n";
        assert_eq!(
            run_on("crates/numerics/src/pool.rs", src, &pool_allow(1)).len(),
            1
        );
    }

    #[test]
    fn allow_count_is_pinned_exactly() {
        let src = "#[allow(unsafe_code)]\n// SAFETY: fine.\nfn f() { unsafe { g() } }\n";
        // Expected 2, found 1: shrinkage is drift too.
        let fs = run_on("crates/numerics/src/pool.rs", src, &pool_allow(2));
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("pins exactly 2"));
        assert!(fs[0].message.contains("lib.rs"));
        // Growth is flagged symmetrically.
        let two = "#[allow(unsafe_code)]\n#[allow(unsafe_code)]\n// SAFETY: fine.\nfn f() { unsafe { g() } }\n";
        let fs = run_on("crates/numerics/src/pool.rs", two, &pool_allow(1));
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn other_lint_level_attrs_are_not_miscounted() {
        let src = "#![deny(unsafe_code)]\n#![forbid(unsafe_code)]\nfn f() {}\n";
        assert!(run_on("crates/core/src/lib.rs", src, &pool_allow(1)).is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_are_clean() {
        let src = "// the pool once needed unsafe for a row view\nlet s = \"unsafe\";\n";
        assert!(run_on("crates/core/src/x.rs", src, &pool_allow(1)).is_empty());
    }
}
