//! `env-var-registry`: every `VPEC_*` environment read is documented.
//!
//! The CLI usage text (`crates/cli/src/lib.rs`, the `USAGE` constant) is
//! the user-facing registry of `VPEC_*` environment variables. A
//! `std::env::var("VPEC_…")` read of a name that text never mentions is
//! doc drift: a knob users cannot discover. The registry is extracted
//! lexically — every `VPEC_[A-Z0-9_]*` word in the registry file(s) —
//! so documenting a variable anywhere in the usage text (or its doc
//! comments) registers it.

use super::FileCtx;
use crate::diag::{Finding, LintId};
use crate::lexer::{str_content, TokKind};
use crate::structure::next_code;
use std::collections::BTreeSet;

/// The namespace this lint polices.
const PREFIX: &str = "VPEC_";

/// Extracts the documented-variable registry from registry-file text:
/// every maximal `VPEC_[A-Z0-9_]*` word.
pub fn registry_from(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while let Some(at) = text[i..].find(PREFIX) {
        let start = i + at;
        let mut end = start + PREFIX.len();
        while end < bytes.len() && (bytes[end].is_ascii_uppercase() || bytes[end].is_ascii_digit() || bytes[end] == b'_') {
            end += 1;
        }
        // A bare `VPEC_` prefix mention (e.g. "VPEC_* variables") is not
        // a variable name.
        if end > start + PREFIX.len() {
            out.insert(text[start..end].trim_end_matches('_').to_string());
        }
        i = end;
    }
    out
}

/// Runs the lint: flags `env::var`/`env::var_os` reads of `VPEC_*` names
/// missing from `registry`.
pub fn run(ctx: &FileCtx<'_>, registry: &BTreeSet<String>) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident || ctx.text(i) != "env" {
            continue;
        }
        // Match `env :: var ( "VPEC_…"` / `env :: var_os ( "VPEC_…"`.
        let Some(c1) = next_code(ctx.toks, i + 1) else { continue };
        let Some(c2) = next_code(ctx.toks, c1 + 1) else { continue };
        if ctx.text(c1) != ":" || ctx.text(c2) != ":" {
            continue;
        }
        let Some(m) = next_code(ctx.toks, c2 + 1) else { continue };
        if ctx.toks[m].kind != TokKind::Ident || !matches!(ctx.text(m), "var" | "var_os") {
            continue;
        }
        let Some(p) = next_code(ctx.toks, m + 1) else { continue };
        if ctx.text(p) != "(" {
            continue;
        }
        let Some(a) = next_code(ctx.toks, p + 1) else { continue };
        if ctx.toks[a].kind != TokKind::StrLit {
            continue;
        }
        let name = str_content(ctx.text(a));
        if !name.starts_with(PREFIX) {
            continue;
        }
        if !registry.contains(name) {
            out.push(ctx.finding(
                LintId::EnvVarRegistry,
                &ctx.toks[a],
                format!(
                    "`{name}` is read here but not documented in the usage registry \
                     (`crates/cli/src/lib.rs` USAGE) — document the variable so users \
                     can discover it, or drop the read"
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

    fn run_on(src: &str, registry: &[&str]) -> Vec<Finding> {
        let toks = lex(src);
        let regions = test_regions(src, &toks);
        let reg = registry.iter().map(|s| s.to_string()).collect();
        run(
            &FileCtx {
                src,
                toks: &toks,
                file: "crates/x/src/lib.rs",
                test_regions: &regions,
            },
            &reg,
        )
    }

    #[test]
    fn extracts_registry_words() {
        let reg = registry_from(
            "--threads N (default: VPEC_THREADS env). Tracing: VPEC_TRACE.\n\
             Audits via VPEC_AUDIT; profiles via VPEC_TUNE=FILE. VPEC_* reads are linted.",
        );
        for v in ["VPEC_THREADS", "VPEC_TRACE", "VPEC_AUDIT", "VPEC_TUNE"] {
            assert!(reg.contains(v), "{v} missing from {reg:?}");
        }
        // The bare `VPEC_*` wildcard is not a variable.
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn documented_reads_are_clean() {
        let src = "let v = std::env::var(\"VPEC_THREADS\").ok();";
        assert!(run_on(src, &["VPEC_THREADS"]).is_empty());
        let src = "if let Ok(v) = env::var(\"VPEC_AUDIT\") { use_it(v); }";
        assert!(run_on(src, &["VPEC_AUDIT"]).is_empty());
    }

    #[test]
    fn undocumented_reads_are_flagged() {
        let src = "let v = std::env::var(\"VPEC_SECRET_KNOB\").ok();";
        let fs = run_on(src, &["VPEC_THREADS"]);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("VPEC_SECRET_KNOB"));
        assert!(run_on("std::env::var_os(\"VPEC_HIDDEN\");", &[]).len() == 1);
    }

    #[test]
    fn non_vpec_vars_are_out_of_scope() {
        assert!(run_on("std::env::var(\"PATH\").ok();", &[]).is_empty());
        assert!(run_on("std::env::var(\"CARGO_MANIFEST_DIR\").ok();", &[]).is_empty());
    }

    #[test]
    fn dynamic_names_and_strings_elsewhere_are_out_of_scope() {
        // A computed name cannot be checked lexically; reads via a
        // variable are accepted (none exist in this workspace).
        assert!(run_on("std::env::var(name).ok();", &[]).is_empty());
        // Mentioning a VPEC_ name in a plain string is not a read.
        assert!(run_on("let s = \"VPEC_NOT_A_READ\";", &[]).is_empty());
        // set_var is a write, not a documented-surface read.
        assert!(run_on("std::env::set_var(\"VPEC_TEST_ONLY\", \"1\");", &[]).is_empty());
    }
}
