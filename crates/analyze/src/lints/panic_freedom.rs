//! `panic-freedom`: the engine boundary promises typed errors.
//!
//! The batch engine isolates request panics with `catch_unwind`, but
//! that is crash *containment*, not error handling: a panic still tears
//! down the worker's in-flight state and surfaces as a generic
//! `RequestPanicked` instead of a typed, actionable error. Library code
//! the engine reaches (`numerics`, `core`, `circuit`, `extract`,
//! `engine`, `metrics`, `geometry`, `trace`) must therefore return
//! `Result` instead of calling
//! `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`.
//!
//! Test code (`#[cfg(test)]` regions and integration-test trees) is
//! exempt — panicking is how tests fail. `assert!`/`debug_assert!` are
//! also exempt: they document invariants whose violation is a bug in
//! the caller, not a runtime condition. A site whose panic cannot happen
//! and whose `Result` would leak into an API that cannot fail takes an
//! inline waiver stating that invariant.

use super::FileCtx;
use crate::diag::{Finding, LintId};
use crate::lexer::TokKind;

/// Methods that convert an error into a panic.
const PANICKY_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Macros that panic unconditionally when reached.
const PANICKY_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Whether this lint applies to `file` (root-relative), given the
/// protected crate list: library sources only — `crates/<c>/src/…`.
pub fn applies(file: &str, panic_crates: &[String]) -> bool {
    panic_crates
        .iter()
        .any(|c| file.strip_prefix(&format!("crates/{c}/src/")).is_some())
}

/// Runs the lint over one in-scope file.
pub fn run(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident || ctx.is_test(t) {
            continue;
        }
        let name = ctx.text(i);
        if PANICKY_METHODS.contains(&name) {
            // Only method calls: `.unwrap(` / `.expect(`. A definition
            // like `fn unwrap(` or an ident named `expect` alone is not
            // a panic site, and `unwrap_or`/`expect_err` are distinct
            // idents already.
            let preceded_by_dot = i > 0
                && ctx.toks[i - 1].kind == TokKind::Punct
                && ctx.text(i - 1) == ".";
            if preceded_by_dot && ctx.ident_then(i, name, "(") {
                out.push(ctx.finding(
                    LintId::PanicFreedom,
                    t,
                    format!(
                        "`.{name}()` panics at the engine boundary — return a typed error \
                         (`ok_or`/`map_err` into this crate's error enum) instead"
                    ),
                ));
            }
        } else if PANICKY_MACROS.contains(&name) && ctx.ident_then(i, name, "!") {
            out.push(ctx.finding(
                LintId::PanicFreedom,
                t,
                format!(
                    "`{name}!` in library code tears down the request instead of \
                     returning a typed error"
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
    fn scope_is_library_sources_of_protected_crates() {
        let crates: Vec<String> = vec!["numerics".into(), "core".into()];
        assert!(applies("crates/numerics/src/lu.rs", &crates));
        assert!(applies("crates/core/src/a/b.rs", &crates));
        assert!(!applies("crates/numerics/tests/proptests.rs", &crates));
        assert!(!applies("crates/cli/src/main.rs", &crates));
        assert!(!applies("tests/paper_claims.rs", &crates));
    }

    #[test]
    fn flags_unwrap_expect_and_panicky_macros() {
        assert_eq!(run_on("fn f() { x.unwrap(); }").len(), 1);
        assert_eq!(run_on("fn f() { x.expect(\"msg\"); }").len(), 1);
        assert_eq!(run_on("fn f() { panic!(\"boom\"); }").len(), 1);
        assert_eq!(run_on("fn f() { unreachable!() }").len(), 1);
        assert_eq!(run_on("fn f() { todo!() }").len(), 1);
    }

    #[test]
    fn unwrap_or_family_is_clean() {
        assert!(run_on("fn f() { x.unwrap_or(0); }").is_empty());
        assert!(run_on("fn f() { x.unwrap_or_else(|| 0); }").is_empty());
        assert!(run_on("fn f() { x.unwrap_or_default(); }").is_empty());
        assert!(run_on("fn f() { x.expect_err(\"m\"); }").is_empty());
    }

    #[test]
    fn asserts_are_clean() {
        assert!(run_on("fn f() { assert!(x > 0); assert_eq!(a, b); }").is_empty());
        assert!(run_on("fn f() { debug_assert!(x.is_finite()); }").is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn live() {}\n#[cfg(test)]\nmod t {\n fn f() { x.unwrap(); panic!(); }\n}\n";
        assert!(run_on(src).is_empty());
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn live() { y.unwrap(); }\n";
        let fs = run_on(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn strings_and_comments_are_clean() {
        assert!(run_on("// x.unwrap() would panic\nfn f() {}").is_empty());
        assert!(run_on("fn f() { let s = \"don't unwrap() here\"; }").is_empty());
    }

    #[test]
    fn non_call_mentions_are_clean() {
        // A method *named* unwrap being defined, or passed as a path.
        assert!(run_on("impl X { fn unwrap(self) -> Y { self.0 } }").is_empty());
        assert!(run_on("let f = Option::unwrap;").is_empty());
    }
}
