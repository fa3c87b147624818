//! `numerical-class`: the PR 7 kernel contract, enforced.
//!
//! The blocked kernels split into two numerical classes. *Bit-identical*
//! paths (blocked LU trailing update, unrolled matmul) must reproduce
//! the serial reference operation-for-operation — `par_equivalence`
//! tests assert exact equality at any worker count. *Audited-close*
//! paths (four-accumulator dot products, blocked Cholesky, triangular
//! solves) reassociate sums and are covered by the audit layer's
//! tolerance machinery instead. The contract used to live only in
//! prose; this lint makes it structural:
//!
//! * every function in a designated kernel module declares its class
//!   with a doc-comment marker — `Numerical class: bit-identical` or
//!   `Numerical class: audited-close`;
//! * a lexical call-graph check forbids the body of a bit-identical
//!   function from calling an audited-close function: one reassociated
//!   dot product inside a bit-identical path silently breaks the exact
//!   per-worker-count equality the tests and the pool dispatcher rely
//!   on. (Audited-close callers may call either class — tolerance
//!   absorbs composition.)
//!
//! Markers on functions *outside* kernel modules are optional but, once
//! present, join the same call-graph check.

use super::FileCtx;
use crate::diag::{Finding, LintId};
use crate::lexer::TokKind;
use crate::structure::{match_delim, next_code};
use std::collections::BTreeMap;

/// The marker phrase looked for inside doc comments.
pub const MARKER: &str = "Numerical class:";

/// A function's declared class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Must reproduce the serial reference bit-for-bit.
    BitIdentical,
    /// Reassociates; covered by audit tolerances.
    AuditedClose,
}

impl Class {
    fn parse(s: &str) -> Option<Class> {
        match s {
            "bit-identical" => Some(Class::BitIdentical),
            "audited-close" => Some(Class::AuditedClose),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Class::BitIdentical => "bit-identical",
            Class::AuditedClose => "audited-close",
        }
    }
}

/// A classified function found in one file.
#[derive(Debug, Clone)]
pub struct ClassifiedFn {
    /// Function name.
    pub name: String,
    /// Declared class.
    pub class: Class,
    /// Token range of the body (indices into the file's token stream).
    pub body: (usize, usize),
    /// Line of the `fn` keyword.
    pub line: u32,
}

/// Pass 1 over one file: collect classified functions, and report
/// marker-discipline findings (unparseable class; missing marker on a
/// kernel-module function outside test code).
pub fn collect(ctx: &FileCtx<'_>, is_kernel_module: bool) -> (Vec<ClassifiedFn>, Vec<Finding>) {
    let mut fns = Vec::new();
    let mut findings = Vec::new();
    let mut i = 0usize;
    while i < ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident || ctx.text(i) != "fn" {
            i += 1;
            continue;
        }
        let Some(name_i) = next_code(ctx.toks, i + 1) else { break };
        if ctx.toks[name_i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = ctx.text(name_i).to_string();
        // The doc block above the fn: contiguous comments/attributes
        // directly before, scanned for the class marker.
        let class = doc_class(ctx, i, &mut findings);
        // Find the body: first `{` after the signature ( `;` first means
        // a trait method declaration — no body, nothing to check).
        let mut j = name_i + 1;
        let mut body = None;
        while let Some(k) = next_code(ctx.toks, j) {
            let txt = ctx.text(k);
            if ctx.toks[k].kind == TokKind::Punct {
                if txt == "(" || txt == "[" {
                    j = match_delim(ctx.src, ctx.toks, k) + 1;
                    continue;
                }
                if txt == "{" {
                    body = Some((k, match_delim(ctx.src, ctx.toks, k)));
                    break;
                }
                if txt == ";" {
                    break;
                }
            }
            j = k + 1;
        }
        match (class, body) {
            (Some(class), Some(body)) => fns.push(ClassifiedFn {
                name,
                class,
                body,
                line: t.line,
            }),
            (None, _) if is_kernel_module && !ctx.is_test(t) => {
                findings.push(ctx.finding(
                    LintId::NumericalClass,
                    t,
                    format!(
                        "kernel function `{name}` does not declare its numerical class — \
                         add `/// {MARKER} bit-identical` (exact serial operation order) \
                         or `/// {MARKER} audited-close` (reassociated, audit-covered) \
                         to its docs"
                    ),
                ));
            }
            _ => {}
        }
        i = body.map_or(name_i + 1, |(_, e)| e + 1);
    }
    (fns, findings)
}

/// Scans the doc block directly above token `fn_i` for a class marker:
/// walking backwards over comments, attributes (`#[inline]`) and
/// visibility/qualifier tokens (`pub(crate)`, `unsafe`, `const`), and
/// stopping at any other code — so a comment trailing the *previous*
/// item can never classify this one. Emits a finding for a marker with
/// an unknown class.
fn doc_class(ctx: &FileCtx<'_>, fn_i: usize, findings: &mut Vec<Finding>) -> Option<Class> {
    const QUALIFIERS: [&str; 8] = ["pub", "crate", "super", "self", "in", "unsafe", "const", "async"];
    let mut class = None;
    let mut j = fn_i;
    while j > 0 {
        let t = &ctx.toks[j - 1];
        let txt = t.text(ctx.src);
        match t.kind {
            TokKind::LineComment | TokKind::BlockComment => {
                if let Some(at) = txt.find(MARKER) {
                    // The class is the first word after the marker;
                    // explanatory prose may follow (`audited-close (the
                    // forward sweep …)`).
                    let rest = txt[at + MARKER.len()..].trim_start();
                    let end = rest
                        .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                        .unwrap_or(rest.len());
                    let spec = rest[..end].trim_end_matches('-');
                    match Class::parse(spec) {
                        Some(c) => class = Some(c),
                        None => findings.push(ctx.finding(
                            LintId::NumericalClass,
                            t,
                            format!(
                                "unknown numerical class `{spec}` — the classes are \
                                 `bit-identical` and `audited-close`"
                            ),
                        )),
                    }
                }
                j -= 1;
            }
            TokKind::Ident if QUALIFIERS.contains(&txt) => j -= 1,
            TokKind::Punct if txt == ")" => {
                // Backward-skip a `( … )` group: `pub(crate)` / `pub(in x)`.
                let mut depth = 0i64;
                let mut k = j - 1;
                loop {
                    if ctx.toks[k].kind == TokKind::Punct {
                        match ctx.toks[k].text(ctx.src) {
                            ")" => depth += 1,
                            "(" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                j = k;
            }
            TokKind::Punct if txt == "]" => {
                // Backward-skip an attribute `#[ … ]` to its `#`.
                let mut depth = 0i64;
                let mut k = j - 1;
                loop {
                    if ctx.toks[k].kind == TokKind::Punct {
                        match ctx.toks[k].text(ctx.src) {
                            "]" => depth += 1,
                            "[" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                if k >= 1 && ctx.toks[k - 1].kind == TokKind::Punct
                    && ctx.toks[k - 1].text(ctx.src) == "#"
                {
                    j = k - 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    class
}

/// Pass 2 over one file: check every classified function's body against
/// the global class map. `global` maps function name → class across the
/// whole workspace (lexical: names are assumed unique enough among the
/// small set of classified kernels).
pub fn check(
    ctx: &FileCtx<'_>,
    fns: &[ClassifiedFn],
    global: &BTreeMap<String, Class>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in fns {
        if f.class != Class::BitIdentical {
            continue;
        }
        for k in f.body.0 + 1..f.body.1 {
            let t = &ctx.toks[k];
            if t.kind != TokKind::Ident {
                continue;
            }
            let callee = ctx.text(k);
            if callee == f.name {
                continue;
            }
            let Some(&callee_class) = global.get(callee) else {
                continue;
            };
            // A call is an ident followed by `(`; plain mentions in
            // types/paths without a call don't execute the kernel.
            if callee_class == Class::AuditedClose && ctx.ident_then(k, callee, "(") {
                out.push(ctx.finding(
                    LintId::NumericalClass,
                    t,
                    format!(
                        "`{}` is declared {} but calls `{callee}`, which is declared \
                         {} — the reassociated result breaks exact serial equality; \
                         use a bit-identical helper or reclassify the caller",
                        f.name,
                        f.class.name(),
                        callee_class.name()
                    ),
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

    fn ctx_parts(src: &str) -> (Vec<crate::lexer::Tok>, Vec<(usize, usize)>) {
        let toks = lex(src);
        let regions = test_regions(src, &toks);
        (toks, regions)
    }

    fn analyze(src: &str, kernel: bool) -> (Vec<ClassifiedFn>, Vec<Finding>, Vec<Finding>) {
        let (toks, regions) = ctx_parts(src);
        let ctx = FileCtx {
            src,
            toks: &toks,
            file: "k.rs",
            test_regions: &regions,
        };
        let (fns, marker_findings) = collect(&ctx, kernel);
        let global: BTreeMap<String, Class> =
            fns.iter().map(|f| (f.name.clone(), f.class)).collect();
        let call_findings = check(&ctx, &fns, &global);
        (fns, marker_findings, call_findings)
    }

    const OK: &str = "\
/// Docs.\n/// Numerical class: audited-close.\nfn dot4(a: &[f64]) -> f64 { a[0] }\n\
/// Numerical class: bit-identical.\nfn axpy4(c: &mut [f64]) { c[0] += 1.0; }\n";

    #[test]
    fn collects_classes_from_doc_markers() {
        let (fns, marker, calls) = analyze(OK, true);
        assert!(marker.is_empty() && calls.is_empty());
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].class, Class::AuditedClose);
        assert_eq!(fns[1].class, Class::BitIdentical);
    }

    #[test]
    fn missing_marker_in_kernel_module_is_flagged() {
        let src = "fn helper(x: f64) -> f64 { x }\n";
        let (_, marker, _) = analyze(src, true);
        assert_eq!(marker.len(), 1);
        assert!(marker[0].message.contains("does not declare"));
        // Outside kernel modules the marker is optional.
        let (_, marker, _) = analyze(src, false);
        assert!(marker.is_empty());
    }

    #[test]
    fn bit_identical_calling_audited_close_is_flagged() {
        let src = "\
/// Numerical class: audited-close.\nfn dot4(a: &[f64]) -> f64 { a[0] }\n\
/// Numerical class: bit-identical.\nfn trailing(c: &mut [f64]) { c[0] -= dot4(c); }\n";
        let (_, _, calls) = analyze(src, true);
        assert_eq!(calls.len(), 1);
        assert!(calls[0].message.contains("breaks exact serial equality"));
    }

    #[test]
    fn allowed_call_directions_are_clean() {
        // audited-close → bit-identical and same-class calls are fine.
        let src = "\
/// Numerical class: bit-identical.\nfn sub4(c: &mut [f64]) { c[0] -= 1.0; }\n\
/// Numerical class: audited-close.\nfn chol(c: &mut [f64]) { sub4(c); }\n\
/// Numerical class: bit-identical.\nfn lu(c: &mut [f64]) { sub4(c); }\n";
        let (_, marker, calls) = analyze(src, true);
        assert!(marker.is_empty() && calls.is_empty());
    }

    #[test]
    fn unknown_class_is_flagged() {
        let src = "/// Numerical class: pretty-close.\nfn f(x: f64) -> f64 { x }\n";
        let (_, marker, _) = analyze(src, false);
        assert_eq!(marker.len(), 1);
        assert!(marker[0].message.contains("pretty-close"));
    }

    #[test]
    fn test_fns_in_kernel_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn t() {}\n}\n";
        let (_, marker, _) = analyze(src, true);
        assert!(marker.is_empty());
    }

    #[test]
    fn attributes_between_docs_and_fn_do_not_break_the_block() {
        let src = "/// Numerical class: bit-identical.\n#[inline]\nfn f(c: &mut [f64]) { c[0] += 1.0; }\n";
        let (fns, marker, _) = analyze(src, true);
        assert!(marker.is_empty());
        assert_eq!(fns.len(), 1);
    }

    #[test]
    fn trailing_comment_of_previous_item_does_not_classify() {
        // The marker sits inside `prev`'s body; the adjacent `f` must
        // not inherit it (and so gets flagged for a missing marker).
        let src = "fn prev() { work();\n// Numerical class: audited-close.\n}\nfn f(x: f64) -> f64 { x }\n";
        let (fns, marker, _) = analyze(src, true);
        assert!(fns.iter().all(|f| f.name != "f"));
        assert!(marker.iter().any(|m| m.message.contains("`f`")));
    }

    #[test]
    fn qualified_fns_still_see_their_docs() {
        let src = "/// Numerical class: bit-identical.\n#[inline]\npub(crate) fn f(c: &mut [f64]) { c[0] += 1.0; }\n";
        let (fns, marker, _) = analyze(src, true);
        assert!(marker.is_empty());
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].class, Class::BitIdentical);
    }

    #[test]
    fn mention_without_call_is_clean() {
        let src = "\
/// Numerical class: audited-close.\nfn dot4(a: &[f64]) -> f64 { a[0] }\n\
/// Numerical class: bit-identical.\nfn doc_ref(c: &mut [f64]) { let _f: fn(&[f64]) -> f64 = dot4; c[0] += 1.0; }\n";
        let (_, _, calls) = analyze(src, true);
        assert!(calls.is_empty());
    }
}
