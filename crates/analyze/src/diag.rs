//! Diagnostics: lint identities and findings.

use std::fmt;

/// Identity of a lint (or of the waiver meta-checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// `partial_cmp`/`sort_by`/`max_by`/`min_by` on float expressions
    /// outside a `total_cmp` form — the thrice-fixed NaN-ordering class.
    NanOrdering,
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
    /// in non-test library code of the engine-boundary crates.
    PanicFreedom,
    /// Any `unsafe` token or `#[allow(unsafe_code)]` attribute.
    UnsafeAudit,
    /// Kernel functions must declare `Numerical class: bit-identical`
    /// or `audited-close`, and bit-identical paths must not call
    /// audited-close helpers.
    NumericalClass,
    /// Every `std::env::var("VPEC_*")` read must name a variable
    /// documented in the usage registry.
    EnvVarRegistry,
    /// Waiver hygiene: malformed `// vpec-allow:` comments and waivers
    /// that matched nothing.
    Waiver,
}

/// Every real lint, in reporting order. `Waiver` is excluded: it cannot
/// be waived, only fixed.
pub const ALL_LINTS: [LintId; 5] = [
    LintId::NanOrdering,
    LintId::PanicFreedom,
    LintId::UnsafeAudit,
    LintId::NumericalClass,
    LintId::EnvVarRegistry,
];

impl LintId {
    /// The kebab-case name used in waivers and reports.
    pub fn name(self) -> &'static str {
        match self {
            LintId::NanOrdering => "nan-ordering",
            LintId::PanicFreedom => "panic-freedom",
            LintId::UnsafeAudit => "unsafe-audit",
            LintId::NumericalClass => "numerical-class",
            LintId::EnvVarRegistry => "env-var-registry",
            LintId::Waiver => "waiver",
        }
    }

    /// Parses a lint name as written in waivers.
    /// `waiver` is deliberately not parseable: the meta-lint cannot be
    /// waived away.
    pub fn parse(name: &str) -> Option<LintId> {
        ALL_LINTS.into_iter().find(|l| l.name() == name)
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding at a source position. Every finding fails the gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: LintId,
    /// Root-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description with the fix direction.
    pub message: String,
    /// The trimmed source line, displayed under the finding.
    pub snippet: String,
}

impl Finding {
    /// Renders as `file:line:col: [lint]: message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}]: {}\n    | {}",
            self.file, self.line, self.col, self.lint, self.message, self.snippet
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for lint in ALL_LINTS {
            assert_eq!(LintId::parse(lint.name()), Some(lint));
        }
        assert_eq!(LintId::parse("waiver"), None);
        assert_eq!(LintId::parse("nonsense"), None);
    }

    #[test]
    fn render_contains_position_and_lint() {
        let f = Finding {
            lint: LintId::NanOrdering,
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            message: "m".into(),
            snippet: "s".into(),
        };
        assert!(f.render().starts_with("crates/x/src/lib.rs:3:7: [nan-ordering]"));
    }
}
