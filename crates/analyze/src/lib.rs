//! `vpec-analyze` — the workspace's own static-analysis pass.
//!
//! A zero-dependency lint engine over this repository's Rust sources. It
//! exists because three of the project's recurring bug classes are
//! *lexically visible*: NaN-unsafe float ordering (fixed in PR 3 and
//! again in PR 8), panics crossing the batch-engine request boundary,
//! and doc/policy drift (the `numerics` crate docs once claimed one
//! `#[allow(unsafe_code)]` escape hatch while `pool.rs` had three). Each
//! class gets a lint that makes the regression impossible to land:
//!
//! * [`nan-ordering`](lints::nan_ordering) — `partial_cmp` in ordering
//!   positions; the fix is `total_cmp`.
//! * [`panic-freedom`](lints::panic_freedom) — `unwrap`/`expect`/panicky
//!   macros in non-test library code of the engine-boundary crates.
//! * [`unsafe-audit`](lints::unsafe_audit) — no `unsafe` token and no
//!   `#[allow(unsafe_code)]` anywhere: every crate root forbids
//!   `unsafe_code`.
//! * [`numerical-class`](lints::numerical_class) — kernel functions
//!   declare `Numerical class: bit-identical` or `audited-close`;
//!   bit-identical code must not call audited-close helpers.
//! * [`env-var-registry`](lints::env_registry) — every
//!   `std::env::var("VPEC_*")` read is documented in the CLI usage text.
//!
//! The engine is deliberately hermetic: a hand-rolled [`lexer`] (raw
//! strings, nested block comments, lifetimes vs. char literals) feeds
//! token-level lints, so the pass needs no rustc internals, no syn, no
//! network — `cargo run -p vpec-analyze` works on a bare toolchain and
//! runs in well under a second. False-positive control is structural
//! (string/comment contents never match) plus one escape valve with an
//! audit trail: inline [`waiver`]s with mandatory reasons. There is one
//! gate: any finding that survives the waivers fails it.
//!
//! Run it as the `vpec-analyze` binary; `scripts/check.sh` enforces it as
//! a tier-1 gate. See `DESIGN.md` §14 for the taxonomy and the waiver
//! policy.

#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod lints;
pub mod structure;
pub mod waiver;

pub use diag::{Finding, LintId, ALL_LINTS};
pub use engine::{Config, Report};
