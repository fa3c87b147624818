//! Experiment harness reproducing every table and figure of the VPEC
//! paper's evaluation (see `DESIGN.md` §4 for the experiment index).
//!
//! Each `figN`/`tableN` module exposes a `run(...) -> String` function
//! that executes the experiment and renders a plain-text report with the
//! same rows/series the paper presents; the `repro` binary prints them.
//! Absolute times differ from the paper's 2003 SUN Ultra-5 + HSPICE
//! testbed — the *shapes* (who wins, by what factor, where crossovers
//! fall) are the reproduction target, recorded in `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod baselines;
pub mod fig2;
pub mod fig4;
pub mod fig8;
pub mod report;
pub mod spiral;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod waveforms;
