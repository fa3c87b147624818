//! A SPICE-class linear circuit engine — the HSPICE substitute of the VPEC
//! reproduction.
//!
//! The paper simulates every model (PEEC, full VPEC, localized VPEC, tVPEC,
//! wVPEC) with HSPICE. This crate plays that role: it accepts netlists of
//!
//! * resistors, capacitors, inductors and **mutual inductances** (one
//!   `Mutual` element per coupled pair — the dense PEEC `L` stamp),
//! * independent voltage/current sources (DC, step, pulse, PWL — plus AC
//!   magnitude/phase for frequency sweeps),
//! * all four **controlled sources** (VCVS/VCCS/CCCS/CCVS) and 0 V ammeter
//!   sources — the building blocks of the paper's SPICE-compatible VPEC
//!   realization (Fig. 1), which the SPICE reader accepts and the writer
//!   emits,
//! * **magnetic branches** (voltage `l·d v(a)/dt` of a magnetic node), the
//!   element the VPEC models are stamped with,
//!
//! assembles the modified nodal analysis (MNA) system, and runs
//!
//! * [`dc::solve_dc`] — DC operating point,
//! * [`transient::run_transient`] — fixed-step trapezoidal integration
//!   (linear circuits: one factorization, one back-substitution per
//!   step),
//! * [`ac::run_ac`] — complex-valued frequency sweeps.
//!
//! [`metrics`] provides the waveform-comparison machinery behind the
//! paper's accuracy tables (average voltage difference and standard
//! deviation over all time steps, 50 % delay, peak), and [`spice_out`]
//! writes SPICE-compatible netlist text — the "model size" metric of
//! Fig. 8(b).
//!
//! # Example: RC step response
//!
//! ```
//! use vpec_circuit::{Circuit, Waveform, TransientSpec};
//!
//! # fn main() -> Result<(), vpec_circuit::CircuitError> {
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(1.0))?;
//! ckt.add_resistor("R1", inp, out, 1000.0)?;
//! ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9)?;
//! let res = vpec_circuit::transient::run_transient(&ckt, &TransientSpec::new(5e-6, 1e-8))?;
//! let v_end = *res.voltage(out)?.last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 5 τ
//! # Ok(())
//! # }
//! ```
//!
//! Every analysis is **guarded**: each MNA system gets one sparse LU
//! factor, and a system it cannot factor is a typed
//! [`CircuitError::SingularSystem`]; the transient integrator
//! checkpoints and retries at a halved step size when the solution goes
//! non-finite, and [`diagnostics`] records what happened so callers can
//! surface degraded runs.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod ac;
pub mod dc;
pub mod diagnostics;
pub mod metrics;
pub mod mor;
pub mod spice_in;
pub mod spice_out;
pub mod transient;

mod elements;
mod error;
mod mna;
mod netlist;
mod result;
mod solver;
mod waveform;

pub use diagnostics::{
    FactorAttempt, FactorDiagnostics, FaultInjection, SolveAudit, TransientDiagnostics,
};
pub use elements::{Element, ElementId};
pub use error::CircuitError;
pub use netlist::{Circuit, NodeId};
pub use result::{AcResult, TransientResult};
pub use transient::{TransientFactor, TransientSpec};
pub use waveform::Waveform;
