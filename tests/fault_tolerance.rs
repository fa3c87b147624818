//! End-to-end exercises of the fault-tolerant solve pipeline — the three
//! recovery behaviors, driven through the public API only:
//!
//! 1. a singular MNA system, which the one sparse factor rejects, ends in
//!    a typed error naming its analysis, never a panic;
//! 2. a non-finite value appearing mid-transient triggers a checkpointed
//!    retry at a halved step, recorded in the diagnostics;
//! 3. a sparsified model that lost the paper's passivity guarantee is
//!    repaired at build time and the repair magnitude is visible in the
//!    [`SolveReport`].

use vpec::circuit::dc::solve_dc;
use vpec::circuit::transient::run_transient_with_report;
use vpec::circuit::CircuitError;
use vpec::geometry::{Axis, Filament, Layout};
use vpec::prelude::*;

/// A voltage divider plus one node no element ever touches: its MNA row
/// is all-zero, so the DC and transient systems are both singular.
fn circuit_with_floating_node() -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let inp = c.node("in");
    let out = c.node("out");
    let _orphan = c.node("orphan");
    c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(1.0, 20.0e-12))
        .unwrap();
    c.add_resistor("R1", inp, out, 100.0).unwrap();
    c.add_resistor("R2", out, Circuit::GROUND, 100.0).unwrap();
    (c, out)
}

/// A misaligned multi-segment 3-bit bus that sits outside Theorem 2's
/// similar-length domain: its exact `Ĝ` is passive but NOT strictly
/// diagonally dominant, so sparsified variants need the repair pass.
fn boundary_layout() -> Layout {
    let w = 5e-7;
    let t = 2.105254640356431e-6;
    let len = 0.0005930341860689368;
    let mk = |x: f64, y: f64| Filament::new([x, y, 0.0], Axis::X, len, w, t);
    let mut layout = Layout::new();
    layout.push_net(
        "b0",
        vec![
            mk(-9.307037661501751e-6, 0.0),
            mk(0.000583727148407435, 0.0),
        ],
    );
    layout.push_net(
        "b1",
        vec![
            mk(-6.436935583913894e-5, 1.5e-6),
            mk(0.0005286648302297979, 1.5e-6),
        ],
    );
    layout.push_net(
        "b2",
        vec![
            mk(6.400449988157909e-5, 3e-6),
            mk(0.0006570386859505159, 3e-6),
        ],
    );
    layout
}

#[test]
fn singular_system_is_a_typed_error_not_a_panic() {
    let (c, _) = circuit_with_floating_node();
    // DC: the sparse factor rejects the system and names the analysis.
    let err = solve_dc(&c).unwrap_err();
    assert_eq!(err, CircuitError::SingularSystem { analysis: "dc" });
    assert!(err.to_string().contains("singular"));
    // Transient: same typed error, no panic.
    let err = run_transient_with_report(&c, &TransientSpec::new(0.3e-9, 1e-12)).unwrap_err();
    assert_eq!(
        err,
        CircuitError::SingularSystem {
            analysis: "transient"
        }
    );
}

#[test]
fn mid_transient_nan_triggers_checkpointed_retry() {
    // A healthy RC lowpass; poison the solution at step 25.
    let mut c = Circuit::new();
    let inp = c.node("in");
    let out = c.node("out");
    c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(1.0, 20.0e-12))
        .unwrap();
    c.add_resistor("R1", inp, out, 50.0).unwrap();
    c.add_capacitor("C1", out, Circuit::GROUND, 1e-13).unwrap();
    let faults = FaultInjection {
        poison_step: Some(25),
        ..FaultInjection::none()
    };
    let spec = TransientSpec::new(0.5e-9, 1e-12).fault_injection(faults);
    let (res, diag) = run_transient_with_report(&c, &spec).expect("recovers");
    assert!(diag.retries >= 1, "the poisoned step must be retried");
    assert!(diag.final_dt < 1e-12, "step size was halved");
    assert!(diag.degraded());
    let v = res.voltage(out).unwrap();
    assert!(v.iter().all(|x| x.is_finite()));
    assert!((v.last().unwrap() - 1.0).abs() < 0.02, "RC settles to 1 V");
}

#[test]
fn nonpassive_sparsified_model_is_repaired_and_reported() {
    let exp = Experiment::new(
        boundary_layout(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    // Threshold 0 keeps every coupling: the sparsified model inherits the
    // exact Ĝ's dominance violation and the repair pass must engage.
    let built = exp
        .build(ModelKind::TVpecNumerical { threshold: 0.0 })
        .expect("build");
    let repair = built
        .repair
        .clone()
        .expect("sparsified kinds carry a repair record");
    assert!(repair.repaired(), "boundary-case model needs repair");
    assert!(repair.max_delta > 0.0 && repair.total_delta >= repair.max_delta);

    // The repair magnitude surfaces in the SolveReport the CLI prints.
    let (res, report, _) = built
        .run_transient_with_report(&TransientSpec::new(0.2e-9, 1e-12))
        .expect("simulate");
    assert!(report.degraded());
    let lines = report.lines();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("passivity repair") && l.contains("row")),
        "repair line missing from {lines:?}"
    );
    // And the repaired netlist actually simulates to a finite waveform.
    let v = built.far_voltage(&res, 0).expect("probed");
    assert!(v.iter().all(|x| x.is_finite()));
}
