//! Property-style tests for the numerical-correctness audit layer: on
//! *random passive* inputs the truncated and windowed sparsifications must
//! sail through the SPD + dominance audit, and on *corrupted* inputs every
//! pipeline layer must answer with a reported violation or typed error —
//! never a panic, never a silently wrong model. Inputs come from the
//! workspace's deterministic [`XorShift64`] so the suite is reproducible
//! and offline.

use vpec::core::invariants::{audit_model, audit_parasitics, enforce_model};
use vpec::core::truncation::truncate_numerical;
use vpec::core::windowed::{windowed_geometric, windowed_numerical};
use vpec::numerics::audit::{self, AuditCheck, AuditLevel};
use vpec::numerics::rng::XorShift64;
use vpec::prelude::*;

const CASES: usize = 24;

/// Random aligned bus (Theorem 2's domain, so dominance warnings are not
/// expected either).
fn random_bus(rng: &mut XorShift64) -> Parasitics {
    let layout = BusSpec::new(rng.range_usize(2, 12))
        .segments(rng.range_usize(1, 3))
        .line_length(um(rng.range_f64(200.0, 1500.0)))
        .width(um(rng.range_f64(0.5, 3.0)))
        .spacing(um(rng.range_f64(1.0, 6.0)))
        .build();
    extract(&layout, &ExtractionConfig::paper_default())
}

#[test]
fn random_passive_inputs_pass_the_parasitics_audit() {
    let mut rng = XorShift64::new(0x4001);
    for _ in 0..CASES {
        let para = random_bus(&mut rng);
        let report = audit_parasitics(&para);
        assert!(
            report.is_clean(),
            "physical parasitics must audit clean: {}",
            report.summary()
        );
    }
}

#[test]
fn truncated_and_windowed_models_pass_spd_and_dominance_audit() {
    let mut rng = XorShift64::new(0x4002);
    for _ in 0..CASES {
        let para = random_bus(&mut rng);
        let full = VpecModel::full(&para).expect("L invertible");
        let threshold = rng.range_f64(1e-4, 5e-2);
        let b = rng.range_usize(1, full.len() + 1);
        let candidates = [
            ("ntVPEC", truncate_numerical(&full, threshold).unwrap()),
            ("gwVPEC", windowed_geometric(&para, b).unwrap()),
            ("nwVPEC", windowed_numerical(&para, threshold).unwrap()),
        ];
        for (label, model) in candidates {
            // Truncation can break dominance/SPD; what the pipeline ships
            // is the *repaired* model, so that is what must audit clean —
            // including the dominance warning (aligned bus, Theorem 2).
            let (repaired, _) = repair_passivity(&model, 0.05);
            let report = audit_model(label, &repaired);
            assert!(
                report.is_clean(),
                "{label} (b={b}, tau={threshold:.2e}): {}",
                report.summary()
            );
        }
    }
}

#[test]
fn corrupted_parasitics_are_reported_with_location_not_panics() {
    let mut rng = XorShift64::new(0x4003);
    for _ in 0..CASES {
        let para = random_bus(&mut rng);
        let n = para.len();
        let i = rng.range_usize(0, n);
        let j = rng.range_usize(0, n);
        let bad = if rng.chance(0.5) {
            f64::NAN
        } else {
            f64::INFINITY
        };
        let mut l = para.inductance().clone();
        l[(i, j)] = bad;
        l[(j, i)] = bad;
        let para = para.with_inductance(l);
        let report = audit_parasitics(&para);
        assert!(report.has_errors());
        let v = report
            .violations
            .iter()
            .find(|v| v.check == AuditCheck::Finite)
            .expect("finiteness violation");
        assert_eq!(v.matrix, "partial inductance L");
        let (vi, vj) = v.index.expect("violation carries an index");
        assert!((vi, vj) == (i, j) || (vi, vj) == (j, i));

        // The windowed builders reject the same corruption with a typed
        // error instead of mis-sorting windows.
        assert!(windowed_geometric(&para, 2).is_err());
        assert!(windowed_numerical(&para, 1e-3).is_err());
    }
}

#[test]
fn corrupted_models_are_flagged_by_every_audit_path() {
    let mut rng = XorShift64::new(0x4004);
    for _ in 0..CASES {
        let para = random_bus(&mut rng);
        let full = VpecModel::full(&para).expect("L invertible");
        // Corrupt Ĝ by negating a diagonal entry: symmetric, finite, but
        // decisively not positive definite (x = e_k gives xᵀĜx < 0).
        let k = rng.range_usize(0, full.len());
        let mut g_diag = full.g_diag().to_vec();
        g_diag[k] = -g_diag[k].abs();
        let corrupted =
            VpecModel::from_parts(full.lengths().to_vec(), g_diag, full.g_off().to_vec());
        let report = audit_model("corrupted Ĝ", &corrupted);
        assert!(report.has_errors(), "non-SPD Ĝ must be flagged");
        let v = report
            .violations
            .iter()
            .find(|v| v.check == AuditCheck::PositiveDefinite)
            .expect("SPD violation");
        assert_eq!(v.matrix, "corrupted Ĝ");
        assert!(v.index.is_some(), "violation must say where: {}", v);

        // Enforcement turns the report into a typed error (when auditing
        // is on for this run), never a panic.
        if audit::enabled(AuditLevel::Basic) {
            match enforce_model("corrupted Ĝ", &corrupted) {
                Err(CoreError::AuditFailed(f)) => assert!(f.0.has_errors()),
                other => panic!("expected AuditFailed, got {other:?}"),
            }
        }
    }
}

#[test]
fn audit_violation_messages_are_actionable() {
    // One hand-built violation end to end: name, check label, index and
    // magnitude must all appear in the rendered message.
    let para = random_bus(&mut XorShift64::new(0x4005));
    let full = VpecModel::full(&para).unwrap();
    let mut g_diag = full.g_diag().to_vec();
    g_diag[0] = -1.0;
    let corrupted = VpecModel::from_parts(full.lengths().to_vec(), g_diag, full.g_off().to_vec());
    let report = audit_model("simulate Ĝ", &corrupted);
    let msg = report
        .violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(msg.contains("simulate Ĝ"), "names the matrix: {msg}");
    assert!(msg.contains("(0, 0)"), "names the entry: {msg}");
}
