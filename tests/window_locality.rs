//! What a windowed build costs in partial-inductance evaluations, and
//! that the dense `L` is built once per extraction and only when a dense
//! model asks for it. Both read process-global trace counters, so the
//! tests take one lock.

use std::sync::Mutex;
use vpec::core::windowed::windowed_geometric;
use vpec::prelude::*;
use vpec::trace;

/// Serializes tests against the process-global trace counters.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Entries of `L` gwVPEC(8) may read per filament of a uniform bus.
/// Measured: 15.0 at 8,192 bits, that is one diagonal entry, 8 partners
/// in the walk (±1…±4 pitches; the bound at 5 pitches then falls below
/// the weaker ±4 coupling) and the 6 window pairs 5–7 pitches apart that
/// no walk read.
const READS_PER_FILAMENT: u64 = 16;

#[test]
fn gwvpec_at_8192_bits_never_builds_the_dense_matrix() {
    let _g = guard();
    trace::reset("summary").unwrap();
    let bits = 8192;
    let para = extract(
        &BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
    );
    // The model builder itself: `Experiment::build` would run the
    // parasitics audit when auditing is on, and the audit reads all of L.
    let model = windowed_geometric(&para, 8).unwrap();
    assert_eq!(model.len(), bits);
    assert_eq!(
        trace::counter_value("extract.inductance.pairs"),
        0,
        "a windowed build must not build the dense L"
    );
    let reads = trace::counter_value("model.window.mutuals");
    assert!(
        reads <= READS_PER_FILAMENT * bits as u64,
        "{reads} reads of L for {bits} filaments ({:.1} per filament)",
        reads as f64 / bits as f64
    );
    trace::reset("off").unwrap();
}

#[test]
fn dense_models_on_one_experiment_build_l_once() {
    let _g = guard();
    trace::reset("summary").unwrap();
    let bits = 24;
    let exp = Experiment::new(
        BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    assert_eq!(trace::counter_value("extract.inductance.pairs"), 0);
    exp.build(ModelKind::Peec).unwrap();
    exp.build(ModelKind::VpecFull).unwrap();
    exp.build(ModelKind::WVpecGeometric { b: 4 }).unwrap();
    assert_eq!(
        trace::counter_value("extract.inductance.pairs"),
        (bits * (bits + 1) / 2) as u64,
        "PEEC and full VPEC share one build of L"
    );
    trace::reset("off").unwrap();
}
