//! Reference outputs pinned at the paper sizes and checked on every trial.
//!
//! Each value is the centre of the range this benchmark measured over
//! seeds 1–6 (four inputs each). Outputs of PEEC, full VPEC and ntVPEC
//! move by less than 1e-5 of their value across seeds and get a 1e-4
//! tolerance. Outputs of gwVPEC(8) get 1.5 times the half-range measured
//! when the seed also moved the wire spacing: its windows break ties
//! between equally coupled neighbours by rounding, so any change to the
//! inputs' rounding (or to the extraction's) scatters them that far. An
//! output past its tolerance is a correctness failure, not a timing
//! change.

use crate::Workload;

use Workload::{AcSweep224, Fig4Extract2048, Fig8Dense256, Fig8Windowed1024, Table3Trunc128};

/// `(workload, output, pinned value, relative tolerance)`.
const PINS: &[(Workload, &str, f64, f64)] = &[
    (Fig4Extract2048, "gtvpec_elements", 10230.0, 0.0),
    (Fig4Extract2048, "gwvpec_elements", 8557.5, 0.054),
    (Fig4Extract2048, "window_dev_pct", 0.7156, 0.22),
    (Fig8Dense256, "noise_peak_v", 0.095438719, 1e-4),
    (Fig8Dense256, "delay_s", 1.5811586e-11, 1e-4),
    (Fig8Dense256, "err_pct_peak", 3.918, 0.20),
    (Fig8Windowed1024, "noise_peak_v", 0.099149, 0.002),
    (Fig8Windowed1024, "delay_s", 1.5884556e-11, 2e-4),
    (Table3Trunc128, "noise_peak_v", 0.095539198, 1e-4),
    (Table3Trunc128, "err_pct_peak_1e-3", 3.0824371, 1e-4),
    (Table3Trunc128, "err_pct_peak_3e-3", 3.8264756, 1e-4),
    (Table3Trunc128, "err_pct_peak_1e-2", 4.8216804, 1e-4),
    (Table3Trunc128, "err_pct_peak_3e-2", 5.2535671, 1e-4),
    (AcSweep224, "victim_h_peak", 0.094712240, 1e-4),
    (AcSweep224, "err_pct_peak", 21.096, 0.015),
];

/// Checks `measured` outputs of `workload` against their pins, pushing one
/// failure per output that is unpinned or out of tolerance.
pub fn check(workload: Workload, measured: &[(&str, f64)], fail: &mut Vec<String>) {
    for &(name, value) in measured {
        match PINS.iter().find(|p| p.0 == workload && p.1 == name) {
            Some(&(_, _, pinned, tol)) => {
                // Written so that a NaN output fails too.
                let within = (value - pinned).abs() <= tol * pinned.abs();
                if !within {
                    fail.push(format!(
                        "{name} = {value:e} is outside {pinned:e} ± {:.2} %",
                        100.0 * tol
                    ));
                }
            }
            None => fail.push(format!("{name} = {value:e} has no pinned reference")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_tolerance_and_unpinned_outputs_fail() {
        let mut fail = Vec::new();
        check(Workload::EngineBatch, &[("nothing", 1.0)], &mut fail);
        assert_eq!(fail.len(), 1);
        for &(w, name, value, tol) in PINS {
            let mut fail = Vec::new();
            check(w, &[(name, value * (1.0 + 0.5 * tol))], &mut fail);
            assert!(fail.is_empty(), "{name}: {fail:?}");
            let outside = if tol == 0.0 {
                value + 1.0
            } else {
                value * (1.0 + 2.0 * tol)
            };
            check(w, &[(name, outside), (name, f64::NAN)], &mut fail);
            assert_eq!(fail.len(), 2, "{name}");
        }
    }
}
