//! Waveform-series CSV export: writes the actual curves behind the
//! paper's waveform figures (Figs. 2, 3, 5, 7) so they can be plotted and
//! compared against the published ones.

use std::io::Write as _;
use std::path::Path;
use vpec_circuit::ac::AcSpec;
use vpec_circuit::TransientSpec;
use vpec_core::harness::{Experiment, ModelKind};
use vpec_core::DriveConfig;
use vpec_extract::ExtractionConfig;
use vpec_geometry::{BusSpec, SpiralSpec};

fn write_csv(path: &Path, header: &[String], columns: &[Vec<f64>]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", header.join(","))?;
    let rows = columns.first().map_or(0, Vec::len);
    for r in 0..rows {
        let line: Vec<String> = columns.iter().map(|c| format!("{:.6e}", c[r])).collect();
        writeln!(f, "{}", line.join(","))?;
    }
    Ok(())
}

fn bus_experiment(bits: usize) -> Experiment {
    Experiment::new(
        BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

/// Writes the waveform CSVs for every waveform figure into `dir`,
/// returning the file names written. `full` selects paper-scale bus sizes.
///
/// # Errors
///
/// I/O errors creating the directory or files.
pub fn dump_figures(dir: &Path, full: bool) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();

    // ---- Fig. 2(a): 5-bit bus time domain; (b): frequency domain ----
    {
        let exp = bus_experiment(5);
        let tspec = TransientSpec::new(0.5e-9, 0.5e-12);
        let kinds = [
            ("peec", ModelKind::Peec),
            ("full_vpec", ModelKind::VpecFull),
            ("localized_vpec", ModelKind::VpecLocalized),
        ];
        let mut header = vec!["time_s".to_string()];
        let mut cols: Vec<Vec<f64>> = Vec::new();
        let mut f_header = vec!["freq_hz".to_string()];
        let mut f_cols: Vec<Vec<f64>> = Vec::new();
        let aspec = AcSpec::log_sweep(1.0, 10e9, 10).expect("valid sweep");
        for (name, kind) in kinds {
            let built = exp.build(kind).expect("build");
            let (res, _) = built.run_transient(&tspec).expect("transient");
            if cols.is_empty() {
                cols.push(res.time().to_vec());
            }
            header.push(format!("{name}_bit2_v"));
            cols.push(built.far_voltage(&res, 1).unwrap());
            let (ac, _) = built.run_ac(&aspec).expect("ac");
            if f_cols.is_empty() {
                f_cols.push(ac.frequency().to_vec());
            }
            f_header.push(format!("{name}_bit2_mag"));
            f_cols.push(ac.magnitude(built.model.far_nodes[1]).unwrap());
        }
        let p = dir.join("fig2a_timedomain.csv");
        write_csv(&p, &header, &cols)?;
        written.push(p.display().to_string());
        let p = dir.join("fig2b_frequency.csv");
        write_csv(&p, &f_header, &f_cols)?;
        written.push(p.display().to_string());
    }

    // ---- Fig. 3: numerical truncation waveforms ----
    {
        let bits = if full { 128 } else { 64 };
        let exp = Experiment::new(
            BusSpec::new(bits).misalignment(0.05).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        let tspec = TransientSpec::new(0.5e-9, 1e-12);
        let mut header = vec!["time_s".to_string()];
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for (name, kind) in [
            ("peec".to_string(), ModelKind::Peec),
            ("full_vpec".to_string(), ModelKind::VpecFull),
            (
                "ntvpec_1e3".to_string(),
                ModelKind::TVpecNumerical { threshold: 1e-3 },
            ),
            (
                "ntvpec_1e2".to_string(),
                ModelKind::TVpecNumerical { threshold: 1e-2 },
            ),
        ] {
            let built = exp.build(kind).expect("build");
            let (res, _) = built.run_transient(&tspec).expect("transient");
            if cols.is_empty() {
                cols.push(res.time().to_vec());
            }
            header.push(format!("{name}_bit2_v"));
            cols.push(built.far_voltage(&res, 1).unwrap());
        }
        let p = dir.join("fig3_truncation.csv");
        write_csv(&p, &header, &cols)?;
        written.push(p.display().to_string());
    }

    // ---- Fig. 5: gtVPEC vs gwVPEC at near and far victims ----
    {
        let bits = if full { 128 } else { 64 };
        let b = bits / 4;
        let exp = bus_experiment(bits);
        let tspec = TransientSpec::new(0.5e-9, 1e-12);
        let mut header = vec!["time_s".to_string()];
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for (name, kind) in [
            ("peec".to_string(), ModelKind::Peec),
            (
                format!("gtvpec_{b}"),
                ModelKind::TVpecGeometric { nw: b, nl: 1 },
            ),
            (format!("gwvpec_{b}"), ModelKind::WVpecGeometric { b }),
        ] {
            let built = exp.build(kind).expect("build");
            let (res, _) = built.run_transient(&tspec).expect("transient");
            if cols.is_empty() {
                cols.push(res.time().to_vec());
            }
            header.push(format!("{name}_bit2_v"));
            cols.push(built.far_voltage(&res, 1).unwrap());
            header.push(format!("{name}_bit{}_v", bits / 2));
            cols.push(built.far_voltage(&res, bits / 2).unwrap());
        }
        let p = dir.join("fig5_windowing.csv");
        write_csv(&p, &header, &cols)?;
        written.push(p.display().to_string());
    }

    // ---- Fig. 7: spiral pulse response ----
    {
        let spec = SpiralSpec::paper_three_turn();
        let cfg = ExtractionConfig::paper_default()
            .with_substrate(spec.substrate_spec().expect("substrate"));
        let drive = DriveConfig::paper_default()
            .stimulus(vpec_circuit::Waveform::pulse(1.0, 10e-12, 200e-12, 10e-12));
        let exp = Experiment::new(spec.build(), &cfg, drive);
        let tspec = TransientSpec::new(0.6e-9, 0.5e-12);
        let mut header = vec!["time_s".to_string()];
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for (name, kind) in [
            ("peec", ModelKind::Peec),
            ("full_vpec", ModelKind::VpecFull),
            ("nwvpec", ModelKind::WVpecNumerical { threshold: 1.5e-4 }),
        ] {
            let built = exp.build(kind).expect("build");
            let (res, _) = built.run_transient(&tspec).expect("transient");
            if cols.is_empty() {
                cols.push(res.time().to_vec());
            }
            header.push(format!("{name}_out_v"));
            cols.push(built.far_voltage(&res, 0).unwrap());
        }
        let p = dir.join("fig7_spiral.csv");
        write_csv(&p, &header, &cols)?;
        written.push(p.display().to_string());
    }

    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumps_all_figure_csvs() {
        let dir = std::env::temp_dir().join("vpec_waveforms_test");
        let files = dump_figures(&dir, false).unwrap();
        assert_eq!(files.len(), 5);
        for f in &files {
            let text = std::fs::read_to_string(f).unwrap();
            let mut lines = text.lines();
            let header = lines.next().unwrap();
            assert!(header.starts_with("time_s") || header.starts_with("freq_hz"));
            let ncols = header.split(',').count();
            assert!(ncols >= 3);
            let mut count = 0;
            for line in lines {
                assert_eq!(line.split(',').count(), ncols, "ragged CSV in {f}");
                count += 1;
            }
            assert!(count > 50, "{f} too short: {count} rows");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
