//! The committed paper results (`results/*.csv`) and the deviation of a
//! fresh output from them.
//!
//! Deviations are measured in units of the golden-result suite's
//! per-column tolerances, so `golden_dev <= 1` means "within the suite's
//! tolerance" and a speed-only change leaves it exactly as it was.

use std::fs;
use std::path::Path;

/// Table I reaction times are compared to 0.005 ns.
pub const TABLE1_TOL_NS: f64 = 0.005;
/// Figure 7a/7b peak currents are compared to 0.05 mA.
pub const PEAK_TOL_MA: f64 = 0.05;
/// Figure 7c ripple losses are compared to 1 µW.
pub const LOSS_TOL_UW: f64 = 1.0;

/// One CSV data row: the key column (a label or an x value) and the
/// numeric columns after it.
pub type Row = (String, Vec<f64>);

/// Parses a golden CSV: one header line, then `key,v1,v2,...` rows.
pub fn parse_csv(text: &str) -> Result<Vec<Row>, String> {
    let mut lines = text.lines();
    lines.next().ok_or("empty CSV")?;
    lines
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut cols = line.split(',');
            let key = cols.next().unwrap_or_default().trim().to_string();
            let values = cols
                .map(|c| {
                    c.trim()
                        .parse::<f64>()
                        .map_err(|e| format!("{line:?}: {c:?}: {e}"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok((key, values))
        })
        .collect()
}

/// Largest `|got - want| / tol` over paired columns; infinite when the
/// column counts differ.
pub fn dev(got: &[f64], want: &[f64], tol: f64) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / tol)
        .fold(0.0, f64::max)
}

/// Deviation of one sweep point from the golden row whose x matches.
/// A missing row is an infinite deviation.
pub fn sweep_dev(rows: &[Row], x: f64, got: &[f64], tol: f64) -> f64 {
    rows.iter()
        .find(|(key, _)| key.parse::<f64>().is_ok_and(|k| (k - x).abs() < 1e-9))
        .map_or(f64::INFINITY, |(_, want)| dev(got, want, tol))
}

/// Deviation of a labelled row (Table I) from the golden row with the
/// same label.
pub fn labelled_dev(rows: &[Row], label: &str, got: &[f64], tol: f64) -> f64 {
    rows.iter()
        .find(|(key, _)| key == label)
        .map_or(f64::INFINITY, |(_, want)| dev(got, want, tol))
}

/// The committed Figure 6 waveforms of one series.
#[derive(Debug, Clone)]
pub struct Fig6Golden {
    /// Series label (`333MHz`, `ASYNC`).
    pub label: String,
    /// `Waveform::csv` text.
    pub analog: String,
    /// `Waveform::events_csv` text.
    pub events: String,
}

/// Every committed result the figures workload checks against.
#[derive(Debug, Clone)]
pub struct Golden {
    /// `results/table1.csv`.
    pub table1: Vec<Row>,
    /// `results/fig7a.csv`.
    pub fig7a: Vec<Row>,
    /// `results/fig7b.csv`.
    pub fig7b: Vec<Row>,
    /// `results/fig7c.csv`.
    pub fig7c: Vec<Row>,
    /// `results/fig6_{333mhz,async}_{analog,events}.csv`.
    pub fig6: Vec<Fig6Golden>,
}

impl Golden {
    /// Reads the golden files from `dir` (the repository's `results/`).
    pub fn load(dir: &Path) -> Result<Golden, String> {
        let read = |name: &str| {
            fs::read_to_string(dir.join(name))
                .map_err(|e| format!("{}: {e}", dir.join(name).display()))
        };
        let table = |name: &str| read(name).and_then(|t| parse_csv(&t));
        let fig6 = ["333MHz", "ASYNC"]
            .iter()
            .map(|label| {
                let tag = label.to_lowercase();
                Ok(Fig6Golden {
                    label: label.to_string(),
                    analog: read(&format!("fig6_{tag}_analog.csv"))?,
                    events: read(&format!("fig6_{tag}_events.csv"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Golden {
            table1: table("table1.csv")?,
            fig7a: table("fig7a.csv")?,
            fig7b: table("fig7b.csv")?,
            fig7c: table("fig7c.csv")?,
            fig6,
        })
    }

    /// The committed Figure 6 waveforms of `label`, if any.
    pub fn fig6_of(&self, label: &str) -> Option<&Fig6Golden> {
        self.fig6.iter().find(|g| g.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG7: &str = "l_uh,100MHz,333MHz\n1.0000,391.8359,339.4416\n4.7000,227.9720,222.5301\n";

    #[test]
    fn parses_keyed_rows() {
        let rows = parse_csv(FIG7).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].0, "4.7000");
        assert_eq!(rows[1].1, vec![227.9720, 222.5301]);
        assert!(parse_csv("h\n1,abc\n").is_err());
        assert!(parse_csv("").is_err());
    }

    #[test]
    fn deviation_is_in_tolerance_units() {
        let rows = parse_csv(FIG7).unwrap();
        let d = sweep_dev(&rows, 4.7, &[227.9720, 222.5551], PEAK_TOL_MA);
        assert!((d - 0.5).abs() < 1e-9, "{d}");
        assert_eq!(
            sweep_dev(&rows, 4.7, &[227.9720, 222.5301], PEAK_TOL_MA),
            0.0
        );
        assert_eq!(
            sweep_dev(&rows, 2.0, &[0.0, 0.0], PEAK_TOL_MA),
            f64::INFINITY
        );
        assert_eq!(dev(&[1.0], &[1.0, 2.0], 1.0), f64::INFINITY);
        let t1 = parse_csv("controller,hl_ns\nASYNC,1.870\n").unwrap();
        let d = labelled_dev(&t1, "ASYNC", &[1.8801], TABLE1_TOL_NS);
        assert!((d - 2.02).abs() < 1e-9, "{d}");
    }

    #[test]
    fn committed_results_parse_and_hold_every_grid_point() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
        let g = Golden::load(&dir).unwrap();
        assert_eq!(g.table1.len(), 5);
        assert_eq!(g.fig7a.len(), a4a::scenario::coil_grid().len());
        assert_eq!(g.fig7b.len(), a4a::scenario::load_grid().len());
        assert_eq!(g.fig7c.len(), a4a::scenario::coil_grid().len());
        assert!(g.table1.iter().all(|(_, v)| v.len() == 5));
        assert!(g
            .fig6_of("ASYNC")
            .is_some_and(|f| f.analog.starts_with("t,v,")));
    }
}
