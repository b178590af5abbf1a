//! Baseline diffing for the `bench-baselines` CI job.
//!
//! The job uploads every run's `cargo bench` output as a workflow artifact;
//! this module parses two such artifacts (the previous run's and the
//! current one's), lines the targets up by name and renders a per-target
//! delta table. Regressions beyond a threshold on selected targets (the
//! `ext_engine` throughput bars) fail the job — the "diff consecutive
//! artifacts" follow-up the ROADMAP recorded after PR 2.
//!
//! The parser understands the line format of the offline criterion shim,
//! with or without the median (artifacts written before the shim reported
//! one have none):
//!
//! ```text
//! group/name/param   time: [min 1.234 ms median 2.001 ms mean 2.345 ms]  (10 samples x 26 iters)
//! group/name/param   time: [min 1.234 ms mean 2.345 ms]  (10 samples x 26 iters)
//! ```
//!
//! The table shows the median change beside the mean change; the
//! regression gate compares means.

use std::fmt::Write as _;

use criterion::format_seconds;

/// One parsed benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// The full benchmark id (`group/function/parameter`).
    pub name: String,
    /// Mean per-iteration time in seconds.
    pub mean_seconds: f64,
    /// Median per-iteration time in seconds, when the line reports one.
    pub median_seconds: Option<f64>,
}

/// A time literal like `1.234 ms`, `5.6 µs`, `789.0 ns` or `1.2 s`.
fn parse_time(text: &str) -> Option<f64> {
    let mut parts = text.split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    let scale = match parts.next()? {
        "s" => 1.0,
        "ms" => 1e-3,
        "µs" | "us" => 1e-6,
        "ns" => 1e-9,
        _ => return None,
    };
    Some(value * scale)
}

/// Parses a whole bench-baselines artifact into its measurements. Banner
/// lines and other non-measurement output are skipped.
pub fn parse_report(text: &str) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for line in text.lines() {
        let Some((name_part, rest)) = line.split_once(" time: [min ") else {
            continue;
        };
        let Some((times, _)) = rest.split_once(']') else {
            continue;
        };
        let Some((min_and_median, mean_text)) = times.split_once(" mean ") else {
            continue;
        };
        let median_seconds = min_and_median
            .split_once(" median ")
            .and_then(|(_, median)| parse_time(median.trim()));
        if let Some(mean_seconds) = parse_time(mean_text.trim()) {
            records.push(BenchRecord {
                name: name_part.trim().to_string(),
                mean_seconds,
                median_seconds,
            });
        }
    }
    records
}

/// One row of the delta table: a target present in either artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// The benchmark id.
    pub name: String,
    /// Mean seconds in the previous artifact, if the target existed.
    pub previous: Option<f64>,
    /// Mean seconds in the current artifact, if the target still exists.
    pub current: Option<f64>,
    /// Median seconds in the previous artifact, if it reported one.
    pub previous_median: Option<f64>,
    /// Median seconds in the current artifact, if it reported one.
    pub current_median: Option<f64>,
}

/// `(current - previous) / previous`, when both exist.
fn change(previous: Option<f64>, current: Option<f64>) -> Option<f64> {
    match (previous, current) {
        (Some(prev), Some(cur)) if prev > 0.0 => Some((cur - prev) / prev),
        _ => None,
    }
}

impl DeltaRow {
    /// Relative change of the mean, `(current - previous) / previous`;
    /// `None` unless the target appears in both artifacts. The regression
    /// gate reads this.
    pub fn relative_change(&self) -> Option<f64> {
        change(self.previous, self.current)
    }

    /// Relative change of the median; `None` unless both artifacts report
    /// a median for the target.
    pub fn median_change(&self) -> Option<f64> {
        change(self.previous_median, self.current_median)
    }
}

/// Lines two artifacts up by target name, preserving the current artifact's
/// order and appending targets that disappeared.
pub fn diff(previous: &str, current: &str) -> Vec<DeltaRow> {
    let old_records = parse_report(previous);
    let new_records = parse_report(current);
    let mut rows: Vec<DeltaRow> = new_records
        .iter()
        .map(|new| {
            let old = old_records.iter().find(|old| old.name == new.name);
            DeltaRow {
                name: new.name.clone(),
                previous: old.map(|old| old.mean_seconds),
                current: Some(new.mean_seconds),
                previous_median: old.and_then(|old| old.median_seconds),
                current_median: new.median_seconds,
            }
        })
        .collect();
    for old in &old_records {
        if !new_records.iter().any(|new| new.name == old.name) {
            rows.push(DeltaRow {
                name: old.name.clone(),
                previous: Some(old.mean_seconds),
                current: None,
                previous_median: old.median_seconds,
                current_median: None,
            });
        }
    }
    rows
}

/// Renders the per-target delta table: previous and current means, the
/// change of the mean, and the change of the median (`-` when either
/// artifact has no median for the target).
pub fn render_table(rows: &[DeltaRow]) -> String {
    let percent = |change: Option<f64>| {
        change
            .map(|c| format!("{:+.1}%", c * 100.0))
            .unwrap_or_else(|| "-".into())
    };
    let mut out = format!(
        "{:<60} {:>12} {:>12} {:>9} {:>9}\n",
        "target", "previous", "current", "mean", "median"
    );
    for row in rows {
        let previous = row
            .previous
            .map(format_seconds)
            .unwrap_or_else(|| "(new)".into());
        let current = row
            .current
            .map(format_seconds)
            .unwrap_or_else(|| "(gone)".into());
        let _ = writeln!(
            out,
            "{:<60} {previous:>12} {current:>12} {:>9} {:>9}",
            row.name,
            percent(row.relative_change()),
            percent(row.median_change()),
        );
    }
    out
}

/// The rows whose target name starts with `prefix` and whose mean regressed
/// by more than `threshold` (e.g. 0.25 for +25 %).
pub fn regressions<'a>(rows: &'a [DeltaRow], prefix: &str, threshold: f64) -> Vec<&'a DeltaRow> {
    rows.iter()
        .filter(|row| row.name.starts_with(prefix))
        .filter(|row| row.relative_change().is_some_and(|c| c > threshold))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = "\
==== some banner ====\n\
not a measurement line\n\
ext_engine/play_documents/8      time: [min 1.000 ms mean 2.000 ms]  (10 samples x 10 iters)\n\
fig01_pipeline/evening_news      time: [min 10.000 ms mean 12.000 ms]  (10 samples x 5 iters)\n\
gone_target/x                    time: [min 1.0 µs mean 2.0 µs]  (10 samples x 5 iters)\n";

    const NEW: &str = "\
ext_engine/play_documents/8      time: [min 1.500 ms mean 3.000 ms]  (10 samples x 10 iters)\n\
fig01_pipeline/evening_news      time: [min 9.000 ms mean 11.000 ms]  (10 samples x 5 iters)\n\
fresh_target/y                   time: [min 100.0 ns mean 200.0 ns]  (10 samples x 5 iters)\n";

    /// The line form with a median; `OLD` and `NEW` are the form without.
    const MEDIAN_OLD: &str = "\
ext_engine/play_documents/8      time: [min 1.000 ms median 1.600 ms mean 2.000 ms]  (10 samples x 10 iters)\n";

    const MEDIAN_NEW: &str = "\
ext_engine/play_documents/8      time: [min 1.000 ms median 2.400 ms mean 2.000 ms]  (10 samples x 10 iters)\n";

    #[test]
    fn parses_the_median_when_the_line_reports_one() {
        let records = parse_report(MEDIAN_OLD);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "ext_engine/play_documents/8");
        assert!((records[0].mean_seconds - 2e-3).abs() < 1e-9);
        assert!((records[0].median_seconds.unwrap() - 1.6e-3).abs() < 1e-9);
        // Lines without a median still parse, with none.
        let records = parse_report(OLD);
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.median_seconds.is_none()));
    }

    #[test]
    fn the_table_shows_the_median_change_but_the_gate_reads_the_mean() {
        let rows = diff(MEDIAN_OLD, MEDIAN_NEW);
        assert_eq!(rows[0].relative_change(), Some(0.0));
        assert!((rows[0].median_change().unwrap() - 0.5).abs() < 1e-9);
        assert!(render_table(&rows).contains("+50.0%"));
        // A median regression alone does not trip the gate.
        assert!(regressions(&rows, "ext_engine", 0.25).is_empty());
        // Against an artifact without medians only the mean compares.
        let rows = diff(OLD, MEDIAN_NEW);
        let row = rows
            .iter()
            .find(|r| r.name == "ext_engine/play_documents/8")
            .unwrap();
        assert_eq!(row.relative_change(), Some(0.0));
        assert_eq!(row.median_change(), None);
    }

    #[test]
    fn parses_the_shim_line_format_across_units() {
        let records = parse_report(OLD);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "ext_engine/play_documents/8");
        assert!((records[0].mean_seconds - 2e-3).abs() < 1e-9);
        assert!((records[2].mean_seconds - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn diff_tracks_new_gone_and_changed_targets() {
        let rows = diff(OLD, NEW);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        let regressed = by_name("ext_engine/play_documents/8");
        assert!((regressed.relative_change().unwrap() - 0.5).abs() < 1e-9);
        let improved = by_name("fig01_pipeline/evening_news");
        assert!(improved.relative_change().unwrap() < 0.0);
        assert_eq!(by_name("fresh_target/y").previous, None);
        assert_eq!(by_name("gone_target/x").current, None);
    }

    #[test]
    fn only_matching_prefixes_beyond_threshold_regress() {
        let rows = diff(OLD, NEW);
        // +50 % on ext_engine trips a 25 % threshold...
        assert_eq!(regressions(&rows, "ext_engine", 0.25).len(), 1);
        // ...but not a 60 % threshold, and other groups never do.
        assert!(regressions(&rows, "ext_engine", 0.60).is_empty());
        assert!(regressions(&rows, "fig01_pipeline", 0.25).is_empty());
    }

    #[test]
    fn table_renders_every_row() {
        let rows = diff(OLD, NEW);
        let table = render_table(&rows);
        assert!(table.contains("(new)"));
        assert!(table.contains("(gone)"));
        assert!(table.contains("+50.0%"));
        assert_eq!(table.lines().count(), rows.len() + 1);
    }
}
