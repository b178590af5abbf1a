//! Machine-readable perf trajectories: `BENCH_<name>.json` files kept
//! *in the repository*, so the performance history survives outside the
//! 90-day CI artifact window (the ROADMAP gap: the trajectory was empty).
//!
//! A trajectory file holds one JSON object with the bench name and an
//! append-only `runs` array; each run is a flat `metric name → number`
//! map plus a little provenance (unix time, host core count, git-visible
//! label). Benches append with [`record_run`]; `bench_delta --trajectory`
//! reads the history back and renders the metric evolution.
//!
//! The workspace has no serde, so the format is written by hand and read
//! by a minimal recursive-descent JSON parser ([`JsonValue`]) that accepts
//! anything the writer produces (and standard JSON generally). A corrupt
//! or missing file is treated as an empty history, never an error — losing
//! one trajectory append is better than failing a bench run.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// One recorded bench run: provenance plus a flat metric map.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRun {
    /// Seconds since the unix epoch when the run was recorded.
    pub unix_seconds: u64,
    /// Host parallelism the run saw (throughput numbers are meaningless
    /// without it).
    pub host_cores: u64,
    /// Free-form label (e.g. "local" or a CI ref).
    pub label: String,
    /// Metric name → value, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl TrajectoryRun {
    /// A run stamped with the current time and host parallelism.
    pub fn now(label: impl Into<String>) -> TrajectoryRun {
        TrajectoryRun {
            unix_seconds: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            host_cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            label: label.into(),
            metrics: Vec::new(),
        }
    }

    /// Adds one metric (replacing an earlier one of the same name).
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> TrajectoryRun {
        let name = name.into();
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
        self
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// A whole trajectory file: the bench it belongs to and its run history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    /// The bench the file belongs to (e.g. `ext_engine`).
    pub bench: String,
    /// Recorded runs, oldest first.
    pub runs: Vec<TrajectoryRun>,
}

/// The root of the checkout the process runs in: the nearest ancestor of
/// the working directory (itself included) whose `Cargo.toml` declares a
/// `[workspace]`, or the working directory when none does. Cargo runs a
/// bench in its package directory (`crates/bench`), so a bench binary
/// built in one checkout and run from another writes to the one it runs
/// in. Trajectory files live there so they are committed next to
/// ROADMAP.md, not buried in `target/`.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    workspace_root_of(&cwd)
}

fn workspace_root_of(start: &Path) -> PathBuf {
    let declares_workspace = |dir: &Path| {
        fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
    };
    start
        .ancestors()
        .find(|dir| declares_workspace(dir))
        .unwrap_or(start)
        .to_path_buf()
}

/// The path of a bench's trajectory file in the checkout at `root`.
pub fn trajectory_path_in(root: &Path, bench: &str) -> PathBuf {
    root.join(format!("BENCH_{bench}.json"))
}

/// The path of a bench's trajectory file in the checkout the process runs
/// in.
pub fn trajectory_path(bench: &str) -> PathBuf {
    trajectory_path_in(&repo_root(), bench)
}

/// Loads a bench's trajectory. Missing or unreadable files are an empty
/// history.
pub fn load(bench: &str) -> Trajectory {
    load_from(&trajectory_path(bench), bench)
}

fn load_from(path: &Path, bench: &str) -> Trajectory {
    let fallback = Trajectory {
        bench: bench.to_string(),
        runs: Vec::new(),
    };
    let Ok(text) = fs::read_to_string(path) else {
        return fallback;
    };
    let Some(value) = JsonValue::parse(&text) else {
        return fallback;
    };
    let mut trajectory = fallback;
    if let Some(name) = value.get("bench").and_then(JsonValue::as_str) {
        trajectory.bench = name.to_string();
    }
    let Some(runs) = value.get("runs").and_then(JsonValue::as_array) else {
        return trajectory;
    };
    for run in runs {
        let mut parsed = TrajectoryRun {
            unix_seconds: run
                .get("unix_seconds")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64,
            host_cores: run
                .get("host_cores")
                .and_then(JsonValue::as_f64)
                .unwrap_or(1.0) as u64,
            label: run
                .get("label")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            metrics: Vec::new(),
        };
        if let Some(JsonValue::Object(metrics)) = run.get("metrics") {
            for (name, value) in metrics {
                if let Some(number) = value.as_f64() {
                    parsed.metrics.push((name.clone(), number));
                }
            }
        }
        trajectory.runs.push(parsed);
    }
    trajectory
}

/// Appends `run` to the bench's in-repo trajectory file, creating it on
/// first use, and returns the path written. Existing history is preserved
/// (a corrupt file restarts the history rather than erroring).
pub fn record_run(bench: &str, run: TrajectoryRun) -> std::io::Result<PathBuf> {
    let path = trajectory_path(bench);
    let mut trajectory = load_from(&path, bench);
    trajectory.bench = bench.to_string();
    trajectory.runs.push(run);
    fs::write(&path, render(&trajectory))?;
    Ok(path)
}

/// Renders a trajectory as pretty-printed JSON (diff-friendly: one metric
/// per line, runs appended at the end).
pub fn render(trajectory: &Trajectory) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": {},", quote(&trajectory.bench));
    out.push_str("  \"runs\": [");
    for (index, run) in trajectory.runs.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"unix_seconds\": {},", run.unix_seconds);
        let _ = writeln!(out, "      \"host_cores\": {},", run.host_cores);
        let _ = writeln!(out, "      \"label\": {},", quote(&run.label));
        out.push_str("      \"metrics\": {");
        for (metric_index, (name, value)) in run.metrics.iter().enumerate() {
            if metric_index > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n        {}: {}", quote(name), number(*value));
        }
        if !run.metrics.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("}\n    }");
    }
    if !trajectory.runs.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders a trajectory's history as a first→last table, one row per
/// metric, for `bench_delta --trajectory`.
pub fn render_history(trajectory: &Trajectory) -> String {
    let mut out = format!(
        "trajectory '{}': {} recorded run(s)\n",
        trajectory.bench,
        trajectory.runs.len()
    );
    let (Some(first), Some(last)) = (trajectory.runs.first(), trajectory.runs.last()) else {
        out.push_str("(no runs recorded yet — run `cargo bench` to append one)\n");
        return out;
    };
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>12} {:>9}",
        "metric", "first", "latest", "change"
    );
    for (name, latest) in &last.metrics {
        let change = match first.get(name) {
            Some(start) if start != 0.0 && trajectory.runs.len() > 1 => {
                format!("{:+.1}%", (latest - start) / start * 100.0)
            }
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>12} {:>9}",
            name,
            first.get(name).map(number).unwrap_or_else(|| "-".into()),
            number(*latest),
            change
        );
    }
    let _ = writeln!(
        out,
        "latest run: unix {} on {} core(s) ({})",
        last.unix_seconds, last.host_cores, last.label
    );
    out
}

fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN/Infinity; clamp them to null-ish zero rather than
/// emitting an unparseable file.
fn number(value: f64) -> String {
    if !value.is_finite() {
        return "0".to_string();
    }
    // Enough precision to round-trip the metrics we record, without the
    // 17-digit noise full round-tripping would spray over diffs.
    let text = format!("{value:.6}");
    let trimmed = text.trim_end_matches('0').trim_end_matches('.');
    if trimmed.is_empty() {
        "0".to_string()
    } else {
        trimmed.to_string()
    }
}

/// A minimal JSON value, produced by [`JsonValue::parse`]. Sufficient for
/// the trajectory files this module writes, and standard JSON generally
/// (numbers become `f64`; `\uXXXX` escapes outside the BMP are not
/// combined into surrogate pairs).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document; `None` on any syntax error.
    pub fn parse(text: &str) -> Option<JsonValue> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.at == parser.bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Option<()> {
        if self.peek() == Some(expected) {
            self.at += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Option<JsonValue> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Some(value)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_whitespace();
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(JsonValue::String),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<JsonValue> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Some(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek()? {
                b',' => self.at += 1,
                b'}' => {
                    self.at += 1;
                    return Some(JsonValue::Object(fields));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<JsonValue> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Some(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek()? {
                b',' => self.at += 1,
                b']' => {
                    self.at += 1;
                    return Some(JsonValue::Array(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.at += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.at += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.at + 1..self.at + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        _ => return None,
                    }
                    self.at += 1;
                }
                _ => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // boundaries are valid; find the next one).
                    let rest = std::str::from_utf8(&self.bytes[self.at..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.at += 1;
        }
        if start == self.at {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(JsonValue::Number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rendered_trajectory_round_trips_through_the_parser() {
        let trajectory = Trajectory {
            bench: "ext_engine".to_string(),
            runs: vec![
                TrajectoryRun {
                    unix_seconds: 1_700_000_000,
                    host_cores: 8,
                    label: "local".to_string(),
                    metrics: vec![
                        ("tenants/play/1.docs_per_sec".to_string(), 1234.5),
                        ("tenants/play/256.p99_admission_us".to_string(), 17.25),
                    ],
                },
                TrajectoryRun {
                    unix_seconds: 1_700_086_400,
                    host_cores: 1,
                    label: "ci \"quoted\"".to_string(),
                    metrics: vec![("steal_ratio".to_string(), 0.125)],
                },
            ],
        };
        let text = render(&trajectory);
        let value = JsonValue::parse(&text).expect("renderer emits valid JSON");
        assert_eq!(
            value.get("bench").and_then(JsonValue::as_str),
            Some("ext_engine")
        );
        let runs = value.get("runs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0]
                .get("metrics")
                .and_then(|m| m.get("tenants/play/1.docs_per_sec"))
                .and_then(JsonValue::as_f64),
            Some(1234.5)
        );
        assert_eq!(
            runs[1].get("label").and_then(JsonValue::as_str),
            Some("ci \"quoted\"")
        );
    }

    #[test]
    fn load_and_record_append_history_in_a_temp_repo_file() {
        let dir = std::env::temp_dir().join(format!("cmif-trajectory-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("BENCH_test.json");
        let _ = fs::remove_file(&path);

        // Missing file → empty history.
        let empty = load_from(&path, "test");
        assert_eq!(empty.runs.len(), 0);

        // Two manual append cycles through the real writer/reader.
        for (index, rate) in [(0u64, 100.0), (1u64, 110.0)] {
            let mut trajectory = load_from(&path, "test");
            trajectory.bench = "test".to_string();
            trajectory.runs.push(TrajectoryRun {
                unix_seconds: index,
                host_cores: 4,
                label: "unit".to_string(),
                metrics: vec![("docs_per_sec".to_string(), rate)],
            });
            fs::write(&path, render(&trajectory)).unwrap();
        }
        let loaded = load_from(&path, "test");
        assert_eq!(loaded.runs.len(), 2);
        assert_eq!(loaded.runs[1].get("docs_per_sec"), Some(110.0));

        // Corrupt file → empty history, not a panic.
        fs::write(&path, "{ not json").unwrap();
        assert_eq!(load_from(&path, "test").runs.len(), 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn trajectories_land_in_the_checkout_the_bench_runs_in() {
        let dir = std::env::temp_dir().join(format!("cmif-checkout-{}", std::process::id()));
        let checkout = dir.join("checkout");
        let bench = checkout.join("crates").join("bench");
        fs::create_dir_all(&bench).unwrap();
        fs::write(checkout.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        fs::write(bench.join("Cargo.toml"), "[package]\nname = \"b\"\n").unwrap();
        // From the bench's package directory and from the root itself.
        assert_eq!(workspace_root_of(&bench), checkout);
        assert_eq!(workspace_root_of(&checkout), checkout);
        assert_eq!(
            trajectory_path_in(&workspace_root_of(&bench), "ext_lint"),
            checkout.join("BENCH_ext_lint.json")
        );
        let _ = fs::remove_dir_all(&dir);
        // This test runs in crates/bench of the repository.
        let root = repo_root();
        assert!(root.join("crates/bench/Cargo.toml").is_file(), "{root:?}");
    }

    #[test]
    fn parser_handles_standard_json_shapes() {
        let value = JsonValue::parse(
            r#"{"a": [1, -2.5, 1e3], "b": {"nested": true}, "c": null, "d": "xA"}"#,
        )
        .unwrap();
        let a = value.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(
            value.get("b").and_then(|b| b.get("nested")),
            Some(&JsonValue::Bool(true))
        );
        assert_eq!(value.get("c"), Some(&JsonValue::Null));
        assert_eq!(value.get("d").and_then(JsonValue::as_str), Some("xA"));
        assert!(JsonValue::parse("{\"unterminated\": ").is_none());
        assert!(JsonValue::parse("[1, 2] trailing").is_none());
    }

    #[test]
    fn history_rendering_shows_first_to_latest_change() {
        let mut trajectory = Trajectory {
            bench: "ext_engine".to_string(),
            runs: Vec::new(),
        };
        let empty = render_history(&trajectory);
        assert!(empty.contains("no runs recorded yet"), "{empty}");
        trajectory.runs = vec![
            TrajectoryRun {
                unix_seconds: 1,
                host_cores: 1,
                label: "a".to_string(),
                metrics: vec![("docs_per_sec".to_string(), 100.0)],
            },
            TrajectoryRun {
                unix_seconds: 2,
                host_cores: 1,
                label: "b".to_string(),
                metrics: vec![
                    ("docs_per_sec".to_string(), 150.0),
                    ("brand_new".to_string(), 1.0),
                ],
            },
        ];
        let table = render_history(&trajectory);
        assert!(table.contains("+50.0%"), "{table}");
        assert!(table.contains("brand_new"), "{table}");
        assert!(table.contains("2 recorded run(s)"), "{table}");
    }

    #[test]
    fn trajectory_run_builder_replaces_duplicate_metrics() {
        let run = TrajectoryRun::now("test")
            .metric("rate", 1.0)
            .metric("rate", 2.0)
            .metric("other", f64::NAN);
        assert_eq!(run.get("rate"), Some(2.0));
        assert_eq!(run.metrics.len(), 2);
        // Non-finite values render as 0, keeping the file parseable.
        let rendered = render(&Trajectory {
            bench: "x".to_string(),
            runs: vec![run],
        });
        assert!(JsonValue::parse(&rendered).is_some());
    }
}
