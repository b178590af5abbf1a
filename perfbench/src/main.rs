//! End-to-end benchmark of the CMIF serving path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload newsroom|broadcast|live_edit|all --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up five times
//! (reporting the median set-up time), then drives it in a closed loop
//! with one client thread for `--seconds` of run time and prints the
//! end-to-end metrics. A traced run (`--trace 1`) drives the same seeded
//! inputs through the decomposed serving path with a span around every
//! layer call and prints the per-layer metrics. Either way the last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--workload all` runs the three workloads one after another, each in
//! its own process.

mod broadcast;
mod corpus;
mod live_edit;
mod newsroom;
mod report;
mod serve;
mod stats;
mod trace;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{peak_rss_mib, result_line, Outcome, Window};
use stats::{error_rate, median, tail_percentile, BOUNDED_TAIL};

/// Where traced runs write their spans.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Windows a run needs before its bounded metrics are fitted over windows
/// rather than taken over the whole run.
const MIN_WINDOWS: usize = 5;

/// The end-to-end metrics every untraced run reports, as
/// `(name, unit)`. Listed in `BENCHMARK.json` under `end_to_end`.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, as `(name, unit)`;
/// layers a workload bypasses read zero. Listed in `BENCHMARK.json` under
/// `per_layer`.
const PER_LAYER: [(&str, &str); 45] = [
    ("format.parse_us", "us"),
    ("format.wire_bytes", "bytes"),
    ("distrib.publish_us", "us"),
    ("distrib.fetch_document_us", "us"),
    ("distrib.fetch_blocks_us", "us"),
    ("distrib.remote_block_share", "fraction"),
    ("distrib.retries_per_view", "count"),
    ("distrib.transfer_success_ratio", "fraction"),
    ("distrib.bytes_per_view", "bytes"),
    ("distrib.repair_us", "us"),
    ("distrib.repair_actions", "count"),
    ("distrib.sim_net_ms_per_view", "sim-ms"),
    ("media.export_catalog_us", "us"),
    ("lint.check_us", "us"),
    ("lint.cache_hit_ratio", "fraction"),
    ("lint.findings_per_doc", "count"),
    ("graph.derive_us", "us"),
    ("graph.solve_us", "us"),
    ("graph.constraints", "count"),
    ("graph.points", "count"),
    ("conflict.report_us", "us"),
    ("pipeline.present_us", "us"),
    ("pipeline.filter_us", "us"),
    ("pipeline.view_us", "us"),
    ("pipeline.frames", "count"),
    ("engine.admit_us", "us"),
    ("engine.stage5c_us", "us"),
    ("engine.wait_us", "us"),
    ("engine.steal_ratio", "fraction"),
    ("engine.refills_per_doc", "count"),
    ("engine.latency_ms", "ms"),
    ("engine.scaling_2v1", "ratio"),
    ("session.play_us", "us"),
    ("session.swap_us", "us"),
    ("session.tick_us", "us"),
    ("session.new_us", "us"),
    ("session.events", "count"),
    ("session.must_violations", "count"),
    ("author.apply_us", "us"),
    ("author.solve_result_us", "us"),
    ("author.reset_points", "count"),
    ("author.updates", "count"),
    ("author.replaced", "count"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead", "ratio"),
];

/// One workload: its set-up and its two kinds of run, plus the names its
/// end-to-end figures go by in the report.
pub trait Workload: Sized {
    /// Workload name on the command line.
    const NAME: &'static str;
    /// What one operation is, for `<op>s_per_s` in the report.
    const OP: &'static str;
    /// The tail percentile its report prints by name.
    const TAIL: f64;
    /// Builds the seeded inputs, starts what serves them, and warms up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// The untraced closed loop, for `seconds` of run time.
    fn measure(&mut self, seconds: f64) -> Outcome;
    /// The traced run over the same inputs.
    fn trace(&mut self, seconds: f64) -> Outcome;
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "newsroom" => run::<newsroom::Newsroom>(&args),
        "broadcast" => run::<broadcast::Broadcast>(&args),
        "live_edit" => run::<live_edit::LiveEdit>(&args),
        "all" => run_all(&args),
        other => Err(format!(
            "unknown workload {other:?} (newsroom, broadcast, live_edit or all)"
        )),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A metric as the run's windows read it with no CPU time stolen by the
/// host: the Theil–Sen line of each window's value against the share of
/// CPU time stolen during it, read at zero. On a shared virtual machine the
/// hypervisor steals 0–20 % of the CPU in bursts of tens of seconds, and a
/// window's throughput falls by about 1.5 % per point of steal; the fit
/// takes that out without dropping a window. The fit never reads better or
/// worse than every window did: it is clamped to the windows' range. When
/// every window saw the same steal, the windows' median. `None` below
/// [`MIN_WINDOWS`] windows.
fn steal_free(windows: &[Window], value: impl Fn(&Window) -> Option<f64>) -> Option<f64> {
    let points: Vec<(f64, f64)> = windows
        .iter()
        .filter_map(|w| Some((w.steal, value(w)?)))
        .collect();
    if points.len() < MIN_WINDOWS {
        return None;
    }
    let values: Vec<f64> = points.iter().map(|(_, v)| *v).collect();
    let lowest = values.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match stats::theil_sen(&points) {
        Some((at_zero, _)) => Some(at_zero.clamp(lowest, highest)),
        None => median(&values),
    }
}

/// Sets the workload up, runs it, prints the report and the result line.
/// Returns whether every check passed.
fn run<W: Workload>(args: &Args) -> Result<bool, String> {
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut workload = None;
    for _ in 0..setups {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(W::setup(args.seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    let mut out = if args.trace {
        workload.trace(args.seconds)
    } else {
        workload.measure(args.seconds)
    };
    drop(workload);
    let setup_s = median(&setup_s).unwrap_or(f64::NAN);
    let peak_rss = peak_rss_mib().unwrap_or(f64::NAN);

    let name = W::NAME;
    println!(
        "{name}: seed {} seconds {} trace {} host_cores {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cores()
    );
    let ops = out.latencies_ms.len();
    let run_rate = ops as f64 / out.run_s.max(f64::MIN_POSITIVE);
    let p50 = median(&out.latencies_ms).unwrap_or(f64::NAN);
    let tail_name = |p: f64| format!("{}_p{}_ms", W::OP, (p * 100.0).round());
    let tails: Vec<(String, Option<(f64, usize)>)> = [W::TAIL, BOUNDED_TAIL]
        .iter()
        .map(|&p| (tail_name(p), tail_percentile(&out.latencies_ms, p)))
        .collect();
    for (tail, value) in &tails {
        if value.is_none() && !args.trace {
            out.checks.check(
                "samples",
                Err(format!(
                    "{ops} operations leave fewer than {} beyond {tail}; run longer",
                    stats::MIN_BEYOND
                )),
            );
        }
    }
    let tail_ms = tails[1].1.map_or(f64::NAN, |(value, _)| value);
    // The bounded metrics, fitted over the run's windows to no stolen CPU.
    let fitted = [
        steal_free(&out.windows, |w| Some(w.rate)).unwrap_or(run_rate),
        steal_free(&out.windows, |w| Some(w.p50_ms)).unwrap_or(p50),
        steal_free(&out.windows, |w| w.tail_ms).unwrap_or(tail_ms),
    ];
    let steal = out.windows.iter().map(|w| w.steal).sum::<f64>() / out.windows.len().max(1) as f64;
    out.provenance.extend([
        ("windows", out.windows.len() as f64),
        ("steal_share", steal),
    ]);
    let panics = out.failures.panics();
    out.checks.require("no panic", panics == 0, || {
        format!("{panics} engine job(s) panicked")
    });
    let attempted = out.failures.attempted();
    let failed = out.failures.failed();
    let rate = error_rate(failed, attempted).unwrap_or(f64::NAN);

    if !args.trace {
        let op = W::OP;
        let mut lines = vec![
            (format!("{op}s_per_s"), run_rate, format!("{op}s/s")),
            (format!("{op}_p50_ms"), p50, "ms".to_string()),
        ];
        let mut named = tails.clone();
        named.dedup_by(|a, b| a.0 == b.0);
        lines.extend(named.iter().map(|(tail, value)| {
            let ms = value.map_or(f64::NAN, |(ms, _)| ms);
            (tail.clone(), ms, "ms".to_string())
        }));
        lines.extend(
            out.extra
                .iter()
                .map(|(n, v, u)| (n.to_string(), *v, u.to_string())),
        );
        lines.extend([
            ("error_rate".to_string(), rate, "fraction".to_string()),
            ("setup_s".to_string(), setup_s, "s".to_string()),
            ("peak_rss_mb".to_string(), peak_rss, "MiB".to_string()),
        ]);
        for (metric, value, unit) in lines {
            println!("{name} {metric} {value} {unit}");
        }
        for (tail, value) in &named {
            println!(
                "{name} samples: {ops} over {:.3} s; {tail} has {} beyond it",
                out.run_s,
                value.map_or(0, |(_, beyond)| beyond)
            );
        }
        println!(
            "{name} fitted to no stolen CPU over {} windows (mean steal {steal:.4}): \
             ops_per_s {} op_p50_ms {} op_tail_ms {}",
            out.windows.len(),
            fitted[0],
            fitted[1],
            fitted[2]
        );
        if let (Some([q1, q2, q3]), Some(spread)) = (
            stats::quartiles(&out.latencies_ms),
            stats::relative_spread(&out.latencies_ms),
        ) {
            println!("{name} {op}_quartiles_ms {q1} {q2} {q3} (IQR/median {spread})");
        }
    } else if let Some(trace) = &out.breakdown {
        print_breakdown(name, trace);
    }

    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(metric, unit)| {
                let value = out.layers.get(metric).copied().unwrap_or(0.0);
                (metric.to_string(), value, *unit)
            })
            .collect()
    } else {
        let [ops_per_s, op_p50, op_tail] = fitted;
        let values = [ops_per_s, op_p50, op_tail, setup_s, peak_rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((metric, unit), value)| (metric.to_string(), value, *unit))
            .collect()
    };
    for (metric, value, _) in &metrics {
        out.checks.require("metrics", value.is_finite(), || {
            format!("{metric} is not a finite number")
        });
    }
    for line in out.failures.lines().into_iter().chain(out.checks.lines()) {
        println!("{name} {line}");
    }
    let provenance: Vec<String> = [
        ("host_cores", host_cores() as f64),
        ("seed", args.seed as f64),
        ("attempted", attempted as f64),
        ("failed", failed as f64),
    ]
    .iter()
    .chain(&out.provenance)
    .map(|(key, value)| {
        format!(
            "{}: {}",
            report::json_string(key),
            report::json_number(*value)
        )
    })
    .collect();
    println!(
        "{{\"provenance\": {{\"workload\": {}, {}}}}}",
        report::json_string(name),
        provenance.join(", ")
    );

    let correct = out.checks.ok() && attempted > 0;
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    Ok(correct)
}

/// Prints where the traced wall time went: every stage's self time, the
/// unattributed remainder, and their sum against the wall.
fn print_breakdown(name: &str, trace: &trace::Breakdown) {
    let wall_ms = trace.wall_ns as f64 / 1e6;
    println!("{name} trace: wall {wall_ms:.3} ms; stage self times:");
    let mut stages: Vec<_> = trace.stages.iter().collect();
    stages.sort_by_key(|(_, total)| std::cmp::Reverse(total.self_ns));
    for (stage, total) in stages {
        let ms = total.self_ns as f64 / 1e6;
        println!(
            "{name}   {stage:<34} {:>9} calls {ms:>12.3} ms {:>6.2} %",
            total.calls,
            100.0 * ms / wall_ms.max(f64::MIN_POSITIVE)
        );
    }
    let unattributed = trace.unattributed_ns as f64 / 1e6;
    println!(
        "{name}   {:<34} {:>9}       {unattributed:>12.3} ms {:>6.2} %",
        "unattributed",
        "",
        100.0 * unattributed / wall_ms.max(f64::MIN_POSITIVE)
    );
    println!(
        "{name}   stages + unattributed = {} ns = wall {} ns",
        trace.stage_self_ns() + trace.unattributed_ns,
        trace.wall_ns
    );
}

/// Writes a traced run's spans to `OUT_DIR/<workload>.spans.tsv`.
pub fn write_spans(workload: &str, tracer: &trace::Tracer) {
    let path = format!("{OUT_DIR}/{workload}.spans.tsv");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            tracer.write_tsv(&mut out)?;
            out.flush()
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

/// Runs every workload in its own process (so each reports its own peak
/// memory), forwarding their reports. The last line sums them up, with
/// each metric prefixed by its workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in ["newsroom", "broadcast", "live_edit"] {
        let mut child = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| e.to_string())?;
        let mut last = String::new();
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if !last.is_empty() {
                    println!("{last}");
                }
                last = line;
            }
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        correct &= status.success() && last.contains("\"correct\": true");
        attempted += field(&last, "attempted").unwrap_or(0);
        failed += field(&last, "failed").unwrap_or(0);
        metrics.extend(prefixed_metrics(&last, workload));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(correct)
}

/// The metrics object of a result line with every name prefixed by
/// `workload.`, without its braces.
fn prefixed_metrics(line: &str, workload: &str) -> Option<String> {
    let (_, rest) = line.split_once("\"metrics\": {")?;
    let body = rest.strip_suffix("}}")?;
    // Names open the body and follow each `}, `.
    let prefixed = body.replace("}, \"", &format!("}}, \"{workload}."));
    Some(format!("\"{workload}.{}", prefixed.trim_start_matches('"')))
}

/// An unsigned integer field of a result line.
fn field(line: &str, name: &str) -> Option<u64> {
    let (_, rest) = line.split_once(&format!("\"{name}\": "))?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the program prints are the ones `BENCHMARK.json`
    /// declares, in the same order and with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let value = |k: &str| {
                        let (_, rest) = entry.split_once(&format!("\"{k}\": \"")).expect(k);
                        rest.split('"').next().unwrap().to_string()
                    };
                    (value("name"), value("unit"))
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn steal_free_fits_to_zero_steal_within_the_windows_range() {
        let window = |steal: f64, rate: f64| Window {
            rate,
            p50_ms: 1_000.0 / rate,
            tail_ms: None,
            steal,
        };
        let rate = |w: &Window| Some(w.rate);
        // Throughput falls 1.5 % per point of steal: the fit reads 700.
        let line: Vec<Window> = [0.0, 0.02, 0.05, 0.1, 0.15]
            .iter()
            .map(|&s| window(s, 700.0 * (1.0 - 1.5 * s)))
            .collect();
        let fitted = steal_free(&line, rate).unwrap();
        assert!((fitted - 700.0).abs() < 1e-9, "{fitted}");
        // Without a quiet window the line would read above every window;
        // the fit stays inside what was measured.
        let noisy: Vec<Window> = line[2..].iter().chain(&line[2..4]).copied().collect();
        assert_eq!(steal_free(&noisy, rate), Some(700.0 * (1.0 - 1.5 * 0.05)));
        // The same steal everywhere: the windows' median.
        let flat: Vec<Window> = [600.0, 610.0, 590.0, 620.0, 580.0]
            .iter()
            .map(|&r| window(0.1, r))
            .collect();
        assert_eq!(steal_free(&flat, rate), Some(600.0));
        // Too few windows, or a value no window has: nothing to fit.
        assert_eq!(steal_free(&line[..4], rate), None);
        assert_eq!(steal_free(&line, |w| w.tail_ms), None);
    }

    #[test]
    fn result_fields_parse_back() {
        let metrics = [("a".to_string(), 1.5, "ms"), ("b".to_string(), 2.0, "s")];
        let line = result_line(true, 12, 3, &metrics);
        assert_eq!(field(&line, "attempted"), Some(12));
        assert_eq!(field(&line, "failed"), Some(3));
        assert_eq!(
            prefixed_metrics(&line, "w").as_deref(),
            Some(
                "\"w.a\": {\"value\": 1.5, \"unit\": \"ms\"}, \
                 \"w.b\": {\"value\": 2, \"unit\": \"s\"}"
            )
        );
    }
}
