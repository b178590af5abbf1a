//! CLI over [`cmif_bench::delta`]: compare two bench-baselines artifacts.
//!
//! ```text
//! bench_delta <previous.txt> <current.txt> \
//!     [--fail-prefix PREFIX[:FRACTION]]... [--threshold FRACTION]
//! bench_delta --trajectory BENCH
//! ```
//!
//! Prints the per-target delta table on stdout: the change of each target's
//! mean and, where both artifacts report one, of its median. `--fail-prefix`
//! may be repeated: the job exits non-zero if any target with one of the
//! prefixes regressed by more than that prefix's threshold, comparing
//! means. A prefix without its own
//! `:FRACTION` uses the global `--threshold` (default 0.25 = +25 %), so a
//! tight gate on throughput targets can ride next to a generous one on
//! noisier parsing targets.
//!
//! `--trajectory BENCH` reads the committed `BENCH_<BENCH>.json` perf
//! history at the repo root (appended by the benches themselves, e.g.
//! `cargo bench --bench ext_engine`) and prints each metric's first→latest
//! evolution. It can be combined with a delta comparison or used alone.

use std::process::ExitCode;

use cmif_bench::delta::{diff, regressions, render_table};
use cmif_bench::trajectory;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    // (prefix, per-prefix threshold override)
    let mut fail_prefixes: Vec<(String, Option<f64>)> = Vec::new();
    let mut threshold = 0.25f64;
    let mut trajectories: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trajectory" => match iter.next() {
                Some(bench) => trajectories.push(bench),
                None => {
                    eprintln!("--trajectory needs a bench name (e.g. ext_engine)");
                    return ExitCode::from(2);
                }
            },
            "--fail-prefix" => match iter.next() {
                Some(spec) => match spec.split_once(':') {
                    Some((prefix, fraction)) => match fraction.parse() {
                        Ok(fraction) => fail_prefixes.push((prefix.to_string(), Some(fraction))),
                        Err(_) => {
                            eprintln!("--fail-prefix {spec}: `{fraction}` is not a number");
                            return ExitCode::from(2);
                        }
                    },
                    None => fail_prefixes.push((spec, None)),
                },
                None => {
                    eprintln!("--fail-prefix needs a value");
                    return ExitCode::from(2);
                }
            },
            "--threshold" => match iter.next().and_then(|t| t.parse().ok()) {
                Some(t) => threshold = t,
                None => {
                    eprintln!("--threshold needs a numeric value");
                    return ExitCode::from(2);
                }
            },
            _ => paths.push(arg),
        }
    }
    for bench in &trajectories {
        println!("{}", trajectory::render_history(&trajectory::load(bench)));
    }
    if paths.is_empty() && !trajectories.is_empty() {
        // Trajectory-only invocation: nothing to diff.
        return ExitCode::SUCCESS;
    }
    let [previous_path, current_path] = paths.as_slice() else {
        eprintln!(
            "usage: bench_delta <previous.txt> <current.txt> \
             [--fail-prefix PREFIX[:FRACTION]]... [--threshold FRACTION] \
             | bench_delta --trajectory BENCH"
        );
        return ExitCode::from(2);
    };

    let previous = match std::fs::read_to_string(previous_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {previous_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let current = match std::fs::read_to_string(current_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {current_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let rows = diff(&previous, &current);
    println!("{}", render_table(&rows));

    let mut failed = false;
    for (prefix, override_threshold) in fail_prefixes {
        let threshold = override_threshold.unwrap_or(threshold);
        // A gate that guards zero targets is a format drift or a rename,
        // not a pass: refuse to green-light it.
        if !rows
            .iter()
            .any(|row| row.current.is_some() && row.name.starts_with(&prefix))
        {
            eprintln!(
                "no target in the current artifact matches prefix '{prefix}'; \
                 the regression gate would be ineffective (renamed targets or parse drift?)"
            );
            return ExitCode::from(2);
        }
        let offenders = regressions(&rows, &prefix, threshold);
        if offenders.is_empty() {
            println!(
                "no '{prefix}' target regressed more than {:.0}%",
                threshold * 100.0
            );
            continue;
        }
        failed = true;
        eprintln!(
            "{} target(s) with prefix '{prefix}' regressed more than {:.0}%:",
            offenders.len(),
            threshold * 100.0
        );
        for row in offenders {
            eprintln!(
                "  {}: {:+.1}%",
                row.name,
                row.relative_change().unwrap_or_default() * 100.0
            );
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
