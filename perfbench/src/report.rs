//! What a run records besides its timings: failures by operation and
//! cause, output checks, the run clock and its windows, and the result
//! line.

use std::collections::BTreeMap;
use std::fmt::{Debug, Write as _};
use std::time::{Duration, Instant};

use cmif::distrib::DistribError;
use cmif::pipeline::PipelineError;
use cmif::scheduler::SchedulerError;

use crate::stats::{median, tail_percentile, BOUNDED_TAIL};
use crate::trace::Breakdown;

/// Why a layer call failed: the pipeline stage for pipeline errors, the
/// error variant otherwise.
pub trait Cause {
    /// A short, stable name for the failure's cause.
    fn cause(&self) -> String;

    /// True when the failure is a panic the engine caught in a job: a
    /// panic fails the run instead of counting as an error sample.
    fn panicked(&self) -> bool {
        false
    }
}

/// The variant name of an error, read off its `Debug` form.
fn variant(error: &impl Debug) -> String {
    let debug = format!("{error:?}");
    debug
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .next()
        .unwrap_or_default()
        .to_string()
}

impl Cause for PipelineError {
    fn cause(&self) -> String {
        format!("stage:{}", self.stage())
    }

    fn panicked(&self) -> bool {
        matches!(self, PipelineError::Scheduler { source, .. } if source.panicked())
    }
}

impl Cause for DistribError {
    fn cause(&self) -> String {
        variant(self)
    }
}

impl Cause for SchedulerError {
    fn cause(&self) -> String {
        variant(self)
    }

    fn panicked(&self) -> bool {
        matches!(self, SchedulerError::JobPanicked { .. })
    }
}

/// Attempts and failures of every layer call, by operation kind and cause.
#[derive(Debug, Default, Clone)]
pub struct Failures {
    attempts: BTreeMap<&'static str, u64>,
    causes: BTreeMap<(&'static str, String), u64>,
    panics: u64,
}

impl Failures {
    /// Counts one attempt of `kind`; an `Err` also counts as a failure
    /// under its cause. Returns the success value.
    pub fn record<T, E: Cause>(&mut self, kind: &'static str, result: Result<T, E>) -> Option<T> {
        *self.attempts.entry(kind).or_default() += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.panics += u64::from(error.panicked());
                *self.causes.entry((kind, error.cause())).or_default() += 1;
                None
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempts.values().sum()
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.causes.values().sum()
    }

    /// Failures that were panics caught by the engine.
    pub fn panics(&self) -> u64 {
        self.panics
    }

    /// One line per operation kind: attempts, failures and their causes.
    pub fn lines(&self) -> Vec<String> {
        self.attempts
            .iter()
            .map(|(kind, attempted)| {
                let causes: Vec<String> = self
                    .causes
                    .iter()
                    .filter(|((k, _), _)| k == kind)
                    .map(|((_, cause), n)| format!("{cause}={n}"))
                    .collect();
                let failed: u64 = self
                    .causes
                    .iter()
                    .filter(|((k, _), _)| k == kind)
                    .map(|(_, n)| n)
                    .sum();
                format!(
                    "failures {kind}: {failed} of {attempted} [{}]",
                    causes.join(" ")
                )
            })
            .collect()
    }
}

/// Output checks. A failed check fails the run; it is not an error sample.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    passed: u64,
    /// Failures per check, with the first failure's message.
    failed: BTreeMap<String, (u64, String)>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.passed += 1,
            Err(message) => {
                self.failed
                    .entry(what.to_string())
                    .or_insert((0, message))
                    .0 += 1;
            }
        }
    }

    /// Records a condition that must hold.
    pub fn require(&mut self, what: &str, holds: bool, detail: impl FnOnce() -> String) {
        self.check(what, if holds { Ok(()) } else { Err(detail()) });
    }

    /// True when no check failed.
    pub fn ok(&self) -> bool {
        self.failed.is_empty()
    }

    /// Summary line plus one line per failing check.
    pub fn lines(&self) -> Vec<String> {
        let failed: u64 = self.failed.values().map(|(n, _)| n).sum();
        let mut lines = vec![format!("checks: {} passed, {failed} failed", self.passed)];
        lines.extend(self.failed.iter().map(|(what, (n, first))| {
            format!("check failed: {what}: {n} time(s), first: {first}")
        }));
        lines
    }
}

/// Wall clock of the measured loop, minus the intervals spent on the
/// benchmark's own work (input generation, output checks).
#[derive(Debug)]
pub struct RunClock {
    started: Instant,
    excluded: Duration,
}

impl RunClock {
    /// Starts the clock.
    pub fn start() -> RunClock {
        RunClock {
            started: Instant::now(),
            excluded: Duration::ZERO,
        }
    }

    /// Measured run time so far.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed().saturating_sub(self.excluded)
    }

    /// Runs `f` off the clock.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.excluded += started.elapsed();
        out
    }
}

/// The machine's CPU time from `/proc/stat` as `(stolen, total)` clock
/// ticks. Stolen time is time the hypervisor gave to other guests while
/// this machine's virtual CPUs had work to run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user and nice).
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// One window of a run: what it measured, and how much of the machine's
/// CPU time the host stole meanwhile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Operations per second of run time.
    pub rate: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// [`BOUNDED_TAIL`] latency, when the window has the samples for it.
    pub tail_ms: Option<f64>,
    /// Share of the machine's CPU time stolen by the host, 0 to 1.
    pub steal: f64,
}

/// Cuts a run into windows as it goes.
#[derive(Debug)]
pub struct Windows {
    first_op: usize,
    opened: Duration,
    ticks: Option<(u64, u64)>,
}

impl Windows {
    /// Opens the first window.
    pub fn open(clock: &RunClock) -> Windows {
        Windows {
            first_op: 0,
            opened: clock.elapsed(),
            ticks: cpu_ticks(),
        }
    }

    /// Closes the window holding the operations completed since it opened
    /// and opens the next one.
    pub fn close(&mut self, clock: &RunClock, latencies: &[f64]) -> Option<Window> {
        let ticks = cpu_ticks();
        let steal = match (self.ticks, ticks) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        let ops = &latencies[self.first_op..];
        let run_s = (clock.elapsed() - self.opened).as_secs_f64();
        *self = Windows {
            first_op: latencies.len(),
            opened: clock.elapsed(),
            ticks,
        };
        Some(Window {
            rate: ops.len() as f64 / (run_s > 0.0).then_some(run_s)?,
            p50_ms: median(ops)?,
            tail_ms: tail_percentile(ops, BOUNDED_TAIL).map(|(ms, _)| ms),
            steal,
        })
    }
}

/// Times `f` in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency of every completed primary operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Measured run time, seconds.
    pub run_s: f64,
    /// The run's windows, in order.
    pub windows: Vec<Window>,
    /// Layer-call attempts and failures.
    pub failures: Failures,
    /// Output checks.
    pub checks: Checks,
    /// Workload-specific end-to-end figures: `(name, value, unit)`.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Operation counts and measured input shares.
    pub provenance: Vec<(&'static str, f64)>,
    /// Per-layer metric values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Where the traced wall time went (traced runs).
    pub breakdown: Option<Breakdown>,
}

/// A number as JSON: finite values verbatim with every digit.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for JSON.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the benchmark ends with.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_attempts_and_causes() {
        let mut failures = Failures::default();
        let ok: Result<u32, SchedulerError> = Ok(3);
        assert_eq!(failures.record("edit", ok), Some(3));
        let err: Result<u32, SchedulerError> = Err(SchedulerError::EngineClosed);
        assert_eq!(failures.record("edit", err), None);
        assert_eq!(failures.panics(), 0);
        assert_eq!(failures.attempted(), 2);
        assert_eq!(failures.failed(), 1);
        assert_eq!(
            crate::stats::error_rate(failures.failed(), failures.attempted()),
            Some(0.5)
        );
        assert_eq!(
            failures.lines(),
            vec!["failures edit: 1 of 2 [EngineClosed=1]"]
        );
    }

    #[test]
    fn checks_fail_the_run_but_are_not_errors() {
        let mut checks = Checks::default();
        checks.check("a", Ok(()));
        assert!(checks.ok());
        checks.require("b", false, || "broken".to_string());
        assert!(!checks.ok());
        checks.require("b", false, || "again".to_string());
        assert_eq!(checks.lines()[0], "checks: 1 passed, 2 failed");
        assert_eq!(
            checks.lines()[1],
            "check failed: b: 2 time(s), first: broken"
        );
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            0,
            &[
                ("p50_ms".to_string(), 1.25, "ms"),
                ("x".to_string(), f64::NAN, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"x\": {\"value\": null, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
