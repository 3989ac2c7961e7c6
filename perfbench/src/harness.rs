//! The closed-loop harness, summary statistics, and the result report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Run configuration shared by every workload.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Worker threads for the program's pools.
    pub workers: usize,
    /// Directory for files the workload writes (the persisted cache).
    pub state_dir: std::path::PathBuf,
}

/// What the timed window observed.
#[derive(Clone, Debug, Default)]
pub struct LoopResult {
    /// Per-request latency of every completed request, ms.
    pub latencies_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, panicked, were degraded, or failed a check.
    pub failed: u64,
    /// Wall time of the window, seconds.
    pub wall_s: f64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl LoopResult {
    /// Completed requests per second of wall time.
    pub fn requests_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    /// Share of attempted requests that completed correctly.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// One caller, one request in flight: sends request `i mod inputs`, waits
/// for it, and sends the next, until `seconds` have passed — then finishes
/// the current pass over the inputs, so every input is sampled equally
/// often (and at least once). `request` returns its latency in ms, or why
/// it failed; a panic is caught here and counted as a failure of that
/// request alone.
///
/// `between_passes` runs before every pass over the inputs, with the clock
/// stopped: the window's wall time excludes it.
pub fn closed_loop(
    seconds: f64,
    inputs: usize,
    mut request: impl FnMut(usize) -> Result<f64, String>,
    mut between_passes: impl FnMut(),
) -> LoopResult {
    let mut out = LoopResult::default();
    let start = Instant::now();
    let mut paused = 0.0;
    let mut i = 0usize;
    while i == 0 || !i.is_multiple_of(inputs) || start.elapsed().as_secs_f64() - paused < seconds {
        if i.is_multiple_of(inputs) {
            let pause = Instant::now();
            between_passes();
            paused += pause.elapsed().as_secs_f64();
        }
        out.attempted += 1;
        let failure = match catch_unwind(AssertUnwindSafe(|| request(i % inputs))) {
            Ok(Ok(ms)) => {
                out.latencies_ms.push(ms);
                None
            }
            Ok(Err(e)) => Some(e),
            Err(payload) => Some(panic_message(payload.as_ref())),
        };
        if let Some(e) = failure {
            out.failed += 1;
            if out.failures.len() < 5 {
                out.failures.push(format!("input {}: {e}", i % inputs));
            }
        }
        i += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64() - paused;
    out
}

/// The message of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("panicked: {msg}")
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, MB (`VmHWM`; 0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed and no request failed.
    pub correct: bool,
    /// Requests sent in the timed window.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN/inf; a non-finite figure is reported as
                // 0 and the run marked incorrect by `finish`.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Fills `attempted`/`failed` from the timed window and decides
    /// `correct`.
    pub fn finish(&mut self, window: &LoopResult) {
        self.attempted = window.attempted;
        self.failed = window.failed;
        self.problems.extend(window.failures.iter().cloned());
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.problems.push(format!("{} is not finite", m.name));
            }
        }
        self.correct = self.problems.is_empty() && window.failed == 0 && window.attempted > 0;
    }

    /// A human-readable table of the metrics.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("  {:<34} {:>14.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn closed_loop_counts_errors_and_panics_per_request() {
        let mut passes = 0;
        let r = closed_loop(
            0.0,
            4,
            |i| match i {
                1 => Err("bad".into()),
                2 => panic!("boom"),
                _ => Ok(1.0),
            },
            || passes += 1,
        );
        assert_eq!(passes, 1);
        assert_eq!(r.attempted, 4);
        assert_eq!(r.failed, 2);
        assert_eq!(r.latencies_ms.len(), 2);
        assert!(r.failures[1].contains("boom"));
    }

    #[test]
    fn json_is_one_line_with_the_contract_keys() {
        let mut r = Report::default();
        r.push("latency_ms", 1.5, "ms");
        r.finish(&LoopResult {
            attempted: 3,
            latencies_ms: vec![1.0; 3],
            wall_s: 1.0,
            ..LoopResult::default()
        });
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
