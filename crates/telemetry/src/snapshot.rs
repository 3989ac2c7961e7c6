//! Snapshot types and exporters.
//!
//! Serialization is hand-rolled in the same spirit as
//! `ashn_service::persist`: no serde, deterministic field order (names
//! sorted), and every renderer is a pure function of the snapshot so the
//! text/JSON/Prometheus views can never disagree with each other.

use std::fmt::Write as _;

/// Number of latency buckets: bucket 0 holds sub-microsecond samples,
/// bucket `i ≥ 1` holds `[2^(i-1), 2^i)` microseconds, and the last
/// bucket is unbounded above (2^22 µs ≈ 4.2 s — the log2 µs→s range).
pub const HISTOGRAM_BUCKETS: usize = 24;

/// Upper bound (inclusive `le`) of bucket `i`, in microseconds;
/// `None` for the final unbounded bucket.
pub fn bucket_upper_us(i: usize) -> Option<u64> {
    if i + 1 >= HISTOGRAM_BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

/// The bucket a sample of `ns` nanoseconds falls into.
pub fn bucket_of_ns(ns: u64) -> usize {
    let us = ns / 1_000;
    if us == 0 {
        return 0;
    }
    // us in [2^(i-1), 2^i) → bucket i; i = bit length of us.
    let bits = (64 - us.leading_zeros()) as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// One structured journal field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter-like value.
    U64(u64),
    /// Signed value.
    I64(i64),
    /// Floating-point value.
    F64(f64),
    /// Short label.
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// One event in the bounded journal — the flight-recorder record for
/// chaos-run replay.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Monotonic nanoseconds since the owning registry was created.
    pub ts_ns: u64,
    /// The span (or event) name.
    pub span: String,
    /// Structured fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

/// Field names masked by [`EventRecord::masked_line`]: anything
/// wall-clock-derived, so zero-fault runs render identically at any
/// worker count.
const MASKED_FIELDS: &[&str] = &["duration_us", "wall_ms"];

impl EventRecord {
    /// Deterministic one-line rendering with the timestamp (and any
    /// wall-clock-derived field) masked — what the worker-count
    /// determinism suites compare.
    pub fn masked_line(&self) -> String {
        let mut line = self.span.clone();
        for (k, v) in &self.fields {
            if MASKED_FIELDS.contains(&k.as_str()) {
                let _ = write!(line, " {k}=<masked>");
            } else {
                let _ = write!(line, " {k}={v}");
            }
        }
        line
    }
}

/// Point-in-time value of one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered name (dot-separated, e.g. `cache.lookup.exact`).
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// Point-in-time state of one latency histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name (dot-separated, e.g. `service.cold_synth`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample, nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Largest sample, nanoseconds (0 when empty).
    pub max_ns: u64,
    /// Per-bucket sample counts (see [`bucket_upper_us`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// A serde-free snapshot of a registry: every counter and histogram,
/// sorted by name, plus journal occupancy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Events currently retained in the journal.
    pub journal_len: usize,
    /// Events discarded because the journal ring was full.
    pub journal_dropped: u64,
}

/// Escapes a string for embedding in a JSON double-quoted literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Prometheus metric-name mangling: dots and any other non-identifier
/// character become underscores, and everything gets an `ashn_` prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("ashn_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl TelemetrySnapshot {
    /// The value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// A histogram by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Human-readable report: counters first, then histogram summaries.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry snapshot");
        let _ = writeln!(
            out,
            "  journal: {} event(s) retained, {} dropped",
            self.journal_len, self.journal_dropped
        );
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            let width = self
                .counters
                .iter()
                .map(|c| c.name.len())
                .max()
                .unwrap_or(0);
            for c in &self.counters {
                let _ = writeln!(out, "    {:width$}  {}", c.name, c.value);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "  histograms (count / mean / min / max, µs):");
            let width = self
                .histograms
                .iter()
                .map(|h| h.name.len())
                .max()
                .unwrap_or(0);
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {:width$}  {:>8}  {:>10.1}  {:>10.1}  {:>10.1}",
                    h.name,
                    h.count,
                    h.mean_us(),
                    h.min_ns as f64 / 1e3,
                    h.max_ns as f64 / 1e3,
                );
            }
        }
        out
    }

    /// Machine-readable JSON rendering (hand-rolled, stable field order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {}", json_escape(&c.name), c.value);
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"buckets\": [",
                json_escape(&h.name),
                h.count,
                h.sum_ns,
                h.min_ns,
                h.max_ns
            );
            for (j, b) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{b}");
            }
            out.push_str("] }");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "}},\n  \"journal\": {{ \"len\": {}, \"dropped\": {} }}\n}}\n",
            self.journal_len, self.journal_dropped
        );
        out
    }

    /// Prometheus exposition-format rendering: counters as `counter`
    /// metrics, histograms as cumulative-`le` `histogram` metrics with
    /// seconds-valued `_sum` (the Prometheus convention).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let name = prom_name(&c.name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.value);
        }
        for h in &self.histograms {
            let name = prom_name(&h.name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, b) in h.buckets.iter().enumerate() {
                cumulative += b;
                match bucket_upper_us(i) {
                    // `le` in seconds, to match the `_sum` unit.
                    Some(us) => {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{le=\"{}\"}} {cumulative}",
                            us as f64 / 1e6
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum_ns as f64 / 1e9);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2_in_microseconds() {
        assert_eq!(bucket_of_ns(0), 0);
        assert_eq!(bucket_of_ns(999), 0); // sub-µs
        assert_eq!(bucket_of_ns(1_000), 1); // 1 µs → [1, 2)
        assert_eq!(bucket_of_ns(1_999), 1);
        assert_eq!(bucket_of_ns(2_000), 2); // [2, 4)
        assert_eq!(bucket_of_ns(1_000_000), 10); // 1 ms → [512, 1024) µs
        assert_eq!(bucket_of_ns(1_000_000_000), 20); // 1 s → [0.52, 1.05) s
        assert_eq!(bucket_of_ns(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_us(0), Some(1));
        assert_eq!(bucket_upper_us(1), Some(2));
        assert_eq!(bucket_upper_us(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn masked_line_hides_wall_clock_fields() {
        let e = EventRecord {
            ts_ns: 123,
            span: "service.serve".into(),
            fields: vec![
                ("targets".into(), FieldValue::U64(7)),
                ("duration_us".into(), FieldValue::F64(88.5)),
            ],
        };
        assert_eq!(
            e.masked_line(),
            "service.serve targets=7 duration_us=<masked>"
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prom_name("cache.lookup.exact"), "ashn_cache_lookup_exact");
        assert_eq!(prom_name("opt.pass.Merge1q"), "ashn_opt_pass_Merge1q");
    }
}
