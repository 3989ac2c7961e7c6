//! # ashn-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation. Each binary prints the rows/series of one artifact:
//!
//! | binary        | paper artifact |
//! |---------------|----------------|
//! | `fig2_3`      | Figs. 2–3: Weyl-chamber sub-scheme partition |
//! | `fig5`        | Fig. 5: average gate time vs drive-strength bound |
//! | `fig6`        | Figs. 6(a)/(b): decomposition error vs gate count |
//! | `table6c`     | Fig. 6(c): analytic & numerical gate counts |
//! | `fig7`        | Fig. 7: quantum-volume heavy-output proportions |
//! | `table1`      | Table 1: special gate-class pulse parameters |
//! | `tavg`        | §A.7.1: closed-form vs Monte-Carlo `T_avg(r)` |
//! | `calibration` | §5: Cartan-double / QPE / model calibration |
//! | `chamber_sweep` | synthesis coverage of a Weyl-chamber grid per basis |
//!
//! Run e.g. `cargo run --release -p ashn-bench --bin fig7 -- --circuits 50`.
//! Every binary prints deterministic tables by default; those that sample
//! (all but `fig2_3` and `table1`) take `--seed`. A flag the binary does
//! not read is rejected by name.
//!
//! The five `benches/` binaries (`scaling`, `service`, `retarget`,
//! `telemetry`, `trajectory`) each assert a gate and share [`bench_args`]
//! and [`write_baseline`] for their command line and `BENCH_*.json` report.

use std::collections::HashMap;

/// Minimal `--key value` argument parser shared by the bench binaries.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    /// The flags the binary reads (`None`: parsed leniently, anything goes).
    flags: Option<&'static [&'static str]>,
}

impl Args {
    /// Parses the process arguments (`--key value` pairs), accepting only
    /// `flags`: the keys (without `--`) the binary reads.
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments, listing the offender, and on any
    /// flag outside `flags`, naming it — so a typo such as `--circuit`
    /// fails instead of silently running the defaults. [`Args::get`] panics
    /// when asked for a key outside `flags`.
    pub fn parse(flags: &'static [&'static str]) -> Self {
        Self::parse_strict(std::env::args().skip(1).collect(), flags)
    }

    fn parse_strict(argv: Vec<String>, flags: &'static [&'static str]) -> Self {
        let mut args = Self::parse_argv(argv, false);
        let mut unknown: Vec<String> = args
            .values
            .keys()
            .filter(|key| !flags.contains(&key.as_str()))
            .map(|key| format!("--{key}"))
            .collect();
        unknown.sort();
        if !unknown.is_empty() {
            let known: Vec<String> = flags.iter().map(|f| format!("--{f}")).collect();
            panic!(
                "unknown flag {}; this binary reads {}",
                unknown.join(", "),
                known.join(", ")
            );
        }
        args.flags = Some(flags);
        args
    }

    /// Like [`Args::parse`], but tolerates the bare flags `cargo bench`
    /// passes to `harness = false` bench binaries (e.g. `--test` under
    /// `cargo bench -- --test`): a `--key` followed by another `--flag` (or
    /// nothing) is treated as a valueless switch and skipped. The benches
    /// reach it through [`bench_args`].
    pub fn parse_lenient() -> Self {
        Self::parse_argv(std::env::args().skip(1).collect(), true)
    }

    fn parse_argv(argv: Vec<String>, lenient: bool) -> Self {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = match argv[i].strip_prefix("--") {
                Some(key) => key,
                None if lenient => {
                    i += 1;
                    continue;
                }
                None => panic!("expected --key, got {}", argv[i]),
            };
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ if lenient => i += 1,
                _ => panic!("missing value for --{key}"),
            }
        }
        Self {
            values,
            flags: None,
        }
    }

    /// Typed lookup with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        if let Some(flags) = self.flags {
            assert!(flags.contains(&key), "--{key} is read but not declared");
        }
        self.values
            .get(key)
            .map(|v| v.parse().unwrap_or_else(|e| panic!("bad --{key}: {e:?}")))
            .unwrap_or(default)
    }
}

/// The command line of a bench binary: whether `--test` selected the
/// single-iteration smoke mode, and the `--key value` options around it
/// (parsed leniently, so bare flags are skipped).
pub fn bench_args() -> (bool, Args) {
    let smoke = std::env::args().any(|a| a == "--test");
    (smoke, Args::parse_lenient())
}

/// Writes a bench's report to `BENCH_<name>.json` at the workspace root,
/// whatever the invocation CWD (cargo runs bench binaries from the package
/// dir). Smoke mode times single iterations, so it leaves the committed
/// baseline untouched.
pub fn write_baseline(name: &str, json: &str, smoke: bool) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    if smoke {
        println!("\nsmoke mode: leaving {path} untouched");
    } else {
        match std::fs::write(&path, json) {
            Ok(()) => println!("\nbaseline written to {path}"),
            Err(e) => println!("\ncould not write {path}: {e}"),
        }
    }
}

/// Prints a row of fixed-width columns.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float to 4 decimal places.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float in scientific notation.
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_defaults_apply() {
        let a = Args::default();
        assert_eq!(a.get("missing", 7usize), 7);
        assert!((a.get("missing", 1.5f64) - 1.5).abs() < 1e-12);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn declared_flags_parse() {
        let a = Args::parse_strict(argv(&["--circuits", "3"]), &["circuits", "seed"]);
        assert_eq!(a.get("circuits", 20usize), 3);
        assert_eq!(a.get("seed", 17u64), 17);
    }

    #[test]
    #[should_panic(expected = "unknown flag --circuit; this binary reads --circuits, --seed")]
    fn unknown_flags_are_rejected_by_name() {
        Args::parse_strict(argv(&["--circuit", "1"]), &["circuits", "seed"]);
    }

    #[test]
    #[should_panic(expected = "--dmax is read but not declared")]
    fn undeclared_reads_are_caught() {
        let a = Args::parse_strict(argv(&[]), &["circuits"]);
        a.get("dmax", 6usize);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(1.23456), "1.2346");
        assert_eq!(sci(0.000123), "1.23e-4");
    }
}
