//! Outside-in benchmark of the ashn compile → simulate chain.
//!
//! One command runs one of three seeded workloads through the program's
//! public entry points in a closed loop (one caller, one request in
//! flight) and prints one JSON line of metrics:
//!
//! * `qv_fig7` — the paper's Fig. 7 traffic through the `ashn::Compiler`
//!   facade, a fresh compiler per request (cold synthesis, resynthesis,
//!   density-matrix scoring);
//! * `service_algos` — QFT, grid QAOA, GHZ and Heisenberg circuits through
//!   `CompileService::compile_batch` over a disk-warm cache (dedup,
//!   rule/cache serves, lookahead routing, assembly);
//! * `trajectories` — Heisenberg-XYZ circuits compiled warm and run as
//!   noisy trajectory ensembles (the simulation layer).
//!
//! The untraced run (`--trace 0`) reports end-to-end metrics with the
//! program's telemetry switched off. The traced run (`--trace 1`) rebuilds
//! every request from the layers' public functions, times each call from
//! outside, and requires the rebuilt output to match the untraced one bit
//! for bit.

pub mod check;
pub mod fig7;
pub mod gen;
pub mod harness;
pub mod runner;
pub mod service;
pub mod timing;
pub mod traj;

use harness::{Config, Report};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["qv_fig7", "service_algos", "trajectories"];

/// Runs one workload and returns its report.
///
/// # Errors
///
/// An unknown workload, or a workload that could not be set up.
pub fn run(workload: &str, cfg: &Config) -> Result<Report, String> {
    // End-to-end figures come from a program with telemetry runtime-off;
    // the traced run times from outside, so it stays off there too.
    ashn::telemetry::global().set_enabled(false);
    match workload {
        "qv_fig7" => {
            let w = fig7::QvFig7::new(cfg);
            let setup = w.setup();
            Ok(runner::run(&w, cfg, setup))
        }
        "service_algos" => {
            let w = service::ServiceAlgos::new(cfg)?;
            Ok(runner::run(&w, cfg, w.setup))
        }
        "trajectories" => {
            let w = traj::Trajectories::new(cfg)?;
            Ok(runner::run(&w, cfg, w.setup))
        }
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
