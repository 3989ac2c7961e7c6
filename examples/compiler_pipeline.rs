//! The end-to-end `ashn::Compiler` pipeline, and how to plug in a brand-new
//! native gate set.
//!
//! One model circuit is compiled — synthesize → route → schedule →
//! simulate — for the paper's three gate sets *and* for a user-defined
//! B-gate basis implemented right here in ~30 lines: the `Basis` trait is
//! the only integration point, so a new native basis needs no changes to
//! routing, scoring, or the compiler itself.
//!
//! ```bash
//! cargo run --release --example compiler_pipeline
//! ```

use ashn::prelude::*;
use ashn::synth::b_span::decompose_two_b;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The B-gate basis (paper §6.4): `[B] = CAN(π/4, π/8, 0)` is the unique
/// class whose *two* interleaved applications reach the whole Weyl chamber.
struct BGateBasis;

impl Basis for BGateBasis {
    fn name(&self) -> String {
        "B-gate".into()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        decompose_two_b(u)
            .map(Into::into)
            .map_err(|e| SynthError::Convergence {
                basis: self.name(),
                detail: e.to_string(),
            })
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        // Identity-class targets need none; everything else needs two.
        let p = weyl_coordinates(u);
        if p.dist(WeylPoint::IDENTITY) < 1e-9 {
            0
        } else {
            2
        }
    }
}

fn main() -> Result<(), AshnError> {
    let mut rng = StdRng::seed_from_u64(11);
    let d = 4;
    let noise = QvNoise::with_e_cz(0.012);
    let model = sample_model_circuit(d, &mut rng);

    println!(
        "One {d}-qubit model circuit through the full pipeline\n\
         (synthesize -> route -> schedule -> simulate):\n"
    );
    println!(
        "{:<14} {:>10} {:>10} {:>18}",
        "basis", "HOP", "2q gates", "interaction t·g"
    );

    // The paper's gate sets, via the enum dispatcher...
    for gs in [GateSet::Cz, GateSet::Sqisw, GateSet::Ashn { cutoff: 1.1 }] {
        let compiled = Compiler::new().gate_set(gs).noise(noise).compile(&model)?;
        report(&compiled);
    }
    // ...and a user-defined basis, exactly the same pipeline.
    let compiled = Compiler::new()
        .basis(BGateBasis)
        .noise(noise)
        .compile(&model)?;
    report(&compiled);

    // The optimizer slots in between routing and scheduling: maximal
    // two-qubit runs (routed SWAP + layer gate, repeated pairings) are
    // recompiled as single AshN pulses, and single-qubit runs merge.
    let optimized = Compiler::new()
        .gate_set(GateSet::Ashn { cutoff: 1.1 })
        .noise(noise)
        .opt_level(OptLevel::Standard)
        .compile(&model)?;
    let score = optimized.score();
    println!(
        "{:<14} {:>10.4} {:>10} {:>18.2}",
        format!("{} +opt", optimized.basis_name()),
        score.hop,
        score.two_qubit_gates,
        score.interaction_time,
    );
    if let Some(stats) = optimized.opt_stats() {
        println!("\nOptimizer (OptLevel::Standard): {stats}");
    }

    println!(
        "\nAshN needs one pulse per gate (SWAPs included); the B-gate basis\n\
         always needs two, and CZ three — the interaction-time column is the\n\
         noise exposure that decides the quantum-volume ordering. The\n\
         optimized AshN row shows the DAG optimizer recovering further\n\
         gates on top of the single-pulse advantage."
    );
    Ok(())
}

fn report(compiled: &Compiled) {
    let score = compiled.score();
    println!(
        "{:<14} {:>10.4} {:>10} {:>18.2}",
        compiled.basis_name(),
        score.hop,
        score.two_qubit_gates,
        score.interaction_time,
    );
}
