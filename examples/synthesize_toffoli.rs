//! Three-qubit synthesis (paper §6.2 / Theorem 12): Toffoli in 11 generic
//! two-qubit gates, each of which is a single AshN pulse — versus 24 CNOTs
//! from plain Shannon decomposition.
//!
//! ```bash
//! cargo run --release --example synthesize_toffoli
//! ```

use ashn::core::scheme::AshnScheme;
use ashn::gates::kak::weyl_coordinates;
use ashn::math::{CMat, Complex};
use ashn::synth::qsd::{qsd, SynthBasis};
use ashn::synth::three_qubit::decompose_three_qubit;

fn toffoli() -> CMat {
    let mut t = CMat::identity(8);
    t[(6, 6)] = Complex::ZERO;
    t[(7, 7)] = Complex::ZERO;
    t[(6, 7)] = Complex::ONE;
    t[(7, 6)] = Complex::ONE;
    t
}

fn main() {
    let u = toffoli();

    let generic = decompose_three_qubit(&u);
    println!(
        "Theorem 12: Toffoli = {} two-qubit gates (reconstruction error {:.1e}):",
        generic.entangler_count(),
        generic.error(&u)
    );
    let scheme = AshnScheme::new(0.0);
    let mut total_time = 0.0;
    for (i, g) in generic.instructions.iter().enumerate() {
        let coords = weyl_coordinates(&g.matrix);
        let pulse = scheme.compile(coords).expect("every SU(4) compiles");
        total_time += pulse.tau;
        println!(
            "  gate {:>2} [{}] on (q{}, q{}): coords {}, pulse {} τ·g = {:.4}",
            i + 1,
            g.label,
            g.qubits[0],
            g.qubits[1],
            coords,
            pulse.scheme,
            pulse.tau
        );
    }
    println!("  total two-qubit interaction time: {total_time:.3}/g");

    let cnot = qsd(&u, SynthBasis::Cnot);
    let cz_time = cnot.entangler_count() as f64 * std::f64::consts::PI / std::f64::consts::SQRT_2;
    println!(
        "\nPlain Shannon decomposition: {} CNOTs (error {:.1e}); on flux-tuned\n\
         CZ hardware that is {:.2}/g of interaction time — {:.1}x more than AshN.",
        cnot.entangler_count(),
        cnot.error(&u),
        cz_time,
        cz_time / total_time
    );
}
