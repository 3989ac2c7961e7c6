//! Regenerates the table in paper Figure 6(c): numerical and analytic
//! two-qubit gate counts for circuit synthesis, CNOT vs generic (AshN).
//!
//! Our implementations back every entry: the analytic generic counts are
//! *achieved constructively* by `qsd`/`decompose_three_qubit` (verified by
//! reconstruction), and the numerical entries sit at the dimension-counting
//! lower bounds, as the paper observes.

use ashn_bench::{row, Args};
use ashn_math::randmat::haar_unitary;
use ashn_synth::counts::{
    cnot_lower_bound, generic_formula, generic_lower_bound, numerical, qsd_cnot_formula,
};
use ashn_synth::qsd::{qsd, qsd_count, SynthBasis};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["seed"]);
    let seed: u64 = args.get("seed", 3);
    let mut rng = StdRng::seed_from_u64(seed);

    println!("Figure 6(c): two-qubit gate counts for n-qubit synthesis\n");
    row(&[
        "".into(),
        "3-qubit".into(),
        "4-qubit".into(),
        "n-qubit (asymptotic)".into(),
    ]);
    row(&[
        "CNOT (N) [*]".into(),
        numerical::CNOT_N3.to_string(),
        numerical::CNOT_N4.to_string(),
        "N/A".into(),
    ]);
    row(&[
        "AshN (N) [*]".into(),
        numerical::GENERIC_N3.to_string(),
        numerical::GENERIC_N4.to_string(),
        "N/A".into(),
    ]);
    row(&[
        "CNOT (A) [35]".into(),
        format!("{}", qsd_cnot_formula(3) as i64),
        format!("{}", qsd_cnot_formula(4) as i64),
        "~(23/48)·4^n".into(),
    ]);
    row(&[
        "AshN (A) [*]".into(),
        format!("{}", generic_formula(3) as i64),
        format!("{}", generic_formula(4) as i64),
        "~(23/64)·4^n".into(),
    ]);
    println!("\nlower bounds: CNOT ⌈(4^n−3n−1)/4⌉, generic ⌈(4^n−3n−1)/9⌉");
    row(&[
        "CNOT LB".into(),
        cnot_lower_bound(3).to_string(),
        cnot_lower_bound(4).to_string(),
        "~4^n/4".into(),
    ]);
    row(&[
        "generic LB".into(),
        generic_lower_bound(3).to_string(),
        generic_lower_bound(4).to_string(),
        "~4^n/9".into(),
    ]);

    println!("\nOur constructive implementations (counts measured on Haar targets, with reconstruction error):");
    row(&[
        "method".into(),
        "n".into(),
        "count".into(),
        "formula".into(),
        "error".into(),
    ]);
    for (n, basis, formula) in [
        (3usize, SynthBasis::Generic, generic_formula(3)),
        (4, SynthBasis::Generic, generic_formula(4)),
        (3, SynthBasis::Cnot, qsd_cnot_formula(3)),
        (4, SynthBasis::Cnot, qsd_cnot_formula(4)),
    ] {
        let u = haar_unitary(1 << n, &mut rng);
        let c = qsd(&u, basis);
        let name = match basis {
            SynthBasis::Generic => "QSD generic",
            SynthBasis::Cnot => "QSD CNOT",
        };
        row(&[
            name.into(),
            n.to_string(),
            c.entangler_count().to_string(),
            format!("{}", formula as i64),
            format!("{:.1e}", c.error(&u)),
        ]);
        assert_eq!(c.entangler_count(), qsd_count(n, basis));
    }
    println!(
        "\nnote: the generic counts match Theorem 13 exactly (11 at n=3 via the\n\
         constructive Theorem 12 circuit); our plain CNOT-basis QSD gives 24/120\n\
         vs the 20/100 of [35], which applies two further ad-hoc optimizations\n\
         (2-CNOT-up-to-diagonal base case and diagonal absorption). See\n\
         EXPERIMENTS.md."
    );
}
