//! Regenerates paper Table 1: AshN pulse parameters for the special gate
//! classes `[CNOT]`, `[SWAP]`, `[B]` at `h̃ = 0`, plus the §6.4 extensions:
//! the exact produced gates, the closed-form `[CNOT]` pulse under `ZZ`
//! coupling, and the SWAP speed-up from `ZZ`. The per-`h̃` pulse
//! compilations of the ZZ sweeps fan across `BatchRunner` workers.

use ashn_bench::{f4, row, Args};
use ashn_core::classes::{
    b_pulse, cnot_pulse, cnot_pulse_exact_gate, swap_pulse, swap_pulse_exact_gate,
};
use ashn_core::scheme::AshnScheme;
use ashn_core::verify::entanglement_fidelity;
use ashn_gates::cost::optimal_time;
use ashn_gates::weyl::WeylPoint;
use ashn_sim::BatchRunner;
use std::f64::consts::PI;

fn main() {
    let args = Args::parse(&["workers"]);
    let workers: usize = args.get("workers", 0);
    let runner = BatchRunner::new(1).with_workers(workers);
    println!("Table 1: gate parameters for special gate classes (h̃ = 0, units of g)\n");
    row(&[
        "class".into(),
        "τ·g".into(),
        "A1".into(),
        "A2".into(),
        "2δ".into(),
        "coord err".into(),
    ]);
    let named = [
        ("[CNOT]", cnot_pulse(0.0), "π/2"),
        ("[SWAP]", swap_pulse(), "3π/4"),
        ("[B]", b_pulse(), "π/2"),
    ];
    for (name, pulse, tau_name) in named {
        let (a1, a2, two_delta) = pulse.physical_amplitudes(1.0);
        row(&[
            name.into(),
            format!("{} ({:.4})", tau_name, pulse.tau),
            f4(a1),
            f4(a2),
            f4(two_delta),
            format!("{:.1e}", pulse.coordinate_error()),
        ]);
    }
    println!(
        "\npaper values: [CNOT] A1 = −√15 ≈ −3.873; [SWAP] ∓2.108 and 2δ = −1.528; [B] −2.238"
    );

    println!("\nExact produced gates (paper §6.4):");
    let f_ms = entanglement_fidelity(&cnot_pulse(0.0).unitary(), &cnot_pulse_exact_gate());
    println!(
        "  [CNOT] pulse vs Mølmer–Sørensen XX(π/2): F = {:.12}",
        f_ms
    );
    let f_zs = entanglement_fidelity(&swap_pulse().unitary(), &swap_pulse_exact_gate());
    println!(
        "  [SWAP] pulse vs ZZ·SWAP:                 F = {:.12}",
        f_zs
    );

    println!("\n[CNOT] closed form under ZZ coupling (τ = π/2 always):");
    row(&["h̃".into(), "A1".into(), "A2".into(), "coord err".into()]);
    let h_cnot = [0.0, 0.2, 0.5, 0.8, 1.0];
    let cnot_rows = runner.run(h_cnot.len(), |index, _| {
        let h = h_cnot[index];
        let p = cnot_pulse(h);
        let (a1, a2, _) = p.physical_amplitudes(1.0);
        (h, a1, a2, p.coordinate_error())
    });
    for (h, a1, a2, err) in cnot_rows {
        row(&[f4(h), f4(a1), f4(a2), format!("{err:.1e}")]);
    }

    println!("\n[SWAP] optimal time under ZZ: τ_opt = 3π/(4(1+|h̃|/2)) — ZZ helps:");
    row(&[
        "h̃".into(),
        "τ_opt".into(),
        "3π/(4(1+|h̃|/2))".into(),
        "compiled".into(),
    ]);
    let h_swap = [0.0, 0.2, 0.5, 0.8];
    let swap_rows = runner.run(h_swap.len(), |index, _| {
        let h = h_swap[index];
        let t = optimal_time(h, WeylPoint::SWAP);
        let formula = 3.0 * PI / (4.0 * (1.0 + h / 2.0));
        let pulse = AshnScheme::new(h)
            .compile(WeylPoint::SWAP)
            .expect("compiles");
        assert!((t - formula).abs() < 1e-9);
        assert!((pulse.tau - t).abs() < 1e-9);
        (h, t, formula, pulse.tau)
    });
    for (h, t, formula, tau) in swap_rows {
        row(&[f4(h), f4(t), f4(formula), f4(tau)]);
    }
}
