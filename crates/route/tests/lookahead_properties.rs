//! Property tests for the lookahead router: on random grids (4–9 qubits,
//! square and skewed), routing arbitrary two-qubit layers and expanding
//! the result onto the physical register must preserve circuit semantics
//! exactly — the routed circuit acts on the logical state as the
//! unrouted circuit does, up to the wire permutation the router reports.

use ashn_ir::{Circuit, Instruction, SynthError};
use ashn_math::randmat::haar_unitary;
use ashn_math::{CMat, Complex};
use ashn_route::{expand_route_ops, Grid, LookaheadRouter, RouteOp};
use ashn_sim::Simulate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fragment(u: &CMat, label: &str) -> Circuit {
    let mut c = Circuit::new(2);
    c.push(Instruction::new(vec![0, 1], u.clone(), label));
    c
}

fn swap_matrix() -> CMat {
    CMat::from_rows_f64(&[
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 1.0, 0.0],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
    ])
}

/// Random disjoint pairs over `n` wires (at least one pair).
fn random_layer(n: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut wires: Vec<usize> = (0..n).collect();
    // Fisher–Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        wires.swap(i, j);
    }
    let pairs = 1 + rng.gen_range(0..n / 2);
    wires
        .chunks_exact(2)
        .take(pairs)
        .map(|c| (c[0], c[1]))
        .collect()
}

/// Routes `layers` of random two-qubit gates on `grid`, expands them onto
/// the physical register, and returns the physical circuit plus the final
/// placement.
fn route_random_circuit(
    n: usize,
    grid: Grid,
    layers: usize,
    rng: &mut StdRng,
) -> (Circuit, Circuit, Vec<usize>) {
    let mut router = LookaheadRouter::new(grid, n);
    let mut logical = Circuit::new(n);
    let mut ops: Vec<RouteOp> = Vec::new();
    let mut gates: Vec<CMat> = Vec::new();
    for _ in 0..layers {
        let layer = random_layer(n, rng);
        let mut routed = router.route_layer(&layer);
        // route_layer indexes gates within the layer; rebase onto the
        // whole-circuit gate list.
        for op in &mut routed {
            if let RouteOp::Gate { index, .. } = op {
                let (a, b) = layer[*index];
                *index = gates.len();
                let u = haar_unitary(4, rng);
                logical.push(Instruction::new(vec![a, b], u.clone(), "2q"));
                gates.push(u);
            }
        }
        ops.extend(routed);
    }
    let physical = expand_route_ops(grid.len(), &ops, &fragment(&swap_matrix(), "SWAP"), |i| {
        Ok::<_, SynthError>(fragment(&gates[i], "2q"))
    })
    .expect("expansion");
    let positions = (0..n).map(|l| router.position(l)).collect();
    (logical, physical, positions)
}

/// Checks that the physical state equals the logical state transported
/// through the router's final wire permutation, with idle sites in `|0⟩`.
fn assert_equivalent(logical: &Circuit, physical: &Circuit, positions: &[usize]) {
    let n = logical.n_qubits();
    let sites = physical.n_qubits();
    let l_amps_state = logical.run_pure();
    let p_amps_state = physical.run_pure();
    let l_amps = l_amps_state.amplitudes();
    let p_amps = p_amps_state.amplitudes();
    let mut occupied = 0usize;
    for &site in positions {
        occupied |= 1 << (sites - 1 - site);
    }
    for (idx, amp) in p_amps.iter().enumerate() {
        let expect = if idx & !occupied != 0 {
            Complex::ZERO
        } else {
            let mut logical_idx = 0usize;
            for (l, &site) in positions.iter().enumerate() {
                let bit = (idx >> (sites - 1 - site)) & 1;
                logical_idx |= bit << (n - 1 - l);
            }
            l_amps[logical_idx]
        };
        let diff = ((amp.re - expect.re).powi(2) + (amp.im - expect.im).powi(2)).sqrt();
        assert!(
            diff < 1e-9,
            "physical index {idx}: amplitude off by {diff:.3e}"
        );
    }
}

/// Satellite: the router's first telemetry counters. A 1×6 strip forces
/// SWAP chains (routed-SWAP count), while already-adjacent pairs are
/// window hits; both must land in the installed registry alongside the
/// per-layer routing-time histogram.
#[test]
fn routing_records_swap_and_window_counters() {
    let reg = ashn_telemetry::Registry::with_journal_capacity(0);
    let _guard = ashn_telemetry::install(&reg);

    let n = 6;
    let mut router = LookaheadRouter::new(Grid::new(1, n), n);
    // Layer 1: an adjacent pair (a lookahead-window hit, zero SWAPs
    // needed) plus the two strip endpoints (a forced SWAP chain).
    router.route_layer(&[(0, 1), (2, 5)]);
    // Layer 2: endpoints again from the new placement — more SWAPs.
    router.route_layer(&[(0, 5)]);

    let snap = reg.snapshot();
    assert_eq!(snap.counter("route.layers"), Some(2));
    assert_eq!(snap.counter("route.pairs"), Some(3));
    assert!(
        snap.counter("route.swaps").unwrap_or(0) > 0,
        "strip endpoints must cost routed SWAPs"
    );
    assert!(
        snap.counter("route.window_hits").unwrap_or(0) >= 1,
        "the adjacent pair must count as a lookahead window hit"
    );
    let h = snap.histogram("route.layer").expect("per-layer timer");
    assert_eq!(h.count, 2, "one timing sample per routed layer");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline property: any random circuit on any 4–9 qubit grid
    /// routes to a physically equivalent circuit.
    #[test]
    fn routed_circuits_preserve_semantics(seed in 0u64..1000, n in 4usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = Grid::for_qubits(n);
        let (logical, physical, positions) = route_random_circuit(n, grid, 4, &mut rng);
        assert_equivalent(&logical, &physical, &positions);
    }

    /// Same property on deliberately skewed grids (1×k strips and 2×k
    /// rectangles force long SWAP chains).
    #[test]
    fn routed_circuits_preserve_semantics_on_skewed_grids(seed in 0u64..1000, n in 4usize..8) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for grid in [Grid::new(1, n), Grid::new(2, n.div_ceil(2))] {
            let (logical, physical, positions) = route_random_circuit(n, grid, 3, &mut rng);
            assert_equivalent(&logical, &physical, &positions);
        }
    }

    /// The reported placement is always a permutation of distinct sites.
    #[test]
    fn final_positions_form_a_valid_placement(seed in 0u64..1000, n in 4usize..10) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb0);
        let grid = Grid::for_qubits(n);
        let (_, _, positions) = route_random_circuit(n, grid, 5, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for &p in &positions {
            prop_assert!(p < grid.len());
            prop_assert!(seen.insert(p), "two logical qubits share site {p}");
        }
    }
}
