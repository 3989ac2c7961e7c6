//! Expansion of routed operations into a physical-site [`ashn_ir::Circuit`].
//!
//! Routing emits abstract [`RouteOp`]s; this module lowers them onto the
//! canonical IR by embedding per-operation two-qubit fragments (a compiled
//! SWAP, the layer gates) at their physical sites — the step `ashn-qv` and
//! the `ashn::Compiler` pipeline previously performed with hand-copied
//! gate lists.

use crate::router::RouteOp;
use ashn_ir::{Circuit, SynthError};

/// Expands routed operations into one `n_sites`-qubit circuit.
///
/// `swap` is the compiled two-qubit SWAP fragment (compiled once — the
/// routed SWAP is the same circuit up to relabeling, and e.g. the AshN
/// pulse compilation is a numerical search). `gate(index)` supplies the
/// compiled two-qubit fragment of the layer gate `index`; both fragments
/// are circuits on qubits `{0, 1}`, as produced by
/// [`ashn_ir::Basis::synthesize`].
///
/// # Errors
///
/// Propagates [`SynthError`] from `gate`, and structural [`SynthError::Ir`]
/// errors when a fragment is not a two-qubit circuit or a site is outside
/// the register.
pub fn expand_route_ops(
    n_sites: usize,
    ops: &[RouteOp],
    swap: &Circuit,
    mut gate: impl FnMut(usize) -> Result<Circuit, SynthError>,
) -> Result<Circuit, SynthError> {
    let mut circuit = Circuit::new(n_sites);
    for op in ops {
        let embedded = match *op {
            RouteOp::Swap(a, b) => swap.embed(n_sites, &[a, b])?,
            RouteOp::Gate { index, a, b } => gate(index)?.embed(n_sites, &[a, b])?,
        };
        circuit.append(embedded)?;
    }
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_ir::Instruction;
    use ashn_math::CMat;

    fn swap_fragment() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(
            Instruction::new(
                vec![0, 1],
                CMat::from_rows_f64(&[
                    &[1.0, 0.0, 0.0, 0.0],
                    &[0.0, 0.0, 1.0, 0.0],
                    &[0.0, 1.0, 0.0, 0.0],
                    &[0.0, 0.0, 0.0, 1.0],
                ]),
                "SWAP",
            )
            .with_duration(1.0),
        );
        c
    }

    #[test]
    fn expands_swaps_and_gates_at_their_sites() {
        let ops = [
            RouteOp::Swap(0, 1),
            RouteOp::Gate {
                index: 0,
                a: 1,
                b: 2,
            },
        ];
        let x = CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let gate = |_: usize| -> Result<Circuit, SynthError> {
            let mut c = Circuit::new(2);
            c.push(Instruction::new(vec![0], x.clone(), "X"));
            Ok(c)
        };
        let circuit = expand_route_ops(3, &ops, &swap_fragment(), gate).unwrap();
        assert_eq!(circuit.instructions.len(), 2);
        assert_eq!(circuit.instructions[0].qubits, vec![0, 1]);
        assert_eq!(circuit.instructions[1].qubits, vec![1]);
        assert!((circuit.total_duration() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn out_of_range_sites_error_instead_of_panicking() {
        let ops = [RouteOp::Swap(0, 9)];
        let err = expand_route_ops(2, &ops, &swap_fragment(), |_| Ok(Circuit::new(2))).unwrap_err();
        assert!(matches!(err, SynthError::Ir(_)));
    }
}
