//! Greedy SWAP routing for random pairings on a grid — the qubit-routing
//! substrate of the paper's quantum-volume experiment (§6.3), where every
//! layer pairs up qubits uniformly at random and non-adjacent pairs must be
//! brought together with SWAPs.

use crate::grid::Grid;
use rand::Rng;

/// One routed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteOp {
    /// Swap the tokens on two adjacent physical sites.
    Swap(usize, usize),
    /// Execute the layer's two-qubit gate `index` on two adjacent physical
    /// sites (in logical order: first site holds the pair's first qubit).
    Gate {
        /// Index of the pair within the layer.
        index: usize,
        /// Physical site of the first logical qubit.
        a: usize,
        /// Physical site of the second logical qubit.
        b: usize,
    },
}

/// The logical→physical assignment both routers track.
#[derive(Clone, Debug)]
pub(crate) struct Placement {
    pub(crate) grid: Grid,
    /// `position[l]` = physical site of logical qubit `l`.
    pub(crate) position: Vec<usize>,
}

impl Placement {
    /// The identity placement of `n` logical qubits; panics when the grid
    /// is too small.
    pub(crate) fn new(grid: Grid, n: usize) -> Self {
        assert!(grid.len() >= n, "grid too small for {n} qubits");
        Self {
            grid,
            position: (0..n).collect(),
        }
    }

    pub(crate) fn swap_sites(&mut self, a: usize, b: usize) {
        for p in self.position.iter_mut() {
            if *p == a {
                *p = b;
            } else if *p == b {
                *p = a;
            }
        }
    }

    /// Panics unless `pairs` are disjoint and each joins two qubits.
    pub(crate) fn check_disjoint(&self, pairs: &[(usize, usize)]) {
        let mut seen = vec![false; self.position.len()];
        for &(a, b) in pairs {
            assert!(a != b && !seen[a] && !seen[b], "overlapping pairs");
            seen[a] = true;
            seen[b] = true;
        }
    }
}

/// Tracks the logical→physical qubit assignment while routing.
#[derive(Clone, Debug)]
pub struct Router {
    placement: Placement,
}

impl Router {
    /// A router with the identity placement of `n` logical qubits.
    ///
    /// # Panics
    ///
    /// Panics when the grid is too small.
    pub fn new(grid: Grid, n: usize) -> Self {
        Self {
            placement: Placement::new(grid, n),
        }
    }

    /// Current physical site of a logical qubit.
    pub fn position(&self, logical: usize) -> usize {
        self.placement.position[logical]
    }

    /// The grid.
    pub fn grid(&self) -> &Grid {
        &self.placement.grid
    }

    /// Routes one layer of disjoint logical pairs: emits SWAPs moving each
    /// pair together (walking the first qubit toward the second) followed by
    /// the gate execution, pair by pair.
    ///
    /// # Panics
    ///
    /// Panics when pairs share qubits.
    pub fn route_layer(&mut self, pairs: &[(usize, usize)]) -> Vec<RouteOp> {
        let place = &mut self.placement;
        place.check_disjoint(pairs);
        let mut ops = Vec::new();
        for (index, &(la, lb)) in pairs.iter().enumerate() {
            loop {
                let (pa, pb) = (place.position[la], place.position[lb]);
                if place.grid.adjacent(pa, pb) {
                    ops.push(RouteOp::Gate {
                        index,
                        a: pa,
                        b: pb,
                    });
                    break;
                }
                // Step the first token one site along a shortest path.
                let path = place.grid.shortest_path(pa, pb);
                let next = path[1];
                ops.push(RouteOp::Swap(pa, next));
                place.swap_sites(pa, next);
            }
        }
        ops
    }
}

/// A uniformly random perfect pairing of `{0, …, n−1}` (n even) or of all
/// but one qubit (n odd).
pub fn random_pairing(n: usize, rng: &mut impl Rng) -> Vec<(usize, usize)> {
    let mut idx: Vec<usize> = (0..n).collect();
    // Fisher–Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx.chunks_exact(2).map(|c| (c[0], c[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_pairing_is_a_matching() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [2usize, 4, 6, 8, 9] {
            let pairs = random_pairing(n, &mut rng);
            assert_eq!(pairs.len(), n / 2);
            let mut seen = vec![false; n];
            for &(a, b) in &pairs {
                assert!(a != b && !seen[a] && !seen[b]);
                seen[a] = true;
                seen[b] = true;
            }
        }
    }

    #[test]
    fn gates_are_executed_on_adjacent_sites() {
        let mut rng = StdRng::seed_from_u64(12);
        let grid = Grid::for_qubits(8);
        let mut router = Router::new(grid, 8);
        for _ in 0..20 {
            let pairs = random_pairing(8, &mut rng);
            let ops = router.route_layer(&pairs);
            let mut gates = 0;
            for op in &ops {
                match op {
                    RouteOp::Swap(a, b) => assert!(grid.adjacent(*a, *b)),
                    RouteOp::Gate { a, b, .. } => {
                        assert!(grid.adjacent(*a, *b));
                        gates += 1;
                    }
                }
            }
            assert_eq!(gates, pairs.len(), "every pair must execute");
        }
    }

    #[test]
    fn positions_track_swaps() {
        let grid = Grid::new(1, 4); // a line: 0-1-2-3
        let mut router = Router::new(grid, 4);
        // Pair the two ends: (0,3) needs swaps.
        let ops = router.route_layer(&[(0, 3), (1, 2)]);
        // After routing, logical 0 must sit adjacent to logical 3.
        let p0 = router.position(0);
        let p3 = router.position(3);
        assert!(grid.adjacent(p0, p3));
        assert!(ops.iter().any(|o| matches!(o, RouteOp::Swap(_, _))));
    }

    #[test]
    fn adjacent_pairs_need_no_swaps() {
        let grid = Grid::new(2, 2);
        let mut router = Router::new(grid, 4);
        // (0,1) and (2,3) are horizontally adjacent in a 2×2 grid.
        let ops = router.route_layer(&[(0, 1), (2, 3)]);
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|o| matches!(o, RouteOp::Gate { .. })));
    }

    #[test]
    fn swap_overhead_is_bounded_by_diameter() {
        let mut rng = StdRng::seed_from_u64(13);
        let grid = Grid::for_qubits(9);
        let diameter = grid.rows() + grid.cols() - 2;
        let mut router = Router::new(grid, 9);
        for _ in 0..10 {
            let pairs = random_pairing(9, &mut rng);
            let ops = router.route_layer(&pairs);
            let swaps = ops
                .iter()
                .filter(|o| matches!(o, RouteOp::Swap(_, _)))
                .count();
            assert!(swaps <= pairs.len() * diameter, "{swaps} swaps");
        }
    }
}
