//! A smarter routing strategy: walk *both* endpoints toward each other and
//! order the layer's pairs nearest-first, reducing SWAP count relative to
//! the one-sided greedy [`crate::router::Router`].

use crate::grid::Grid;
use crate::router::{Placement, RouteOp};

/// Both-endpoint router with nearest-pair-first scheduling.
#[derive(Clone, Debug)]
pub struct LookaheadRouter {
    placement: Placement,
}

impl LookaheadRouter {
    /// Identity placement of `n` logical qubits.
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

    /// Routes one layer of disjoint pairs; see [`crate::router::Router::route_layer`].
    ///
    /// # Panics
    ///
    /// Panics when pairs overlap.
    pub fn route_layer(&mut self, pairs: &[(usize, usize)]) -> Vec<RouteOp> {
        let telemetry = ashn_telemetry::current();
        let _span = telemetry.span("route.layer");
        let place = &mut self.placement;
        place.check_disjoint(pairs);
        // Nearest pairs first: they block fewer sites for the others.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by_key(|&i| {
            let (a, b) = pairs[i];
            place.grid.distance(place.position[a], place.position[b])
        });
        let mut ops = Vec::new();
        let mut swaps = 0u64;
        let mut window_hits = 0u64;
        for index in order {
            let (la, lb) = pairs[index];
            let mut stepped = false;
            loop {
                let (pa, pb) = (place.position[la], place.position[lb]);
                if place.grid.adjacent(pa, pb) {
                    // A pair adjacent the moment it is scheduled — either
                    // placed that way or dragged together by earlier pairs'
                    // SWAPs — is a lookahead window hit.
                    if !stepped {
                        window_hits += 1;
                    }
                    ops.push(RouteOp::Gate {
                        index,
                        a: pa,
                        b: pb,
                    });
                    break;
                }
                stepped = true;
                // Step each endpoint one site toward the other, alternating.
                let step_a = place.grid.shortest_path(pa, pb)[1];
                ops.push(RouteOp::Swap(pa, step_a));
                place.swap_sites(pa, step_a);
                swaps += 1;
                let (pa, pb) = (place.position[la], place.position[lb]);
                if place.grid.adjacent(pa, pb) {
                    continue;
                }
                let step_b = place.grid.shortest_path(pb, pa)[1];
                ops.push(RouteOp::Swap(pb, step_b));
                place.swap_sites(pb, step_b);
                swaps += 1;
            }
        }
        // Bulk adds once per layer, not per SWAP.
        telemetry.add("route.layers", 1);
        telemetry.add("route.pairs", pairs.len() as u64);
        telemetry.add("route.swaps", swaps);
        telemetry.add("route.window_hits", window_hits);
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{random_pairing, Router};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn swap_count(ops: &[RouteOp]) -> usize {
        ops.iter()
            .filter(|o| matches!(o, RouteOp::Swap(_, _)))
            .count()
    }

    #[test]
    fn executes_every_pair_adjacent() {
        let mut rng = StdRng::seed_from_u64(21);
        let grid = Grid::for_qubits(9);
        let mut router = LookaheadRouter::new(grid, 9);
        for _ in 0..15 {
            let pairs = random_pairing(9, &mut rng);
            let ops = router.route_layer(&pairs);
            let gates = ops
                .iter()
                .filter(|o| matches!(o, RouteOp::Gate { .. }))
                .count();
            assert_eq!(gates, pairs.len());
            for op in &ops {
                match op {
                    RouteOp::Swap(a, b) | RouteOp::Gate { a, b, .. } => {
                        assert!(grid.adjacent(*a, *b));
                    }
                }
            }
        }
    }

    #[test]
    fn lookahead_is_no_worse_on_average() {
        let grid = Grid::for_qubits(12);
        let mut total_greedy = 0usize;
        let mut total_look = 0usize;
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pairs = random_pairing(12, &mut rng);
            let mut greedy = Router::new(grid, 12);
            let mut look = LookaheadRouter::new(grid, 12);
            total_greedy += swap_count(&greedy.route_layer(&pairs));
            total_look += swap_count(&look.route_layer(&pairs));
        }
        assert!(
            total_look <= total_greedy,
            "lookahead {total_look} > greedy {total_greedy}"
        );
    }

    #[test]
    fn already_adjacent_layer_needs_no_swaps() {
        let grid = Grid::new(2, 2);
        let mut router = LookaheadRouter::new(grid, 4);
        let ops = router.route_layer(&[(0, 1), (2, 3)]);
        assert_eq!(swap_count(&ops), 0);
    }
}
