//! Chunked amplitude-parallel kernel application: per-op multi-threading
//! *within* a single statevector.
//!
//! Trajectory-level parallelism ([`crate::BatchRunner`]) keeps every core
//! busy only when there are many runs; a single large register (n ≈ 20–26)
//! left all but one core idle. Here each kernel op's *compressed index
//! space* (the pair space of a 1q op, the quad space of a 2q op — see the
//! `*_range` kernels in [`ashn_ir::kernels`]) is split into a **fixed grid
//! of [`ChunkPolicy::CHUNKS_PER_OP`] chunks**, and the workspace's worker
//! pool ([`ashn_math::par::parallel_for`]) hands the chunks out by index.
//!
//! ## Determinism
//!
//! Results are **bit-identical at any worker count**, twice over:
//!
//! * the chunk grid is a pure function of the op's index space — never of
//!   the worker count or of scheduling — mirroring the fixed-chunking
//!   guarantee [`crate::BatchRunner`] pins for trajectory ensembles; and
//! * every compressed index addresses a disjoint amplitude group that is
//!   read and written exactly once with the same arithmetic as the scalar
//!   kernel, so even the partition itself cannot change a single bit.
//!
//! The determinism suite in `crates/sim/tests/chunked.rs` asserts both
//! (1/2/8 workers, and chunked-vs-scalar) on n = 16…20 registers.
//!
//! ## When it pays
//!
//! The pool's helpers are long-lived and poll briefly between ops, so one
//! op's fan-out costs microseconds: 2–14 µs for 64 empty chunks at 2
//! workers on a 2-vCPU x86-64 VM, against 80–290 µs to spawn and join two
//! threads. Parallel application is only engaged at
//! [`ChunkPolicy::MIN_PARALLEL_QUBITS`] and above, where a dense kernel
//! sweep is about a hundred microseconds or more and the split wins. Below
//! the threshold every path degrades to the scalar kernels.

use ashn_math::par::parallel_for;
use ashn_math::Complex;

/// How amplitude-parallel kernel application is resolved per run.
///
/// The policy separates *requested* workers from *engaged* workers: a
/// request of any size still runs scalar below the register threshold
/// ([`ChunkPolicy::MIN_PARALLEL_QUBITS`]), because the fan-out's fixed
/// cost would swamp the kernels. `0` requested workers means the machine
/// default ([`ashn_math::par::default_workers`], which honors the
/// `ASHN_WORKERS` environment override).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPolicy {
    workers: usize,
}

impl Default for ChunkPolicy {
    /// The auto policy: machine-default workers, engaged only at or above
    /// the register threshold.
    fn default() -> Self {
        Self { workers: 0 }
    }
}

impl ChunkPolicy {
    /// Registers below this size always run the scalar kernels. At
    /// `n = 16` a dense 2q sweep touches 2^16 amplitudes (~1 MiB), and the
    /// split pays: the scaling bench measures 88 µs per gate at 2 workers
    /// against 129 µs scalar on a 2-core box (`BENCH_scaling.json`). The
    /// threshold was set when every op spawned its own threads and has not
    /// been re-measured against the pool.
    pub const MIN_PARALLEL_QUBITS: usize = 16;

    /// Fixed number of chunks an op's compressed index space is split
    /// into, independent of the worker count (workers pull chunks from a
    /// shared counter, so stragglers do not serialize the op).
    pub const CHUNKS_PER_OP: usize = 64;

    /// Auto: machine-default workers above the threshold (same as
    /// `Default`).
    pub fn auto() -> Self {
        Self::default()
    }

    /// Always scalar, regardless of register size.
    pub fn scalar() -> Self {
        Self { workers: 1 }
    }

    /// An explicit worker count (`0` = machine default).
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
    }

    /// The worker count engaged for an `n`-qubit register: `1` below
    /// [`ChunkPolicy::MIN_PARALLEL_QUBITS`], the requested (or machine
    /// default) count at or above it.
    pub fn effective_workers(&self, n: usize) -> usize {
        if n < Self::MIN_PARALLEL_QUBITS {
            return 1;
        }
        ashn_math::par::resolve_workers(self.workers)
    }
}

/// Shared mutable view of the amplitude buffer for the pool's workers.
///
/// Chunks partition the compressed index space, and the `*_range` kernels
/// touch exactly the disjoint amplitude groups their range addresses, so
/// concurrent workers never read or write the same element.
struct SharedAmps {
    ptr: *mut Complex,
    len: usize,
}

// SAFETY: workers access disjoint elements only (see `run_chunked`'s
// contract). The raw pointer outlives every use: `parallel_for` returns only
// after every chunk has finished, and the `&mut [Complex]` it came from is
// borrowed for the whole call.
unsafe impl Sync for SharedAmps {}

/// Applies `apply(amps, lo, hi)` over the compressed index space
/// `0..space`, split into the fixed chunk grid, across `workers` threads
/// of the worker pool ([`ashn_math::par::parallel_for`]). A panic in
/// `apply` is re-raised on the caller once the other chunks have finished.
///
/// Contract: `apply` must touch exactly the amplitude groups addressed by
/// compressed indices `lo..hi`, and disjoint ranges must touch disjoint
/// amplitudes — the property every `*_range` kernel in
/// [`ashn_ir::kernels`] provides. Under that contract the result is
/// bit-identical to `apply(amps, 0, space)` for any worker count.
pub(crate) fn run_chunked(
    amps: &mut [Complex],
    space: usize,
    workers: usize,
    apply: impl Fn(&mut [Complex], usize, usize) + Sync,
) {
    if space == 0 {
        return;
    }
    let chunks = ChunkPolicy::CHUNKS_PER_OP.min(space);
    if workers.min(chunks) <= 1 {
        apply(amps, 0, space);
        return;
    }
    let shared = SharedAmps {
        ptr: amps.as_mut_ptr(),
        len: amps.len(),
    };
    // Capture the wrapper whole (not its fields): the `Sync` impl lives on
    // `SharedAmps`, and edition-2021 disjoint capture would otherwise try
    // to share the bare `*mut Complex`.
    let shared = &shared;
    parallel_for(workers, chunks, |chunk| {
        // The grid is a pure function of (space, chunks) — fixed for a
        // given op, whatever the worker count.
        let lo = chunk * space / chunks;
        let hi = (chunk + 1) * space / chunks;
        // SAFETY: ranges [lo, hi) partition 0..space across chunks, each
        // compressed index addresses an amplitude group disjoint from every
        // other index's, and `apply` honors its range — so no element is
        // aliased across workers.
        let view = unsafe { std::slice::from_raw_parts_mut(shared.ptr, shared.len) };
        apply(view, lo, hi);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_ir::kernels::apply_dense_1q_range;
    use ashn_math::{c, Mat2};

    #[test]
    fn policy_thresholds() {
        assert_eq!(ChunkPolicy::scalar().effective_workers(26), 1);
        assert_eq!(ChunkPolicy::with_workers(8).effective_workers(15), 1);
        assert_eq!(ChunkPolicy::with_workers(8).effective_workers(16), 8);
        assert!(ChunkPolicy::auto().effective_workers(16) >= 1);
    }

    #[test]
    fn chunked_application_is_bit_identical_to_scalar() {
        let n = 12usize; // small enough to be quick, large enough to chunk
        let rows = [[c(0.6, 0.2), c(0.3, -0.7)], [c(0.7, 0.3), c(-0.2, 0.6)]];
        let m = Mat2::from_fn(|r, col| rows[r][col]);
        for p in [0usize, 5, n - 1] {
            let initial: Vec<Complex> = (0..1 << n)
                .map(|i| c(i as f64, -(i as f64) * 0.5))
                .collect();
            let mut reference = initial.clone();
            apply_dense_1q_range(&mut reference, p, &m, 0, 1 << (n - 1));
            for workers in [2usize, 3, 8] {
                let mut buf = initial.clone();
                run_chunked(&mut buf, 1 << (n - 1), workers, |a, lo, hi| {
                    apply_dense_1q_range(a, p, &m, lo, hi)
                });
                for (a, b) in buf.iter().zip(reference.iter()) {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "p={p} workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panicking_kernel_reraises_on_the_caller() {
        let mut buf = vec![c(1.0, 0.0); 1 << 10];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_chunked(&mut buf, 1 << 9, 2, |_, lo, _| {
                if lo > 0 {
                    panic!("kernel fault at {lo}");
                }
            })
        }));
        let payload = caught.expect_err("the kernel panic must reach the caller");
        assert_eq!(
            ashn_math::par::describe_panic(payload.as_ref()),
            "kernel fault at 8",
            "the lowest-indexed chunk's panic is re-raised"
        );
        // The next op on the same pool still runs every chunk.
        run_chunked(&mut buf, 1 << 9, 2, |a, lo, hi| {
            for pair in lo..hi {
                a[2 * pair] = c(2.0, 0.0);
            }
        });
        assert!(buf.iter().step_by(2).all(|z| z.re == 2.0));
    }
}
