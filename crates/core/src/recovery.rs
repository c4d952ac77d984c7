//! Recovery: Algorithm 1's recovery process, plus the *parallel recovery
//! module* of §6.
//!
//! Three paths. The two exact ones take their anchor and chain from the
//! resume planner ([`ResumePlan::for_recovery`]) and differ only in the
//! replay kernel:
//!
//! * [`recover_serial`] — the paper's Algorithm 1 lines 16–24: load the
//!   latest valid full checkpoint, then replay each differential (reused
//!   compressed gradient) through Adam in iteration order. **Exact.**
//! * [`recover_sharded`] — parallel exact recovery. Adam is elementwise, so
//!   the parameter vector is partitioned across threads and every thread
//!   replays the full gradient sequence for its own slice. Same result as
//!   serial, wall-time divided by the thread count (Exp. 5).
//! * [`merge_deltas_parallel`] — the paper's pairwise tree merge (Fig.
//!   "Parallel Fast Recovery"): for *additive delta* differentials the
//!   merge is associative, so n merges collapse to ⌈log₂ n⌉ parallel depth.
//!   Used by the Naïve-DC baseline and by LowDiff's accumulate mode.

use crate::resume::{self, ResumePlan};
use lowdiff_compress::SparseGrad;
use lowdiff_optim::{Adam, ModelState};

use lowdiff_storage::CheckpointStore;
use lowdiff_util::par::chunk_ranges;
use rayon::prelude::*;
use std::io;
use std::time::Instant;

/// What a recovery did, for reports and experiments.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Iteration of the full checkpoint recovery started from.
    pub full_iteration: u64,
    /// Differentials replayed on top of it.
    pub replayed: usize,
    /// Final restored iteration.
    pub restored_iteration: u64,
    /// Wall time of the restore.
    pub elapsed: std::time::Duration,
    /// Which path ran.
    pub mode: &'static str,
}

/// Serial exact recovery (Algorithm 1, recovery process).
pub fn recover_serial(
    store: &CheckpointStore,
    adam: &Adam,
) -> io::Result<Option<(ModelState, RecoveryReport)>> {
    let start = Instant::now();
    let Some(plan) = ResumePlan::for_recovery(store)? else {
        return Ok(None);
    };
    let mut state = plan.full.state;
    let full_iter = state.iteration;
    let replayed = plan.chain.len();
    resume::replay(&mut state, adam, &plan.chain);
    let report = RecoveryReport {
        full_iteration: full_iter,
        replayed,
        restored_iteration: state.iteration,
        elapsed: start.elapsed(),
        mode: "serial",
    };
    Ok(Some((state, report)))
}

/// Sharded exact parallel recovery: partition the parameter space into
/// `shards`, replay the whole differential chain per shard concurrently.
///
/// Exactness relies on Adam being elementwise (see `lowdiff-optim`); the
/// unit tests assert bit-equality with [`recover_serial`].
pub fn recover_sharded(
    store: &CheckpointStore,
    adam: &Adam,
    shards: usize,
) -> io::Result<Option<(ModelState, RecoveryReport)>> {
    assert!(shards >= 1);
    let start = Instant::now();
    let Some(plan) = ResumePlan::for_recovery(store)? else {
        return Ok(None);
    };
    let (mut state, chain) = (plan.full.state, plan.chain);
    let full_iter = state.iteration;
    let replayed = chain.len();
    let psi = state.params.len();
    let base_t = state.opt.t;

    if !chain.is_empty() && psi > 0 {
        let ranges = chunk_ranges(psi, shards);
        // Split the mutable state into disjoint per-shard views.
        let mut param_parts = split_into_ranges(&mut state.params, &ranges);
        let mut m_parts = split_into_ranges(&mut state.opt.m, &ranges);
        let mut v_parts = split_into_ranges(&mut state.opt.v, &ranges);

        let jobs: Vec<_> = ranges
            .iter()
            .zip(param_parts.iter_mut())
            .zip(m_parts.iter_mut())
            .zip(v_parts.iter_mut())
            .map(|(((r, p), m), v)| (r.clone(), p, m, v))
            .collect();

        // Few, coarse items: force chunked execution (one shard per item)
        // past the element-count heuristic.
        jobs.into_par_iter()
            .with_min_len(1)
            .for_each(|(range, params, m, v)| {
                // Per-shard scratch gradient buffer, reused across the chain.
                let mut grad = vec![0.0f32; range.len()];
                // A shard-local Adam state view over this range.
                let mut local = lowdiff_optim::AdamState {
                    m: std::mem::take(m),
                    v: std::mem::take(v),
                    t: 0, // unused by step_range; bias correction uses step_t
                };
                for (k, entry) in chain.iter().enumerate() {
                    grad.iter_mut().for_each(|g| *g = 0.0);
                    fill_range_dense(&entry.grad, &range, &mut grad);
                    adam.step_range(
                        &mut local,
                        params,
                        &grad,
                        0..range.len(),
                        base_t + k as u64 + 1,
                    );
                }
                *m = std::mem::take(&mut local.m);
                *v = std::mem::take(&mut local.v);
            });

        // Reassemble.
        join_from_ranges(&mut state.params, param_parts, &ranges);
        join_from_ranges(&mut state.opt.m, m_parts, &ranges);
        join_from_ranges(&mut state.opt.v, v_parts, &ranges);
        state.opt.t = base_t + replayed as u64;
        state.iteration += replayed as u64;
    }

    let report = RecoveryReport {
        full_iteration: full_iter,
        replayed,
        restored_iteration: state.iteration,
        elapsed: start.elapsed(),
        mode: "sharded",
    };
    Ok(Some((state, report)))
}

/// Extract each range of `buf` into an owned Vec (so shards own disjoint
/// data with no unsafe aliasing).
fn split_into_ranges(buf: &mut [f32], ranges: &[std::ops::Range<usize>]) -> Vec<Vec<f32>> {
    ranges.iter().map(|r| buf[r.clone()].to_vec()).collect()
}

fn join_from_ranges(buf: &mut [f32], parts: Vec<Vec<f32>>, ranges: &[std::ops::Range<usize>]) {
    for (r, p) in ranges.iter().zip(parts) {
        buf[r.clone()].copy_from_slice(&p);
    }
}

/// Write the slice of `grad` covered by `range` into `out`
/// (`out.len() == range.len()`, pre-zeroed by the caller).
fn fill_range_dense(
    grad: &lowdiff_compress::CompressedGrad,
    range: &std::ops::Range<usize>,
    out: &mut [f32],
) {
    use lowdiff_compress::CompressedGrad as G;
    match grad {
        G::Sparse(s) => {
            // Indices are sorted: binary-search the window.
            let lo = s.indices.partition_point(|&i| (i as usize) < range.start);
            let hi = s.indices.partition_point(|&i| (i as usize) < range.end);
            for k in lo..hi {
                out[s.indices[k] as usize - range.start] += s.values[k];
            }
        }
        G::Dense(d) => out.copy_from_slice(&d[range.clone()]),
        G::Quant(q) => {
            // Windowed dequantize: each shard decodes only its own slice
            // instead of expanding the full Ψ-sized gradient per entry.
            lowdiff_compress::quant::dequantize_range(q, range.clone(), out);
        }
    }
}

/// Pairwise-parallel merge of additive deltas (the paper's log-n tree).
/// Returns the combined delta; exact because vector addition is
/// associative and commutative.
pub fn merge_deltas_parallel(deltas: &[SparseGrad]) -> Option<SparseGrad> {
    if deltas.is_empty() {
        return None;
    }
    let dense_len = deltas[0].dense_len;
    Some(
        deltas
            .par_iter()
            .with_min_len(1)
            .cloned()
            .reduce_with(|a, b| a.merge(&b))
            .unwrap_or_else(|| SparseGrad::new(dense_len, Vec::new(), Vec::new())),
    )
}

/// Count pairwise-merge *depth* for n differentials: the paper's claim that
/// parallel recovery reduces the merge chain from n to ⌈log₂(n+1)⌉ levels.
pub fn parallel_merge_depth(n: usize) -> u32 {
    (n as u64 + 1).next_power_of_two().trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_compress::{Compressor, TopK};
    use lowdiff_storage::codec::DiffEntry as DE;
    use lowdiff_storage::MemoryBackend;
    use lowdiff_util::DetRng;
    use std::sync::Arc;

    /// Build a store containing a full checkpoint at iteration `t0` and a
    /// chain of `n` compressed-gradient differentials, and return the
    /// "live" state that results from applying those gradients directly
    /// (what an uninterrupted training run would hold).
    fn setup(psi: usize, t0: u64, n: usize) -> (CheckpointStore, Adam, ModelState) {
        let adam = Adam::default();
        let mut rng = DetRng::new(42);
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        // Advance to t0 with dense gradients.
        for _ in 0..t0 {
            let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
            state.apply_gradient(&adam, &g);
        }
        let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
        store.save_full(&state).unwrap();

        // Continue training with compressed gradients, checkpointing each.
        let mut comp = TopK::new(0.2);
        let mut entries = Vec::new();
        for k in 0..n {
            let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
            let cg = comp.compress(&g);
            let dense = cg.to_dense(); // training updates from decompressed grad
            entries.push(DE {
                iteration: t0 + k as u64,
                grad: cg,
            });
            state.apply_gradient(&adam, &dense);
        }
        for chunk in entries.chunks(3) {
            store.save_diff_batch(chunk).unwrap();
        }
        (store, adam, state)
    }

    #[test]
    fn serial_recovery_is_bit_exact() {
        let (store, adam, live) = setup(500, 5, 9);
        let (recovered, report) = recover_serial(&store, &adam).unwrap().unwrap();
        assert_eq!(report.full_iteration, 5);
        assert_eq!(report.replayed, 9);
        assert_eq!(recovered.iteration, live.iteration);
        assert_eq!(recovered.params, live.params, "params diverged");
        assert_eq!(recovered.opt.m, live.opt.m, "adam m diverged");
        assert_eq!(recovered.opt.v, live.opt.v, "adam v diverged");
        assert_eq!(recovered.opt.t, live.opt.t);
    }

    #[test]
    fn sharded_recovery_equals_serial() {
        let (store, adam, live) = setup(1003, 3, 12);
        for shards in [1usize, 2, 4, 7] {
            let (rec, report) = recover_sharded(&store, &adam, shards).unwrap().unwrap();
            assert_eq!(rec.params, live.params, "{shards} shards: params diverged");
            assert_eq!(rec.opt.m, live.opt.m, "{shards} shards: m diverged");
            assert_eq!(rec.opt.v, live.opt.v, "{shards} shards: v diverged");
            assert_eq!(rec.iteration, live.iteration);
            assert_eq!(report.mode, "sharded");
        }
    }

    #[test]
    fn sharded_recovery_equals_serial_on_quantized_chain() {
        // The Quant arm of `fill_range_dense` windows into the quantized
        // payload; a chain of quantized differentials must shard exactly.
        let adam = Adam::default();
        let mut rng = DetRng::new(77);
        let psi = 601;
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
        store.save_full(&state).unwrap();
        for bits in [8u8, 4, 16] {
            let mut q = lowdiff_compress::quant::UniformQuant::new(bits);
            let mut entries = Vec::new();
            for _ in 0..5 {
                let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
                let cg = q.compress(&g);
                let dense = cg.to_dense();
                entries.push(DE {
                    iteration: state.iteration,
                    grad: cg,
                });
                state.apply_gradient(&adam, &dense);
            }
            store.save_diff_batch(&entries).unwrap();
        }
        let (serial, _) = recover_serial(&store, &adam).unwrap().unwrap();
        for shards in [2usize, 3, 5] {
            let (sharded, _) = recover_sharded(&store, &adam, shards).unwrap().unwrap();
            assert_eq!(sharded.params, serial.params, "{shards} shards: params");
            assert_eq!(sharded.opt.m, serial.opt.m, "{shards} shards: m");
            assert_eq!(sharded.opt.v, serial.opt.v, "{shards} shards: v");
            assert_eq!(sharded.iteration, serial.iteration);
        }
        assert_eq!(serial.params, state.params, "serial replay not bit-exact");
    }

    #[test]
    fn recovery_from_empty_store_is_none() {
        let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
        assert!(recover_serial(&store, &Adam::default()).unwrap().is_none());
        assert!(recover_sharded(&store, &Adam::default(), 4)
            .unwrap()
            .is_none());
    }

    #[test]
    fn recovery_survives_torn_tail() {
        // Corrupting the *last* diff batch loses only that batch.
        let (store, adam, _) = setup(200, 2, 9);
        let keys = store.diff_keys().unwrap();
        let last = keys.last().unwrap().key.clone();
        // Replace with garbage through the backend.
        store.backend().put(&last, b"garbage").unwrap();
        let (rec, report) = recover_serial(&store, &adam).unwrap().unwrap();
        assert_eq!(report.replayed, 6, "only the intact prefix replays");
        assert_eq!(rec.iteration, 2 + 6);
    }

    #[test]
    fn tree_merge_equals_sequential_sum() {
        let mut rng = DetRng::new(7);
        let deltas: Vec<SparseGrad> = (0..17)
            .map(|_| {
                let idx = rng.sample_indices(300, 30);
                let vals = idx.iter().map(|_| rng.normal() as f32).collect();
                SparseGrad::new(300, idx, vals)
            })
            .collect();
        let tree = merge_deltas_parallel(&deltas).unwrap();
        let seq = SparseGrad::merge_all(300, deltas.iter());
        // Algebraically identical; float addition reorders under the tree,
        // so compare within a few ulps rather than bitwise.
        let (td, sd) = (tree.to_dense(), seq.to_dense());
        assert_eq!(tree.indices, seq.indices);
        for (i, (a, b)) in td.iter().zip(&sd).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0),
                "index {i}: tree {a} vs seq {b}"
            );
        }
    }

    #[test]
    fn merge_depth_is_logarithmic() {
        assert_eq!(parallel_merge_depth(1), 1);
        assert_eq!(parallel_merge_depth(5), 3); // paper's example: 5 diffs → depth ~log
        assert_eq!(parallel_merge_depth(15), 4);
        assert!(parallel_merge_depth(1000) <= 10);
    }

    #[test]
    fn empty_delta_merge_is_none() {
        assert!(merge_deltas_parallel(&[]).is_none());
    }
}
