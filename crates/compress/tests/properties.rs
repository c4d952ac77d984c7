//! Property-based tests for the compression substrate.

use lowdiff_compress::sparsify::k_for_ratio;
use lowdiff_compress::{Compressor, ErrorFeedback, RandomK, SparseGrad, TopK, UniformQuant};
use proptest::prelude::*;

fn small_grad() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Top-K keeps exactly k = max(1, round(ρn)) coordinates and their
    /// values verbatim.
    #[test]
    fn topk_keeps_exact_values(g in small_grad(), rho in 0.01f64..1.0) {
        let mut c = TopK::new(rho);
        let out = c.compress(&g);
        let s = out.as_sparse().unwrap();
        let expect_k = ((g.len() as f64 * rho).round() as usize).clamp(1, g.len());
        prop_assert_eq!(s.nnz(), expect_k);
        for (&i, &v) in s.indices.iter().zip(&s.values) {
            prop_assert_eq!(v, g[i as usize]);
        }
    }

    /// Decompressing and re-compressing is a fixed point (projection).
    #[test]
    fn topk_is_projection(g in small_grad(), rho in 0.05f64..0.9) {
        let mut c = TopK::new(rho);
        let once = c.compress(&g);
        let twice = c.compress(&once.to_dense());
        prop_assert_eq!(once, twice);
    }

    /// Kept magnitudes dominate dropped magnitudes.
    #[test]
    fn topk_dominance(g in small_grad()) {
        let mut c = TopK::new(0.25);
        let s = c.compress(&g);
        let s = s.as_sparse().unwrap();
        let kept: std::collections::HashSet<u32> = s.indices.iter().copied().collect();
        let min_kept = s.values.iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        for (i, v) in g.iter().enumerate() {
            if !kept.contains(&(i as u32)) {
                prop_assert!(v.abs() <= min_kept + 1e-6);
            }
        }
    }

    /// Sparse merge is exactly dense addition.
    #[test]
    fn merge_is_dense_addition(
        g1 in small_grad(),
        seed in 0u64..1000,
    ) {
        let n = g1.len();
        let mut rk = RandomK::new(0.3, seed);
        let a = rk.compress(&g1);
        let b = rk.compress(&g1);
        let (sa, sb) = (a.as_sparse().unwrap(), b.as_sparse().unwrap());
        let merged = sa.merge(sb).to_dense();
        let mut expect = vec![0.0f32; n];
        sa.add_into(&mut expect);
        sb.add_into(&mut expect);
        prop_assert_eq!(merged, expect);
    }

    /// Merge is commutative.
    #[test]
    fn merge_commutes(g in small_grad(), seed in 0u64..1000) {
        let mut rk = RandomK::new(0.4, seed);
        let a = rk.compress(&g);
        let b = rk.compress(&g);
        let (sa, sb) = (a.as_sparse().unwrap(), b.as_sparse().unwrap());
        prop_assert_eq!(sa.merge(sb), sb.merge(sa));
    }

    /// Quantization error is bounded by half a step.
    #[test]
    fn quant8_error_bound(g in small_grad()) {
        let mut q = UniformQuant::new(8);
        let d = q.compress(&g).to_dense();
        let lo = g.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = g.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let step = ((hi - lo) / 255.0).max(f32::EPSILON);
        for (a, b) in g.iter().zip(&d) {
            prop_assert!((a - b).abs() <= step * 0.5 + 1e-4,
                "err {} > half step {}", (a - b).abs(), step * 0.5);
        }
    }

    /// Error feedback conserves mass exactly for Top-K:
    /// sent + residual == grad + previous residual, elementwise.
    #[test]
    fn error_feedback_conserves(gs in prop::collection::vec(small_grad(), 1..4)) {
        // Use the first gradient's length for all.
        let n = gs[0].len();
        let mut ef = ErrorFeedback::new(TopK::new(0.2), n);
        let mut prev = vec![0.0f32; n];
        for g in &gs {
            let g: Vec<f32> = g.iter().cycle().take(n).copied().collect();
            let acc: Vec<f32> = g.iter().zip(&prev).map(|(a, b)| a + b).collect();
            let sent = ef.compress(&g).to_dense();
            for i in 0..n {
                prop_assert_eq!(sent[i] + ef.residual()[i], acc[i]);
            }
            prev = ef.residual().to_vec();
        }
    }

    /// The radix Top-K returns exactly the comparator oracle's indices at
    /// pool widths 1, 2 and 4, on both sides of the parallel threshold
    /// (1 << 16), for k ∈ {1, round(ρn), n−1, n, a random k, a k whose
    /// threshold falls inside a run of ties}.
    #[test]
    fn sharded_select_equals_serial(
        seed in 0u64..1000,
        shape in 0usize..4,
        above_par in any::<bool>(),
        k_pick in 0usize..6,
        k_frac in 0.0f64..1.0,
    ) {
        let n = if above_par { (1 << 16) + 123 } else { (1 << 16) - 1000 };
        let mut rng = lowdiff_util::DetRng::new(seed);
        let mut g: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
        // Three shards long (a shard is n/64), starting mid-shard.
        let run = n / 3 + 17..n / 3 + 17 + 3 * n / 64;
        match shape {
            // Ties scattered across every shard.
            0 => {
                for i in (0..n).step_by(2 + (seed % 48) as usize) {
                    g[i] = 1.25;
                }
            }
            // All-equal magnitudes, signs mixed.
            1 => {
                for (i, x) in g.iter_mut().enumerate() {
                    *x = if i % 3 == 0 { -0.75 } else { 0.75 };
                }
            }
            // One run of ties straddling shard boundaries.
            2 => g[run.clone()].fill(1.25),
            // One shared top digit: only the low 11 mantissa bits (the
            // middle digit's lowest two and the last digit) and the sign
            // differ, so every radix digit decides the result.
            _ => {
                for x in g.iter_mut() {
                    let r = rng.next_u64() as u32;
                    *x = f32::from_bits(0x3F80_0000 | (r & 0x7FF) | (r & 0x800) << 20);
                }
            }
        }
        let above = g.iter().filter(|x| x.abs() > 1.25).count();
        let k = match k_pick {
            0 => 1,
            1 => k_for_ratio(n, 0.01),
            2 => n - 1,
            3 => n,
            // Shape 2's threshold lands mid-run: half the run is kept.
            4 => above + run.len() / 2,
            _ => ((n as f64 * k_frac) as usize).clamp(1, n),
        };
        let want = TopK::select_serial(&g, k);
        for threads in [1, 2, 4] {
            let got = rayon::pool::with_num_threads(threads, || TopK::select(&g, k));
            prop_assert_eq!(&got, &want);
        }
    }

    /// ThresholdK::ratio reports the observed density of the latest call.
    #[test]
    fn threshold_ratio_is_observed_density(g in small_grad(), thr in 0.0f32..120.0) {
        let mut c = lowdiff_compress::ThresholdK::new(thr);
        let s = c.compress(&g);
        let nnz = s.as_sparse().unwrap().nnz();
        prop_assert_eq!(c.ratio(), nnz as f64 / g.len() as f64);
    }

    /// SparseGrad payload accounting is exact.
    #[test]
    fn payload_bytes_exact(n in 1usize..500, k_frac in 0.0f64..1.0) {
        let k = ((n as f64 * k_frac) as usize).min(n);
        let indices: Vec<u32> = (0..k as u32).collect();
        let values = vec![1.0f32; k];
        let s = SparseGrad::new(n, indices, values);
        prop_assert_eq!(s.payload_bytes(), 8 + k * 8);
    }
}
