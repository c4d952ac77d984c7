//! Sparsification compressors: Top-K, Random-K, Threshold.
//!
//! Top-K with ρ = 0.01 is the paper's default (§6.1). Selection is an
//! exact radix select on the bits of |value|: O(n) in at most four passes,
//! no index buffer and no comparator, with ties broken toward the lower
//! index so runs are replayable.

use crate::grad::{CompressedGrad, SparseGrad};
use crate::Compressor;
use lowdiff_util::par::chunk_ranges;
use lowdiff_util::DetRng;
use rayon::prelude::*;

/// Number of elements kept for a ratio over a dense length:
/// `max(1, round(ρ·n))` (never zero, or training would stall).
pub fn k_for_ratio(dense_len: usize, ratio: f64) -> usize {
    assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} out of [0,1]");
    if dense_len == 0 {
        return 0;
    }
    ((dense_len as f64 * ratio).round() as usize).clamp(1, dense_len)
}

/// Keep the k elements of largest magnitude.
///
/// ```
/// use lowdiff_compress::{Compressor, TopK};
///
/// let mut topk = TopK::new(0.5); // keep 50%
/// let compressed = topk.compress(&[0.1, -5.0, 0.3, 4.0]);
/// let sparse = compressed.as_sparse().unwrap();
/// assert_eq!(sparse.indices, vec![1, 3]);   // the two largest |values|
/// assert_eq!(sparse.values, vec![-5.0, 4.0]);
/// ```
#[derive(Clone, Debug)]
pub struct TopK {
    pub ratio: f64,
}

impl TopK {
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "TopK ratio {ratio}");
        Self { ratio }
    }

    /// Core selection, exposed for tests: returns the ascending indices of
    /// the k largest-|v| entries.
    ///
    /// The order is `|v|.total_cmp`, then lower index first: −0.0 and +0.0
    /// tie, and NaN (of either sign) ranks above +∞, so every input —
    /// NaN included — has exactly one answer. That order is the integer
    /// order of the key `|v|.to_bits()` (the sign bit cleared), so the
    /// selection is an exact radix select on that key: up to three
    /// histogram passes (11, 11 and 9 bits) fix the k-th largest key T and
    /// how many of its ties fit, then one pass keeps every key above T plus
    /// the lowest-indexed ties, already in ascending order.
    ///
    /// On a multi-thread pool, large inputs run the same passes in
    /// parallel over fixed shards whose boundaries depend on the input
    /// length alone. Histograms merge by integer sums and the tie quota is
    /// handed out in shard order — which is index order — so the result is
    /// the one defined above for any shard layout and any pool width.
    pub fn select(grad: &[f32], k: usize) -> Vec<u32> {
        let n = grad.len();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        if k == n {
            return (0..n as u32).collect();
        }

        /// Below this length the per-shard passes aren't worth the fan-out.
        const PAR_MIN: usize = 1 << 16;
        if n < PAR_MIN || rayon::pool::current_num_threads() == 1 {
            let (t, ties) = kth_key(k, |digit, prefix, hist| {
                histogram(grad, digit, prefix, hist)
            });
            let mut out = Vec::with_capacity(k);
            emit(grad, 0, t, ties, &mut out);
            return out;
        }

        let shards = chunk_ranges(n, rayon::MAX_CHUNKS);
        // Per-shard histograms of the latest pass. Ties are left to split
        // only after the last digit's pass, whose entry at T's low digit
        // counts each shard's keys equal to T.
        let mut local: Vec<Hist> = Vec::new();
        let (t, ties) = kth_key(k, |digit, prefix, hist| {
            local = shards
                .par_iter()
                .with_min_len(1)
                .map(|r| {
                    let mut h = [0; RADIX];
                    histogram(&grad[r.clone()], digit, prefix, &mut h);
                    h
                })
                .collect();
            for h in &local {
                for (a, b) in hist.iter_mut().zip(h) {
                    *a += b;
                }
            }
        });
        let tie_digit = (t & LAST_DIGIT_MASK) as usize;
        let mut left = ties;
        let quotas: Vec<usize> = local
            .iter()
            .map(|h| {
                let q = left.min(h[tie_digit] as usize);
                left -= q;
                q
            })
            .collect();
        shards
            .par_iter()
            .with_min_len(1)
            .zip(quotas.par_iter())
            .map(|(r, &quota)| {
                let mut out = Vec::new();
                emit(&grad[r.clone()], r.start, t, quota, &mut out);
                out
            })
            .collect::<Vec<Vec<u32>>>()
            .concat()
    }

    /// Comparison-based selection — the order [`select`](Self::select)
    /// defines, spelt out as a comparator over an index vector. Kept as the
    /// equivalence oracle for tests and the `bench_hotpath` baseline.
    #[doc(hidden)]
    pub fn select_serial(grad: &[f32], k: usize) -> Vec<u32> {
        let n = grad.len();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        if k == n {
            return (0..n as u32).collect();
        }
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let cmp = |&a: &u32, &b: &u32| {
            let (va, vb) = (grad[a as usize].abs(), grad[b as usize].abs());
            vb.total_cmp(&va).then(a.cmp(&b))
        };
        idx.select_nth_unstable_by(k - 1, cmp);
        let mut kept = idx[..k].to_vec();
        kept.sort_unstable();
        kept
    }
}

/// The radix key of `|v|`: the bits with the sign cleared. The bits of a
/// non-negative f32 order like [`f32::total_cmp`], so −0.0 and +0.0 share
/// key 0 and NaN keys lie above +∞'s.
#[inline]
fn abs_key(v: f32) -> u32 {
    v.to_bits() & 0x7FFF_FFFF
}

/// The digits of the 31-bit key, most significant first, as
/// `(shift, width)`. 11 bits at most keeps a histogram at 8 KB.
const DIGITS: [(u32, u32); 3] = [(20, 11), (9, 11), (0, 9)];
const RADIX: usize = 1 << 11;
const LAST_DIGIT_MASK: u32 = (1 << DIGITS[2].1) - 1;
type Hist = [u32; RADIX];

/// Count into `hist` the digit `(shift, width)` of every key in `grad`
/// whose bits above that digit equal `prefix`.
fn histogram(grad: &[f32], (shift, width): (u32, u32), prefix: u32, hist: &mut Hist) {
    let top = shift + width;
    if top == 31 {
        // The first digit: every key matches the empty prefix.
        for &v in grad {
            hist[(abs_key(v) >> shift) as usize] += 1;
        }
        return;
    }
    let mask = (1 << width) - 1;
    for &v in grad {
        let key = abs_key(v);
        if key >> top == prefix {
            hist[((key >> shift) & mask) as usize] += 1;
        }
    }
}

/// The k-th largest key T and how many keys equal to T the top k keep.
/// `hist_of(digit, prefix, hist)` must count, over the whole input, the
/// given digit of the keys whose higher bits equal `prefix`; each digit in
/// turn narrows the prefix toward T.
fn kth_key(k: usize, mut hist_of: impl FnMut((u32, u32), u32, &mut Hist)) -> (u32, usize) {
    let mut prefix = 0;
    // Keys still to take among those matching `prefix`; always ≥ 1 and
    // ≤ their number, so the downward walk stops inside the histogram.
    let mut need = k;
    for (shift, width) in DIGITS {
        let mut hist = [0; RADIX];
        hist_of((shift, width), prefix, &mut hist);
        let mut d = (1 << width) - 1;
        while (hist[d] as usize) < need {
            need -= hist[d] as usize;
            d -= 1;
        }
        prefix = (prefix << width) | d as u32;
        if hist[d] as usize == need {
            // The whole bucket is kept: every key from `prefix << shift`
            // up, with no ties to split (and `prefix > 0`, since k < n).
            return ((prefix << shift) - 1, 0);
        }
    }
    (prefix, need)
}

/// Push `base + i` for every `grad[i]` whose key is above `t`, and for the
/// first `ties` whose key equals `t`.
fn emit(grad: &[f32], base: usize, t: u32, mut ties: usize, out: &mut Vec<u32>) {
    for (i, &v) in grad.iter().enumerate() {
        let key = abs_key(v);
        // One mostly-untaken branch per element; the tie test runs only
        // for the few keys at or above `t`.
        if key >= t && (key > t || ties > 0) {
            ties -= usize::from(key == t);
            out.push((base + i) as u32);
        }
    }
}

impl Compressor for TopK {
    fn compress(&mut self, grad: &[f32]) -> CompressedGrad {
        let k = k_for_ratio(grad.len(), self.ratio);
        let indices = Self::select(grad, k);
        let values = indices.iter().map(|&i| grad[i as usize]).collect();
        CompressedGrad::Sparse(SparseGrad::new(grad.len(), indices, values))
    }

    fn ratio(&self) -> f64 {
        self.ratio
    }

    fn name(&self) -> &'static str {
        "topk"
    }
}

/// Keep k uniformly random elements (fresh coordinates each call).
#[derive(Debug)]
pub struct RandomK {
    pub ratio: f64,
    rng: DetRng,
}

impl RandomK {
    pub fn new(ratio: f64, seed: u64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "RandomK ratio {ratio}");
        Self {
            ratio,
            rng: DetRng::new(seed),
        }
    }
}

impl Compressor for RandomK {
    fn compress(&mut self, grad: &[f32]) -> CompressedGrad {
        let k = k_for_ratio(grad.len(), self.ratio);
        let indices = self.rng.sample_indices(grad.len(), k);
        let values = indices.iter().map(|&i| grad[i as usize]).collect();
        CompressedGrad::Sparse(SparseGrad::new(grad.len(), indices, values))
    }

    fn ratio(&self) -> f64 {
        self.ratio
    }

    fn name(&self) -> &'static str {
        "randomk"
    }
}

/// Keep every element with `|v| ≥ threshold`. Output size is data-dependent:
/// no fixed k is guaranteed up front, so `ratio()` reports the *observed*
/// density (nnz / Ψ) of the most recent `compress` call — 1.0 (the
/// conservative worst case) before anything has been compressed.
#[derive(Clone, Debug)]
pub struct ThresholdK {
    pub threshold: f32,
    /// Observed nnz/Ψ of the latest `compress` call.
    last_ratio: f64,
}

impl ThresholdK {
    pub fn new(threshold: f32) -> Self {
        assert!(threshold >= 0.0, "negative threshold");
        Self {
            threshold,
            last_ratio: 1.0,
        }
    }
}

impl Compressor for ThresholdK {
    fn compress(&mut self, grad: &[f32]) -> CompressedGrad {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in grad.iter().enumerate() {
            if v.abs() >= self.threshold {
                indices.push(i as u32);
                values.push(v);
            }
        }
        if !grad.is_empty() {
            self.last_ratio = indices.len() as f64 / grad.len() as f64;
        }
        CompressedGrad::Sparse(SparseGrad::new(grad.len(), indices, values))
    }

    fn ratio(&self) -> f64 {
        self.last_ratio
    }

    fn name(&self) -> &'static str {
        "threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_for_ratio_bounds() {
        assert_eq!(k_for_ratio(1000, 0.01), 10);
        assert_eq!(k_for_ratio(1000, 1.0), 1000);
        assert_eq!(k_for_ratio(10, 0.001), 1, "k must never be 0");
        assert_eq!(k_for_ratio(0, 0.5), 0);
    }

    #[test]
    fn topk_picks_true_top() {
        let g = vec![0.1, -5.0, 0.3, 4.0, -0.2, 2.0];
        let mut c = TopK::new(0.5); // k = 3
        let out = c.compress(&g);
        let s = out.as_sparse().unwrap();
        assert_eq!(s.indices, vec![1, 3, 5]);
        assert_eq!(s.values, vec![-5.0, 4.0, 2.0]);
    }

    #[test]
    fn topk_tie_break_is_deterministic() {
        let g = vec![1.0f32; 8];
        let a = TopK::select(&g, 3);
        let b = TopK::select(&g, 3);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 1, 2], "ties must prefer lower indices");
    }

    #[test]
    fn topk_magnitudes_dominate_dropped() {
        let mut rng = DetRng::new(77);
        let g: Vec<f32> = (0..5000).map(|_| rng.normal() as f32).collect();
        let kept = TopK::select(&g, 50);
        let min_kept = kept
            .iter()
            .map(|&i| g[i as usize].abs())
            .fold(f32::INFINITY, f32::min);
        let kept_set: std::collections::HashSet<u32> = kept.iter().copied().collect();
        let max_dropped = g
            .iter()
            .enumerate()
            .filter(|(i, _)| !kept_set.contains(&(*i as u32)))
            .map(|(_, v)| v.abs())
            .fold(0.0f32, f32::max);
        assert!(
            min_kept >= max_dropped,
            "kept {min_kept} < dropped {max_dropped}"
        );
    }

    #[test]
    fn topk_decompress_is_projection() {
        // compress(decompress(compress(g))) keeps the same support.
        let g = vec![0.5, -2.0, 0.1, 3.0];
        let mut c = TopK::new(0.5);
        let once = c.compress(&g);
        let twice = c.compress(&once.to_dense());
        assert_eq!(once, twice);
    }

    #[test]
    fn randomk_different_each_call_same_across_seeds() {
        let g = vec![1.0f32; 1000];
        let mut c1 = RandomK::new(0.05, 42);
        let mut c2 = RandomK::new(0.05, 42);
        let a1 = c1.compress(&g);
        let a2 = c1.compress(&g);
        let b1 = c2.compress(&g);
        assert_eq!(a1, b1, "same seed must replay identically");
        assert_ne!(
            a1.as_sparse().unwrap().indices,
            a2.as_sparse().unwrap().indices,
            "successive calls should sample fresh coordinates"
        );
        assert_eq!(a1.as_sparse().unwrap().nnz(), 50);
    }

    /// `select` at pool widths 1, 2 and 4 returns the comparator oracle's
    /// indices.
    fn assert_select_matches_serial(g: &[f32], k: usize) {
        let want = TopK::select_serial(g, k);
        for threads in [1, 2, 4] {
            let got = rayon::pool::with_num_threads(threads, || TopK::select(g, k));
            assert_eq!(got, want, "n={} k={k} threads={threads}", g.len());
        }
    }

    #[test]
    fn sharded_select_equals_serial_on_large_input() {
        // n ≥ PAR_MIN, so pool widths 2 and 4 take the sharded path.
        let mut rng = DetRng::new(31);
        let n = 1 << 17;
        let mut g: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
        // Inject ties so the index tie-break is exercised across shards.
        for i in (0..n).step_by(97) {
            g[i] = 0.5;
        }
        for k in [1usize, 100, n / 100, n / 2, n - 1, n] {
            assert_select_matches_serial(&g, k);
        }
    }

    #[test]
    fn select_is_total_over_nan_inf_zero_and_subnormals() {
        // Every 1000th value NaN: `partial_cmp(..).unwrap_or(Equal)` is no
        // total order on this input, and a comparator select built on it
        // kept a different index set at each pool width.
        let mut rng = DetRng::new(5);
        let n = 200_000;
        let mut g: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
        for i in (0..n).step_by(1000) {
            g[i] = f32::NAN;
        }
        assert_select_matches_serial(&g, 2000);
        // NaN ranks above every number: the top 200 are exactly the NaNs.
        let nans: Vec<u32> = (0..n as u32).step_by(1000).collect();
        assert_eq!(TopK::select(&g, nans.len()), nans);

        // Both NaN signs, ±inf, ±0 and subnormals mixed into the normals.
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            -f32::MIN_POSITIVE,
        ];
        for (i, x) in g.iter_mut().enumerate().step_by(7) {
            *x = specials[(i / 7) % specials.len()];
        }
        for k in [1, 100, 2000, n / 7, n / 2, n - 1] {
            assert_select_matches_serial(&g, k);
        }
        // Scaled by 1e-30, most normals fall to subnormals or ±0.
        let tiny: Vec<f32> = g.iter().map(|&x| x * 1e-30).collect();
        for k in [2000, n / 2] {
            assert_select_matches_serial(&tiny, k);
        }
    }

    #[test]
    fn threshold_ratio_reports_observed_density() {
        let mut c = ThresholdK::new(0.5);
        assert_eq!(c.ratio(), 1.0, "worst case before any compress");
        c.compress(&[0.1, -0.5, 0.9, -0.05]); // keeps 2 of 4
        assert_eq!(c.ratio(), 0.5);
        c.compress(&[1.0, 2.0, 3.0, 4.0]); // keeps all
        assert_eq!(c.ratio(), 1.0);
        c.compress(&[]); // empty input leaves the last observation in place
        assert_eq!(c.ratio(), 1.0);
    }

    #[test]
    fn threshold_keeps_only_large() {
        let g = vec![0.1, -0.5, 0.9, -0.05];
        let mut c = ThresholdK::new(0.5);
        let s = c.compress(&g);
        let s = s.as_sparse().unwrap();
        assert_eq!(s.indices, vec![1, 2]);
    }

    #[test]
    fn ratio_one_is_lossless() {
        let g = vec![1.0, -2.0, 0.0, 4.0];
        let mut c = TopK::new(1.0);
        assert_eq!(c.compress(&g).to_dense(), g);
    }
}
