//! The radix Top-K on real training gradients: the sparse-LM model of the
//! benchmark (`tiny_gpt(64, 128, 2)`, Ψ ≈ 412k) under Top-K 1% with error
//! feedback. Each step's accumulator `grad + residual` is selected at pool
//! widths 1 and 2 and checked against the comparator oracle.

use lowdiff_compress::sparsify::k_for_ratio;
use lowdiff_compress::{ErrorFeedback, TopK};
use lowdiff_model::builders::tiny_gpt;
use lowdiff_model::data::MarkovText;
use lowdiff_model::loss::softmax_cross_entropy;
use lowdiff_util::DetRng;

#[test]
fn radix_topk_matches_the_oracle_on_error_feedback_accumulators() {
    let mut net = tiny_gpt(64, 128, 2, 1);
    let text = MarkovText::new(64, 2);
    let n = net.num_params();
    let k = k_for_ratio(n, 0.01);
    let mut ef = ErrorFeedback::new(TopK::new(0.01), n);
    let mut rng = DetRng::new(3);
    for step in 0..4 {
        let (x, target) = text.sequence_tensor(&mut rng, 16);
        let logits = net.forward(&x);
        let (_, dlogits) = softmax_cross_entropy(&logits, &target);
        let grad = net.backward(&dlogits);

        let acc: Vec<f32> = grad.iter().zip(ef.residual()).map(|(g, r)| g + r).collect();
        let want = TopK::select_serial(&acc, k);
        for threads in [1, 2] {
            let got = rayon::pool::with_num_threads(threads, || TopK::select(&acc, k));
            assert_eq!(got, want, "step {step}, {threads} pool threads");
        }

        // The error-feedback compressor selects on the same accumulator.
        let sent = ef.compress(&grad);
        assert_eq!(sent.as_sparse().unwrap().indices, want, "step {step}");
        // A plain SGD step on the sent gradient, so later steps differ.
        let mut params = net.params_flat();
        for (p, s) in params.iter_mut().zip(sent.to_dense()) {
            *p -= 0.05 * s;
        }
        net.set_params_flat(&params);
    }
}
