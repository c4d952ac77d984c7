//! Experiment 7: storage overhead per checkpoint — Full vs Naïve DC vs
//! LowDiff (Table 3 of the paper).
//!
//! Two parts: the zoo-scale arithmetic (paper-size models) and a real
//! measured byte count from actual encoded checkpoints of a scaled model
//! (validating that the codec's sizes match the arithmetic).

use lowdiff_bench::{bytes, compare, print_table};
use lowdiff_compress::{AuxView, Compressor, TopK};
use lowdiff_model::zoo::{all_models, by_name};
use lowdiff_optim::ModelState;
use lowdiff_storage::{codec, CheckpointStore, MemoryBackend};
use lowdiff_util::DetRng;
use std::sync::Arc;

const RHO: f64 = 0.01;

fn main() {
    let models = [
        "ResNet-101",
        "VGG-19",
        "BERT-B",
        "BERT-L",
        "GPT2-S",
        "GPT2-L",
    ];
    let mut rows = Vec::new();
    for name in models {
        let spec = by_name(name).unwrap();
        rows.push(vec![
            name.to_string(),
            bytes(spec.full_ckpt_bytes().as_f64()),
            bytes(spec.naive_dc_bytes(RHO).as_f64()),
            bytes(spec.compressed_grad_bytes(RHO).as_f64()),
        ]);
    }
    print_table(
        "Exp. 7 — per-checkpoint storage overhead (rho=0.01)",
        &["model", "Full CKPT", "Naive DC", "LowDiff"],
        &rows,
    );

    // Aggregate reductions (averaged over the six models, as the paper
    // reports them).
    let mut naive_red = 0.0;
    let mut lowdiff_red = 0.0;
    for name in models {
        let s = by_name(name).unwrap();
        naive_red += 1.0 - s.naive_dc_bytes(RHO).as_f64() / s.full_ckpt_bytes().as_f64();
        lowdiff_red += 1.0 - s.compressed_grad_bytes(RHO).as_f64() / s.naive_dc_bytes(RHO).as_f64();
    }
    println!();
    compare(
        "Naive DC storage reduction vs Full",
        "34.4%",
        &format!("{:.1}%", naive_red / 6.0 * 100.0),
    );
    compare(
        "LowDiff storage reduction vs Naive DC",
        "90.5%",
        &format!("{:.1}%", lowdiff_red / 6.0 * 100.0),
    );

    // Measured bytes from real encoded artifacts (scaled model).
    println!("\n--- measured codec sizes (1M-parameter scaled model) ---");
    let psi = 1_000_000usize;
    let mut rng = DetRng::new(4);
    let mut st = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
    rng.fill_normal_f32(&mut st.opt.m, 0.1);
    rng.fill_normal_f32(&mut st.opt.v, 0.01);
    let full_bytes = codec::encode_full_checkpoint(&st, &AuxView::NONE).len();

    let mut grad = vec![0.0f32; psi];
    rng.fill_normal_f32(&mut grad, 1.0);
    let cg = TopK::new(RHO).compress(&grad);
    let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
    store
        .save_diff_batch(&[codec::DiffEntry {
            iteration: 0,
            grad: cg,
        }])
        .unwrap();
    let diff_bytes = store
        .backend()
        .get(&store.diff_keys().unwrap()[0].key)
        .unwrap()
        .len();
    println!(
        "  full checkpoint: {} (theory 3*4*psi = {})",
        bytes(full_bytes as f64),
        bytes(12.0 * psi as f64)
    );
    println!(
        "  LowDiff differential: {} (theory 8*rho*psi = {})",
        bytes(diff_bytes as f64),
        bytes(8.0 * RHO * psi as f64)
    );
    let ratio = full_bytes as f64 / diff_bytes as f64;
    println!("  measured full/diff ratio: {ratio:.0}x (theory ~150x)");
    assert!(all_models().len() == 8);
}
