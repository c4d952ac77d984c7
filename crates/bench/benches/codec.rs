//! Checkpoint codec benchmarks: full-state and differential-batch
//! encode/decode with CRC (the serialization on every persist path).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lowdiff_compress::{AuxView, Compressor, TopK};
use lowdiff_optim::ModelState;
use lowdiff_storage::codec;
use lowdiff_util::DetRng;
use std::hint::black_box;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.sample_size(10);
    let psi = 1_000_000;
    let mut rng = DetRng::new(8);
    let mut st = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
    rng.fill_normal_f32(&mut st.opt.m, 0.1);
    rng.fill_normal_f32(&mut st.opt.v, 0.01);

    group.throughput(Throughput::Bytes((psi * 12) as u64));
    group.bench_function("encode_full_1m", |b| {
        b.iter(|| black_box(codec::encode_full_checkpoint(&st, &AuxView::NONE)))
    });
    let bytes = codec::encode_full_checkpoint(&st, &AuxView::NONE);
    group.bench_function("decode_full_1m", |b| {
        b.iter(|| black_box(codec::decode_full_checkpoint(&bytes).unwrap()))
    });

    let mut g = vec![0.0f32; psi];
    rng.fill_normal_f32(&mut g, 1.0);
    let entries: Vec<codec::DiffEntry> = (0..8)
        .map(|k| codec::DiffEntry {
            iteration: k,
            grad: TopK::new(0.01).compress(&g),
        })
        .collect();
    group.throughput(Throughput::Elements(8));
    group.bench_function("encode_diff_batch_8", |b| {
        b.iter(|| black_box(codec::encode_diff_batch(&entries)))
    });
    let db = codec::encode_diff_batch(&entries);
    group.bench_function("decode_diff_batch_8", |b| {
        b.iter(|| black_box(codec::decode_diff_batch(&db).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
