//! Golden blobs pin the wire bytes of every record version the codec
//! reads. Round-trip tests alone cannot catch an encoder and a decoder
//! changed in lockstep; these can. Each blob under `tests/golden/` was
//! written once from the small deterministic inputs rebuilt below
//! (Ψ = 16, values from plain arithmetic so every platform rebuilds the
//! same floats). The v1 blobs come from the legacy writers, which no
//! longer exist outside [`codec::reference`].
//!
//! Three properties per blob:
//! * it decodes to its input — exactly for v1 and v2; for v3 the indices
//!   match and every value is within the configured error bound;
//! * the current writers re-encode the v2 and v3 inputs byte for byte;
//! * [`codec::reference`] reproduces the two v1 blobs byte for byte.

use lowdiff_compress::{
    AuxState, CompressedGrad, CompressorCfg, QuantGrad, QuantPolicyState, SparseGrad,
};
use lowdiff_optim::{AdamState, ModelState};
use lowdiff_storage::codec::{self, DiffEntry, QuantizedValues, ValueCodec};

const PSI: usize = 16;

const FULL_V1: &[u8] = include_bytes!("golden/full_v1.bin");
const FULL_V2: &[u8] = include_bytes!("golden/full_v2_aux.bin");
const DIFF_V1: &[u8] = include_bytes!("golden/diff_v1.bin");
const DIFF_V2: &[u8] = include_bytes!("golden/diff_v2.bin");
const DIFF_V3: &[u8] = include_bytes!("golden/diff_v3.bin");

fn golden_state() -> ModelState {
    let ramp = |a: f32, b: f32| (0..PSI).map(|i| i as f32 * a + b).collect::<Vec<f32>>();
    ModelState {
        iteration: 200,
        params: ramp(0.25, -2.0),
        opt: AdamState {
            m: ramp(-0.125, 0.5),
            v: (0..PSI).map(|i| (i * i) as f32 * 0.0625).collect(),
            t: 200,
        },
    }
}

/// All four aux sections present: residual, compressor, RNG cursor and
/// quant policy.
fn golden_aux() -> AuxState {
    AuxState {
        residual: Some((0..PSI).map(|i| i as f32 * 0.01 - 0.05).collect()),
        compressor: Some(CompressorCfg::topk(0.01)),
        rng: Some([1, 2, 3, 0xDEAD_BEEF << 20]),
        quant: Some(QuantPolicyState {
            bits: 8,
            streak: 1,
            adaptive: true,
            max_err: 1e-3,
            floor_bits: 4,
        }),
    }
}

fn golden_quant() -> CompressedGrad {
    CompressedGrad::Quant(QuantGrad {
        dense_len: PSI,
        bits: 8,
        codes: (0..PSI as u8).map(|i| i * 17).collect(),
        scale: 0.0625,
        zero: -1.0,
    })
}

/// One entry of each representation: sparse, quant (tag 1) and dense.
fn golden_diff_entries() -> Vec<DiffEntry> {
    let sparse = SparseGrad::new(PSI, vec![0, 3, 7, 15], vec![0.5, -1.25, 2.0, -0.75]);
    let dense: Vec<f32> = (0..PSI).map(|i| i as f32 * -0.5 + 3.0).collect();
    vec![
        DiffEntry {
            iteration: 200,
            grad: CompressedGrad::Sparse(sparse),
        },
        DiffEntry {
            iteration: 201,
            grad: golden_quant(),
        },
        DiffEntry {
            iteration: 202,
            grad: CompressedGrad::Dense(dense),
        },
    ]
}

/// The v3 value codec of the golden: adaptive 8-bit with a 1e-3 bound and
/// a 4-bit floor, so each entry's value range alone picks its chunk width.
fn golden_v3_codec() -> QuantizedValues {
    QuantizedValues {
        bits: 8,
        max_err: 1e-3,
        adaptive: true,
        floor_bits: 4,
    }
}

/// Four entries whose value ranges (0.01, 0.1, 10, 1000) land on chunk
/// widths 4, 8, 16 and 32 (f32 passthrough) under [`golden_v3_codec`],
/// plus a tag-1 quant record, which v3 stores losslessly.
fn golden_v3_entries() -> Vec<DiffEntry> {
    let spread = |range: f32, n: usize| -> Vec<f32> {
        (0..n)
            .map(|i| i as f32 * range / (n - 1) as f32 - range / 2.0)
            .collect()
    };
    let grads = [
        CompressedGrad::Sparse(SparseGrad::new(
            PSI,
            vec![1, 2, 4, 8, 9, 10, 12, 14],
            spread(0.01, 8),
        )),
        CompressedGrad::Dense(spread(0.1, PSI)),
        CompressedGrad::Sparse(SparseGrad::new(PSI, vec![0, 5, 6, 11, 13], spread(10.0, 5))),
        CompressedGrad::Dense(spread(1000.0, PSI)),
        golden_quant(),
    ];
    grads
        .into_iter()
        .enumerate()
        .map(|(i, grad)| DiffEntry {
            iteration: 300 + i as u64,
            grad,
        })
        .collect()
}

fn encode_v3(entries: &[DiffEntry]) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::encode_diff_batch_into(
        entries.iter().map(|e| (e.iteration, &e.grad)),
        &ValueCodec::Quantized(golden_v3_codec()),
        &mut buf,
    );
    buf
}

#[test]
fn full_goldens_decode_to_their_input() {
    let v1 = codec::decode_full_checkpoint(FULL_V1).unwrap();
    assert_eq!(v1.version, codec::VERSION);
    assert_eq!(v1.state, golden_state());
    assert!(v1.aux.is_empty() && v1.lossy);

    let v2 = codec::decode_full_checkpoint(FULL_V2).unwrap();
    assert_eq!(v2.version, codec::FULL_VERSION_V2);
    assert_eq!(v2.state, golden_state());
    assert_eq!(v2.aux, golden_aux());
    assert!(!v2.lossy);
}

#[test]
fn diff_goldens_decode_to_their_input() {
    assert_eq!(
        codec::decode_diff_batch(DIFF_V1).unwrap(),
        golden_diff_entries()
    );
    assert_eq!(
        codec::decode_diff_batch(DIFF_V2).unwrap(),
        golden_diff_entries()
    );

    let input = golden_v3_entries();
    let decoded = codec::decode_diff_batch(DIFF_V3).unwrap();
    assert_eq!(decoded.len(), input.len());
    let bound = golden_v3_codec().max_err + 1e-6;
    for (got, want) in decoded.iter().zip(&input) {
        assert_eq!(got.iteration, want.iteration);
        let (got_vals, want_vals) = match (&got.grad, &want.grad) {
            (CompressedGrad::Sparse(g), CompressedGrad::Sparse(w)) => {
                assert_eq!(g.indices, w.indices);
                assert_eq!(g.dense_len, w.dense_len);
                (&g.values, &w.values)
            }
            (CompressedGrad::Dense(g), CompressedGrad::Dense(w)) => (g, w),
            (g, w) => {
                assert_eq!(g, w, "tag-1 records are lossless");
                continue;
            }
        };
        assert_eq!(got_vals.len(), want_vals.len());
        for (g, w) in got_vals.iter().zip(want_vals) {
            assert!((g - w).abs() <= bound, "{g} vs {w}");
        }
    }
    let widths: Vec<Vec<u8>> = codec::inspect_diff_batch(DIFF_V3)
        .unwrap()
        .entries
        .into_iter()
        .map(|e| e.chunk_widths)
        .collect();
    assert_eq!(widths, [vec![4], vec![8], vec![16], vec![32], vec![]]);
}

#[test]
fn current_writers_reproduce_v2_and_v3_goldens() {
    let aux = golden_aux();
    assert_eq!(
        codec::encode_full_checkpoint(&golden_state(), &aux.view()),
        FULL_V2
    );
    assert_eq!(codec::encode_diff_batch(&golden_diff_entries()), DIFF_V2);
    assert_eq!(encode_v3(&golden_v3_entries()), DIFF_V3);
}

#[test]
fn frame_writer_reproduces_the_v2_full_golden() {
    let st = golden_state();
    let aux = golden_aux();
    let view = aux.view();
    let mut buf = Vec::new();
    let layout = codec::encode_full_frame_into(st.iteration, st.opt.t, PSI, &view, &mut buf);
    let residual = view.residual.unwrap();
    for (off, xs) in [
        (layout.params_off, &st.params[..]),
        (layout.m_off, &st.opt.m[..]),
        (layout.v_off, &st.opt.v[..]),
        (layout.residual_off.unwrap(), residual),
    ] {
        for (i, x) in xs.iter().enumerate() {
            buf[off + 4 * i..off + 4 * i + 4].copy_from_slice(&x.to_le_bytes());
        }
    }
    codec::seal_frame(&mut buf);
    assert_eq!(buf, FULL_V2);
}

#[test]
fn reference_writers_reproduce_v1_goldens() {
    assert_eq!(
        codec::reference::encode_model_state(&golden_state()),
        FULL_V1
    );
    assert_eq!(
        codec::reference::encode_diff_batch(&golden_diff_entries()),
        DIFF_V1
    );
}
