//! Property-based tests for the checkpoint codec and store.

use lowdiff_compress::{AuxView, CompressedGrad, QuantGrad, SparseGrad};
use lowdiff_optim::{AdamState, ModelState};
use lowdiff_storage::codec::{self, reference, DiffEntry, ValueCodec};
use lowdiff_storage::stripe::{self, StripeManifest};
use lowdiff_storage::{CheckpointStore, GlobalManifest, MemoryBackend, ShardSeal, StorageBackend};
use lowdiff_util::crc::crc32;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_state() -> impl Strategy<Value = ModelState> {
    (
        prop::collection::vec(-1e6f32..1e6, 1..200),
        0u64..u64::MAX / 2,
        0u64..u64::MAX / 2,
    )
        .prop_map(|(params, iteration, t)| {
            let m: Vec<f32> = params.iter().map(|x| x * 0.5).collect();
            let v: Vec<f32> = params.iter().map(|x| x.abs() * 0.1).collect();
            ModelState {
                iteration,
                params,
                opt: AdamState { m, v, t },
            }
        })
}

fn arb_grad(max_len: usize) -> impl Strategy<Value = CompressedGrad> {
    prop_oneof![
        // Sparse with valid sorted unique indices.
        (1..max_len).prop_flat_map(|n| {
            prop::collection::btree_set(0..n as u32, 0..n.min(40)).prop_map(move |idx| {
                let indices: Vec<u32> = idx.into_iter().collect();
                let values: Vec<f32> = indices.iter().map(|&i| i as f32 * 0.25 - 3.0).collect();
                CompressedGrad::Sparse(SparseGrad::new(n, indices, values))
            })
        }),
        // Dense.
        prop::collection::vec(-10.0f32..10.0, 1..60).prop_map(CompressedGrad::Dense),
        // Quantized.
        (1usize..60, 0u8..3).prop_map(|(n, w)| {
            let bits = [4u8, 8, 16][w as usize];
            let codes = match bits {
                16 => (0..n * 2).map(|i| (i * 11 % 256) as u8).collect(),
                8 => (0..n).map(|i| (i * 7 % 256) as u8).collect(),
                _ => (0..n.div_ceil(2)).map(|i| (i * 13 % 256) as u8).collect(),
            };
            CompressedGrad::Quant(QuantGrad {
                dense_len: n,
                bits,
                codes,
                scale: 0.01,
                zero: -1.0,
            })
        }),
    ]
}

fn entries_from(grads: Vec<CompressedGrad>, start: u64) -> Vec<DiffEntry> {
    grads
        .into_iter()
        .enumerate()
        .map(|(i, grad)| DiffEntry {
            iteration: start + i as u64,
            grad,
        })
        .collect()
}

/// A diff batch in the given value codec (v2 for f32, v3 quantized).
fn encode_with(entries: &[DiffEntry], codec: &ValueCodec) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::encode_diff_batch_into(
        entries.iter().map(|e| (e.iteration, &e.grad)),
        codec,
        &mut buf,
    );
    buf
}

fn quantized(bits: u8) -> ValueCodec {
    ValueCodec::Quantized(codec::QuantizedValues {
        bits,
        max_err: 0.0,
        adaptive: false,
        floor_bits: bits,
    })
}

/// Append a fresh CRC so a crafted or mutated body reaches the parser.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Feed `bytes` to every storage-record decoder. Each must return `Ok` or
/// `Err` — reaching the end of this function is the never-panic property.
/// The diff decoder and the inspector walk the same grammar, so they must
/// also agree on which bytes are valid.
fn decode_everything(bytes: &[u8]) {
    let _ = codec::decode_full_checkpoint(bytes);
    let _ = reference::decode_model_state(bytes);
    let decoded = codec::decode_diff_batch(bytes);
    let inspected = codec::inspect_diff_batch(bytes);
    assert_eq!(
        decoded.is_ok(),
        inspected.is_ok(),
        "decode and inspect disagree: {:?} vs {:?}",
        decoded.err(),
        inspected.err()
    );
    let _ = stripe::decode_manifest(bytes);
    let _ = GlobalManifest::decode(bytes);
}

fn global_manifest(seed: u64, ranks: usize) -> GlobalManifest {
    GlobalManifest {
        iteration: seed,
        psi: seed.wrapping_mul(31) % 10_000,
        num_chunks: 64,
        shards: (0..ranks as u32)
            .map(|rank| ShardSeal {
                rank,
                chunks: (rank..64).step_by(ranks.max(1)).collect(),
                len: seed ^ u64::from(rank),
                crc: rank.wrapping_mul(0x9E37_79B9),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// decode ∘ encode = identity for model states.
    #[test]
    fn model_state_roundtrip(st in arb_state()) {
        let bytes = codec::encode_full_checkpoint(&st, &AuxView::NONE);
        let back = codec::decode_full_checkpoint(&bytes).unwrap().state;
        prop_assert_eq!(st, back);
    }

    /// decode ∘ encode = identity for differential batches of any mix of
    /// representations — in the current v2 (varint-delta) layout.
    #[test]
    fn diff_batch_roundtrip(
        grads in prop::collection::vec(arb_grad(100), 0..6),
        start in 0u64..1000,
    ) {
        let entries = entries_from(grads, start);
        let bytes = codec::encode_diff_batch(&entries);
        prop_assert_eq!(codec::decode_diff_batch(&bytes).unwrap(), entries);
    }

    /// Backward compatibility: blobs written in the legacy v1 layout decode
    /// to exactly the same entries as their v2 counterparts.
    #[test]
    fn v1_diff_blobs_still_decode(
        grads in prop::collection::vec(arb_grad(100), 0..6),
        start in 0u64..1000,
    ) {
        let entries = entries_from(grads, start);
        let v1 = reference::encode_diff_batch(&entries);
        prop_assert_eq!(codec::decode_diff_batch(&v1).unwrap(), entries.clone());
        let v2 = codec::encode_diff_batch(&entries);
        prop_assert_eq!(
            codec::decode_diff_batch(&v1).unwrap(),
            codec::decode_diff_batch(&v2).unwrap()
        );
    }

    /// The reusing writers over a dirty buffer are byte-identical to a
    /// fresh encode: a longer previous encode never leaks a stale suffix.
    /// The frame writer, filled from the state and sealed, reproduces the
    /// streaming full-checkpoint writer.
    #[test]
    fn encode_into_never_leaks_stale_bytes(
        st in arb_state(),
        grads in prop::collection::vec(arb_grad(80), 0..5),
        junk in prop::collection::vec(0u8..=255, 0..4096),
    ) {
        let entries = entries_from(grads, 0);
        let mut buf = junk.clone();
        codec::encode_diff_batch_into(
            entries.iter().map(|e| (e.iteration, &e.grad)),
            &ValueCodec::F32,
            &mut buf,
        );
        prop_assert_eq!(&buf, &codec::encode_diff_batch(&entries));
        let mut buf = junk;
        let psi = st.params.len();
        let layout = codec::encode_full_frame_into(st.iteration, st.opt.t, psi, &AuxView::NONE, &mut buf);
        for (off, xs) in [(layout.params_off, &st.params), (layout.m_off, &st.opt.m), (layout.v_off, &st.opt.v)] {
            for (i, x) in xs.iter().enumerate() {
                buf[off + 4 * i..off + 4 * i + 4].copy_from_slice(&x.to_le_bytes());
            }
        }
        codec::seal_frame(&mut buf);
        prop_assert_eq!(&buf, &codec::encode_full_checkpoint(&st, &AuxView::NONE));
    }

    /// Any single-byte corruption is detected (CRC or structural error) —
    /// decode never silently returns wrong data.
    #[test]
    fn corruption_never_silent(st in arb_state(), pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let bytes = codec::encode_full_checkpoint(&st, &AuxView::NONE);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= flip;
        match codec::decode_full_checkpoint(&bad) {
            Err(_) => {} // detected: good
            Ok(decoded) => prop_assert_eq!(decoded.state, st, "silent corruption!"),
        }
    }

    /// The bulk (memcpy) decoders read the retained per-element reference
    /// encoder's v1 blobs — full checkpoints and diff batches of every
    /// representation mix — back to the reference's input, and agree with
    /// the per-element reference decoder. This is what let the bulk
    /// rewrite ship without a format version bump.
    #[test]
    fn bulk_encoding_byte_identical_to_reference(
        st in arb_state(),
        grads in prop::collection::vec(arb_grad(80), 0..5),
    ) {
        let v1 = reference::encode_model_state(&st);
        let bulk = codec::decode_full_checkpoint(&v1).unwrap().state;
        prop_assert_eq!(&bulk, &st);
        prop_assert_eq!(bulk, reference::decode_model_state(&v1).unwrap());
        let entries = entries_from(grads, 0);
        let v1 = reference::encode_diff_batch(&entries);
        prop_assert_eq!(codec::decode_diff_batch(&v1).unwrap(), entries);
    }

    /// Legacy v1 full-checkpoint blobs keep decoding, flagged lossy; v2
    /// blobs with auxiliary state roundtrip it exactly.
    #[test]
    fn full_checkpoint_versions_decode(
        st in arb_state(),
        rng_seed in 0u64..u64::MAX,
        ratio in 0.001f64..1.0,
    ) {
        let rng_words = [rng_seed, rng_seed ^ 0xABCD, rng_seed.rotate_left(17), !rng_seed];
        let v1 = reference::encode_model_state(&st);
        let fc = codec::decode_full_checkpoint(&v1).unwrap();
        prop_assert_eq!(&fc.state, &st);
        prop_assert!(fc.lossy, "v1 must be flagged lossy");
        prop_assert!(fc.aux.is_empty());

        let aux = lowdiff_compress::AuxState {
            residual: Some(st.params.iter().map(|p| p * 0.5).collect()),
            compressor: Some(lowdiff_compress::CompressorCfg::topk(ratio)),
            rng: Some(rng_words),
            quant: Some(lowdiff_compress::QuantPolicyState {
                bits: 8,
                streak: (rng_seed % 3) as u8,
                adaptive: rng_seed % 2 == 0,
                max_err: ratio as f32,
                floor_bits: 4,
            }),
        };
        let v2 = codec::encode_full_checkpoint(&st, &aux.view());
        let fc2 = codec::decode_full_checkpoint(&v2).unwrap();
        prop_assert_eq!(fc2.state, st);
        prop_assert_eq!(fc2.aux, aux);
        prop_assert!(!fc2.lossy);
    }

    /// Adversarial v1 sparse payloads (duplicate, unsorted, or out-of-range
    /// indices) must fail decoding cleanly — never construct a `SparseGrad`
    /// that would make sharded (`+=`) and dense (overwrite) recovery paths
    /// disagree, and never panic.
    #[test]
    fn v1_sparse_index_payloads_validated(
        dense_len in 1u64..100,
        indices in prop::collection::vec(0u32..120, 0..12),
    ) {
        // Hand-roll a v1 diff batch with one sparse entry carrying the raw
        // (possibly invalid) index list.
        let mut body = Vec::new();
        body.extend_from_slice(b"LDDB");
        body.extend_from_slice(&1u16.to_le_bytes()); // version 1
        body.extend_from_slice(&1u32.to_le_bytes()); // count
        body.extend_from_slice(&5u64.to_le_bytes()); // iteration
        body.push(0); // sparse tag
        body.extend_from_slice(&dense_len.to_le_bytes());
        body.extend_from_slice(&(indices.len() as u32).to_le_bytes());
        for &i in &indices {
            body.extend_from_slice(&i.to_le_bytes());
        }
        for &i in &indices {
            body.extend_from_slice(&(i as f32).to_le_bytes());
        }
        let crc = lowdiff_util::crc::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());

        let valid = indices.windows(2).all(|w| w[0] < w[1])
            && indices.last().is_none_or(|&l| u64::from(l) < dense_len);
        match codec::decode_diff_batch(&body) {
            Ok(entries) => {
                prop_assert!(valid, "invalid indices decoded successfully");
                let s = entries[0].grad.as_sparse().unwrap();
                prop_assert!(s.indices.windows(2).all(|w| w[0] < w[1]));
            }
            Err(_) => prop_assert!(!valid, "valid indices failed to decode"),
        }
    }

    /// v3 round-trip at every bit width equals the quantize∘dequantize
    /// reference transform exactly: per QUANT_CHUNK chunk, codes are
    /// `round((v - lo)/scale)` and decode is `lo + code·scale`.
    #[test]
    fn v3_roundtrip_equals_quant_reference(
        values in prop::collection::vec(-100.0f32..100.0, 1..700),
        start in 0u64..1000,
        w in 0u8..3,
    ) {
        let bits = [4u8, 8, 16][w as usize];
        let n = values.len();
        let indices: Vec<u32> = (0..n as u32).collect();
        let entries = vec![DiffEntry {
            iteration: start,
            grad: CompressedGrad::Sparse(SparseGrad::new(n, indices, values.clone())),
        }];
        let buf = encode_with(&entries, &quantized(bits));
        let back = codec::decode_diff_batch(&buf).unwrap();
        let got = &back[0].grad.as_sparse().unwrap().values;

        let mut expect = Vec::with_capacity(n);
        for chunk in values.chunks(codec::QUANT_CHUNK) {
            let lo = chunk.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let levels = ((1u32 << bits) - 1) as f32;
            let scale = if hi > lo { (hi - lo) / levels } else { 0.0 };
            for &v in chunk {
                let c = if scale == 0.0 { 0 } else {
                    (((v - lo) / scale).round() as i64).clamp(0, levels as i64) as u32
                };
                expect.push(lo + c as f32 * scale);
            }
        }
        prop_assert_eq!(got, &expect);
    }

    /// Mixed-version chains: the same entries encoded as v1, v2 and v3 all
    /// decode; v1/v2 exactly, v3 with identical structure (indices,
    /// iteration, representation) and quantized values.
    #[test]
    fn mixed_version_chain_recovers(
        grads in prop::collection::vec(arb_grad(100), 1..5),
        start in 0u64..1000,
    ) {
        let entries = entries_from(grads, start);
        let v1 = reference::encode_diff_batch(&entries);
        let v2 = codec::encode_diff_batch(&entries);
        let v3 = encode_with(&entries, &quantized(8));
        prop_assert_eq!(codec::decode_diff_batch(&v1).unwrap(), entries.clone());
        prop_assert_eq!(codec::decode_diff_batch(&v2).unwrap(), entries.clone());
        let d3 = codec::decode_diff_batch(&v3).unwrap();
        prop_assert_eq!(d3.len(), entries.len());
        for (a, b) in d3.iter().zip(&entries) {
            prop_assert_eq!(a.iteration, b.iteration);
            prop_assert_eq!(a.grad.dense_len(), b.grad.dense_len());
            match (&a.grad, &b.grad) {
                (CompressedGrad::Sparse(x), CompressedGrad::Sparse(y)) => {
                    prop_assert_eq!(&x.indices, &y.indices);
                }
                (CompressedGrad::Quant(x), CompressedGrad::Quant(y)) => {
                    // Tag-1 records are lossless in every version.
                    prop_assert_eq!(x, y);
                }
                (CompressedGrad::Dense(_), CompressedGrad::Dense(_)) => {}
                other => prop_assert!(false, "representation changed: {:?}", other),
            }
        }
    }

    /// The v3 cfg encoder with a dirty reused buffer is byte-identical to a
    /// fresh encode — pooled-buffer reuse never leaks a stale suffix.
    #[test]
    fn v3_encode_into_never_leaks_stale_bytes(
        grads in prop::collection::vec(arb_grad(80), 0..5),
        junk in prop::collection::vec(0u8..=255, 0..4096),
        w in 0u8..3,
    ) {
        let bits = [4u8, 8, 16][w as usize];
        let entries = entries_from(grads, 0);
        let q = quantized(bits);
        let mut buf = junk;
        codec::encode_diff_batch_into(entries.iter().map(|e| (e.iteration, &e.grad)), &q, &mut buf);
        prop_assert_eq!(buf, encode_with(&entries, &q));
    }

    /// Store discovery: the latest valid full checkpoint is always the one
    /// with the highest iteration among the uncorrupted writes.
    #[test]
    fn latest_valid_full_is_max_uncorrupted(
        iters in prop::collection::btree_set(0u64..500, 1..8),
        corrupt_mask in prop::collection::vec(prop::bool::ANY, 8),
    ) {
        let mem = Arc::new(MemoryBackend::new());
        let store = CheckpointStore::new(mem.clone() as Arc<dyn StorageBackend>);
        let iters: Vec<u64> = iters.into_iter().collect();
        let mut expected: Option<u64> = None;
        for (i, &iter) in iters.iter().enumerate() {
            let mut st = ModelState::new(vec![iter as f32; 4]);
            st.iteration = iter;
            store.save_full(&st).unwrap();
            if corrupt_mask[i % corrupt_mask.len()] {
                mem.truncate_blob(&format!("full-{iter:010}.ckpt"), 3);
            } else {
                expected = Some(expected.map_or(iter, |e: u64| e.max(iter)));
            }
        }
        let got = store.latest_valid_full().unwrap().map(|s| s.iteration);
        prop_assert_eq!(got, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Never panic on arbitrary bytes: raw, and behind each record's magic
    /// and a plausible version, re-sealed so the CRC lets the parser in.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        body in prop::collection::vec(0u8..=255, 0..200),
        magic in 0usize..4,
        version in 0u16..5,
    ) {
        decode_everything(&body);
        decode_everything(&seal(body.clone()));
        let mut framed = [b"LDFC", b"LDDB", b"LDSM", b"LDGM"][magic].to_vec();
        framed.extend_from_slice(&version.to_le_bytes());
        framed.extend_from_slice(&body);
        decode_everything(&seal(framed));
    }

    /// Never panic on valid LDFC/LDDB/LDSM/LDGM blobs with random bit
    /// flips and a random truncation, re-sealed with a fresh CRC so the
    /// mutation reaches the parser instead of dying at the checksum.
    #[test]
    fn decoders_never_panic_on_mutated_blobs(
        kind in 0usize..5,
        st in arb_state(),
        grads in prop::collection::vec(arb_grad(100), 0..4),
        seed in 0u64..u64::MAX,
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 0..6),
        cut in 0.0f64..1.0,
        truncate in prop::bool::ANY,
    ) {
        let entries = entries_from(grads, seed % 1000);
        let mut blob = match kind {
            0 => {
                let aux = lowdiff_compress::AuxState {
                    residual: Some(st.params.clone()),
                    compressor: Some(lowdiff_compress::CompressorCfg::topk(0.01)),
                    rng: Some([seed; 4]),
                    quant: None,
                };
                codec::encode_full_checkpoint(&st, &aux.view())
            }
            1 => reference::encode_diff_batch(&entries),
            2 => encode_with(&entries, &quantized([4, 8, 16][(seed % 3) as usize])),
            3 => {
                let data = vec![7u8; (seed % 5000) as usize];
                stripe::encode_manifest(&StripeManifest::describe(&data, 1 + (seed % 4) as usize))
            }
            _ => global_manifest(seed, 1 + (seed % 3) as usize).encode(),
        };
        blob.truncate(blob.len() - 4);
        for (at, bit) in flips {
            let i = ((blob.len() - 1) as f64 * at) as usize;
            blob[i] ^= 1 << bit;
        }
        if truncate {
            blob.truncate((blob.len() as f64 * cut) as usize);
        }
        decode_everything(&seal(blob));
    }
}

/// A CRC-valid LDDB header (magic, version, count) ahead of `rest`.
fn diff_blob(version: u16, count: u32, rest: &[u8]) -> Vec<u8> {
    let mut body = b"LDDB".to_vec();
    body.extend_from_slice(&version.to_le_bytes());
    body.extend_from_slice(&count.to_le_bytes());
    body.extend_from_slice(rest);
    seal(body)
}

/// One diff entry's prefix: iteration, tag, and a `u64` length field.
fn entry_head(tag: u8, len: u64) -> Vec<u8> {
    let mut e = 5u64.to_le_bytes().to_vec();
    e.push(tag);
    e.extend_from_slice(&len.to_le_bytes());
    e
}

/// CRC-valid blobs whose length fields claim far more than the blob holds.
/// Each must come back as `Err` from every decoder that reads its kind,
/// without attempting the allocation the field asks for (the first three
/// would request 274 GB, 17 GB and 103 GB) and without overflowing a
/// length product.
#[test]
fn crafted_length_fields_fail_cleanly_without_allocating() {
    fn assert_diff_rejected(blob: &[u8], what: &str) {
        assert!(
            matches!(
                codec::decode_diff_batch(blob),
                Err(codec::CodecError::Corrupt(_))
            ),
            "{what}"
        );
        assert!(
            matches!(
                codec::inspect_diff_batch(blob),
                Err(codec::CodecError::Corrupt(_))
            ),
            "{what}"
        );
    }

    // LDDB v2, count = u32::MAX, no entries.
    let blob = diff_blob(2, u32::MAX, &[]);
    assert_eq!(blob.len(), 14);
    assert_diff_rejected(&blob, "count = u32::MAX");

    // LDDB v2, one sparse entry with nnz = u32::MAX.
    let mut rest = entry_head(0, 100);
    rest.extend_from_slice(&u32::MAX.to_le_bytes());
    let blob = diff_blob(2, 1, &rest);
    assert_eq!(blob.len(), 35);
    assert_diff_rejected(&blob, "nnz = u32::MAX");

    // LDSM manifest, stripe count = u32::MAX.
    let mut body = b"LDSM".to_vec();
    body.extend_from_slice(&1u16.to_le_bytes());
    body.extend_from_slice(&1000u64.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    let blob = seal(body);
    assert_eq!(blob.len(), 26);
    assert!(matches!(
        stripe::decode_manifest(&blob),
        Err(codec::CodecError::Corrupt(_))
    ));

    // LDFC v2, psi = 2^62: psi × 4 overflows usize.
    let mut body = b"LDFC".to_vec();
    body.extend_from_slice(&2u16.to_le_bytes());
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&(1u64 << 62).to_le_bytes());
    body.extend_from_slice(&7u64.to_le_bytes());
    let blob = seal(body);
    assert_eq!(blob.len(), 34);
    assert!(matches!(
        codec::decode_full_checkpoint(&blob),
        Err(codec::CodecError::Corrupt(_))
    ));
    assert!(reference::decode_model_state(&blob).is_err());

    // LDDB v3, one dense entry with n = 2^62.
    let blob = diff_blob(3, 1, &entry_head(2, 1 << 62));
    assert_eq!(blob.len(), 31);
    assert_diff_rejected(&blob, "v3 dense n = 2^62");

    // LDGM, one shard claiming 2^24 chunk ids with 12 bytes left.
    let mut body = b"LDGM".to_vec();
    body.extend_from_slice(&1u16.to_le_bytes());
    body.extend_from_slice(&40u64.to_le_bytes()); // iteration
    body.extend_from_slice(&1000u64.to_le_bytes()); // psi
    body.extend_from_slice(&64u32.to_le_bytes()); // num_chunks
    body.extend_from_slice(&1u32.to_le_bytes()); // shard count
    body.extend_from_slice(&0u32.to_le_bytes()); // rank
    body.extend_from_slice(&(1u32 << 24).to_le_bytes()); // chunk count
    body.extend_from_slice(&[0; 12]);
    let err = GlobalManifest::decode(&seal(body)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
