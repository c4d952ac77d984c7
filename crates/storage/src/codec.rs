//! Versioned binary storage records with CRC32 integrity: full checkpoints
//! (LDFC) and differential batches (LDDB), plus the one bounds-checked read
//! cursor, CRC seal and open step that every storage record decodes through
//! — the stripe manifest (LDSM, `crate::stripe`) and the global manifest
//! (LDGM, `crate::shard`) included.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! full checkpoint                  diff batch
//! ┌──────────────────────────┐     ┌──────────────────────────┐
//! │ magic "LDFC"             │     │ magic "LDDB"             │
//! │ version u16 (1 or 2)     │     │ version u16 (1, 2 or 3)  │
//! │ iteration u64            │     │ count u32                │
//! │ psi u64                  │     │ count × {                │
//! │ adam_t u64               │     │   iteration u64          │
//! │ params  f32×Ψ            │     │   tag u8 + gradient      │
//! │ adam_m  f32×Ψ            │     │ }                        │
//! │ adam_v  f32×Ψ            │     │ crc32 u32                │
//! │ — v2 aux trailer —       │     └──────────────────────────┘
//! │ aux flags u8             │
//! │ [compressor cfg]         │
//! │ [rng cursor 4×u64]       │
//! │ [residual f32×Ψ]         │
//! │ [quant policy]           │
//! │ crc32 u32                │
//! └──────────────────────────┘
//! ```
//!
//! ## Compatibility policy
//!
//! **Write the current version only; decode v1 and later.** Full
//! checkpoints are written as v2, diff batches as v2 or v3 (chosen by
//! [`ValueCodec`]). Nothing in this module writes v1: only [`reference`],
//! the per-element oracle for tests and benches, can still produce it. The
//! golden blobs committed under `tests/golden/` pin the bytes of every
//! version the decoders accept, so a writer and a reader changed in
//! lockstep fail a test instead of silently changing the format.
//!
//! ## Versions
//!
//! A **v2 full checkpoint** appends the auxiliary training state that makes
//! resume bit-exact (see `lowdiff_compress::aux`): a flags byte (bit 0 =
//! error-feedback residual, bit 1 = compressor config, bit 2 = RNG cursor,
//! bit 3 = quant policy) followed by the present sections in wire order —
//! compressor (kind u8, ratio f64, bits u8), RNG (4 × u64 state words),
//! residual (Ψ × f32), quant policy (4 × u8, max_err f32). A v1 blob
//! decodes with no aux and the *lossy* flag set: resume still works, but an
//! error-feedback run restarts its residual from zero and may diverge from
//! the uninterrupted run.
//!
//! **Diff batches** decode as any version, so mixed-version chains recover
//! cleanly. v1 stores `nnz` raw `u32` sparse indices; v2 exploits that
//! Top-K indices are strictly increasing and stores them as LEB128 varint
//! **deltas** (`idx[0], idx[1]-idx[0], …`) — at ~1% density almost every
//! delta fits one byte instead of four. Values stay bulk `f32` in v1/v2.
//! **v3** keeps the v2 indices but quantizes the value plane per
//! [`QUANT_CHUNK`]-element chunk: each chunk opens with a width byte (4, 8,
//! 16, or 32 = f32 passthrough) and, when quantized, an `lo f32, scale f32`
//! header followed by codes packed at that width (4-bit pairs
//! low-nibble-first, 8-bit bytes, 16-bit LE). Width is chosen statelessly
//! from the chunk's value range against the configured error bound (see
//! [`QuantizedValues`]), so re-encoding identical values is deterministic.
//! Already-quantized `Quant` records (tag 1) stay lossless in every version
//! — gradient-replay determinism depends on it.
//!
//! ## Decoding untrusted bytes
//!
//! Every decoder opens its blob the same way: CRC, then magic, then version
//! against the accepted set. A CRC failure (a torn write at failure time)
//! makes recovery treat the blob as absent. A blob that passes its CRC may
//! still be malformed, so every read past the header goes through the one
//! `Cursor`: element-count fields are rejected unless the remaining bytes
//! could hold that many elements, and every length × element-size product
//! is checked. A decoder returns `Err` — it never panics and never
//! allocates more than its input can back.
//!
//! ## Hot-path encoding
//!
//! `f32` arrays dominate the payload (3Ψ floats for a full checkpoint).
//! They are moved as **single bulk byte copies** on little-endian targets —
//! the in-memory representation already *is* the wire format — instead of
//! one `to_le_bytes` round per element; big-endian targets fall back to the
//! per-element loop. Sealing appends the CRC in place (no copy of the
//! payload), and decoding parses borrowed slices (no upfront copy of the
//! input). The pre-bulk per-element implementation is retained in
//! [`reference`] so `bench_hotpath` can measure the gap.

use lowdiff_compress::{
    AuxState, AuxView, CompressedGrad, CompressorCfg, CompressorKind, QuantGrad, QuantPolicyState,
    SparseGrad,
};
use lowdiff_optim::{AdamState, ModelState};
use lowdiff_util::crc::crc32;

pub const MAGIC_FULL: &[u8; 4] = b"LDFC";
pub const MAGIC_DIFF: &[u8; 4] = b"LDDB";
/// Legacy v1 of both records: decoded, never written (see [`reference`]).
pub const VERSION: u16 = 1;
/// Diff-batch v2 format: varint-delta sparse indices, raw f32 values.
pub const DIFF_VERSION_V2: u16 = 2;
/// Diff-batch v3 format: varint-delta indices as in v2, values quantized
/// per chunk (width ∈ {4, 8, 16} with per-chunk lo/scale headers, or f32
/// passthrough when the error bound demands it).
pub const DIFF_VERSION_V3: u16 = 3;
/// Current full-checkpoint write format: ModelState + auxiliary state.
pub const FULL_VERSION_V2: u16 = 2;

const FULL_VERSIONS: [u16; 2] = [VERSION, FULL_VERSION_V2];
const DIFF_VERSIONS: [u16; 3] = [VERSION, DIFF_VERSION_V2, DIFF_VERSION_V3];

/// Elements per v3 value-block chunk. Each chunk carries its own width
/// byte and (when quantized) lo/scale header, so the width adapts to the
/// local value range at an amortized cost of ≤ 9 bytes per 256 values.
pub const QUANT_CHUNK: usize = 256;

/// Aux flag bits in the v2 full-checkpoint trailer.
const AUX_FLAG_RESIDUAL: u8 = 1 << 0;
const AUX_FLAG_COMPRESSOR: u8 = 1 << 1;
const AUX_FLAG_RNG: u8 = 1 << 2;
const AUX_FLAG_QUANT_POLICY: u8 = 1 << 3;
const AUX_FLAGS_KNOWN: u8 =
    AUX_FLAG_RESIDUAL | AUX_FLAG_COMPRESSOR | AUX_FLAG_RNG | AUX_FLAG_QUANT_POLICY;

/// magic(4) + version(2) + iteration(8) + psi(8) + adam_t(8).
const FULL_HEADER_LEN: usize = 30;
/// The smallest diff entry: iteration u64 + grad tag u8.
const MIN_DIFF_ENTRY_LEN: usize = 9;

/// v3 per-chunk value quantization parameters — the codec half of the
/// adaptive precision policy. `bits` is the preferred width; when
/// `max_err > 0` a chunk whose range would violate the bound is promoted
/// up the 4 → 8 → 16 → f32 ladder until it fits, and (when `adaptive`) a
/// chunk that fits at a narrower width is demoted down to `floor_bits`.
/// The chooser is stateless — width is a pure function of the chunk's
/// value range — so re-encoding after a crash-resume is deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantizedValues {
    /// Preferred (and, with `max_err <= 0`, fixed) bit width: 4, 8 or 16.
    pub bits: u8,
    /// Hard per-element reconstruction bound; `<= 0` pins `bits`.
    pub max_err: f32,
    /// Allow demotion below `bits` when a chunk fits the bound anyway.
    pub adaptive: bool,
    /// Narrowest width demotion may reach.
    pub floor_bits: u8,
}

/// Value-plane encoding for diff batches: raw f32 (the bit-exact v2 wire
/// format) or per-chunk quantized (v3, lossy but bounded).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ValueCodec {
    /// Raw little-endian f32 values — writes `DIFF_VERSION_V2`.
    #[default]
    F32,
    /// Per-chunk quantized values — writes `DIFF_VERSION_V3`.
    Quantized(QuantizedValues),
}

/// Decode failure reasons.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    BadMagic,
    UnsupportedVersion(u16),
    Corrupt(&'static str),
    CrcMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt record: {what}"),
            CodecError::CrcMismatch => write!(f, "crc mismatch (torn or corrupted write)"),
        }
    }
}

impl std::error::Error for CodecError {}

// --- write helpers (append to a plain Vec<u8>) -----------------------------

#[inline]
fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

#[inline]
fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `xs` in little-endian order: one memcpy on LE targets.
fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    #[cfg(target_endian = "little")]
    {
        // Safety: f32 has no padding bytes and u8 has alignment 1, so
        // viewing an initialized f32 slice as bytes is always valid; on a
        // little-endian target the in-memory byte order is the wire order.
        let bytes = unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), xs.len() * 4) };
        buf.extend_from_slice(bytes);
    }
    #[cfg(target_endian = "big")]
    {
        buf.reserve(xs.len() * 4);
        for &x in xs {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Append `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation). A `u64` takes at most 10 bytes; small values take one.
#[inline]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append the CRC of everything written so far — in place, no payload
/// copy. Every storage record ends with this seal.
pub(crate) fn seal_into(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    put_u32(buf, crc);
}

// --- the read side: one cursor, one open step -------------------------------

/// Borrowing read cursor over a record body. Every getter returns
/// `Err(Corrupt)` on underflow, count fields are bounded by the bytes left
/// and length products are checked, so a record that passes its CRC but is
/// structurally malformed fails decoding instead of panicking or sizing an
/// allocation its input cannot back.
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data }
    }

    fn remaining(&self) -> usize {
        self.data.len()
    }

    /// Every record is read to its last byte: anything left is corrupt.
    pub(crate) fn finish(&self, what: &'static str) -> Result<(), CodecError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Corrupt(what))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.data.len() < n {
            return Err(CodecError::Corrupt(what));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// `n` elements of `size` bytes each; the length product is checked.
    fn take_elems(
        &mut self,
        n: usize,
        size: usize,
        what: &'static str,
    ) -> Result<&'a [u8], CodecError> {
        let len = n.checked_mul(size).ok_or(CodecError::Corrupt(what))?;
        self.take(len, what)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let (head, tail) = self
            .data
            .split_first_chunk::<N>()
            .ok_or(CodecError::Corrupt(what))?;
        self.data = tail;
        Ok(*head)
    }

    fn get_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.array::<1>(what)?[0])
    }

    fn get_u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        self.array(what).map(u16::from_le_bytes)
    }

    pub(crate) fn get_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.array(what).map(u32::from_le_bytes)
    }

    pub(crate) fn get_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn get_f32(&mut self, what: &'static str) -> Result<f32, CodecError> {
        self.array(what).map(f32::from_le_bytes)
    }

    fn get_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// A `u64` length field as a `usize`.
    fn get_len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64(what)?).map_err(|_| CodecError::Corrupt(what))
    }

    /// A `u32` element count, accepted only if the remaining bytes could
    /// hold that many elements of at least `min_size` bytes each — the
    /// bound that keeps a count field from sizing an allocation its blob
    /// cannot back.
    pub(crate) fn get_count(
        &mut self,
        min_size: usize,
        what: &'static str,
    ) -> Result<usize, CodecError> {
        let n = self.get_u32(what)? as usize;
        match n.checked_mul(min_size) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(CodecError::Corrupt(what)),
        }
    }

    /// Decode an LEB128 varint. Rejects encodings longer than 10 bytes (the
    /// `u64` maximum) so corrupt-but-CRC-valid data errors instead of
    /// reading unbounded continuation bytes.
    fn get_varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8(what)?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Corrupt("varint overflow"))
    }

    /// Bulk-decode `n` little-endian f32s.
    fn get_f32s(&mut self, n: usize, what: &'static str) -> Result<Vec<f32>, CodecError> {
        let bytes = self.take_elems(n, 4, what)?;
        let mut out = Vec::with_capacity(n);
        extend_f32s(&mut out, bytes);
        Ok(out)
    }
}

/// Append the little-endian f32s in `bytes` (a multiple of 4 long): one
/// memcpy on LE targets.
fn extend_f32s(out: &mut Vec<f32>, bytes: &[u8]) {
    let n = bytes.len() / 4;
    #[cfg(target_endian = "little")]
    {
        out.reserve(n);
        // SAFETY: `reserve` made room for n more f32s past `len`; `bytes`
        // holds n*4 initialized bytes, and copying them into the f32
        // buffer is a valid bit-reinterpretation on LE. `set_len` only
        // exposes the freshly written elements.
        unsafe {
            let dst = out.as_mut_ptr().add(out.len()).cast::<u8>();
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, n * 4);
            out.set_len(out.len() + n);
        }
    }
    #[cfg(target_endian = "big")]
    {
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }
}

/// Check the CRC trailer and return the body it covers.
fn check_crc(data: &[u8]) -> Result<&[u8], CodecError> {
    let (body, tail) = data
        .split_last_chunk::<4>()
        .ok_or(CodecError::Corrupt("too short for crc"))?;
    if crc32(body) != u32::from_le_bytes(*tail) {
        return Err(CodecError::CrcMismatch);
    }
    Ok(body)
}

/// The open step every storage record decoder starts with: the CRC, then
/// the magic, then the version against the `accepted` set. Returns the
/// version and a cursor positioned just past it.
pub(crate) fn open<'a>(
    data: &'a [u8],
    magic: &[u8; 4],
    accepted: &[u16],
) -> Result<(u16, Cursor<'a>), CodecError> {
    let mut cur = Cursor::new(check_crc(data)?);
    if cur.array::<4>("missing magic").ok().as_ref() != Some(magic) {
        return Err(CodecError::BadMagic);
    }
    let version = cur.get_u16("truncated header")?;
    if !accepted.contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    Ok((version, cur))
}

// --- full checkpoints (LDFC) ------------------------------------------------

/// A decoded full checkpoint: the model state plus whatever auxiliary
/// training state the blob carried.
#[derive(Clone, Debug, PartialEq)]
pub struct FullCheckpoint {
    pub state: ModelState,
    pub aux: AuxState,
    /// True when the blob carries *no* auxiliary state (a v1 blob, or a v2
    /// written without aux): resuming an error-feedback run from it loses
    /// the residual and may diverge from the uninterrupted run. The final
    /// word on lossiness belongs to the resume path, which knows whether
    /// error feedback is even enabled.
    pub lossy: bool,
    /// Wire version the blob was decoded from (1 or 2).
    pub version: u16,
}

/// A short byte run assembled on the stack: the full-checkpoint header
/// and the small aux sections on either side of the residual. Each is
/// defined once and then appended by the streaming writer or copied in
/// place by the frame writer, so both emit the same bytes.
struct Section<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Section<N> {
    fn new() -> Self {
        Self {
            buf: [0; N],
            len: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        self
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

fn full_header(iteration: u64, psi: usize, opt_t: u64) -> Section<FULL_HEADER_LEN> {
    let mut s = Section::new();
    s.put(MAGIC_FULL)
        .put(&FULL_VERSION_V2.to_le_bytes())
        .put(&iteration.to_le_bytes())
        .put(&(psi as u64).to_le_bytes())
        .put(&opt_t.to_le_bytes());
    s
}

/// The aux-section presence bitmask of a view (the trailer's flags byte).
fn aux_flag_bits(aux: &AuxView<'_>) -> u8 {
    let mut flags = 0u8;
    if aux.residual.is_some() {
        flags |= AUX_FLAG_RESIDUAL;
    }
    if aux.compressor.is_some() {
        flags |= AUX_FLAG_COMPRESSOR;
    }
    if aux.rng.is_some() {
        flags |= AUX_FLAG_RNG;
    }
    if aux.quant.is_some() {
        flags |= AUX_FLAG_QUANT_POLICY;
    }
    flags
}

/// The aux trailer up to the residual: flags byte, compressor config
/// (kind u8, ratio f64, bits u8), RNG cursor (4 × u64).
fn aux_head(aux: &AuxView<'_>) -> Section<43> {
    let mut s = Section::new();
    s.put(&[aux_flag_bits(aux)]);
    if let Some(c) = aux.compressor {
        s.put(&[c.kind as u8])
            .put(&c.ratio.to_le_bytes())
            .put(&[c.bits]);
    }
    if let Some(rng) = aux.rng {
        for w in rng {
            s.put(&w.to_le_bytes());
        }
    }
    s
}

/// The aux trailer after the residual: the quant policy (bits, streak,
/// adaptive, floor_bits as u8, max_err f32). Written last so
/// quantization-off checkpoints stay byte-identical to the pre-policy
/// format.
fn aux_tail(aux: &AuxView<'_>) -> Section<8> {
    let mut s = Section::new();
    if let Some(q) = aux.quant {
        s.put(&[q.bits, q.streak, u8::from(q.adaptive), q.floor_bits])
            .put(&q.max_err.to_le_bytes());
    }
    s
}

/// The one aux-trailer reader (v2 full checkpoints).
fn take_aux(cur: &mut Cursor<'_>, psi: usize) -> Result<AuxState, CodecError> {
    let mut aux = AuxState::default();
    let flags = cur.get_u8("missing aux flags")?;
    if flags & !AUX_FLAGS_KNOWN != 0 {
        return Err(CodecError::Corrupt("unknown aux flags"));
    }
    if flags & AUX_FLAG_COMPRESSOR != 0 {
        let kind = CompressorKind::from_u8(cur.get_u8("truncated compressor cfg")?)
            .ok_or(CodecError::Corrupt("unknown compressor kind"))?;
        let ratio = cur.get_f64("truncated compressor cfg")?;
        let bits = cur.get_u8("truncated compressor cfg")?;
        aux.compressor = Some(CompressorCfg { kind, ratio, bits });
    }
    if flags & AUX_FLAG_RNG != 0 {
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = cur.get_u64("truncated rng cursor")?;
        }
        aux.rng = Some(rng);
    }
    if flags & AUX_FLAG_RESIDUAL != 0 {
        aux.residual = Some(cur.get_f32s(psi, "truncated residual")?);
    }
    if flags & AUX_FLAG_QUANT_POLICY != 0 {
        let [bits, streak, adaptive, floor_bits] = cur.array("truncated quant policy")?;
        let max_err = cur.get_f32("truncated quant policy")?;
        if !matches!(bits, 4 | 8 | 16) || !matches!(floor_bits, 4 | 8 | 16) {
            return Err(CodecError::Corrupt("invalid quant policy width"));
        }
        aux.quant = Some(QuantPolicyState {
            bits,
            streak,
            adaptive: adaptive != 0,
            max_err,
            floor_bits,
        });
    }
    Ok(aux)
}

fn assert_residual_len(aux: &AuxView<'_>, psi: usize) {
    if let Some(r) = aux.residual {
        assert_eq!(r.len(), psi, "residual length must equal parameter count");
    }
}

/// Serialize a full checkpoint with auxiliary state (v2) in one streaming
/// pass — pass [`AuxView::NONE`] for a state-only checkpoint.
pub fn encode_full_checkpoint(state: &ModelState, aux: &AuxView<'_>) -> Vec<u8> {
    let psi = state.params.len();
    assert_residual_len(aux, psi);
    let mut buf = Vec::with_capacity(full_frame_layout(psi, aux).body_len + 4);
    buf.extend_from_slice(full_header(state.iteration, psi, state.opt.t).bytes());
    put_f32s(&mut buf, &state.params);
    put_f32s(&mut buf, &state.opt.m);
    put_f32s(&mut buf, &state.opt.v);
    buf.extend_from_slice(aux_head(aux).bytes());
    if let Some(r) = aux.residual {
        put_f32s(&mut buf, r);
    }
    buf.extend_from_slice(aux_tail(aux).bytes());
    seal_into(&mut buf);
    buf
}

/// Byte offsets of the large lazily-capturable regions inside a v2
/// full-checkpoint frame, as produced by [`encode_full_frame_into`]. The
/// regions sit at fixed, computable offsets (the header and every aux
/// section except the residual have static sizes), which is what lets an
/// incremental snapshot capture chunks **directly into the wire image**:
/// filling the regions and sealing yields a blob byte-identical to
/// [`encode_full_checkpoint`] on the same state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FullFrameLayout {
    /// Offset of the `params` region (`Ψ × 4` bytes, f32 LE).
    pub params_off: usize,
    /// Offset of the Adam `m` region (`Ψ × 4` bytes, f32 LE).
    pub m_off: usize,
    /// Offset of the Adam `v` region (`Ψ × 4` bytes, f32 LE).
    pub v_off: usize,
    /// Offset of the error-feedback residual region (`Ψ × 4` bytes, f32
    /// LE), when the aux view carries one.
    pub residual_off: Option<usize>,
    /// Frame length before the 4-byte CRC seal.
    pub body_len: usize,
}

/// Compute the [`FullFrameLayout`] of a v2 full checkpoint for `psi`
/// parameters and the aux sections present in `aux` (only *which* sections
/// are present matters, not their contents).
pub fn full_frame_layout(psi: usize, aux: &AuxView<'_>) -> FullFrameLayout {
    let region = psi * 4;
    let params_off = FULL_HEADER_LEN;
    let m_off = params_off + region;
    let v_off = m_off + region;
    let residual_at = v_off + region + aux_head(aux).len;
    let residual_off = aux.residual.is_some().then_some(residual_at);
    let residual_len = if aux.residual.is_some() { region } else { 0 };
    FullFrameLayout {
        params_off,
        m_off,
        v_off,
        residual_off,
        body_len: residual_at + residual_len + aux_tail(aux).len,
    }
}

/// Write an **unsealed** v2 full-checkpoint frame into `buf`: the header
/// and every small aux section (flags, compressor, RNG cursor, quant
/// policy) carry their final bytes at the offsets the returned
/// [`FullFrameLayout`] names. Once every params / m / v / residual region
/// byte has been filled (f32 LE, e.g. chunk by chunk), [`seal_frame`]
/// appends the CRC and the blob is byte-identical to
/// [`encode_full_checkpoint`] for the state the regions were filled from —
/// the incremental-snapshot byte-identity invariant, pinned by
/// `frame_fill_seal_matches_blocking_encode`.
///
/// When `buf` already holds a frame of the **same shape** (same `psi`,
/// same aux-section mix, sealed or not — e.g. a recycled capture ticket)
/// only the header and the small sections are rewritten in place and the
/// region bytes keep the previous capture's contents: skipping the
/// multi-MB placeholder memset is the point, since on the training thread
/// it is a milliseconds-scale stall for nothing. Any other buffer is
/// rebuilt with zero-filled regions. Either way the buffer has room for
/// the CRC, so sealing never reallocates.
///
/// `aux.residual` contributes only its *presence* (its length must equal
/// `psi`); the contents are captured into the region later.
pub fn encode_full_frame_into(
    iteration: u64,
    opt_t: u64,
    psi: usize,
    aux: &AuxView<'_>,
    buf: &mut Vec<u8>,
) -> FullFrameLayout {
    assert_residual_len(aux, psi);
    let layout = full_frame_layout(psi, aux);
    let head = aux_head(aux);
    let tail = aux_tail(aux);
    let head_off = layout.v_off + psi * 4;
    // The flags byte (the first of `head`) pins the section mix, and with
    // it every offset the in-place rewrite relies on.
    let reusable = (buf.len() == layout.body_len || buf.len() == layout.body_len + 4)
        && buf.get(head_off) == head.bytes().first();
    if reusable {
        buf.truncate(layout.body_len);
    } else {
        buf.clear();
        buf.reserve(layout.body_len + 4);
        buf.resize(layout.body_len, 0);
    }
    buf[..FULL_HEADER_LEN].copy_from_slice(full_header(iteration, psi, opt_t).bytes());
    buf[head_off..head_off + head.len].copy_from_slice(head.bytes());
    buf[layout.body_len - tail.len..].copy_from_slice(tail.bytes());
    layout
}

/// Seal a filled frame: append the CRC32 of everything written so far.
pub fn seal_frame(buf: &mut Vec<u8>) {
    seal_into(buf);
}

/// Deserialize a full checkpoint with its auxiliary state, validating
/// CRC, magic and version. Accepts v1 (no aux, lossy) and v2.
pub fn decode_full_checkpoint(data: &[u8]) -> Result<FullCheckpoint, CodecError> {
    let (version, mut cur) = open(data, MAGIC_FULL, &FULL_VERSIONS)?;
    let iteration = cur.get_u64("truncated header")?;
    let psi = cur.get_len("truncated header")?;
    let adam_t = cur.get_u64("truncated header")?;
    let params = cur.get_f32s(psi, "truncated f32 array")?;
    let m = cur.get_f32s(psi, "truncated f32 array")?;
    let v = cur.get_f32s(psi, "truncated f32 array")?;
    let aux = if version >= FULL_VERSION_V2 {
        take_aux(&mut cur, psi)?
    } else {
        AuxState::default()
    };
    cur.finish("trailing bytes")?;
    let lossy = aux.is_empty();
    Ok(FullCheckpoint {
        state: ModelState {
            iteration,
            params,
            opt: AdamState { m, v, t: adam_t },
        },
        aux,
        lossy,
        version,
    })
}

// --- diff batches (LDDB) ----------------------------------------------------

/// One differential entry: the iteration it advances *from* (applying it to
/// `M_t` yields `M_{t+1}`) and the reused compressed gradient.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffEntry {
    pub iteration: u64,
    pub grad: CompressedGrad,
}

/// Number of quantization levels at `width` bits.
fn chunk_levels(width: u8) -> f32 {
    ((1u32 << width) - 1) as f32
}

/// Pick the v3 chunk width for a value range — stateless, so re-encoding
/// the same values always yields the same bytes. Walks the 4 → 8 → 16
/// ladder from the narrowest width the config admits and returns the
/// first one whose worst-case step error meets the bound; 32 means f32
/// passthrough (exact).
fn chunk_value_width(lo: f32, hi: f32, q: &QuantizedValues) -> u8 {
    if q.max_err <= 0.0 {
        return q.bits;
    }
    let narrowest = if q.adaptive {
        q.floor_bits.min(q.bits)
    } else {
        q.bits
    };
    for width in [4u8, 8, 16] {
        if width < narrowest {
            continue;
        }
        if (hi - lo) / (2.0 * chunk_levels(width)) <= q.max_err {
            return width;
        }
    }
    32
}

/// Encode `values` as a v3 value block: `QUANT_CHUNK`-sized chunks, each
/// prefixed by its width byte and (unless f32 passthrough) a lo/scale
/// header, codes packed at the chunk's width.
fn put_value_block(buf: &mut Vec<u8>, values: &[f32], q: &QuantizedValues) {
    for chunk in values.chunks(QUANT_CHUNK) {
        let lo = chunk.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let width = chunk_value_width(lo, hi, q);
        put_u8(buf, width);
        if width == 32 {
            put_f32s(buf, chunk);
            continue;
        }
        let scale = if hi > lo {
            (hi - lo) / chunk_levels(width)
        } else {
            0.0
        };
        put_f32(buf, lo);
        put_f32(buf, scale);
        let code = |v: f32| -> u32 {
            if scale == 0.0 {
                0
            } else {
                (((v - lo) / scale).round() as i64).clamp(0, chunk_levels(width) as i64) as u32
            }
        };
        match width {
            4 => {
                let mut it = chunk.iter();
                while let Some(&a) = it.next() {
                    let qa = code(a) as u8;
                    let qb = it.next().map(|&b| code(b) as u8).unwrap_or(0);
                    put_u8(buf, qa | (qb << 4));
                }
            }
            8 => {
                for &v in chunk {
                    put_u8(buf, code(v) as u8);
                }
            }
            16 => {
                for &v in chunk {
                    put_u16(buf, code(v) as u16);
                }
            }
            _ => unreachable!(),
        }
    }
}

/// The value plane in the batch's codec: bulk f32 (v2) or a v3 block.
fn put_values(buf: &mut Vec<u8>, values: &[f32], codec: &ValueCodec) {
    match codec {
        ValueCodec::F32 => put_f32s(buf, values),
        ValueCodec::Quantized(q) => put_value_block(buf, values, q),
    }
}

/// Sparse indices as LEB128 varint deltas (v2 and v3). Relies on the
/// `SparseGrad` invariant that indices are strictly increasing (Top-K
/// sorts before constructing), so every delta after the first is ≥ 1.
fn put_index_deltas(buf: &mut Vec<u8>, indices: &[u32]) {
    debug_assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "delta encoding requires strictly increasing indices"
    );
    let mut prev = 0u32;
    for &idx in indices {
        put_varint(buf, u64::from(idx - prev));
        prev = idx;
    }
}

/// One gradient record. `Quant` records (tag 1) are already quantized and
/// stay lossless in every version, so gradient-replay determinism
/// survives a quantized value codec.
fn put_compressed(buf: &mut Vec<u8>, g: &CompressedGrad, codec: &ValueCodec) {
    match g {
        CompressedGrad::Sparse(s) => {
            put_u8(buf, 0);
            put_u64(buf, s.dense_len as u64);
            put_u32(buf, s.nnz() as u32);
            put_index_deltas(buf, &s.indices);
            put_values(buf, &s.values, codec);
        }
        CompressedGrad::Quant(q) => {
            put_u8(buf, 1);
            put_u64(buf, q.dense_len as u64);
            put_u8(buf, q.bits);
            put_f32(buf, q.scale);
            put_f32(buf, q.zero);
            put_u32(buf, q.codes.len() as u32);
            buf.extend_from_slice(&q.codes);
        }
        CompressedGrad::Dense(d) => {
            put_u8(buf, 2);
            put_u64(buf, d.len() as u64);
            put_values(buf, d, codec);
        }
    }
}

/// Serialize a batch of differential checkpoints (`C^B` in §4.2: one write
/// I/O for `BS` reused gradients) into `buf`, reusing its allocation.
/// [`ValueCodec::F32`] writes v2, [`ValueCodec::Quantized`] writes v3. The
/// entries are borrowed — a buffer of `Arc<CompressedGrad>` handles is
/// serialized straight from the shared payloads, never cloned first — and
/// the buffer is cleared first, so stale bytes from a previous longer
/// encode never survive.
pub fn encode_diff_batch_into<'a>(
    entries: impl ExactSizeIterator<Item = (u64, &'a CompressedGrad)>,
    codec: &ValueCodec,
    buf: &mut Vec<u8>,
) {
    buf.clear();
    buf.extend_from_slice(MAGIC_DIFF);
    put_u16(
        buf,
        match codec {
            ValueCodec::F32 => DIFF_VERSION_V2,
            ValueCodec::Quantized(_) => DIFF_VERSION_V3,
        },
    );
    put_u32(buf, entries.len() as u32);
    for (iteration, grad) in entries {
        put_u64(buf, iteration);
        put_compressed(buf, grad, codec);
    }
    seal_into(buf);
}

/// Serialize a diff batch with f32 values (v2) into a fresh buffer.
pub fn encode_diff_batch(entries: &[DiffEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_diff_batch_into(
        entries.iter().map(|e| (e.iteration, &e.grad)),
        &ValueCodec::F32,
        &mut buf,
    );
    buf
}

/// Value-plane bookkeeping an inspecting walk asks for: the stored bytes
/// and, for v3 blocks, each chunk's width in stream order.
#[derive(Default)]
struct ValuePlane {
    bytes: usize,
    widths: Vec<u8>,
}

/// Decode a v3 value block of `n` elements, dequantizing each chunk into
/// plain f32s (`v = lo + code · scale`) so downstream consumers see a
/// standard sparse/dense gradient. Records each chunk's width into
/// `widths` when asked.
fn take_value_block(
    cur: &mut Cursor<'_>,
    n: usize,
    mut widths: Option<&mut Vec<u8>>,
) -> Result<Vec<f32>, CodecError> {
    // Every element costs at least half a byte (a 4-bit code).
    if n.div_ceil(2) > cur.remaining() {
        return Err(CodecError::Corrupt("truncated value block"));
    }
    let mut out = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 0 {
        let len = remaining.min(QUANT_CHUNK);
        let width = cur.get_u8("truncated value block")?;
        if let Some(w) = widths.as_deref_mut() {
            w.push(width);
        }
        if width == 32 {
            extend_f32s(&mut out, cur.take_elems(len, 4, "truncated value chunk")?);
            remaining -= len;
            continue;
        }
        if !matches!(width, 4 | 8 | 16) {
            return Err(CodecError::Corrupt("unknown value-block width"));
        }
        let lo = cur.get_f32("truncated value chunk")?;
        let scale = cur.get_f32("truncated value chunk")?;
        let dequant = |c: u16| lo + f32::from(c) * scale;
        match width {
            4 => {
                let bytes = cur.take(len.div_ceil(2), "truncated value chunk")?;
                for i in 0..len {
                    let byte = bytes[i / 2];
                    let c = if i % 2 == 0 { byte & 0x0F } else { byte >> 4 };
                    out.push(dequant(c.into()));
                }
            }
            8 => {
                let bytes = cur.take(len, "truncated value chunk")?;
                out.extend(bytes.iter().map(|&c| dequant(c.into())));
            }
            _ => {
                let bytes = cur.take_elems(len, 2, "truncated value chunk")?;
                out.extend(
                    bytes
                        .chunks_exact(2)
                        .map(|p| dequant(u16::from_le_bytes([p[0], p[1]]))),
                );
            }
        }
        remaining -= len;
    }
    Ok(out)
}

/// A value plane of `n` elements in the blob's version: bulk f32 before
/// v3, a value block from v3 on.
fn take_values(
    cur: &mut Cursor<'_>,
    n: usize,
    version: u16,
    mut plane: Option<&mut ValuePlane>,
) -> Result<Vec<f32>, CodecError> {
    let before = cur.remaining();
    let values = if version >= DIFF_VERSION_V3 {
        take_value_block(cur, n, plane.as_deref_mut().map(|p| &mut p.widths))?
    } else {
        cur.get_f32s(n, "truncated f32 values")?
    };
    if let Some(p) = plane {
        p.bytes += before - cur.remaining();
    }
    Ok(values)
}

/// `nnz` sparse indices in the blob's version — raw `u32`s in v1, varint
/// deltas from v2 on — validated strictly increasing and below
/// `dense_len`, so untrusted bytes fail here instead of panicking in
/// `SparseGrad::new`.
fn take_indices(
    cur: &mut Cursor<'_>,
    nnz: usize,
    dense_len: usize,
    version: u16,
) -> Result<Vec<u32>, CodecError> {
    let mut indices = Vec::with_capacity(nnz);
    if version < DIFF_VERSION_V2 {
        let bytes = cur.take_elems(nnz, 4, "truncated sparse indices")?;
        indices.extend(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        if !indices.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::Corrupt("non-increasing sparse index"));
        }
    } else {
        let mut acc: u64 = 0;
        for i in 0..nnz {
            let delta = cur.get_varint("truncated sparse index delta")?;
            if i > 0 && delta == 0 {
                return Err(CodecError::Corrupt("non-increasing sparse index"));
            }
            acc = acc
                .checked_add(delta)
                .ok_or(CodecError::Corrupt("sparse index overflow"))?;
            let idx =
                u32::try_from(acc).map_err(|_| CodecError::Corrupt("sparse index out of range"))?;
            indices.push(idx);
        }
    }
    if indices.last().is_some_and(|&l| l as usize >= dense_len) {
        return Err(CodecError::Corrupt("sparse index out of range"));
    }
    Ok(indices)
}

/// The per-tag gradient grammar, shared by decode and inspect.
fn take_compressed(
    cur: &mut Cursor<'_>,
    version: u16,
    mut plane: Option<&mut ValuePlane>,
) -> Result<CompressedGrad, CodecError> {
    match cur.get_u8("missing grad tag")? {
        0 => {
            let dense_len = cur.get_len("truncated sparse grad")?;
            // Every index takes at least one byte (a single-byte varint).
            let nnz = cur.get_count(1, "truncated sparse grad")?;
            let indices = take_indices(cur, nnz, dense_len, version)?;
            let values = take_values(cur, nnz, version, plane)?;
            Ok(CompressedGrad::Sparse(SparseGrad::new(
                dense_len, indices, values,
            )))
        }
        1 => {
            let dense_len = cur.get_len("truncated quant grad")?;
            let bits = cur.get_u8("truncated quant grad")?;
            let scale = cur.get_f32("truncated quant grad")?;
            let zero = cur.get_f32("truncated quant grad")?;
            let n = cur.get_u32("truncated quant grad")? as usize;
            let codes = cur.take(n, "truncated quant codes")?.to_vec();
            if let Some(p) = plane.as_deref_mut() {
                p.bytes += n;
            }
            Ok(CompressedGrad::Quant(QuantGrad {
                dense_len,
                bits,
                codes,
                scale,
                zero,
            }))
        }
        2 => {
            let n = cur.get_len("truncated dense grad")?;
            Ok(CompressedGrad::Dense(take_values(cur, n, version, plane)?))
        }
        _ => Err(CodecError::Corrupt("unknown grad tag")),
    }
}

/// The one LDDB walk behind [`decode_diff_batch`] and
/// [`inspect_diff_batch`]: the open step and version gate, then `count`
/// entries through the per-tag grammar, then the trailing-bytes check.
struct DiffReader<'a> {
    cur: Cursor<'a>,
    version: u16,
    left: usize,
}

impl<'a> DiffReader<'a> {
    fn open(data: &'a [u8]) -> Result<Self, CodecError> {
        let (version, mut cur) = open(data, MAGIC_DIFF, &DIFF_VERSIONS)?;
        let left = cur.get_count(MIN_DIFF_ENTRY_LEN, "truncated header")?;
        Ok(Self { cur, version, left })
    }

    /// The next entry, or `None` once every entry is read and the body is
    /// exhausted.
    fn next(&mut self, plane: Option<&mut ValuePlane>) -> Result<Option<DiffEntry>, CodecError> {
        if self.left == 0 {
            self.cur.finish("trailing bytes")?;
            return Ok(None);
        }
        self.left -= 1;
        let iteration = self.cur.get_u64("truncated diff entry")?;
        let grad = take_compressed(&mut self.cur, self.version, plane)?;
        Ok(Some(DiffEntry { iteration, grad }))
    }
}

/// Deserialize a differential batch, accepting v1, v2 and v3 layouts
/// (mixed-version chains decode entry by entry, so recovery can replay a
/// chain whose blobs span codec upgrades).
pub fn decode_diff_batch(data: &[u8]) -> Result<Vec<DiffEntry>, CodecError> {
    let mut reader = DiffReader::open(data)?;
    let mut out = Vec::with_capacity(reader.left);
    while let Some(entry) = reader.next(None)? {
        out.push(entry);
    }
    Ok(out)
}

/// Per-entry metadata surfaced by [`inspect_diff_batch`].
#[derive(Clone, Debug, PartialEq)]
pub struct DiffEntryInspect {
    pub iteration: u64,
    /// Gradient representation: "sparse", "quant" or "dense".
    pub repr: &'static str,
    /// Dense length Ψ of the gradient this entry reconstructs.
    pub dense_len: usize,
    /// Number of values actually stored (nnz for sparse, Ψ otherwise).
    pub stored_values: usize,
    /// v3 per-chunk widths in stream order (empty for v1/v2 entries and
    /// tag-1 quant records, whose width lives in the record itself).
    pub chunk_widths: Vec<u8>,
}

/// Structural summary of a diff-batch blob — what `lowdiff-ctl inspect`
/// prints.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffInspect {
    /// Wire version (1, 2 or 3).
    pub version: u16,
    /// Total blob size including header and CRC.
    pub encoded_len: usize,
    /// Bytes spent on the value plane as stored (incl. chunk headers).
    pub value_bytes: usize,
    /// Bytes the same values would take as raw f32 (4 × stored_values).
    pub raw_value_bytes: usize,
    pub entries: Vec<DiffEntryInspect>,
}

/// Summarize a diff-batch blob: wire version, per-entry representation and
/// (for v3) per-chunk bit widths, plus stored-vs-raw value-plane byte
/// counts for a compression ratio. Walks the blob exactly as
/// [`decode_diff_batch`] does, so it accepts and rejects the same bytes; a
/// torn blob fails with [`CodecError::CrcMismatch`].
pub fn inspect_diff_batch(data: &[u8]) -> Result<DiffInspect, CodecError> {
    let mut reader = DiffReader::open(data)?;
    let mut inspect = DiffInspect {
        version: reader.version,
        encoded_len: data.len(),
        value_bytes: 0,
        raw_value_bytes: 0,
        entries: Vec::with_capacity(reader.left),
    };
    loop {
        let mut plane = ValuePlane::default();
        let Some(entry) = reader.next(Some(&mut plane))? else {
            return Ok(inspect);
        };
        let (repr, stored_values) = match &entry.grad {
            CompressedGrad::Sparse(s) => ("sparse", s.nnz()),
            CompressedGrad::Quant(q) => ("quant", q.dense_len),
            CompressedGrad::Dense(d) => ("dense", d.len()),
        };
        inspect.value_bytes += plane.bytes;
        inspect.raw_value_bytes += stored_values * 4;
        inspect.entries.push(DiffEntryInspect {
            iteration: entry.iteration,
            repr,
            dense_len: entry.grad.dense_len(),
            stored_values,
            chunk_widths: plane.widths,
        });
    }
}

pub mod reference {
    //! The pre-bulk, per-element codec, retained verbatim in behavior:
    //! element-at-a-time `to_le_bytes` loops, a full payload copy at seal
    //! time, and a full input copy before decoding — exactly the costs the
    //! bulk codec removed. It writes the legacy v1 layouts, which the
    //! codec proper only decodes, so tests use it to fabricate v1 blobs;
    //! the v1 golden blobs pin its bytes, property tests assert the bulk
    //! decoders read its output, and `bench_hotpath` times the gap.

    use super::{CodecError, DiffEntry, MAGIC_DIFF, MAGIC_FULL, VERSION};
    use lowdiff_compress::CompressedGrad;
    use lowdiff_optim::ModelState;
    use lowdiff_util::crc::crc32;

    fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
        buf.reserve(xs.len() * 4);
        for &x in xs {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn put_u32s(buf: &mut Vec<u8>, xs: &[u32]) {
        buf.reserve(xs.len() * 4);
        for &x in xs {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Seal with the old copy semantics (`BytesMut::to_vec`).
    fn seal_copy(buf: &mut Vec<u8>) -> Vec<u8> {
        let crc = crc32(buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.clone()
    }

    /// Per-element serialization of a full checkpoint (v1).
    pub fn encode_model_state(state: &ModelState) -> Vec<u8> {
        let psi = state.params.len();
        let mut buf = Vec::with_capacity(34 + psi * 12);
        buf.extend_from_slice(MAGIC_FULL);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&state.iteration.to_le_bytes());
        buf.extend_from_slice(&(psi as u64).to_le_bytes());
        buf.extend_from_slice(&state.opt.t.to_le_bytes());
        put_f32s(&mut buf, &state.params);
        put_f32s(&mut buf, &state.opt.m);
        put_f32s(&mut buf, &state.opt.v);
        seal_copy(&mut buf)
    }

    /// Per-element deserialization of a v1 full checkpoint, with the old
    /// upfront input copy.
    pub fn decode_model_state(data: &[u8]) -> Result<ModelState, CodecError> {
        // The pre-bulk decoder copied the input into an owned buffer first.
        let owned = data.to_vec();
        let (_, mut cur) = super::open(&owned, MAGIC_FULL, &[VERSION])?;
        let iteration = cur.get_u64("truncated header")?;
        let psi = cur.get_len("truncated header")?;
        let adam_t = cur.get_u64("truncated header")?;
        let read_f32s = |cur: &mut super::Cursor<'_>, n: usize| -> Result<Vec<f32>, CodecError> {
            let mut out = Vec::with_capacity(n.min(cur.remaining() / 4));
            for _ in 0..n {
                out.push(cur.get_f32("truncated f32 array")?);
            }
            Ok(out)
        };
        let params = read_f32s(&mut cur, psi)?;
        let m = read_f32s(&mut cur, psi)?;
        let v = read_f32s(&mut cur, psi)?;
        cur.finish("trailing bytes")?;
        Ok(ModelState {
            iteration,
            params,
            opt: lowdiff_optim::AdamState { m, v, t: adam_t },
        })
    }

    /// Per-element serialization of a differential batch (v1: raw `u32`
    /// sparse indices).
    pub fn encode_diff_batch(entries: &[DiffEntry]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MAGIC_DIFF);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in entries {
            buf.extend_from_slice(&e.iteration.to_le_bytes());
            match &e.grad {
                CompressedGrad::Sparse(s) => {
                    buf.push(0);
                    buf.extend_from_slice(&(s.dense_len as u64).to_le_bytes());
                    buf.extend_from_slice(&(s.nnz() as u32).to_le_bytes());
                    put_u32s(&mut buf, &s.indices);
                    put_f32s(&mut buf, &s.values);
                }
                CompressedGrad::Quant(q) => {
                    buf.push(1);
                    buf.extend_from_slice(&(q.dense_len as u64).to_le_bytes());
                    buf.push(q.bits);
                    buf.extend_from_slice(&q.scale.to_le_bytes());
                    buf.extend_from_slice(&q.zero.to_le_bytes());
                    buf.extend_from_slice(&(q.codes.len() as u32).to_le_bytes());
                    buf.extend_from_slice(&q.codes);
                }
                CompressedGrad::Dense(d) => {
                    buf.push(2);
                    buf.extend_from_slice(&(d.len() as u64).to_le_bytes());
                    put_f32s(&mut buf, d);
                }
            }
        }
        seal_copy(&mut buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_util::DetRng;

    fn demo_state(psi: usize, seed: u64) -> ModelState {
        let mut rng = DetRng::new(seed);
        let mut st = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        st.iteration = 1234;
        st.opt.t = 1234;
        rng.fill_normal_f32(&mut st.opt.m, 0.1);
        rng.fill_normal_f32(&mut st.opt.v, 0.01);
        st
    }

    /// A state-only (aux-less) v2 full checkpoint.
    fn encode_state(st: &ModelState) -> Vec<u8> {
        encode_full_checkpoint(st, &AuxView::NONE)
    }

    fn decode_state(bytes: &[u8]) -> Result<ModelState, CodecError> {
        decode_full_checkpoint(bytes).map(|fc| fc.state)
    }

    fn encode_with(entries: &[DiffEntry], codec: &ValueCodec) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_diff_batch_into(
            entries.iter().map(|e| (e.iteration, &e.grad)),
            codec,
            &mut buf,
        );
        buf
    }

    #[test]
    fn model_state_roundtrip() {
        let st = demo_state(1000, 1);
        let bytes = encode_state(&st);
        let back = decode_state(&bytes).unwrap();
        assert_eq!(st, back);
    }

    #[test]
    fn full_v2_roundtrips_aux_state() {
        let st = demo_state(300, 21);
        let residual: Vec<f32> = (0..300).map(|i| i as f32 * 0.25 - 10.0).collect();
        let aux = AuxState {
            residual: Some(residual),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([7, 8, 9, u64::MAX]),
            quant: Some(QuantPolicyState {
                bits: 8,
                streak: 2,
                adaptive: true,
                max_err: 0.05,
                floor_bits: 4,
            }),
        };
        let bytes = encode_full_checkpoint(&st, &aux.view());
        let fc = decode_full_checkpoint(&bytes).unwrap();
        assert_eq!(fc.state, st);
        assert_eq!(fc.aux, aux);
        assert!(!fc.lossy);
        assert_eq!(fc.version, FULL_VERSION_V2);
    }

    #[test]
    fn full_v2_partial_aux_sections() {
        let st = demo_state(40, 22);
        for aux in [
            AuxState {
                compressor: Some(CompressorCfg::quant(8)),
                ..AuxState::default()
            },
            AuxState {
                rng: Some([1, 2, 3, 4]),
                ..AuxState::default()
            },
            AuxState {
                residual: Some(vec![0.5; 40]),
                ..AuxState::default()
            },
            AuxState {
                quant: Some(QuantPolicyState {
                    bits: 16,
                    streak: 0,
                    adaptive: false,
                    max_err: 0.0,
                    floor_bits: 4,
                }),
                ..AuxState::default()
            },
        ] {
            let bytes = encode_full_checkpoint(&st, &aux.view());
            let fc = decode_full_checkpoint(&bytes).unwrap();
            assert_eq!(fc.aux, aux);
            assert!(!fc.lossy);
        }
        // No aux at all: decodes fine, flagged lossy.
        let bytes = encode_state(&st);
        let fc = decode_full_checkpoint(&bytes).unwrap();
        assert!(fc.aux.is_empty());
        assert!(fc.lossy);
    }

    #[test]
    fn frame_fill_seal_matches_blocking_encode() {
        // The incremental-capture byte-identity invariant at the codec
        // layer: framing, filling the regions from the state, and sealing
        // must reproduce the blocking encoder's blob exactly.
        let fill = |buf: &mut Vec<u8>, off: usize, xs: &[f32]| {
            for (i, &x) in xs.iter().enumerate() {
                buf[off + i * 4..off + i * 4 + 4].copy_from_slice(&x.to_le_bytes());
            }
        };
        for (psi, seed, aux) in [
            (300, 31, AuxState::default()),
            (
                301,
                32,
                AuxState {
                    residual: Some((0..301).map(|i| i as f32 * 0.5 - 7.0).collect()),
                    compressor: Some(CompressorCfg::topk(0.01)),
                    rng: Some([7, 8, 9, u64::MAX]),
                    quant: Some(QuantPolicyState {
                        bits: 8,
                        streak: 2,
                        adaptive: true,
                        max_err: 0.05,
                        floor_bits: 4,
                    }),
                },
            ),
            (
                64,
                33,
                AuxState {
                    rng: Some([1, 2, 3, 4]),
                    quant: Some(QuantPolicyState {
                        bits: 16,
                        streak: 0,
                        adaptive: false,
                        max_err: 0.0,
                        floor_bits: 4,
                    }),
                    ..AuxState::default()
                },
            ),
        ] {
            let st = demo_state(psi, seed);
            let view = aux.view();
            let blocking = encode_full_checkpoint(&st, &view);
            let mut framed = Vec::new();
            let layout = encode_full_frame_into(st.iteration, st.opt.t, psi, &view, &mut framed);
            assert_eq!(layout, full_frame_layout(psi, &view));
            assert_eq!(framed.len(), layout.body_len);
            fill(&mut framed, layout.params_off, &st.params);
            fill(&mut framed, layout.m_off, &st.opt.m);
            fill(&mut framed, layout.v_off, &st.opt.v);
            if let Some(r) = view.residual {
                fill(&mut framed, layout.residual_off.unwrap(), r);
            } else {
                assert!(layout.residual_off.is_none());
            }
            seal_frame(&mut framed);
            assert_eq!(framed, blocking, "frame+fill+seal diverged at psi={psi}");
        }
    }

    #[test]
    fn reframe_reuses_matching_buffers_and_rebuilds_others() {
        let fill = |buf: &mut Vec<u8>, off: usize, xs: &[f32]| {
            for (i, &x) in xs.iter().enumerate() {
                buf[off + i * 4..off + i * 4 + 4].copy_from_slice(&x.to_le_bytes());
            }
        };
        let aux = AuxState {
            residual: Some((0..200).map(|i| i as f32 * 0.25).collect()),
            compressor: Some(CompressorCfg::topk(0.02)),
            rng: Some([4, 5, 6, 7]),
            quant: None,
        };
        let view = aux.view();
        let complete = |st: &ModelState, buf: &mut Vec<u8>, layout: FullFrameLayout| {
            fill(buf, layout.params_off, &st.params);
            fill(buf, layout.m_off, &st.opt.m);
            fill(buf, layout.v_off, &st.opt.v);
            fill(buf, layout.residual_off.unwrap(), view.residual.unwrap());
            seal_frame(buf);
        };
        // First frame from scratch, filled and sealed.
        let st1 = demo_state(200, 41);
        let mut buf = Vec::new();
        let layout = encode_full_frame_into(st1.iteration, st1.opt.t, 200, &view, &mut buf);
        complete(&st1, &mut buf, layout);
        assert_eq!(buf, encode_full_checkpoint(&st1, &view));

        // Reframe over the sealed buffer: in-place fast path — no
        // reallocation, stale region bytes — must still seal to exactly
        // the blocking encoder's output once refilled.
        let mut st2 = demo_state(200, 42);
        st2.iteration = 1234;
        st2.opt.t = 1234;
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        let layout = encode_full_frame_into(st2.iteration, st2.opt.t, 200, &view, &mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr, "fast path must not reallocate");
        complete(&st2, &mut buf, layout);
        assert_eq!(buf, encode_full_checkpoint(&st2, &view));

        // A different section mix (flags mismatch at the same offset
        // math) falls back to the full rebuild and still round-trips.
        let bare = AuxView {
            residual: None,
            compressor: Some(CompressorCfg::topk(0.02)),
            rng: Some([4, 5, 6, 7]),
            quant: None,
        };
        let st3 = demo_state(200, 43);
        let layout = encode_full_frame_into(st3.iteration, st3.opt.t, 200, &bare, &mut buf);
        assert!(layout.residual_off.is_none());
        fill(&mut buf, layout.params_off, &st3.params);
        fill(&mut buf, layout.m_off, &st3.opt.m);
        fill(&mut buf, layout.v_off, &st3.opt.v);
        seal_frame(&mut buf);
        assert_eq!(buf, encode_full_checkpoint(&st3, &bare));
    }

    #[test]
    fn legacy_v1_full_decodes_as_lossy() {
        let st = demo_state(128, 23);
        let v1 = reference::encode_model_state(&st);
        let fc = decode_full_checkpoint(&v1).unwrap();
        assert_eq!(fc.state, st);
        assert!(fc.aux.is_empty(), "v1 carries no aux");
        assert!(fc.lossy, "v1 must be flagged lossy");
        assert_eq!(fc.version, VERSION);
    }

    #[test]
    fn full_v2_rejects_unknown_aux_flags() {
        let st = demo_state(8, 24);
        let mut bytes = encode_state(&st);
        bytes.truncate(bytes.len() - 4); // strip crc
        let flags_at = bytes.len() - 1; // empty aux → flags is the last body byte
        bytes[flags_at] = 0x80;
        let crc = lowdiff_util::crc::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_full_checkpoint(&bytes).unwrap_err(),
            CodecError::Corrupt("unknown aux flags")
        ));
    }

    #[test]
    fn v1_sparse_rejects_unsorted_or_out_of_range_indices() {
        // Fabricate v1 blobs with invalid index payloads: decode must
        // return Corrupt, never reach the SparseGrad::new panic.
        let good = vec![DiffEntry {
            iteration: 1,
            grad: CompressedGrad::Sparse(SparseGrad::new(10, vec![2, 5], vec![1.0, 2.0])),
        }];
        let bytes = reference::encode_diff_batch(&good);
        // Layout: magic(4) version(2) count(4) iter(8) tag(1) dense_len(8)
        // nnz(4) → first u32 index at offset 31.
        for bad_indices in [[5u32, 2], [5, 5], [2, 10]] {
            let mut b = bytes.clone();
            b.truncate(b.len() - 4);
            b[31..35].copy_from_slice(&bad_indices[0].to_le_bytes());
            b[35..39].copy_from_slice(&bad_indices[1].to_le_bytes());
            let crc = lowdiff_util::crc::crc32(&b);
            b.extend_from_slice(&crc.to_le_bytes());
            let err = decode_diff_batch(&b).unwrap_err();
            assert!(
                matches!(err, CodecError::Corrupt(_)),
                "{bad_indices:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn crc_detects_flips_anywhere() {
        let st = demo_state(64, 2);
        let bytes = encode_state(&st);
        for pos in [0usize, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = decode_state(&bad).unwrap_err();
            assert!(
                matches!(err, CodecError::CrcMismatch | CodecError::BadMagic),
                "flip at {pos} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let st = demo_state(64, 3);
        let bytes = encode_state(&st);
        // A torn write: only the first half hit the disk.
        let torn = &bytes[..bytes.len() / 2];
        assert!(decode_state(torn).is_err());
    }

    #[test]
    fn diff_batch_roundtrip_all_representations() {
        let entries = vec![
            DiffEntry {
                iteration: 10,
                grad: CompressedGrad::Sparse(SparseGrad::new(
                    100,
                    vec![1, 50, 99],
                    vec![0.5, -1.0, 2.0],
                )),
            },
            DiffEntry {
                iteration: 11,
                grad: CompressedGrad::Dense(vec![1.0, 2.0, 3.0]),
            },
            DiffEntry {
                iteration: 12,
                grad: CompressedGrad::Quant(QuantGrad {
                    dense_len: 5,
                    bits: 8,
                    codes: vec![0, 64, 128, 192, 255],
                    scale: 0.01,
                    zero: -1.0,
                }),
            },
        ];
        let bytes = encode_diff_batch(&entries);
        assert_eq!(decode_diff_batch(&bytes).unwrap(), entries);
        let v1 = reference::encode_diff_batch(&entries);
        assert_eq!(
            decode_diff_batch(&v1).unwrap(),
            entries,
            "legacy v1 blobs must keep decoding"
        );
    }

    #[test]
    fn v2_sparse_smaller_than_v1() {
        // 1% density over 100k elements: gaps ≈ 100 fit one varint byte.
        let mut rng = DetRng::new(77);
        let n = 100_000usize;
        let mut indices: Vec<u32> = (0..n as u32).collect();
        // Deterministic subsample of ~1%.
        indices.retain(|&i| {
            let _ = i;
            rng.next_u64().is_multiple_of(100)
        });
        let values: Vec<f32> = indices.iter().map(|&i| i as f32 * 0.5).collect();
        let entries = vec![DiffEntry {
            iteration: 42,
            grad: CompressedGrad::Sparse(SparseGrad::new(n, indices, values)),
        }];
        let v2 = encode_diff_batch(&entries);
        let v1 = reference::encode_diff_batch(&entries);
        assert_eq!(decode_diff_batch(&v2).unwrap(), entries);
        assert!(
            (v2.len() as f64) < 0.7 * v1.len() as f64,
            "v2 ({}) should be well under v1 ({})",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn encode_into_reuses_allocation_without_stale_bytes() {
        // Encode a long batch into a buffer, then a strictly shorter one
        // into the same buffer: the result must be byte-identical to a
        // fresh encode (no stale suffix), reusing the same allocation.
        let long = vec![DiffEntry {
            iteration: 1,
            grad: CompressedGrad::Dense(vec![1.0; 4096]),
        }];
        let short = vec![DiffEntry {
            iteration: 2,
            grad: CompressedGrad::Sparse(SparseGrad::new(64, vec![3, 9], vec![0.5, -0.5])),
        }];
        let mut buf = encode_diff_batch(&long);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        let pairs = short.iter().map(|e| (e.iteration, &e.grad));
        encode_diff_batch_into(pairs, &ValueCodec::F32, &mut buf);
        assert_eq!(buf, encode_diff_batch(&short), "stale bytes leaked");
        assert_eq!(buf.capacity(), cap, "allocation was not reused");
        assert_eq!(buf.as_ptr(), ptr, "allocation was not reused");
    }

    #[test]
    fn v2_varint_rejects_corrupt_deltas() {
        // A zero delta after the first index means non-increasing indices;
        // decode must fail cleanly rather than panic in SparseGrad::new.
        let entries = vec![DiffEntry {
            iteration: 7,
            grad: CompressedGrad::Sparse(SparseGrad::new(10, vec![1, 2], vec![1.0, 2.0])),
        }];
        let mut bytes = encode_diff_batch(&entries);
        bytes.truncate(bytes.len() - 4); // strip crc
                                         // Layout: magic(4) version(2) count(4) iter(8) tag(1) dense_len(8)
                                         // nnz(4) → first delta byte at offset 31, second at 32.
        bytes[32] = 0; // delta 1 → 0
        let crc = lowdiff_util::crc::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = decode_diff_batch(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn empty_diff_batch() {
        let bytes = encode_diff_batch(&[]);
        assert!(decode_diff_batch(&bytes).unwrap().is_empty());
    }

    #[test]
    fn wrong_magic_rejected() {
        let st = demo_state(8, 4);
        let full = encode_state(&st);
        assert_eq!(decode_diff_batch(&full).unwrap_err(), CodecError::BadMagic);
        let diff = encode_diff_batch(&[]);
        assert_eq!(decode_state(&diff).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn malformed_but_crc_valid_record_errors_cleanly() {
        // Body claims Ψ larger than the payload actually carries; the CRC
        // is valid (we seal after corrupting the length), so decoding must
        // fail structurally, not panic.
        let st = demo_state(16, 6);
        let mut bytes = encode_state(&st);
        bytes.truncate(bytes.len() - 4); // strip crc
        bytes[14] = 0xFF; // blow up the psi field (offset 4+2+8 = 14)
        let crc = lowdiff_util::crc::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = decode_state(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn encoded_size_matches_payload_accounting() {
        // Size ≈ header + 3Ψ·4 + crc; the cost model assumes 3Ψ·4 dominates.
        let st = demo_state(10_000, 5);
        let bytes = encode_state(&st);
        let payload = st.payload_bytes();
        assert!(bytes.len() >= payload);
        assert!(bytes.len() < payload + 64, "header overhead too large");
    }

    // --- v3 value quantization ---------------------------------------------

    fn fixed_q(bits: u8) -> ValueCodec {
        ValueCodec::Quantized(QuantizedValues {
            bits,
            max_err: 0.0,
            adaptive: false,
            floor_bits: bits,
        })
    }

    fn sparse_entries(n: usize, seed: u64) -> Vec<DiffEntry> {
        let mut rng = DetRng::new(seed);
        let mut indices: Vec<u32> = (0..n as u32).collect();
        indices.retain(|_| rng.next_u64().is_multiple_of(100));
        let values: Vec<f32> = indices.iter().map(|_| rng.normal() as f32).collect();
        vec![DiffEntry {
            iteration: 9,
            grad: CompressedGrad::Sparse(SparseGrad::new(n, indices, values)),
        }]
    }

    /// Reference quantize∘dequantize at a fixed width over QUANT_CHUNK
    /// chunks — the exact transform the v3 round-trip must equal.
    fn quant_roundtrip_reference(values: &[f32], bits: u8) -> Vec<f32> {
        let mut out = Vec::with_capacity(values.len());
        for chunk in values.chunks(QUANT_CHUNK) {
            let lo = chunk.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let levels = ((1u32 << bits) - 1) as f32;
            let scale = if hi > lo { (hi - lo) / levels } else { 0.0 };
            for &v in chunk {
                let c = if scale == 0.0 {
                    0
                } else {
                    (((v - lo) / scale).round() as i64).clamp(0, levels as i64) as u32
                };
                out.push(lo + c as f32 * scale);
            }
        }
        out
    }

    #[test]
    fn v3_roundtrip_equals_quantize_dequantize_reference() {
        for bits in [4u8, 8, 16] {
            let entries = sparse_entries(60_000, u64::from(bits));
            let buf = encode_with(&entries, &fixed_q(bits));
            let back = decode_diff_batch(&buf).unwrap();
            let (orig, got) = match (&entries[0].grad, &back[0].grad) {
                (CompressedGrad::Sparse(a), CompressedGrad::Sparse(b)) => (a, b),
                other => panic!("representation changed: {other:?}"),
            };
            assert_eq!(got.indices, orig.indices, "indices must survive exactly");
            assert_eq!(
                got.values,
                quant_roundtrip_reference(&orig.values, bits),
                "{bits}-bit decode must equal the reference transform bit-for-bit"
            );
        }
    }

    #[test]
    fn v3_dense_roundtrip_all_widths() {
        let mut rng = DetRng::new(31);
        // Deliberately not a multiple of QUANT_CHUNK: exercises the tail.
        let dense: Vec<f32> = (0..QUANT_CHUNK * 2 + 37)
            .map(|_| rng.normal() as f32)
            .collect();
        for bits in [4u8, 8, 16] {
            let entries = vec![DiffEntry {
                iteration: 3,
                grad: CompressedGrad::Dense(dense.clone()),
            }];
            let buf = encode_with(&entries, &fixed_q(bits));
            let back = decode_diff_batch(&buf).unwrap();
            match &back[0].grad {
                CompressedGrad::Dense(d) => {
                    assert_eq!(d, &quant_roundtrip_reference(&dense, bits))
                }
                other => panic!("representation changed: {other:?}"),
            }
        }
    }

    #[test]
    fn v3_quant_records_stay_lossless() {
        // Tag-1 (already quantized) records must be stored losslessly in
        // v3 — replay determinism depends on exact code recovery.
        let entries = vec![DiffEntry {
            iteration: 12,
            grad: CompressedGrad::Quant(QuantGrad {
                dense_len: 5,
                bits: 8,
                codes: vec![0, 64, 128, 192, 255],
                scale: 0.01,
                zero: -1.0,
            }),
        }];
        let buf = encode_with(&entries, &fixed_q(4));
        assert_eq!(decode_diff_batch(&buf).unwrap(), entries);
    }

    #[test]
    fn mixed_version_chain_decodes() {
        // A chain whose blobs span v1, v2 and v3 — exactly what recovery
        // sees after an in-place codec upgrade mid-run.
        let e1 = sparse_entries(10_000, 41);
        let e2 = sparse_entries(10_000, 42);
        let e3 = sparse_entries(10_000, 43);
        let b1 = reference::encode_diff_batch(&e1);
        let b2 = encode_diff_batch(&e2);
        let b3 = encode_with(&e3, &fixed_q(8));
        assert_eq!(decode_diff_batch(&b1).unwrap(), e1);
        assert_eq!(decode_diff_batch(&b2).unwrap(), e2);
        let d3 = decode_diff_batch(&b3).unwrap();
        assert_eq!(d3.len(), 1);
        assert_eq!(
            d3[0].grad.as_sparse().unwrap().indices,
            e3[0].grad.as_sparse().unwrap().indices
        );
    }

    #[test]
    fn v3_encode_into_reuses_allocation_without_stale_bytes() {
        let long = vec![DiffEntry {
            iteration: 1,
            grad: CompressedGrad::Dense(vec![1.0; 4096]),
        }];
        let short = sparse_entries(2_000, 17);
        let q = fixed_q(8);
        let mut buf = encode_with(&long, &q);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        encode_diff_batch_into(short.iter().map(|e| (e.iteration, &e.grad)), &q, &mut buf);
        assert_eq!(buf, encode_with(&short, &q), "stale bytes leaked");
        assert_eq!(buf.capacity(), cap, "allocation was not reused");
        assert_eq!(buf.as_ptr(), ptr, "allocation was not reused");
    }

    #[test]
    fn v3_unknown_chunk_width_rejected() {
        let entries = sparse_entries(3_000, 23);
        let buf = encode_with(&entries, &fixed_q(8));
        // First value chunk's width byte sits right after the varint index
        // plane; find it by inspecting, then corrupt it.
        let nnz = entries[0].grad.as_sparse().unwrap().nnz();
        let mut body = buf[..buf.len() - 4].to_vec();
        // Walk to the width byte: magic(4) ver(2) count(4) iter(8) tag(1)
        // dense_len(8) nnz(4), then nnz varints (all single-byte gaps here
        // would be fragile — scan instead).
        let mut cur = Cursor::new(&body[31..]);
        for _ in 0..nnz {
            cur.get_varint("x").unwrap();
        }
        let width_at = body.len() - cur.remaining();
        assert_eq!(body[width_at], 8, "located byte must be the width tag");
        body[width_at] = 7; // not a legal width
        let crc = lowdiff_util::crc::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let err = decode_diff_batch(&body).unwrap_err();
        assert_eq!(err, CodecError::Corrupt("unknown value-block width"));
        assert_eq!(
            inspect_diff_batch(&body).unwrap_err(),
            CodecError::Corrupt("unknown value-block width")
        );
    }

    #[test]
    fn v3_8bit_much_smaller_than_v2() {
        // The headline number: ~5 bytes/stored element in v2 (varint + f32)
        // vs ~2 in v3@8 (varint + code + amortized chunk headers).
        let entries = sparse_entries(200_000, 3);
        let v2 = encode_diff_batch(&entries);
        let v3 = encode_with(&entries, &fixed_q(8));
        assert!(
            (v3.len() as f64) < 0.5 * v2.len() as f64,
            "v3@8 ({}) should be well under half of v2 ({})",
            v3.len(),
            v2.len()
        );
    }

    #[test]
    fn v3_adaptive_chunk_promotion_meets_bound() {
        // One calm chunk and one wild chunk: the calm one narrows, the wild
        // one is promoted (possibly to f32 passthrough), and every decoded
        // element honors max_err.
        let mut values = vec![0.0f32; QUANT_CHUNK * 2];
        let mut rng = DetRng::new(8);
        for v in values.iter_mut().take(QUANT_CHUNK) {
            *v = rng.normal() as f32 * 1e-4; // calm
        }
        for v in values.iter_mut().skip(QUANT_CHUNK) {
            *v = rng.normal() as f32 * 1e4; // wild
        }
        let indices: Vec<u32> = (0..values.len() as u32).collect();
        let entries = vec![DiffEntry {
            iteration: 0,
            grad: CompressedGrad::Sparse(SparseGrad::new(values.len(), indices, values.clone())),
        }];
        let max_err = 1e-3f32;
        let codec = ValueCodec::Quantized(QuantizedValues {
            bits: 8,
            max_err,
            adaptive: true,
            floor_bits: 4,
        });
        let buf = encode_with(&entries, &codec);
        let info = inspect_diff_batch(&buf).unwrap();
        assert_eq!(info.version, DIFF_VERSION_V3);
        let widths = &info.entries[0].chunk_widths;
        assert_eq!(widths.len(), 2);
        assert!(
            widths[0] < widths[1],
            "calm chunk must use a narrower width"
        );
        let back = decode_diff_batch(&buf).unwrap();
        let decoded = &back[0].grad.as_sparse().unwrap().values;
        for (a, b) in values.iter().zip(decoded) {
            assert!(
                (a - b).abs() <= max_err + 1e-6,
                "bound violated: {a} vs {b}"
            );
        }
    }

    #[test]
    fn inspect_reports_versions_and_sizes() {
        let entries = sparse_entries(20_000, 13);
        let nnz = entries[0].grad.as_sparse().unwrap().nnz();
        let v2 = encode_diff_batch(&entries);
        let info = inspect_diff_batch(&v2).unwrap();
        assert_eq!(info.version, DIFF_VERSION_V2);
        assert_eq!(info.encoded_len, v2.len());
        assert_eq!(info.value_bytes, nnz * 4);
        assert_eq!(info.raw_value_bytes, nnz * 4);
        assert_eq!(info.entries[0].repr, "sparse");
        assert_eq!(info.entries[0].stored_values, nnz);
        assert!(info.entries[0].chunk_widths.is_empty());

        let v3 = encode_with(&entries, &fixed_q(8));
        let info3 = inspect_diff_batch(&v3).unwrap();
        assert_eq!(info3.version, DIFF_VERSION_V3);
        assert_eq!(
            info3.entries[0].chunk_widths.len(),
            nnz.div_ceil(QUANT_CHUNK)
        );
        assert!(info3.entries[0].chunk_widths.iter().all(|&w| w == 8));
        assert!(info3.value_bytes < info3.raw_value_bytes / 2);

        // Torn blob: inspect must fail the CRC, not parse garbage.
        let mut torn = v3.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0xFF;
        assert_eq!(
            inspect_diff_batch(&torn).unwrap_err(),
            CodecError::CrcMismatch
        );
    }
}
