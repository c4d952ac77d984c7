//! Full-checkpoint capture into a pooled wire frame.
//!
//! Every full checkpoint is captured through a [`CowTicket`]:
//! [`CowTicket::reset`] only *frames* the checkpoint (writes the v2 header
//! and the small aux sections into the final wire buffer, microseconds),
//! and the 12Ψ bytes of params / moments / residual are copied **chunk by
//! chunk** straight to their wire offsets (the frame layout is fixed —
//! [`lowdiff_storage::codec::full_frame_layout`]), so capture **is** the
//! encode: once the last chunk lands the worker seals the CRC and hands
//! the finished blob to the striped/tiered persist fan-out. The sealed
//! blob is **byte-identical** to what `encode_full_checkpoint`
//! produces from the state at the submit instant.
//!
//! Who copies the chunks is decided by the engine's capture session (see
//! [`super::CheckpointEngine::open_session`]):
//!
//! * **eager** (no session) — the submitter copies every chunk
//!   ([`CowTicket::cow_all`]) before `submit_full` returns;
//! * **deferred** (inside a session) — two parties race: the
//!   **copy-on-write hook**, which the optimizer update calls to copy each
//!   still-uncaptured chunk immediately before overwriting it
//!   ([`CowTicket::cow_range`]), and the **sweeper**, the engine worker
//!   capturing every cold chunk ([`CowTicket::sweep`]) while the training
//!   thread is off computing.
//!
//! ### Safety contract
//!
//! A ticket holds raw pointers into the live `ModelState` (and EF
//! residual). Until the capture completes (`remaining() == 0`) or the
//! ticket is re-`reset`:
//!
//! * the source buffers are neither freed nor reallocated;
//! * every mutation of a source region goes through
//!   [`CowTicket::cow_range`] first (or [`CowTicket::cow_all`] completes
//!   the capture before unhooked mutation).
//!
//! An eager capture is complete before the submitter regains control. A
//! deferred one is only handed to a caller that opened the session and
//! therefore drives the hooks: the trainer holds it in a capture guard
//! dropped *before* the model state.

use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::codec::{self, FullFrameLayout};
use lowdiff_tensor::chunked::{copy_f32_chunk_le, ChunkMap, ChunkStates};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Elements per capture chunk: matches the Adam kernel's parallel block
/// size (1 << 15 elements = 128 KiB), so a COW hook never straddles more
/// than one extra chunk per update block.
pub const COW_CHUNK_ELEMS: usize = 1 << 15;

/// A capturable source region of the checkpoint frame, named from the
/// mutator's point of view (the trainer knows *which array* it is about
/// to overwrite, not where that array lives in the wire image).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CowRegion {
    /// Model parameters.
    Params,
    /// Adam first moment.
    M,
    /// Adam second moment.
    V,
    /// Error-feedback residual (absent when the run has no EF).
    Residual,
}

/// One source region: where to read, where in the frame to write.
struct Region {
    src: *const f32,
    map: ChunkMap,
    /// Byte offset of the region inside the frame buffer.
    dst_off: usize,
    /// First global chunk index of this region.
    chunk_base: usize,
}

struct Setup {
    iteration: u64,
    adam_t: u64,
    layout: FullFrameLayout,
    regions: Vec<Region>,
    /// Index into `regions` per [`CowRegion`] discriminant; `None` when
    /// the region is absent from this capture (no EF residual).
    by_region: [Option<usize>; 4],
    start: Instant,
}

impl Default for Setup {
    fn default() -> Self {
        Self {
            iteration: 0,
            adam_t: 0,
            layout: codec::full_frame_layout(0, &AuxView::NONE),
            regions: Vec::new(),
            by_region: [None; 4],
            start: Instant::now(),
        }
    }
}

/// An in-flight incremental full-checkpoint capture: the framed wire
/// buffer plus the per-chunk capture state machine. Shared `Arc`-style
/// between the training thread (COW hooks) and the engine worker
/// (sweeper + seal); all cross-thread mutation is chunk-disjoint,
/// mediated by the [`ChunkStates`] CAS.
pub struct CowTicket {
    buf: UnsafeCell<Vec<u8>>,
    setup: Setup,
    states: ChunkStates,
    sealed: AtomicBool,
    cow_chunks: AtomicU64,
    sweep_chunks: AtomicU64,
}

// Safety: the raw source pointers are only dereferenced under the
// chunk-CAS protocol above (each chunk read by exactly one thread, and
// never concurrently with a mutation of the same chunk — the COW hook
// orders capture before overwrite); the frame buffer is written at
// chunk-disjoint offsets and only len-mutated (seal) after `remaining()`
// reaches 0.
unsafe impl Send for CowTicket {}
unsafe impl Sync for CowTicket {}

impl CowTicket {
    /// An unframed ticket; its first [`Self::reset`] allocates the frame.
    pub(crate) fn empty() -> Self {
        Self {
            buf: UnsafeCell::new(Vec::new()),
            setup: Setup::default(),
            states: ChunkStates::new(0),
            sealed: AtomicBool::new(false),
            cow_chunks: AtomicU64::new(0),
            sweep_chunks: AtomicU64::new(0),
        }
    }

    /// Frame a new capture of `state` + `aux` into this (exclusively
    /// held) ticket: write the v2 header and small aux sections at their
    /// final wire offsets, arm the chunk state machine, and remember
    /// where to read each region from. On a recycled ticket this is
    /// O(header) — the previous frame's region bytes stay in place and are
    /// overwritten chunk by chunk, so not even a memset of the Ψ-sized
    /// regions lands on the training thread.
    pub(crate) fn reset(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        let psi = state.params.len();
        let buf = self.buf.get_mut();
        let layout: FullFrameLayout =
            codec::encode_full_frame_into(state.iteration, state.opt.t, psi, aux, buf);
        let map = ChunkMap::new(psi, COW_CHUNK_ELEMS);
        let chunks_per_region = map.num_chunks();
        // The region list is rebuilt in place (≤ 4 entries, capacity kept
        // across resets): a recycled ticket's reset stays allocation-free.
        self.setup.iteration = state.iteration;
        self.setup.adam_t = state.opt.t;
        self.setup.layout = layout;
        self.setup.by_region = [None; 4];
        self.setup.regions.clear();
        let residual = match (aux.residual, layout.residual_off) {
            (Some(r), Some(off)) => Some((CowRegion::Residual, r.as_ptr(), off)),
            _ => None,
        };
        let sources = [
            Some((CowRegion::Params, state.params.as_ptr(), layout.params_off)),
            Some((CowRegion::M, state.opt.m.as_ptr(), layout.m_off)),
            Some((CowRegion::V, state.opt.v.as_ptr(), layout.v_off)),
            residual,
        ];
        for (region, src, dst_off) in sources.into_iter().flatten() {
            let n = self.setup.regions.len();
            self.setup.by_region[region as usize] = Some(n);
            self.setup.regions.push(Region {
                src,
                map,
                dst_off,
                chunk_base: n * chunks_per_region,
            });
        }
        let total_chunks = self.setup.regions.len() * chunks_per_region;
        if self.states.len() == total_chunks {
            self.states.reset();
        } else {
            self.states = ChunkStates::new(total_chunks);
        }
        self.setup.start = Instant::now();
        self.sealed.store(false, Ordering::Relaxed);
        self.cow_chunks.store(0, Ordering::Relaxed);
        self.sweep_chunks.store(0, Ordering::Relaxed);
    }

    /// The iteration this capture snapshots (policies key persists off it).
    pub fn iteration(&self) -> u64 {
        self.setup.iteration
    }

    /// Adam's step count of the captured state.
    pub fn adam_t(&self) -> u64 {
        self.setup.adam_t
    }

    /// Where params / m / v / residual sit in the frame (readers of the
    /// captured bytes, e.g. Naïve DC's delta, address the regions by it).
    pub fn layout(&self) -> FullFrameLayout {
        self.setup.layout
    }

    /// Chunks not yet captured. 0 means the frame is fully assembled.
    pub fn remaining(&self) -> usize {
        self.states.remaining()
    }

    /// When the capture was framed (worker-side duration telemetry).
    pub(crate) fn started(&self) -> Instant {
        self.setup.start
    }

    /// Chunks captured by the COW hook / the sweeper in this capture.
    pub fn chunk_counts(&self) -> (u64, u64) {
        (
            self.cow_chunks.load(Ordering::Relaxed),
            self.sweep_chunks.load(Ordering::Relaxed),
        )
    }

    /// Copy global chunk `idx` of region `r` into the frame. Caller must
    /// have won the CAS for `idx`.
    fn capture_chunk(&self, r: &Region, idx: usize) {
        let local = idx - r.chunk_base;
        let elems = r.map.range(local);
        // Safety (source): the submit contract keeps the source alive and
        // unmutated-for-this-chunk until `finish` below publishes it.
        let src = unsafe { std::slice::from_raw_parts(r.src.add(elems.start), elems.len()) };
        // Safety (destination): chunk byte ranges are disjoint per idx and
        // the buffer is never reallocated between reset and seal.
        let dst = unsafe {
            let buf = &mut *self.buf.get();
            std::slice::from_raw_parts_mut(
                buf.as_mut_ptr().add(r.dst_off + elems.start * 4),
                elems.len() * 4,
            )
        };
        copy_f32_chunk_le(src, dst);
        self.states.finish(idx);
    }

    /// Copy-on-write hook: ensure every chunk of `region` overlapping the
    /// element range `elems` is captured **before** the caller overwrites
    /// it. Uncaptured chunks are copied here (sub-millisecond slices on
    /// the training thread); chunks a concurrent sweeper is mid-copying
    /// are waited on. No-op for regions absent from this capture and for
    /// already-complete captures.
    pub fn cow_range(&self, region: CowRegion, elems: Range<usize>) {
        if self.remaining() == 0 {
            return;
        }
        let Some(ri) = self.setup.by_region[region as usize] else {
            return;
        };
        let r = &self.setup.regions[ri];
        for idx in r.map.chunks_overlapping(elems) {
            let idx = r.chunk_base + idx;
            if self.states.try_begin(idx) {
                self.capture_chunk(r, idx);
                self.cow_chunks.fetch_add(1, Ordering::Relaxed);
            } else {
                self.states.wait_captured(idx);
            }
        }
    }

    /// Complete the capture from the submitter's side (an eager submit, or
    /// guard teardown): claim and copy every remaining chunk. After this
    /// returns the sources may be mutated or freed.
    pub fn cow_all(&self) {
        for r in &self.setup.regions {
            for idx in 0..r.map.num_chunks() {
                let idx = r.chunk_base + idx;
                if self.states.try_begin(idx) {
                    self.capture_chunk(r, idx);
                    self.cow_chunks.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.states.wait_captured(idx);
                }
            }
        }
    }

    /// Sweeper pass (engine worker): capture every still-cold chunk.
    /// Returns the number of chunks swept. After this returns the capture
    /// is complete (`remaining() == 0`).
    pub fn sweep(&self) -> u64 {
        let mut swept = 0;
        for r in &self.setup.regions {
            for idx in 0..r.map.num_chunks() {
                let idx = r.chunk_base + idx;
                if self.states.try_begin(idx) {
                    self.capture_chunk(r, idx);
                    swept += 1;
                } else {
                    self.states.wait_captured(idx);
                }
            }
        }
        self.sweep_chunks.fetch_add(swept, Ordering::Relaxed);
        swept
    }

    /// Seal the completed frame with its CRC. Must only be called once
    /// per capture, after `remaining() == 0`.
    pub(crate) fn seal(&self) {
        assert_eq!(self.remaining(), 0, "seal before capture completed");
        assert!(
            !self.sealed.swap(true, Ordering::AcqRel),
            "double seal of a COW ticket"
        );
        // Safety: capture complete and the seal flag makes this the only
        // len-mutating access; `encode_full_frame_into` reserved the CRC
        // bytes so no reallocation happens here.
        codec::seal_frame(unsafe { &mut *self.buf.get() });
    }

    /// The captured frame: the wire blob's body, plus its CRC once
    /// sealed — then byte-identical to `encode_full_checkpoint` of the
    /// state at the submit instant. Must only be called once the capture
    /// is complete, and not across the ticket's own `seal`.
    pub fn bytes(&self) -> &[u8] {
        assert_eq!(self.remaining(), 0, "bytes of an incomplete capture");
        // Safety: every chunk is captured, so no hook or sweeper writes
        // the buffer any more; only `seal` (the policy's own call, never
        // concurrent with this borrow) and the next reset mutate it.
        unsafe { &*self.buf.get() }
    }
}

/// Recycled capture tickets. The first anchor fills the pool to its
/// depth with framed (page-touched) tickets, so later anchors reuse a
/// frame even while earlier fulls are still in flight; a pipeline deeper
/// than the pool falls back to a fresh ticket (the excess is dropped on
/// release). A ticket is reusable once the pool holds its sole reference
/// — the worker has persisted it and no capture guard still pins it.
pub(crate) struct CowTickets {
    slots: Mutex<Vec<Arc<CowTicket>>>,
    depth: usize,
    filled: AtomicBool,
}

impl CowTickets {
    /// Upper bound on pooled tickets: each holds a full wire frame (~12Ψ
    /// bytes), so the pool stays shallow even behind a deep job queue.
    const MAX_DEPTH: usize = 4;

    pub(crate) fn new(pipeline_depth: usize) -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            depth: pipeline_depth.clamp(1, Self::MAX_DEPTH),
            filled: AtomicBool::new(false),
        }
    }

    /// Frame a capture of `state` + `aux` into a free pooled ticket. No
    /// chunk is captured yet.
    pub(crate) fn frame(&self, state: &ModelState, aux: &AuxView<'_>) -> Arc<CowTicket> {
        let free = {
            let mut slots = self.slots.lock();
            if !self.filled.swap(true, Ordering::Relaxed) {
                slots.extend((0..self.depth).map(|_| {
                    let mut t = CowTicket::empty();
                    t.reset(state, aux);
                    Arc::new(t)
                }));
            }
            slots
                .iter()
                .position(|t| Arc::strong_count(t) == 1)
                .map(|i| slots.swap_remove(i))
        };
        let mut ticket = free.unwrap_or_else(|| Arc::new(CowTicket::empty()));
        Arc::get_mut(&mut ticket)
            .expect("pooled COW ticket must be exclusive")
            .reset(state, aux);
        ticket
    }

    pub(crate) fn put(&self, t: Arc<CowTicket>) {
        let mut slots = self.slots.lock();
        if slots.len() < self.depth {
            slots.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_compress::{AuxState, CompressorCfg};
    use lowdiff_util::DetRng;

    fn demo_state(psi: usize, seed: u64) -> ModelState {
        let mut rng = DetRng::new(seed);
        let mut st = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        st.iteration = 42;
        st.opt.t = 42;
        rng.fill_normal_f32(&mut st.opt.m, 0.1);
        rng.fill_normal_f32(&mut st.opt.v, 0.01);
        st
    }

    #[test]
    fn sweep_only_capture_is_byte_identical_to_blocking_encode() {
        let st = demo_state(COW_CHUNK_ELEMS + 100, 5);
        let aux = AuxState {
            residual: Some(vec![0.25; st.params.len()]),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([1, 2, 3, 4]),
            quant: None,
        };
        let view = aux.view();
        let blocking = codec::encode_full_checkpoint(&st, &view);
        let mut t = CowTicket::empty();
        t.reset(&st, &view);
        assert!(t.remaining() > 0);
        assert_eq!(t.iteration(), 42);
        t.sweep();
        assert_eq!(t.remaining(), 0);
        t.seal();
        assert_eq!(t.bytes(), &blocking[..]);
        let (cow, swept) = t.chunk_counts();
        assert_eq!(cow, 0);
        assert_eq!(swept, 4 * 2); // 4 regions x 2 chunks each
    }

    #[test]
    fn cow_hook_preserves_submit_instant_values_under_mutation() {
        let mut st = demo_state(3 * COW_CHUNK_ELEMS, 6);
        let view = AuxView::NONE;
        let blocking = codec::encode_full_checkpoint(&st, &view);
        let mut t = CowTicket::empty();
        t.reset(&st, &view);
        // Mutate params chunk 1 and m chunk 0, hooked: the hook captures
        // the pre-mutation bytes first.
        let r = COW_CHUNK_ELEMS..2 * COW_CHUNK_ELEMS;
        t.cow_range(CowRegion::Params, r.clone());
        for x in &mut st.params[r] {
            *x = -1.0;
        }
        t.cow_range(CowRegion::M, 0..10);
        for x in &mut st.opt.m[0..10] {
            *x = f32::NAN;
        }
        // Residual region absent: the hook is a no-op, not a panic.
        t.cow_range(CowRegion::Residual, 0..10);
        t.sweep();
        t.seal();
        assert_eq!(
            t.bytes(),
            &blocking[..],
            "COW capture must snapshot submit-instant values"
        );
        let (cow, swept) = t.chunk_counts();
        assert_eq!(cow, 2);
        assert_eq!(cow + swept, 9);
    }

    #[test]
    fn racing_hook_and_sweeper_still_byte_identical() {
        let st = demo_state(16 * COW_CHUNK_ELEMS / 16, 7); // 1 chunk/region
        let st = {
            let mut s = st;
            s.iteration = 9;
            s
        };
        let view = AuxView::NONE;
        let blocking = codec::encode_full_checkpoint(&st, &view);
        let mut t = CowTicket::empty();
        t.reset(&st, &view);
        let t = Arc::new(t);
        std::thread::scope(|scope| {
            let ts = Arc::clone(&t);
            scope.spawn(move || ts.sweep());
            t.cow_all();
        });
        assert_eq!(t.remaining(), 0);
        t.seal();
        assert_eq!(t.bytes(), &blocking[..]);
    }

    #[test]
    fn ticket_reuse_reframes_cleanly() {
        let pool = CowTickets::new(1);
        let st = demo_state(100, 8);
        let view = AuxView::NONE;
        let t = pool.frame(&st, &view);
        t.sweep();
        t.seal();
        let first = t.bytes().to_vec();
        let recycled = Arc::as_ptr(&t);
        pool.put(t);
        // Second capture of a different state through the same pool: the
        // recycled ticket, not a fresh one.
        let mut st2 = demo_state(100, 9);
        st2.iteration = 77;
        let t = pool.frame(&st2, &view);
        assert_eq!(Arc::as_ptr(&t), recycled);
        t.sweep();
        t.seal();
        assert_eq!(t.bytes(), &codec::encode_full_checkpoint(&st2, &view)[..]);
        assert_ne!(t.bytes(), &first[..]);
    }
}
