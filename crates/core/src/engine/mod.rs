//! [`CheckpointEngine`] — the staged snapshot → encode → persist pipeline
//! shared by every checkpointing strategy.
//!
//! ```text
//! training thread                 │ checkpointing thread (async engines)
//! ───────────────                 │ ────────────────────
//! SNAPSHOT: frame the full into a │
//!   pooled ticket / clone the     │
//!   gradient handle               │
//!   → submit(Job) ──bounded queue──▶ policy.process(job, ctx)
//!                                 │   ├─ ENCODE: sweep + seal the frame,
//!                                 │   │  or encode the diff batch
//!                                 │   └─ PERSIST: store writes behind the
//!                                 │      one shared RetryPolicy; dropped
//!                                 │      batches and forced re-anchors
//!                                 │      handled here, once, for everyone
//! ```
//!
//! Strategies are split in two:
//!
//! * a **policy** ([`CheckpointPolicy`]) holding the scheme's decisions —
//!   what to capture, full vs diff, batch boundaries;
//! * a thin **adapter** implementing [`crate::strategy::CheckpointStrategy`]
//!   that captures state on the training thread and submits jobs.
//!
//! Two modes:
//!
//! * [`CheckpointEngine::spawn`] — a dedicated worker thread behind a
//!   bounded job queue (LowDiff, LowDiff+, CheckFreq, Gemini). The queue
//!   capacity *is* the pipeline depth: CheckFreq's depth-1 snapshot/persist
//!   overlap is `queue_capacity = 1`.
//! * [`CheckpointEngine::inline`] — no thread; jobs are processed on the
//!   training thread (TorchSave, Naïve DC — schemes whose point is that
//!   the write sits on the critical path).
//!
//! The engine produces [`crate::strategy::StrategyStats`] centrally
//! (policies account through [`EngineCtx`]) and exports a small health
//! blob ([`HEALTH_KEY`]) that `lowdiff-ctl health` surfaces.

pub mod cow;
pub mod crash;
pub mod metrics;
pub mod persist;
pub mod policy;
pub mod tier;

pub use cow::{CowRegion, CowTicket, COW_CHUNK_ELEMS};
pub use crash::{CrashInjector, CrashPoint, ALL_CRASH_POINTS};
pub use metrics::{EngineCounters, EngineMetrics, LatencyHist, StageLatency};
pub use persist::{EngineCtx, FullOpts, Tier};
pub use policy::{CheckpointPolicy, Job, PolicyCtl};
pub use tier::{
    peer_recovery_stores, AckMode, DurabilityClass, DurableTier, MemoryTier, ObjectSink,
    PeerReplicaBackend, PeerTier, RecoveryTier, SinkReport, TierBacking, TierStack,
};

use crate::strategy::StrategyStats;
use crossbeam::channel::{
    bounded, unbounded, Receiver, Select, Sender, TryRecvError, TrySendError,
};
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::codec::ValueCodec;
use lowdiff_storage::{CheckpointStore, RetryPolicy, StripeCfg};
use lowdiff_util::units::Secs;
use lowdiff_util::BufferPool;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Storage key of the engine's exported health blob (deliberately outside
/// the `full-`/`diff-` key spaces so checkpoint discovery ignores it).
pub const HEALTH_KEY: &str = "meta-engine-health.json";

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Bounded job-queue capacity (the pipeline depth before the training
    /// thread blocks on submit). Ignored by [`CheckpointEngine::inline`].
    pub queue_capacity: usize,
    /// The one retry/backoff policy every persist goes through.
    pub retry: RetryPolicy,
    /// Export the health blob under [`HEALTH_KEY`] on flush/shutdown.
    pub export_health: bool,
    /// Striped parallel persist: blobs above the stripe threshold fan out
    /// into `stripe.stripes` concurrent ranged writes sealed by a
    /// manifest. The default (1 stripe) keeps the legacy single-blob
    /// layout byte-for-byte.
    pub stripe: StripeCfg,
    /// Deterministic crash-point injection (torture tests). `None` in
    /// production: every check is a no-op.
    pub crash: Option<Arc<CrashInjector>>,
    /// Value-plane encoding for differential batches written through
    /// [`EngineCtx::persist_diff_entries`]: raw f32 (v2, bit-exact) or
    /// per-chunk quantized (v3, bounded-lossy). The default keeps every
    /// existing path byte-identical.
    pub value_codec: ValueCodec,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            export_health: true,
            stripe: StripeCfg::default(),
            crash: None,
            value_codec: ValueCodec::F32,
        }
    }
}

/// Result of submitting a job on the training thread.
pub struct Submitted {
    /// How long the training thread was blocked (capture + enqueue, or
    /// the whole inline persist for synchronous engines).
    pub stall: Secs,
    /// False when the worker is gone (the run is already degraded).
    pub delivered: bool,
}

enum WorkerMsg {
    Flush(Sender<()>),
    Ctl(PolicyCtl),
}

/// The staged checkpoint pipeline. One per strategy instance.
pub struct CheckpointEngine {
    name: &'static str,
    store: Arc<CheckpointStore>,
    retry: RetryPolicy,
    stripe: StripeCfg,
    shared: Arc<Mutex<StrategyStats>>,
    metrics: Arc<EngineMetrics>,
    force_full: Arc<AtomicBool>,
    buffers: Arc<BufferPool<u8>>,
    cow: Arc<cow::CowTickets>,
    /// A capture session is open ([`Self::open_session`] → [`Self::flush`]):
    /// full checkpoints are filled deferred, not on submit.
    session: bool,
    /// The newest deferred capture, until the adapter picks it up via
    /// [`Self::take_pending_capture`] to drive the COW hooks.
    pending: Option<Arc<CowTicket>>,
    crash: Option<Arc<CrashInjector>>,
    value_codec: ValueCodec,
    stall: Secs,
    backpressure: u64,
    export_health: bool,
    // Async mode:
    job_tx: Option<Sender<Job>>,
    ctl_tx: Option<Sender<WorkerMsg>>,
    worker: Option<std::thread::JoinHandle<()>>,
    // Sync mode:
    policy: Option<Box<dyn CheckpointPolicy>>,
}

impl CheckpointEngine {
    /// Asynchronous engine: spawn a dedicated checkpointing thread behind
    /// a bounded job queue of `cfg.queue_capacity`.
    pub fn spawn(
        store: Arc<CheckpointStore>,
        policy: impl CheckpointPolicy,
        cfg: EngineConfig,
    ) -> Self {
        assert!(cfg.queue_capacity >= 1, "queue capacity must be >= 1");
        let name = policy.name();
        let shared = Arc::new(Mutex::new(StrategyStats::default()));
        let metrics = Arc::new(EngineMetrics::default());
        metrics.set_capacity(cfg.queue_capacity as u64);
        let force_full = Arc::new(AtomicBool::new(false));
        let buffers = Arc::new(BufferPool::default());
        // At saturation one ticket is persisting on the worker, a queue's
        // worth is waiting, and the trainer is framing the next.
        let cow = Arc::new(cow::CowTickets::new(cfg.queue_capacity + 2));
        let (job_tx, job_rx) = bounded(cfg.queue_capacity);
        let (ctl_tx, ctl_rx) = unbounded();
        let worker = {
            let shared = Arc::clone(&shared);
            let metrics = Arc::clone(&metrics);
            let force_full = Arc::clone(&force_full);
            let buffers = Arc::clone(&buffers);
            let cow = Arc::clone(&cow);
            let crash = cfg.crash.clone();
            let retry = cfg.retry;
            let stripe = cfg.stripe;
            let value_codec = cfg.value_codec;
            std::thread::Builder::new()
                .name(format!("ckpt-engine-{name}"))
                .spawn(move || {
                    worker_loop(
                        Box::new(policy),
                        job_rx,
                        ctl_rx,
                        retry,
                        stripe,
                        value_codec,
                        shared,
                        force_full,
                        metrics,
                        buffers,
                        cow,
                        crash,
                    )
                })
                .expect("spawn checkpointing thread")
        };
        Self {
            name,
            store,
            retry: cfg.retry,
            stripe: cfg.stripe,
            shared,
            metrics,
            force_full,
            buffers,
            cow,
            session: false,
            pending: None,
            crash: cfg.crash,
            value_codec: cfg.value_codec,
            stall: Secs::ZERO,
            backpressure: 0,
            export_health: cfg.export_health,
            job_tx: Some(job_tx),
            ctl_tx: Some(ctl_tx),
            worker: Some(worker),
            policy: None,
        }
    }

    /// Synchronous engine: no thread, no queue — jobs run inline on the
    /// training thread (the strategy's stall *is* the persist cost).
    pub fn inline(
        store: Arc<CheckpointStore>,
        policy: impl CheckpointPolicy,
        cfg: EngineConfig,
    ) -> Self {
        Self {
            name: policy.name(),
            store,
            retry: cfg.retry,
            stripe: cfg.stripe,
            shared: Arc::new(Mutex::new(StrategyStats::default())),
            metrics: Arc::new(EngineMetrics::default()),
            force_full: Arc::new(AtomicBool::new(false)),
            buffers: Arc::new(BufferPool::default()),
            // Inline engines capture eagerly and persist before submit
            // returns: one ticket is all they ever hold.
            cow: Arc::new(cow::CowTickets::new(1)),
            session: false,
            pending: None,
            crash: cfg.crash,
            value_codec: cfg.value_codec,
            stall: Secs::ZERO,
            backpressure: 0,
            export_health: cfg.export_health,
            job_tx: None,
            ctl_tx: None,
            worker: None,
            policy: Some(Box::new(policy)),
        }
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// Open a capture session: until the next [`Self::flush`], full
    /// checkpoints are captured **deferred** — `submit_full` only frames
    /// them, and the caller's copy-on-write hooks plus the worker's sweep
    /// fill the frame. The caller must take each capture via
    /// [`Self::take_pending_capture`] right after submitting it and route
    /// every later mutation of the captured state through its hooks (the
    /// trainer does, between `prime` and `flush`). Inline engines ignore
    /// this: their persist runs before submit returns, so they always
    /// capture eagerly. No memory work happens here; the ticket pool
    /// fills at the first anchor.
    pub fn open_session(&mut self) {
        self.session = self.job_tx.is_some();
    }

    /// Ask the policy's training-side gate (synchronous engines).
    pub fn wants_capture(&self, iteration: u64) -> bool {
        self.policy
            .as_ref()
            .is_none_or(|p| p.wants_capture(iteration))
    }

    /// Has an armed crash injector fired? A crashed engine is a dead
    /// process: every subsequent operation is a no-op.
    fn crash_dead(&self) -> bool {
        self.crash.as_ref().is_some_and(|c| c.crashed())
    }

    /// Submit a full checkpoint of `state` + auxiliary training state (EF
    /// residual, compressor identity, data-RNG cursor), framed into a
    /// pooled wire frame ([`CowTicket`]) that the worker seals and persists
    /// as is. Outside a capture session ([`Self::open_session`]) the
    /// calling thread copies the state into the frame before returning, so
    /// the caller may mutate or free `state` right away; inside one the
    /// copy is deferred to the caller's hooks and the worker's sweep.
    pub fn submit_full(
        &mut self,
        since: Instant,
        state: &ModelState,
        aux: &AuxView<'_>,
    ) -> Submitted {
        if self.crash_dead() {
            return Submitted {
                stall: Secs(since.elapsed().as_secs_f64()),
                delivered: false,
            };
        }
        let ticket = self.cow.frame(state, aux);
        if self.session {
            self.pending = Some(Arc::clone(&ticket));
        } else {
            ticket.cow_all();
        }
        self.submit(since, Job::Full(ticket))
    }

    /// Hand the newest deferred capture to the adapter so the training
    /// loop can drive its copy-on-write hooks. `None` outside a capture
    /// session or when no capture is pending.
    pub fn take_pending_capture(&mut self) -> Option<Arc<CowTicket>> {
        self.pending.take()
    }

    /// Submit a job captured since `since` (the adapter's hook entry). The
    /// elapsed time — capture + enqueue, or the whole inline persist — is
    /// the snapshot-stage latency and the training-thread stall.
    pub fn submit(&mut self, since: Instant, job: Job) -> Submitted {
        if let Some(c) = &self.crash {
            // A PreSnapshot crash kills the training process before the
            // job enters the pipeline; once crashed, nothing else lands.
            if c.crashed() || c.hit(CrashPoint::PreSnapshot) {
                return Submitted {
                    stall: Secs(since.elapsed().as_secs_f64()),
                    delivered: false,
                };
            }
        }
        let delivered = if let Some(tx) = &self.job_tx {
            // The snapshot stage ends when the job is ready to enqueue:
            // waiting out a full queue below is backpressure (counted, and
            // still part of the returned stall), not snapshot work —
            // folding it in would mask the capture-cost signal this stage
            // exists to expose.
            self.metrics.snapshot.record(since.elapsed());
            match tx.try_send(job) {
                Ok(()) => true,
                Err(TrySendError::Full(job)) => {
                    // The pipeline is full: the training thread blocks
                    // until the worker drains a slot (CheckFreq's stall
                    // mechanism; LowDiff's backpressure, counted).
                    self.backpressure += 1;
                    tx.send(job).is_ok()
                }
                Err(TrySendError::Disconnected(_)) => false,
            }
        } else if let Some(policy) = &mut self.policy {
            self.metrics.snapshot.record(since.elapsed());
            let mut cx = EngineCtx {
                retry: &self.retry,
                stripe: &self.stripe,
                shared: &self.shared,
                force_full: &self.force_full,
                metrics: &self.metrics,
                buffers: &self.buffers,
                cow: &self.cow,
                crash: self.crash.as_deref(),
                value_codec: &self.value_codec,
            };
            policy.process(job, &mut cx);
            let stall = Secs(since.elapsed().as_secs_f64());
            self.stall += stall;
            return Submitted {
                stall,
                delivered: true,
            };
        } else {
            false
        };
        if let Some(tx) = &self.job_tx {
            self.metrics.note_depth(tx.len() as u64);
        }
        if !delivered {
            // Worker gone: checkpointing stops advancing; training
            // continues.
            self.shared.lock().degraded = true;
        }
        let stall = Secs(since.elapsed().as_secs_f64());
        self.stall += stall;
        Submitted { stall, delivered }
    }

    /// Account training-thread time spent capturing state outside
    /// `submit` (LowDiff+'s layer-wise staging).
    pub fn note_stall(&mut self, since: Instant) -> Secs {
        let d = since.elapsed();
        self.metrics.snapshot.record(d);
        let stall = Secs(d.as_secs_f64());
        self.stall += stall;
        stall
    }

    /// Block until all submitted work is durable (drains the queue, then
    /// flushes the policy's partial batches), and close the capture
    /// session. A crashed engine does not flush: the dead process's
    /// buffered work is lost by definition.
    pub fn flush(&mut self) -> Secs {
        self.session = false;
        self.pending = None;
        if self.crash_dead() {
            return Secs::ZERO;
        }
        let t0 = Instant::now();
        if let Some(tx) = &self.ctl_tx {
            let (ack_tx, ack_rx) = unbounded();
            let delivered = tx.send(WorkerMsg::Flush(ack_tx)).is_ok();
            if !delivered || ack_rx.recv().is_err() {
                self.shared.lock().degraded = true;
            }
        } else if let Some(policy) = &mut self.policy {
            let mut cx = EngineCtx {
                retry: &self.retry,
                stripe: &self.stripe,
                shared: &self.shared,
                force_full: &self.force_full,
                metrics: &self.metrics,
                buffers: &self.buffers,
                cow: &self.cow,
                crash: self.crash.as_deref(),
                value_codec: &self.value_codec,
            };
            policy.flush(&mut cx);
        }
        self.export_health();
        let stall = Secs(t0.elapsed().as_secs_f64());
        self.stall += stall;
        stall
    }

    /// Deliver a runtime reconfiguration to the policy.
    pub fn control(&mut self, ctl: PolicyCtl) {
        if let Some(tx) = &self.ctl_tx {
            if tx.send(WorkerMsg::Ctl(ctl)).is_err() {
                self.shared.lock().degraded = true;
            }
        } else if let Some(policy) = &mut self.policy {
            let mut cx = EngineCtx {
                retry: &self.retry,
                stripe: &self.stripe,
                shared: &self.shared,
                force_full: &self.force_full,
                metrics: &self.metrics,
                buffers: &self.buffers,
                cow: &self.cow,
                crash: self.crash.as_deref(),
                value_codec: &self.value_codec,
            };
            policy.control(ctl, &mut cx);
        }
    }

    /// Consume a pending forced-full request (set by the persist stage
    /// after it dropped a batch).
    pub fn take_reanchor(&self) -> bool {
        self.force_full.swap(false, Ordering::SeqCst)
    }

    /// Re-arm the forced-full request (the adapter failed to act on it).
    pub fn request_reanchor(&self) {
        self.force_full.store(true, Ordering::SeqCst)
    }

    /// Mutate the shared stats from the adapter (e.g. `forced_fulls`).
    pub fn with_stats<R>(&self, f: impl FnOnce(&mut StrategyStats) -> R) -> R {
        f(&mut self.shared.lock())
    }

    /// Times the training thread hit a full pipeline on submit.
    pub fn backpressure_events(&self) -> u64 {
        self.backpressure
    }

    /// Current stats snapshot, engine counters included.
    pub fn stats(&self) -> StrategyStats {
        let mut s = self.shared.lock().clone();
        s.stall = self.stall;
        let mut eng = self.metrics.counters();
        if let Some(tx) = &self.job_tx {
            eng.queue_depth = tx.len() as u64;
        }
        s.engine = eng;
        s
    }

    /// Best-effort export of the health blob ([`HEALTH_KEY`]) for
    /// `lowdiff-ctl health`. Never counted in stats; failures ignored
    /// (health reporting must not create health problems).
    fn export_health(&self) {
        // A dead process exports nothing — the health blob would be a
        // post-crash write the torture harness must never observe.
        if !self.export_health || self.crash_dead() {
            return;
        }
        let s = self.stats();
        let e = &s.engine;
        let us = |sec: Secs| sec.as_f64() * 1e6;
        let json = format!(
            concat!(
                "{{\"strategy\":\"{}\",\"stall_seconds\":{:.9},",
                "\"queue_depth\":{},\"queue_peak\":{},\"queue_capacity\":{},",
                "\"snapshot_count\":{},\"snapshot_p50_us\":{:.3},\"snapshot_p99_us\":{:.3},",
                "\"capture_count\":{},\"capture_p50_us\":{:.3},\"capture_p99_us\":{:.3},",
                "\"cow_chunks\":{},\"sweep_chunks\":{},",
                "\"encode_count\":{},\"encode_p50_us\":{:.3},\"encode_p99_us\":{:.3},",
                "\"persist_count\":{},\"persist_p50_us\":{:.3},\"persist_p99_us\":{:.3},",
                "\"io_errors\":{},\"io_retries\":{},\"dropped_batches\":{},\"degraded\":{},",
                "\"tiers\":\"{}\"}}"
            ),
            self.name,
            s.stall.as_f64(),
            e.queue_depth,
            e.queue_peak,
            e.queue_capacity,
            e.snapshot.count,
            us(e.snapshot.p50),
            us(e.snapshot.p99),
            e.capture.count,
            us(e.capture.p50),
            us(e.capture.p99),
            e.cow_chunks,
            e.sweep_chunks,
            e.encode.count,
            us(e.encode.p50),
            us(e.encode.p99),
            e.persist.count,
            us(e.persist.p50),
            us(e.persist.p99),
            s.io_errors,
            s.io_retries,
            s.dropped_batches,
            s.degraded,
            // Per-tier ledger as a flat comma-free string so the ctl's
            // naive json_field scanner stays valid: "durable b=.. a=.. e=..|peer ..".
            s.tiers
                .iter()
                .map(|t| {
                    format!(
                        "{} b={} a={} e={} c={}",
                        t.name, t.bytes, t.acks, t.errors, t.clamped
                    )
                })
                .collect::<Vec<_>>()
                .join("|"),
        );
        let _ = self.store.backend().put(HEALTH_KEY, json.as_bytes());
    }
}

impl Drop for CheckpointEngine {
    fn drop(&mut self) {
        // Close both channels so the worker drains its queues and exits
        // (its shutdown path flushes the policy), then join it.
        self.job_tx.take();
        self.ctl_tx.take();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        self.export_health();
    }
}

/// The checkpointing thread: a blocking two-way `Select` over the job
/// queue and the control channel — no polling. Jobs flow strictly FIFO, so
/// a full submitted before a diff is persisted before it.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut policy: Box<dyn CheckpointPolicy>,
    job_rx: Receiver<Job>,
    ctl_rx: Receiver<WorkerMsg>,
    retry: RetryPolicy,
    stripe: StripeCfg,
    value_codec: ValueCodec,
    shared: Arc<Mutex<StrategyStats>>,
    force_full: Arc<AtomicBool>,
    metrics: Arc<EngineMetrics>,
    buffers: Arc<BufferPool<u8>>,
    cow: Arc<cow::CowTickets>,
    crash: Option<Arc<CrashInjector>>,
) {
    let mut cx = EngineCtx {
        retry: &retry,
        stripe: &stripe,
        shared: &shared,
        force_full: &force_full,
        metrics: &metrics,
        buffers: &buffers,
        cow: &cow,
        crash: crash.as_deref(),
        value_codec: &value_codec,
    };
    let mut job_open = true;
    let mut ctl_open = true;
    while job_open || ctl_open {
        metrics.note_depth(job_rx.len() as u64);
        // Block until a job or a control message is ready (or a side
        // disconnects). Readiness means try-receive won't block; an empty
        // grab just re-enters the select.
        let mut sel = Select::new();
        let job_idx = if job_open {
            sel.recv(&job_rx)
        } else {
            usize::MAX
        };
        let ctl_idx = if ctl_open {
            sel.recv(&ctl_rx)
        } else {
            usize::MAX
        };
        let ready = sel.ready();
        drop(sel);

        if ready == job_idx {
            match job_rx.try_recv() {
                Ok(job) => policy.process(job, &mut cx),
                Err(TryRecvError::Empty) => {} // raced; re-select
                Err(TryRecvError::Disconnected) => job_open = false,
            }
            continue;
        }
        if ready != ctl_idx {
            continue;
        }
        match ctl_rx.try_recv() {
            Ok(WorkerMsg::Flush(ack)) => {
                // Drain queued jobs first so the flush covers everything
                // submitted before it, then flush the policy's buffers.
                while let Ok(job) = job_rx.try_recv() {
                    policy.process(job, &mut cx);
                }
                policy.flush(&mut cx);
                let _ = ack.send(());
            }
            Ok(WorkerMsg::Ctl(c)) => policy.control(c, &mut cx),
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => ctl_open = false,
        }
    }
    // Shutdown: both channels closed. Drain what's left, then flush.
    while let Ok(job) = job_rx.try_recv() {
        policy.process(job, &mut cx);
    }
    policy.flush(&mut cx);
    metrics.note_depth(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_compress::CompressedGrad;
    use lowdiff_storage::MemoryBackend;

    /// `(iteration, handle)` of every diff the worker received.
    type Seen = Arc<Mutex<Vec<(u64, Arc<CompressedGrad>)>>>;

    struct Recorder(Seen);

    impl CheckpointPolicy for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn process(&mut self, job: Job, _cx: &mut EngineCtx<'_>) {
            if let Job::Diff { iteration, grad } = job {
                self.0.lock().push((iteration, grad));
            }
        }
    }

    /// The job queue is §4.1's reusing queue: diff handles arrive at the
    /// checkpointing thread in submit order, and each is the very
    /// allocation the training thread submitted (zero-copy), even when a
    /// small queue makes the trainer block on backpressure.
    #[test]
    fn diff_handles_cross_the_queue_fifo_and_zero_copy() {
        let seen: Seen = Arc::default();
        let mut engine = CheckpointEngine::spawn(
            Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new()))),
            Recorder(Arc::clone(&seen)),
            EngineConfig {
                queue_capacity: 2,
                export_health: false,
                ..EngineConfig::default()
            },
        );
        let sent: Vec<Arc<CompressedGrad>> = (0..32)
            .map(|i| Arc::new(CompressedGrad::Dense(vec![i as f32; 1024])))
            .collect();
        for (i, grad) in sent.iter().enumerate() {
            let job = Job::Diff {
                iteration: i as u64,
                grad: Arc::clone(grad),
            };
            assert!(engine.submit(Instant::now(), job).delivered);
        }
        engine.flush();
        let seen = seen.lock();
        assert_eq!(seen.len(), sent.len());
        for (i, ((iteration, got), want)) in seen.iter().zip(&sent).enumerate() {
            assert_eq!(*iteration, i as u64, "FIFO order");
            assert!(Arc::ptr_eq(got, want), "diff {i} was copied, not moved");
        }
    }
}
