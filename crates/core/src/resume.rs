//! The resume planner: the one place that decides what a resume restores
//! and why.
//!
//! The paper's recovery (Algorithm 1, lines 16–24) takes the newest valid
//! full checkpoint and replays the differentials after it; Checkmate adds
//! a walk over peer replicas before durable storage. Every resume and
//! recovery in this crate runs those steps here, in this order:
//!
//! 1. **sources** — walk the recovery sources front to back. A source that
//!    is empty or errors is skipped; the first error is returned only when
//!    no source yields a checkpoint, and all-empty is a cold start.
//! 2. **anchor** — the newest valid full checkpoint of the first source
//!    holding one.
//! 3. **chain** — the differentials after the anchor, read from the same
//!    source (a resume never mixes tiers), and only when the replay gate
//!    ([`replays`]) says they will be replayed.
//! 4. **apply** — the compressor check, the replay through Adam, the
//!    lossy verdict ([`ResumePlan::lossy_reasons`]), and the restored RNG
//!    cursor, error-feedback residual and quant-policy state.
//!
//! Entry points built on it:
//!
//! * [`crate::Trainer::resume`] (one store) and
//!   [`crate::Trainer::resume_tiered`] (an ordered [`RecoverySource`]
//!   list) run all four steps; [`crate::Trainer::resume_from_parts`] runs
//!   the gate and step 4 on an anchor and chain the caller brings (the
//!   cluster stitches them from per-rank shards);
//! * [`crate::recover_serial`] and [`crate::recover_sharded`] take a
//!   read-only plan that always replays ([`ResumePlan::for_recovery`]) and
//!   run their own replay kernels;
//! * the strategies' single-store lookups ([`latest_full`]);
//! * `lowdiff-ctl list`, `health` and `resume-info`, which print a plan
//!   instead of re-deriving one.

use crate::trainer::{ResumeOpts, ResumeReport, TrainerConfig};
use lowdiff_compress::{CompressedGrad, CompressorKind, QuantPolicyState};
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec::{DiffEntry, FullCheckpoint};
use lowdiff_storage::CheckpointStore;
use lowdiff_util::DetRng;
use std::io;
use std::sync::Arc;

/// One level of a tier-priority recovery walk: a label for reporting and
/// a store view of that tier's checkpoints (a peer's replica mailbox via
/// [`crate::engine::PeerReplicaBackend`], Gemini's memory store, or plain
/// durable storage).
#[derive(Clone)]
pub struct RecoverySource {
    /// Tier label surfaced in [`ResumeReport::source`].
    pub tier: String,
    pub store: Arc<CheckpointStore>,
}

/// Steps 1–2 settled: the newest valid full of the first source holding
/// one, and the store it came from (step 3 reads the chain there).
struct Anchor<'a> {
    source: Option<&'a str>,
    store: &'a CheckpointStore,
    full: FullCheckpoint,
}

/// Steps 1–2: walk `sources` in order. With `sweep`, each source's
/// unsealed striped leftovers are deleted first — the resuming run becomes
/// that store's next writer; read-only callers leave the store untouched
/// (an unsealed object is invisible to the anchor either way).
fn walk<'a>(
    sources: impl IntoIterator<Item = (Option<&'a str>, &'a CheckpointStore)>,
    sweep: bool,
) -> io::Result<Option<Anchor<'a>>> {
    let mut first_err = None;
    for (source, store) in sources {
        let found = if sweep {
            store
                .sweep_unsealed()
                .and_then(|_| store.latest_valid_full_checkpoint())
        } else {
            store.latest_valid_full_checkpoint()
        };
        match found {
            Ok(Some(full)) => {
                return Ok(Some(Anchor {
                    source,
                    store,
                    full,
                }))
            }
            Ok(None) => {}
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    first_err.map_or(Ok(None), Err)
}

/// The newest valid full checkpoint of one store, anchor only (no chain,
/// no sweep): the strategies' memory/durable/hardware lookups.
pub fn latest_full(store: &CheckpointStore) -> io::Result<Option<ModelState>> {
    Ok(walk([(None, store)], false)?.map(|a| a.full.state))
}

/// The replay gate. Fast-forward replays the chain — except under error
/// feedback with a stored residual: the residual belongs to the full's
/// iteration boundary, and replaying diffs would advance the parameters
/// past it, so anchoring at the full is the bit-exact point.
pub fn replays(cfg: &TrainerConfig, opts: ResumeOpts, full: &FullCheckpoint) -> bool {
    opts.fast_forward && !(cfg.ef_on() && full.aux.residual.is_some())
}

/// The configuration a full checkpoint records about the run that wrote
/// it: its compressor, and error feedback on exactly when a residual was
/// captured. `lowdiff-ctl resume-info` plans against it.
fn recorded_config(full: &FullCheckpoint) -> TrainerConfig {
    let (compress_ratio, quant_bits) = match full.aux.compressor {
        Some(c) if c.kind == CompressorKind::TopK => (Some(c.ratio), None),
        Some(c) if c.kind == CompressorKind::Quant => (None, Some(c.bits)),
        _ => (None, None),
    };
    TrainerConfig {
        compress_ratio,
        quant_bits,
        error_feedback: full.aux.residual.is_some(),
        adaptive_quant: false,
        ..TrainerConfig::default()
    }
}

/// Steps 1–3 decided: where the resume anchors and what it replays.
#[derive(Debug)]
pub struct ResumePlan {
    /// Label of the [`RecoverySource`] that held the anchor; `None` for a
    /// single store or caller-supplied parts.
    pub source: Option<String>,
    /// The anchor.
    pub full: FullCheckpoint,
    /// The gate's verdict: `chain` is replayed on top of `full`.
    pub replay: bool,
    /// The differentials after the anchor, in order. Empty (never read)
    /// when `replay` is false.
    pub chain: Vec<DiffEntry>,
}

/// What step 4 restored, for the trainer to install.
pub(crate) struct Restored {
    pub state: ModelState,
    /// Data cursor positioned past the replayed diffs (`None`: the blob
    /// carries none, re-derive from the seed).
    pub rng: Option<DetRng>,
    /// Residual to install; `Some` only when error feedback anchors on it.
    pub residual: Option<Vec<f32>>,
    /// Precision-policy snapshot taken at the full.
    pub quant: Option<QuantPolicyState>,
    /// `(scale, bits)` the replayed quantized entries emitted — the policy
    /// transitions the crashed run took past the full.
    pub observed: Vec<(f32, u8)>,
    pub report: ResumeReport,
}

impl ResumePlan {
    /// Steps 1–3 for a trainer resume: sweep and anchor on the first
    /// source holding a full, gate under `cfg`/`opts`, read the chain from
    /// the same source only when it will be replayed.
    pub(crate) fn for_resume<'a>(
        sources: impl IntoIterator<Item = (Option<&'a str>, &'a CheckpointStore)>,
        cfg: &TrainerConfig,
        opts: ResumeOpts,
    ) -> io::Result<Option<Self>> {
        let Some(anchor) = walk(sources, true)? else {
            return Ok(None);
        };
        let replay = replays(cfg, opts, &anchor.full);
        Self::read(anchor, replay).map(Some)
    }

    /// Algorithm 1's recovery over one store, read-only: the newest valid
    /// full and its whole chain, always replayed (no training config, so
    /// no gate).
    pub fn for_recovery(store: &CheckpointStore) -> io::Result<Option<Self>> {
        match walk([(None, store)], false)? {
            Some(anchor) => Self::read(anchor, true).map(Some),
            None => Ok(None),
        }
    }

    /// What `Trainer::resume` would do on `store` under the configuration
    /// the anchor itself records (its compressor; error feedback on exactly
    /// when it stores a residual), read-only. Returns the plan and that
    /// configuration.
    pub fn for_recorded(store: &CheckpointStore) -> io::Result<Option<(Self, TrainerConfig)>> {
        let Some(anchor) = walk([(None, store)], false)? else {
            return Ok(None);
        };
        let cfg = recorded_config(&anchor.full);
        let replay = replays(&cfg, ResumeOpts::default(), &anchor.full);
        Ok(Some((Self::read(anchor, replay)?, cfg)))
    }

    /// Gate an anchor and chain the caller already holds. The chain is
    /// dropped unread when the gate disables replay.
    pub(crate) fn from_parts(
        full: FullCheckpoint,
        chain: Vec<DiffEntry>,
        cfg: &TrainerConfig,
        opts: ResumeOpts,
    ) -> Self {
        let replay = replays(cfg, opts, &full);
        Self {
            source: None,
            full,
            replay,
            chain: if replay { chain } else { Vec::new() },
        }
    }

    /// Step 3.
    fn read(anchor: Anchor<'_>, replay: bool) -> io::Result<Self> {
        let chain = if replay {
            anchor.store.diff_chain_from(anchor.full.state.iteration)?
        } else {
            Vec::new()
        };
        Ok(Self {
            source: anchor.source.map(str::to_owned),
            full: anchor.full,
            replay,
            chain,
        })
    }

    /// Iteration of the anchor.
    pub fn full_iteration(&self) -> u64 {
        self.full.state.iteration
    }

    /// Differentials the resume replays.
    pub fn replayed(&self) -> usize {
        if self.replay {
            self.chain.len()
        } else {
            0
        }
    }

    /// Iteration training resumes from.
    pub fn resumed_iteration(&self) -> u64 {
        self.full_iteration() + self.replayed() as u64
    }

    /// Why resuming under `cfg` cannot restore the training state bit
    /// for bit; empty when it can. Each reason alone makes the resume
    /// [`ResumeReport::lossy`].
    pub fn lossy_reasons(&self, cfg: &TrainerConfig) -> Vec<&'static str> {
        let aux = &self.full.aux;
        let ef_on = cfg.ef_on();
        let mut reasons = Vec::new();
        if self.full.lossy {
            reasons.push("the blob carries no auxiliary state");
        }
        if ef_on && aux.residual.is_none() {
            reasons.push("error feedback is on but no residual is stored");
        }
        if aux.residual.is_some() && !ef_on {
            reasons.push("a residual is stored but error feedback is off");
        }
        if cfg.quant_bits.is_some() && cfg.adaptive_quant && aux.quant.is_none() {
            reasons.push("adaptive quantization is on but no policy state is stored");
        }
        reasons
    }

    /// Step 4: check the compressor, replay the chain through `adam`, and
    /// decide what training state to restore.
    pub(crate) fn apply(self, cfg: &TrainerConfig, adam: &Adam) -> io::Result<Restored> {
        let expected = cfg.compressor_cfg();
        if let Some(stored) = self.full.aux.compressor {
            if stored != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "checkpoint compressor {stored:?} does not match \
                         configured {expected:?}: the stored residual and \
                         differential chain would not compose"
                    ),
                ));
            }
        }
        let lossy = !self.lossy_reasons(cfg).is_empty();
        let replayed = self.replayed();
        let full_iteration = self.full_iteration();
        let FullCheckpoint {
            state: mut model,
            aux,
            ..
        } = self.full;

        // Quantized entries also yield their emitted `(scale, bits)`
        // pairs, which fast-forward the adaptive precision policy through
        // exactly the transitions the crashed run took.
        let mut observed = Vec::new();
        if self.replay {
            for entry in &self.chain {
                if let CompressedGrad::Quant(q) = &entry.grad {
                    observed.push((q.scale, q.bits));
                }
            }
            replay(&mut model, adam, &self.chain);
        }

        // Data cursor: the stored state is positioned for the full's next
        // draw; each replayed diff consumed one more.
        let rng = aux.rng.map(|words| {
            let mut r = DetRng::from_state(words);
            for _ in 0..replayed {
                r.next_u64();
            }
            r
        });
        let report = ResumeReport {
            resumed_iteration: model.iteration,
            full_iteration,
            replayed,
            lossy,
            source: self.source,
        };
        Ok(Restored {
            state: model,
            rng,
            residual: aux.residual.filter(|_| cfg.ef_on()),
            quant: aux.quant,
            observed,
            report,
        })
    }
}

/// Algorithm 1's serial replay kernel: decompress each differential
/// (line 21) and step Adam with it, `M_{j+1} = M_j + Adam(G_j)`.
pub(crate) fn replay(state: &mut ModelState, adam: &Adam, chain: &[DiffEntry]) {
    for entry in chain {
        let dense = entry.grad.to_dense();
        state.apply_gradient(adam, &dense);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowdiff::{LowDiffConfig, LowDiffStrategy};
    use crate::strategy::NoCheckpoint;
    use crate::trainer::Trainer;
    use lowdiff_model::builders::mlp;
    use lowdiff_model::data::Regression;
    use lowdiff_model::loss::mse;
    use lowdiff_storage::{MemoryBackend, StorageBackend};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Memory backend that counts reads of differential objects.
    #[derive(Default)]
    struct CountingBackend {
        inner: MemoryBackend,
        diff_reads: AtomicU64,
    }

    impl StorageBackend for CountingBackend {
        fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
            self.inner.put(key, data)
        }
        fn get(&self, key: &str) -> io::Result<Vec<u8>> {
            if key.starts_with("diff-") {
                self.diff_reads.fetch_add(1, Ordering::Relaxed);
            }
            self.inner.get(key)
        }
        fn list(&self) -> io::Result<Vec<String>> {
            self.inner.list()
        }
        fn delete(&self, key: &str) -> io::Result<()> {
            self.inner.delete(key)
        }
        fn bytes_written(&self) -> u64 {
            self.inner.bytes_written()
        }
    }

    /// A backend whose every operation fails — a dead peer mid-walk.
    struct DeadBackend(&'static str);

    impl StorageBackend for DeadBackend {
        fn put(&self, _: &str, _: &[u8]) -> io::Result<()> {
            Err(io::Error::other(self.0))
        }
        fn get(&self, _: &str) -> io::Result<Vec<u8>> {
            Err(io::Error::other(self.0))
        }
        fn list(&self) -> io::Result<Vec<String>> {
            Err(io::Error::other(self.0))
        }
        fn delete(&self, _: &str) -> io::Result<()> {
            Err(io::Error::other(self.0))
        }
        fn bytes_written(&self) -> u64 {
            0
        }
    }

    fn cfg(error_feedback: bool) -> TrainerConfig {
        TrainerConfig {
            compress_ratio: Some(0.2),
            error_feedback,
            data_seed: 5,
            ..TrainerConfig::default()
        }
    }

    /// Train 13 iterations (fulls at 5 and 10, diffs past them) into
    /// `store`.
    fn train_into(store: &Arc<CheckpointStore>, error_feedback: bool) {
        let strat = LowDiffStrategy::new(
            Arc::clone(store),
            LowDiffConfig {
                full_every: 5,
                batch_size: 1,
                ..LowDiffConfig::default()
            },
        );
        let mut tr = Trainer::new(
            mlp(&[4, 8, 2], 3),
            Adam::default(),
            strat,
            cfg(error_feedback),
        );
        let task = Regression::new(4, 2, 6);
        tr.run_with_data(13, |net, _t, rng| {
            let (x, y) = task.batch(rng, 4);
            mse(&net.forward(&x), &y)
        });
    }

    fn source(tier: &str, backend: Arc<dyn StorageBackend>) -> RecoverySource {
        RecoverySource {
            tier: tier.to_string(),
            store: Arc::new(CheckpointStore::new(backend)),
        }
    }

    fn resume_tiered(
        sources: &[RecoverySource],
        error_feedback: bool,
    ) -> io::Result<Option<ResumeReport>> {
        Trainer::resume_tiered(
            mlp(&[4, 8, 2], 3),
            Adam::default(),
            NoCheckpoint::new(),
            cfg(error_feedback),
            sources,
            ResumeOpts::default(),
        )
        .map(|r| r.map(|(_, rep)| rep))
    }

    #[test]
    fn ef_resume_with_residual_reads_no_differentials() {
        let backend = Arc::new(CountingBackend::default());
        let store = Arc::new(CheckpointStore::new(
            Arc::clone(&backend) as Arc<dyn StorageBackend>
        ));
        train_into(&store, true);
        assert!(!store.diff_keys().unwrap().is_empty(), "the chain exists");
        backend.diff_reads.store(0, Ordering::Relaxed);

        let (_, rep) = Trainer::resume(
            mlp(&[4, 8, 2], 3),
            Adam::default(),
            NoCheckpoint::new(),
            cfg(true),
            &store,
        )
        .unwrap()
        .unwrap();
        assert_eq!((rep.full_iteration, rep.replayed), (10, 0));
        assert_eq!(
            backend.diff_reads.load(Ordering::Relaxed),
            0,
            "an anchored resume must not read the chain"
        );
    }

    #[test]
    fn walk_skips_erroring_and_empty_sources() {
        let durable = Arc::new(MemoryBackend::new());
        let store = Arc::new(CheckpointStore::new(
            Arc::clone(&durable) as Arc<dyn StorageBackend>
        ));
        train_into(&store, false);
        let sources = [
            source("peer:1", Arc::new(DeadBackend("peer 1 is down"))),
            source("peer:2", Arc::new(MemoryBackend::new())),
            source("durable", durable),
        ];
        let rep = resume_tiered(&sources, false).unwrap().unwrap();
        assert_eq!(rep.source.as_deref(), Some("durable"));
        assert_eq!(rep.full_iteration, 10);
        assert_eq!(rep.replayed, 3, "diffs 10..=12 replay from the same source");
        assert_eq!(rep.resumed_iteration, 13);
    }

    #[test]
    fn all_empty_sources_are_a_cold_start() {
        let sources = [
            source("peer:1", Arc::new(MemoryBackend::new())),
            source("durable", Arc::new(MemoryBackend::new())),
        ];
        assert!(resume_tiered(&sources, true).unwrap().is_none());
    }

    #[test]
    fn all_erroring_sources_return_the_first_error() {
        let sources = [
            source("peer:1", Arc::new(DeadBackend("first"))),
            source("durable", Arc::new(DeadBackend("second"))),
        ];
        let err = resume_tiered(&sources, true).unwrap_err();
        assert_eq!(err.to_string(), "first");
    }
}
