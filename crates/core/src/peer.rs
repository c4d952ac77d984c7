//! [`PeerReplicateStrategy`] — Checkmate-style peer replication on top of
//! the unchanged LowDiff scheme.
//!
//! Checkmate's observation is that the compressed gradient state LowDiff
//! already holds on every rank makes checkpointing effectively free if it
//! is replicated over the training network instead of waiting on durable
//! storage. This strategy is exactly LowDiff with a different recovery
//! stack:
//!
//! ```text
//! [ PeerTier(k)            — sync:  each diff/full streamed to k ring peers
//! , DurableTier (async)    — best-effort durable second tier            ]
//! ```
//!
//! The peer tier acks synchronously (a checkpoint "lands" once a peer
//! holds it); the durable tier trails asynchronously, so a storage stall
//! never widens the recovery window. A lost rank is rebuilt from a
//! surviving peer's replicas with **no storage round-trip** —
//! [`crate::engine::peer_recovery_stores`] lists the peer stores to hand
//! [`crate::trainer::Trainer::resume_tiered`], with durable storage
//! appended as the last resort.

use crate::engine::{AckMode, CowTicket, DurableTier, PeerTier, RecoveryTier, TierStack};
use crate::lowdiff::{LowDiffConfig, LowDiffStrategy};
use crate::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_comm::ReplicaNet;
use lowdiff_compress::{AuxView, CompressedGrad};
use lowdiff_optim::ModelState;
use lowdiff_storage::CheckpointStore;
use lowdiff_util::units::Secs;
use std::sync::Arc;

/// LowDiff over a `[PeerTier(k), DurableTier(async)]` recovery stack.
/// All scheme decisions (batching, full cadence, GC, re-anchor) are
/// [`LowDiffStrategy`]'s, untouched — only the write fan-out differs.
pub struct PeerReplicateStrategy {
    inner: LowDiffStrategy,
    tier: Arc<PeerTier>,
}

impl PeerReplicateStrategy {
    /// `rank` is this worker's position on `net`; every checkpoint object
    /// is streamed to its `replicas` ring successors.
    pub fn new(
        store: Arc<CheckpointStore>,
        cfg: LowDiffConfig,
        net: Arc<ReplicaNet>,
        rank: usize,
        replicas: usize,
    ) -> Self {
        let tier = Arc::new(PeerTier::new(net, rank, replicas));
        let tiers = TierStack::new(vec![
            Arc::clone(&tier) as Arc<dyn RecoveryTier>,
            Arc::new(DurableTier::with_ack(Arc::clone(&store), AckMode::Async)),
        ]);
        let inner = LowDiffStrategy::with_tier_stack(store, cfg, tiers, "lowdiff-peer");
        Self { inner, tier }
    }

    pub fn config(&self) -> &LowDiffConfig {
        self.inner.config()
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        self.inner.store()
    }

    /// Replicas still queued for re-replication (their peer was down).
    pub fn pending_replicas(&self) -> usize {
        self.tier.pending_replicas()
    }
}

impl CheckpointStrategy for PeerReplicateStrategy {
    fn name(&self) -> &'static str {
        "lowdiff-peer"
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.inner.prime(state, aux);
    }

    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        grad: &Arc<CompressedGrad>,
        aux: &AuxView<'_>,
    ) -> Secs {
        self.inner.on_synced_gradient(iteration, grad, aux)
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        self.inner.after_update(state, aux)
    }

    fn take_pending_capture(&mut self) -> Option<Arc<CowTicket>> {
        self.inner.take_pending_capture()
    }

    fn flush(&mut self) -> Secs {
        self.inner.flush()
    }

    fn stats(&self) -> StrategyStats {
        self.inner.stats()
    }
}
