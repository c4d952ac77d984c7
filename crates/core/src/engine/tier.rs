//! Recovery tiers — the pluggable persistence stack behind
//! [`super::EngineCtx`].
//!
//! Every checkpoint write used to target exactly one [`CheckpointStore`];
//! the two-tier schemes (Gemini's memory+durable split, Checkmate's
//! peer-replication-first design) had to hand-roll their second tier.
//! Now a policy persists through an ordered [`TierStack`] of
//! [`RecoveryTier`] objects and the engine fans each encoded blob across
//! the stack, accounting per tier:
//!
//! * [`DurableTier`] — wraps a [`CheckpointStore`] (striped persist path
//!   included). With a single-`DurableTier` stack the engine's write
//!   sequence is byte-identical to the pre-tier code — the equivalence
//!   proptests pin this.
//! * [`MemoryTier`] — Gemini's CPU-memory tier: a store over a
//!   [`lowdiff_storage::MemoryBackend`], accounted as in-memory
//!   checkpoints, with **deterministic** retention-count GC (keep the
//!   newest `retention` fulls, evict oldest-first) replacing the old
//!   best-effort single-live-checkpoint sweep.
//! * [`PeerTier`] — Checkmate: stream fulls and compressed-gradient diffs
//!   to `k` peer ranks over the [`lowdiff_comm::ReplicaNet`] fabric. A
//!   replica addressed to a dead peer is dropped, accounted, and
//!   re-replicated on the next interval (re-targeted to the next alive
//!   ring peer when the original stays down).
//!
//! Recovery priority is the stack order: the resume planner
//! ([`crate::resume`], behind [`crate::trainer::Trainer::resume_tiered`])
//! walks sources front-to-back and anchors on the first tier holding a
//! valid full checkpoint, falling back down the stack.

use super::persist::Tier;
use lowdiff_comm::ReplicaNet;
use lowdiff_storage::{CheckpointStore, StorageBackend};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What failure domain a tier survives — documentation/reporting surface
/// (accounting is [`RecoveryTier::counts_as`], semantics are
/// [`RecoveryTier::ack`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityClass {
    /// Survives whole-cluster loss (disk/remote storage).
    Durable,
    /// Survives software failure on the same host (CPU memory).
    Memory,
    /// Survives whole-rank loss while any replica peer lives.
    Peer,
}

/// How a tier's write result feeds the persist call's outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckMode {
    /// The persist "lands" only if this tier landed: its failure fails
    /// the call (drives batch drops / re-anchor requests).
    Sync,
    /// Best-effort second tier: a failure is accounted (per-tier errors,
    /// `io_errors`, degraded mode) but never fails the persist call.
    Async,
}

/// Outcome of one [`ObjectSink::put_object`] fan-out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkReport {
    /// Replicas acknowledged (current blob + any re-replicated backlog).
    pub acks: u64,
    /// Replicas dropped (dead peer, backlog overflow).
    pub errors: u64,
    /// Bytes acknowledged across all replicas.
    pub bytes: u64,
    /// Replica slots the sink refused to even attempt because the
    /// requested fan-out exceeded what the topology supports (peer rings
    /// clamp `k` to `ranks − 1` so a blob never "replicates" to its own
    /// sender). Not an error — the write degrades gracefully — but the
    /// operator asked for more copies than exist.
    pub clamped: u64,
}

/// A non-store transport a tier can write through: receives the encoded
/// blob under its canonical store key and reports how many replicas
/// acknowledged it. Zero acks means the write failed.
pub trait ObjectSink: Send + Sync {
    fn put_object(&self, key: &str, bytes: &[u8]) -> SinkReport;
}

/// Where a tier's writes go. `Store` tiers take the full
/// [`CheckpointStore`] path — striping, torn-write crash points, manifest
/// seal — so a store-backed tier is byte-identical to the pre-tier engine.
/// `Object` tiers receive the already-encoded blob (peer streams don't
/// stripe; the network frame is the unit).
pub enum TierBacking<'a> {
    Store(&'a CheckpointStore),
    Object(&'a dyn ObjectSink),
}

/// One level of the recovery stack.
pub trait RecoveryTier: Send + Sync {
    /// Stable short name — keys the per-tier entry in
    /// [`crate::strategy::StrategyStats::tiers`] and `lowdiff-ctl health`.
    fn name(&self) -> &'static str;
    /// Failure domain this tier survives.
    fn class(&self) -> DurabilityClass;
    /// Sync (failure fails the persist) or async (best-effort) acks.
    fn ack(&self) -> AckMode {
        AckMode::Sync
    }
    /// How a landed full on this tier is accounted in the global stats
    /// (memory-class fulls count as in-memory checkpoints, Gemini-style).
    fn counts_as(&self) -> Tier {
        Tier::Durable
    }
    /// Deterministic per-tier GC: keep only the newest `n` fulls after
    /// each successful full write on this tier.
    fn retain_fulls(&self) -> Option<u64> {
        None
    }
    /// The write path for this tier.
    fn backing(&self) -> TierBacking<'_>;
}

/// An ordered, non-empty stack of recovery tiers. Writes fan out
/// front-to-back; recovery priority is the same order.
#[derive(Clone)]
pub struct TierStack {
    tiers: Vec<Arc<dyn RecoveryTier>>,
}

impl TierStack {
    pub fn new(tiers: Vec<Arc<dyn RecoveryTier>>) -> Self {
        assert!(!tiers.is_empty(), "a tier stack needs at least one tier");
        Self { tiers }
    }

    /// The ubiquitous single-tier stack: one sync durable store.
    pub fn durable(store: Arc<CheckpointStore>) -> Self {
        Self::new(vec![Arc::new(DurableTier::new(store))])
    }

    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    pub fn is_empty(&self) -> bool {
        false // by construction
    }

    pub fn iter(&self) -> impl Iterator<Item = &dyn RecoveryTier> {
        self.tiers.iter().map(|t| t.as_ref())
    }
}

/// Today's store + stripe path behind the tier trait. The only tier most
/// strategies need; byte-identical to the pre-stack engine when alone.
pub struct DurableTier {
    store: Arc<CheckpointStore>,
    ack: AckMode,
}

impl DurableTier {
    pub fn new(store: Arc<CheckpointStore>) -> Self {
        Self::with_ack(store, AckMode::Sync)
    }

    /// Async-ack durable tier: the best-effort second level under a
    /// memory or peer tier ([`AckMode::Async`]).
    pub fn with_ack(store: Arc<CheckpointStore>, ack: AckMode) -> Self {
        Self { store, ack }
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }
}

impl RecoveryTier for DurableTier {
    fn name(&self) -> &'static str {
        "durable"
    }

    fn class(&self) -> DurabilityClass {
        DurabilityClass::Durable
    }

    fn ack(&self) -> AckMode {
        self.ack
    }

    fn backing(&self) -> TierBacking<'_> {
        TierBacking::Store(&self.store)
    }
}

/// Gemini's CPU-memory tier: a store over a memory backend, accounted as
/// in-memory checkpoints, GC'd deterministically to the newest
/// `retention` fulls (oldest evicted first) after every landed full.
pub struct MemoryTier {
    store: Arc<CheckpointStore>,
    retention: u64,
}

impl MemoryTier {
    pub fn new(store: Arc<CheckpointStore>, retention: u64) -> Self {
        assert!(
            retention >= 1,
            "a memory tier must retain at least one full"
        );
        Self { store, retention }
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    pub fn retention(&self) -> u64 {
        self.retention
    }
}

impl RecoveryTier for MemoryTier {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn class(&self) -> DurabilityClass {
        DurabilityClass::Memory
    }

    fn counts_as(&self) -> Tier {
        Tier::Memory
    }

    fn retain_fulls(&self) -> Option<u64> {
        Some(self.retention)
    }

    fn backing(&self) -> TierBacking<'_> {
        TierBacking::Store(&self.store)
    }
}

/// A replica that missed its peer (dead at send time), queued for
/// re-replication on the next interval.
struct PendingReplica {
    peer: usize,
    key: String,
    bytes: Arc<Vec<u8>>,
}

/// Checkmate's tier: stream each blob to `k` ring peers' memory over the
/// [`ReplicaNet`] fabric. At least one ack means the write landed (the
/// blob is rebuildable from that peer); zero acks is a failed write.
pub struct PeerTier {
    net: Arc<ReplicaNet>,
    rank: usize,
    replicas: usize,
    pending: Mutex<VecDeque<PendingReplica>>,
}

impl PeerTier {
    /// Bound on the re-replication backlog: full model states are queued
    /// here, so the tail must stay shallow; overflow drops the oldest
    /// entry (accounted as a replica error on the next interval).
    const MAX_PENDING: usize = 64;

    pub fn new(net: Arc<ReplicaNet>, rank: usize, replicas: usize) -> Self {
        let n = net.num_ranks();
        assert!(rank < n, "rank {rank} outside the {n}-rank net");
        assert!(n >= 2, "peer replication needs at least 2 ranks");
        assert!(replicas >= 1, "peer replication needs k ≥ 1");
        Self {
            net,
            rank,
            replicas,
            pending: Mutex::new(VecDeque::new()),
        }
    }

    pub fn net(&self) -> &Arc<ReplicaNet> {
        &self.net
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The configured fan-out (`k` as requested, before clamping).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The fan-out actually used: `min(k, ranks − 1)`. With `k ≥ n` the
    /// naive ring walk `rank+1 … rank+k (mod n)` wraps past the whole
    /// ring, "replicating" to the sender itself and double-counting
    /// peers — a self-copy survives exactly the failures the original
    /// does, i.e. it adds zero durability while inflating ack counts.
    pub fn effective_replicas(&self) -> usize {
        self.replicas.min(self.net.num_ranks() - 1)
    }

    /// Replicas still waiting for a live target (tests/telemetry).
    pub fn pending_replicas(&self) -> usize {
        self.pending.lock().len()
    }

    /// The distinct ring successors of this rank:
    /// `rank+1 … rank+min(k, n−1) (mod n)` — clamped so the walk can
    /// never reach the sender, deduped defensively all the same.
    fn ring_peers(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.net.num_ranks();
        let mut seen = vec![false; n];
        seen[self.rank] = true;
        (1..=self.effective_replicas())
            .map(move |i| (self.rank + i) % n)
            .filter(move |&t| !std::mem::replace(&mut seen[t], true))
    }

    /// Retry the backlog: original target first (it may have revived),
    /// then the other ring peers. Entries that still find no live target
    /// stay queued.
    fn rereplicate_pending(&self, rep: &mut SinkReport) {
        let mut pending = self.pending.lock();
        let backlog: Vec<PendingReplica> = pending.drain(..).collect();
        for p in backlog {
            let targets = std::iter::once(p.peer).chain(self.ring_peers().filter(|&t| t != p.peer));
            let mut landed = false;
            for t in targets {
                if self.net.send(self.rank, t, &p.key, &p.bytes).is_ok() {
                    rep.acks += 1;
                    rep.bytes += p.bytes.len() as u64;
                    landed = true;
                    break;
                }
            }
            if !landed {
                pending.push_back(p);
            }
        }
    }
}

impl ObjectSink for PeerTier {
    fn put_object(&self, key: &str, bytes: &[u8]) -> SinkReport {
        let mut rep = SinkReport {
            clamped: (self.replicas - self.effective_replicas()) as u64,
            ..SinkReport::default()
        };
        // "Next interval" re-replication happens first, so a healed peer
        // regains the dropped replica before (in key order) the fresh one.
        self.rereplicate_pending(&mut rep);
        let shared: Arc<Vec<u8>> = Arc::new(bytes.to_vec());
        for peer in self.ring_peers() {
            match self.net.send(self.rank, peer, key, bytes) {
                Ok(()) => {
                    rep.acks += 1;
                    rep.bytes += bytes.len() as u64;
                }
                Err(_) => {
                    // Dropped replica: account it, queue it for the next
                    // interval.
                    rep.errors += 1;
                    self.pending.lock().push_back(PendingReplica {
                        peer,
                        key: key.to_string(),
                        bytes: Arc::clone(&shared),
                    });
                }
            }
        }
        let mut pending = self.pending.lock();
        while pending.len() > Self::MAX_PENDING {
            pending.pop_front();
            rep.errors += 1;
        }
        rep
    }
}

impl RecoveryTier for PeerTier {
    fn name(&self) -> &'static str {
        "peer"
    }

    fn class(&self) -> DurabilityClass {
        DurabilityClass::Peer
    }

    // Peer replicas live in a peer's RAM: account landed fulls like the
    // memory tier (in-memory checkpoints, not storage writes). Replica
    // traffic is visible per tier (bytes/acks/errors) either way.
    fn counts_as(&self) -> Tier {
        Tier::Memory
    }

    fn backing(&self) -> TierBacking<'_> {
        TierBacking::Object(self)
    }
}

/// Read `src`'s replicas held on `host` through the standard storage
/// interface, so every store walker (`latest_valid_full_checkpoint`,
/// `diff_chain_from`, `sweep_unsealed`) works on a peer replica unchanged.
pub struct PeerReplicaBackend {
    net: Arc<ReplicaNet>,
    host: usize,
    src: usize,
    written: AtomicU64,
}

impl PeerReplicaBackend {
    pub fn new(net: Arc<ReplicaNet>, host: usize, src: usize) -> Self {
        Self {
            net,
            host,
            src,
            written: AtomicU64::new(0),
        }
    }
}

impl StorageBackend for PeerReplicaBackend {
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.net
            .send(self.src, self.host, key, data)
            .map_err(|e| io::Error::new(io::ErrorKind::NotConnected, e))?;
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn get(&self, key: &str) -> io::Result<Vec<u8>> {
        self.net
            .fetch(self.host, self.src, key)
            .map(|b| (*b).clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no replica {key}")))
    }

    fn len(&self, key: &str) -> io::Result<u64> {
        self.net
            .fetch(self.host, self.src, key)
            .map(|b| b.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no replica {key}")))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.net.keys(self.host, self.src))
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        self.net.erase(self.host, self.src, key);
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

/// Recovery sources for a lost rank, peer-priority order: one store per
/// surviving peer holding replicas of `lost`, ascending by rank. Feed
/// these (plus the durable store last) to
/// [`crate::trainer::Trainer::resume_tiered`].
pub fn peer_recovery_stores(
    net: &Arc<ReplicaNet>,
    lost: usize,
) -> Vec<(String, Arc<CheckpointStore>)> {
    net.holders_of(lost)
        .into_iter()
        .map(|host| {
            let backend = PeerReplicaBackend::new(Arc::clone(net), host, lost);
            (
                format!("peer:{host}"),
                Arc::new(CheckpointStore::new(Arc::new(backend))),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_tier_replicates_to_ring_successors() {
        let net = ReplicaNet::new(4);
        let tier = PeerTier::new(Arc::clone(&net), 1, 2);
        let rep = tier.put_object("full-0000000003.ckpt", b"blob");
        assert_eq!(
            rep,
            SinkReport {
                acks: 2,
                errors: 0,
                bytes: 8,
                clamped: 0
            }
        );
        assert_eq!(*net.fetch(2, 1, "full-0000000003.ckpt").unwrap(), b"blob");
        assert_eq!(*net.fetch(3, 1, "full-0000000003.ckpt").unwrap(), b"blob");
        assert!(net.fetch(0, 1, "full-0000000003.ckpt").is_none());
    }

    // Regression: with k ≥ n the ring walk `(rank + i) % n` used to wrap
    // around and target the sender itself (plus duplicate peers). The
    // effective fan-out must clamp to n − 1 distinct non-self peers and
    // the refused slots must be visible in the report.
    #[test]
    fn oversized_ring_clamps_and_never_self_targets() {
        let net = ReplicaNet::new(3);
        let tier = PeerTier::new(Arc::clone(&net), 1, 5); // k=5 ≥ n=3
        assert_eq!(tier.replicas(), 5, "requested k is preserved");
        assert_eq!(tier.effective_replicas(), 2, "effective k clamps to n−1");
        let peers: Vec<usize> = tier.ring_peers().collect();
        assert_eq!(peers, vec![2, 0], "distinct successors, sender excluded");
        let rep = tier.put_object("k", b"blob");
        assert_eq!(rep.acks, 2, "one replica per distinct peer");
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.bytes, 8);
        assert_eq!(rep.clamped, 3, "refused slots accounted per write");
        assert!(net.fetch(1, 1, "k").is_none(), "no self-replica ever lands");
        assert_eq!(*net.fetch(2, 1, "k").unwrap(), b"blob");
        assert_eq!(*net.fetch(0, 1, "k").unwrap(), b"blob");
    }

    #[test]
    fn dead_peer_drops_then_rereplicates_next_interval() {
        let net = ReplicaNet::new(2);
        let tier = PeerTier::new(Arc::clone(&net), 0, 1);
        net.kill(1);
        let rep = tier.put_object("k1", b"aaaa");
        assert_eq!(rep.acks, 0, "no live peer, nothing landed");
        assert_eq!(rep.errors, 1, "dropped replica accounted");
        assert_eq!(tier.pending_replicas(), 1);
        // Peer heals; the next interval re-replicates the backlog first.
        net.revive(1);
        let rep = tier.put_object("k2", b"bb");
        assert_eq!(rep.acks, 2, "backlog + fresh blob both land");
        assert_eq!(rep.errors, 0);
        assert_eq!(tier.pending_replicas(), 0);
        assert_eq!(*net.fetch(1, 0, "k1").unwrap(), b"aaaa");
        assert_eq!(*net.fetch(1, 0, "k2").unwrap(), b"bb");
    }

    #[test]
    fn rereplication_retargets_when_original_peer_stays_down() {
        let net = ReplicaNet::new(3);
        let tier = PeerTier::new(Arc::clone(&net), 0, 1); // ring peer: 1
        net.kill(1);
        let rep = tier.put_object("k", b"x");
        assert_eq!((rep.acks, rep.errors), (0, 1));
        // Peer 1 stays dead: with only one ring peer there is no
        // alternative target yet, so widen the ring via a k=2 tier.
        let wide = PeerTier::new(Arc::clone(&net), 0, 2); // ring: 1, 2
        let rep = wide.put_object("k", b"x");
        assert_eq!(rep.acks, 1, "replica lands on the surviving ring peer");
        assert_eq!(rep.errors, 1, "the dead peer's copy is still dropped");
        assert_eq!(*net.fetch(2, 0, "k").unwrap(), b"x");
        // Next interval: the pending copy for peer 1 retargets to peer 2;
        // the fresh blob still loses its peer-1 replica (queued again).
        let rep = wide.put_object("k2", b"y");
        assert_eq!(rep.acks, 2, "backlog retargeted + surviving fresh replica");
        assert_eq!(rep.errors, 1, "the dead peer keeps dropping its copy");
        assert_eq!(*net.fetch(2, 0, "k2").unwrap(), b"y");
        assert_eq!(wide.pending_replicas(), 1);
    }

    #[test]
    fn replica_backend_roundtrips_through_store_walkers() {
        use lowdiff_optim::ModelState;
        let net = ReplicaNet::new(2);
        let tier = PeerTier::new(Arc::clone(&net), 0, 1);
        // Replicate an encoded full exactly as the engine would.
        let state = ModelState::new(vec![1.0, 2.0, 3.0]);
        let bytes = lowdiff_storage::codec::encode_full_checkpoint(
            &state,
            &lowdiff_compress::AuxView::NONE,
        );
        tier.put_object(&CheckpointStore::full_key(0), &bytes);
        let sources = peer_recovery_stores(&net, 0);
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].0, "peer:1");
        let rec = sources[0].1.latest_valid_full().unwrap().unwrap();
        assert_eq!(rec.params, vec![1.0, 2.0, 3.0]);
    }
}
