//! The decorators are transparent: a run through `TimedStrategy` and
//! `TimedBackend` stores the same bytes and reports the same
//! `StrategyStats` counts as the undecorated run.

use ldbench::probe::{TimedBackend, TimedStrategy};
use lowdiff::engine::HEALTH_KEY;
use lowdiff::{
    CheckpointStrategy, LowDiffConfig, LowDiffPlusConfig, LowDiffPlusStrategy, LowDiffStrategy,
    StrategyStats, Trainer, TrainerConfig,
};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{CheckpointStore, MemoryBackend, StorageBackend, StripeCfg};
use std::sync::Arc;

const ITERS: u64 = 35;
const DIMS: [usize; 3] = [8, 32, 4];

/// Every stored object except the health blob, whose contents are
/// timings.
fn blobs(mem: &MemoryBackend) -> Vec<(String, Vec<u8>)> {
    mem.list()
        .unwrap()
        .into_iter()
        .filter(|k| k != HEALTH_KEY)
        .map(|k| {
            let v = mem.get(&k).unwrap();
            (k, v)
        })
        .collect()
}

/// The deterministic part of the stats: counts, never timings.
fn counts(s: &StrategyStats) -> Vec<u64> {
    let e = &s.engine;
    let mut v = vec![
        s.diff_checkpoints,
        s.full_checkpoints,
        s.writes,
        s.bytes_written,
        s.diff_bytes_written,
        s.io_errors,
        s.io_retries,
        s.dropped_diffs,
        s.dropped_batches,
        s.forced_fulls,
        u64::from(s.degraded),
        e.queue_capacity,
        e.cow_chunks,
        e.sweep_chunks,
        e.snapshot.count,
        e.encode.count,
        e.persist.count,
    ];
    for t in &s.tiers {
        v.extend([t.bytes, t.acks, t.errors, t.clamped]);
    }
    v
}

struct Outcome {
    blobs: Vec<(String, Vec<u8>)>,
    stats: StrategyStats,
    state: ModelState,
    backend: Option<Arc<TimedBackend>>,
}

fn train<S: CheckpointStrategy>(strategy: S, tcfg: TrainerConfig) -> (StrategyStats, ModelState) {
    let task = Regression::new(DIMS[0], DIMS[2], 3);
    let mut tr = Trainer::new(mlp(&DIMS, 5), Adam::default(), strategy, tcfg);
    let report = tr.run_with_data(ITERS, |net, _t, rng| {
        let (x, y) = task.batch(rng, 4);
        let pred = net.forward(&x);
        mse(&pred, &y)
    });
    (report.stats, tr.state().clone())
}

/// Run the same training with or without both decorators.
fn run(decorated: bool, lowdiff_plus: bool) -> Outcome {
    let mem = Arc::new(MemoryBackend::new());
    let timed = decorated.then(|| {
        Arc::new(TimedBackend::new(
            Arc::clone(&mem) as Arc<dyn StorageBackend>,
            true,
        ))
    });
    let backend: Arc<dyn StorageBackend> = match &timed {
        Some(t) => Arc::clone(t) as Arc<dyn StorageBackend>,
        None => Arc::clone(&mem) as Arc<dyn StorageBackend>,
    };
    let store = Arc::new(CheckpointStore::new(backend));
    // Two stripes with a tiny threshold: fulls take the ranged path.
    let stripe = StripeCfg {
        stripes: 2,
        min_stripe_bytes: 256,
    };
    let (stats, state) = if lowdiff_plus {
        let initial = ModelState::new(mlp(&DIMS, 5).params_flat());
        let cfg = LowDiffPlusConfig {
            persist_every: 10,
            snapshot_threads: 2,
            stripe,
            ..LowDiffPlusConfig::default()
        };
        let s = LowDiffPlusStrategy::new(store, cfg, initial);
        let tcfg = TrainerConfig {
            compress_ratio: None,
            error_feedback: false,
            ..TrainerConfig::default()
        };
        if decorated {
            train(TimedStrategy::new(s, true), tcfg)
        } else {
            train(s, tcfg)
        }
    } else {
        let cfg = LowDiffConfig {
            full_every: 10,
            batch_size: 3,
            stripe,
            ..LowDiffConfig::default()
        };
        let s = LowDiffStrategy::new(store, cfg);
        let tcfg = TrainerConfig {
            compress_ratio: Some(0.1),
            ..TrainerConfig::default()
        };
        if decorated {
            train(TimedStrategy::new(s, true), tcfg)
        } else {
            train(s, tcfg)
        }
    };
    Outcome {
        blobs: blobs(&mem),
        stats,
        state,
        backend: timed,
    }
}

fn assert_transparent(lowdiff_plus: bool) {
    let bare = run(false, lowdiff_plus);
    let timed = run(true, lowdiff_plus);
    assert!(!bare.blobs.is_empty());
    assert_eq!(
        bare.blobs, timed.blobs,
        "decorated run stored different bytes"
    );
    assert_eq!(
        counts(&bare.stats),
        counts(&timed.stats),
        "decorated run reported different stats"
    );
    assert_eq!(bare.state, timed.state, "decorated run trained differently");

    // The ranged path was forwarded, not emulated by the trait's default
    // (which would stage `.tmp-part-` blobs through `put`).
    let backend = timed.backend.expect("decorated run has a timing backend");
    assert!(
        backend.tally().ranged_calls > 0,
        "striped fulls never reached put_ranged"
    );
    assert!(backend
        .puts()
        .iter()
        .all(|p| p.ok && !p.key.starts_with(".tmp-part-")));
    let stored: u64 = bare.blobs.iter().map(|(_, b)| b.len() as u64).sum();
    assert!(
        backend.bytes_accepted() >= stored,
        "decorator lost accepted bytes"
    );
}

#[test]
fn lowdiff_run_is_unchanged_by_the_decorators() {
    assert_transparent(false);
}

#[test]
fn lowdiff_plus_run_is_unchanged_by_the_decorators() {
    assert_transparent(true);
}

#[test]
fn strategy_decorator_times_every_hook_of_every_iteration() {
    let mem: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let store = Arc::new(CheckpointStore::new(mem));
    let s = TimedStrategy::new(LowDiffStrategy::new(store, LowDiffConfig::default()), true);
    let task = Regression::new(DIMS[0], DIMS[2], 3);
    let mut tr = Trainer::new(mlp(&DIMS, 5), Adam::default(), s, TrainerConfig::default());
    tr.run_with_data(ITERS, |net, _t, rng| {
        let (x, y) = task.batch(rng, 4);
        let pred = net.forward(&x);
        mse(&pred, &y)
    });
    let hooks = &tr.strategy().iters;
    assert_eq!(hooks.len() as u64, ITERS);
    for (i, h) in hooks.iter().enumerate() {
        assert_eq!(h.iteration, i as u64);
        let back = h.last_layer_out.expect("layer hooks fired");
        let (s_in, s_out) = h.synced.expect("synced hook fired");
        let (u_in, u_out) = h.update.expect("update hook fired");
        assert!(back <= s_in && s_in <= s_out && s_out <= u_in && u_in <= u_out);
    }
}
