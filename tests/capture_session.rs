//! The capture-session contract of full checkpoints.
//!
//! * A caller that never opened a capture session (`prime`) may overwrite
//!   and free its state as soon as `after_update` returns: the full was
//!   copied into its frame before the hook returned (eager capture).
//! * The trainer opens a session, so its fulls are filled after the hook
//!   returns — by the copy-on-write hooks and the engine worker's sweep
//!   (deferred capture).

use lowdiff::{
    AuxState, CheckpointStrategy, CompressorCfg, LowDiffConfig, LowDiffStrategy, Trainer,
    TrainerConfig, COW_CHUNK_ELEMS,
};
use lowdiff_baselines::{CheckFreqStrategy, GeminiStrategy};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec;
use lowdiff_storage::{CheckpointStore, MemoryBackend, StorageBackend};
use lowdiff_util::DetRng;
use parking_lot::{Condvar, Mutex};
use std::io;
use std::sync::Arc;

/// Holds the first `put` until [`GatedBackend::open`]: the engine worker
/// blocks inside the first full's persist, so every later job waits in
/// the queue while the test mutates the caller's state.
#[derive(Default)]
struct GatedBackend {
    inner: MemoryBackend,
    /// `(first put seen, gate open)`.
    gate: Mutex<(bool, bool)>,
    opened: Condvar,
}

impl GatedBackend {
    fn open(&self) {
        self.gate.lock().1 = true;
        self.opened.notify_all();
    }
}

impl StorageBackend for GatedBackend {
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
        let mut gate = self.gate.lock();
        if !gate.0 {
            gate.0 = true;
            while !gate.1 {
                self.opened.wait(&mut gate);
            }
        }
        drop(gate);
        self.inner.put(key, data)
    }
    fn get(&self, key: &str) -> io::Result<Vec<u8>> {
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

/// A state spanning several capture chunks per region, at `iteration`.
fn random_state(rng: &mut DetRng, iteration: u64) -> (ModelState, AuxState) {
    let psi = 3 * COW_CHUNK_ELEMS + 5;
    let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
    rng.fill_normal_f32(&mut state.opt.m, 0.1);
    rng.fill_normal_f32(&mut state.opt.v, 0.01);
    state.iteration = iteration;
    state.opt.t = iteration;
    let aux = AuxState {
        residual: Some((0..psi).map(|_| rng.normal() as f32).collect()),
        compressor: Some(CompressorCfg::topk(0.01)),
        rng: Some([1, 2, 3, 4]),
        quant: None,
    };
    (state, aux)
}

/// An unsessioned caller submits two fulls — the first one's persist
/// holds the worker — then overwrites and drops the state behind the
/// second. The stored second full must still be the state at submit.
fn unsessioned_full_is_the_state_at_submit(
    what: &str,
    make: impl FnOnce(Arc<CheckpointStore>) -> Box<dyn CheckpointStrategy>,
) {
    let backend = Arc::new(GatedBackend::default());
    let store = Arc::new(CheckpointStore::new(
        Arc::clone(&backend) as Arc<dyn StorageBackend>
    ));
    let mut strat = make(Arc::clone(&store));
    let mut rng = DetRng::new(0x5E55);

    let (first, first_aux) = random_state(&mut rng, 1);
    strat.after_update(&first, &first_aux.view());
    let (mut state, mut aux) = random_state(&mut rng, 2);
    strat.after_update(&state, &aux.view());
    let want = codec::encode_full_checkpoint(&state, &aux.view());

    // The hook returned: the caller owns its buffers again.
    state.params.fill(f32::NAN);
    state.opt.m.fill(-1.0);
    state.opt.v.fill(-2.0);
    aux.residual.as_mut().unwrap().fill(-3.0);
    drop((state, aux));

    backend.open();
    strat.flush();
    let got = store
        .backend()
        .get(&CheckpointStore::full_key(2))
        .unwrap_or_else(|e| panic!("{what}: full-2 missing: {e}"));
    assert!(
        got == want,
        "{what}: the stored full is not the state at submit"
    );
}

#[test]
fn lowdiff_unsessioned_full_is_the_state_at_submit() {
    unsessioned_full_is_the_state_at_submit("lowdiff", |store| {
        Box::new(LowDiffStrategy::new(
            store,
            LowDiffConfig {
                full_every: 1,
                ..LowDiffConfig::default()
            },
        ))
    });
}

#[test]
fn checkfreq_unsessioned_full_is_the_state_at_submit() {
    unsessioned_full_is_the_state_at_submit("checkfreq", |store| {
        Box::new(CheckFreqStrategy::new(store, 1))
    });
}

#[test]
fn gemini_unsessioned_full_is_the_state_at_submit() {
    unsessioned_full_is_the_state_at_submit("gemini", |store| {
        Box::new(GeminiStrategy::new(store, 1, 1))
    });
}

/// A default-config trainer run defers its full checkpoints: the only full
/// (iteration 20, the last update) is never mutated afterwards, so the
/// worker's sweep captures its chunks — an eager capture would have
/// copied them all on the training thread.
#[test]
fn trainer_runs_defer_full_captures() {
    let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    let strat = LowDiffStrategy::new(Arc::clone(&store), LowDiffConfig::default());
    let mut tr = Trainer::new(
        mlp(&[4, 8, 2], 3),
        Adam::default(),
        strat,
        TrainerConfig::default(),
    );
    let task = Regression::new(4, 2, 7);
    let report = tr.run_with_data(20, |net, _t, rng| {
        let (x, y) = task.batch(rng, 8);
        mse(&net.forward(&x), &y)
    });
    assert_eq!(store.full_iterations().unwrap(), vec![20]);
    let e = &report.stats.engine;
    assert!(e.cow_chunks + e.sweep_chunks > 0, "no full was captured");
    assert!(e.sweep_chunks > 0, "the full was captured eagerly");
}
