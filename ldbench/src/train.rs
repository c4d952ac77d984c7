//! Training rounds over the real `Trainer`, strategies and `DiskBackend`,
//! and the resume entry points run on what they wrote.
//!
//! One round = build model + open store + construct strategy (set-up),
//! `run_with_data` for a fixed number of iterations, correctness gates on
//! the directory, then resumes from it. Untraced rounds carry only the
//! two end-to-end instruments (step-entry and put-completion stamps);
//! traced rounds add hook, step-return, put-start and read-side stamps.

use crate::lag::{durable_lags, Lags};
use crate::probe::{IoTally, PutRec, StepLog, TimedBackend, TimedStrategy};
use crate::report::Ledger;
use crate::stats::{ms, ms_between};
use lowdiff::{
    recover_serial, CheckpointStrategy, EngineCounters, LowDiffConfig, LowDiffPlusConfig,
    LowDiffPlusStrategy, LowDiffStrategy, NoCheckpoint, ResumeOpts, StrategyStats, Trainer,
    TrainerConfig,
};
use lowdiff_model::builders::{mlp, tiny_gpt};
use lowdiff_model::data::{MarkovText, Regression};
use lowdiff_model::loss::{mse, softmax_cross_entropy};
use lowdiff_model::Network;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{CheckpointStore, DiskBackend, StorageBackend};
use lowdiff_tensor::Tensor;
use lowdiff_util::DetRng;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Sequence length of the language-model workloads.
const SEQ: usize = 16;
/// Batch size of the dense MLP workload.
const MLP_BATCH: usize = 4;

/// Independent seeds derived from the one workload seed.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub model: u64,
    pub data: u64,
    pub text: u64,
}

impl Seeds {
    pub fn from_workload(seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        Self {
            model: rng.next_u64(),
            data: rng.next_u64(),
            text: rng.next_u64(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Model {
    /// `tiny_gpt` (vocab 64, d 128, 2 blocks) on `MarkovText`, seq 16.
    SparseLm,
    /// MLP [256, 1024, 1024, 1024, 16] on `Regression`, batch 4.
    DenseMlp,
}

#[derive(Clone, Debug)]
pub enum Ckpt {
    LowDiff(LowDiffConfig),
    LowDiffPlus(LowDiffPlusConfig),
    /// The W/O-CKPT rerun.
    None,
}

/// A training workload: model, trainer and checkpointing configuration,
/// and iterations per round.
#[derive(Clone, Debug)]
pub struct Spec {
    pub model: Model,
    pub tcfg: TrainerConfig,
    pub adam: Adam,
    pub ckpt: Ckpt,
    pub iters: u64,
    /// Diffs every resume of this workload must replay.
    pub replayed: usize,
}

impl Spec {
    pub fn net(&self, seeds: Seeds) -> Network {
        match self.model {
            Model::SparseLm => tiny_gpt(64, 128, 2, seeds.model),
            Model::DenseMlp => mlp(&[256, 1024, 1024, 1024, 16], seeds.model),
        }
    }

    fn task(&self, seeds: Seeds) -> Task {
        match self.model {
            Model::SparseLm => Task::Lm(MarkovText::new(64, seeds.text)),
            Model::DenseMlp => Task::Mlp(Regression::new(256, 16, seeds.text)),
        }
    }

    /// The same workload with checkpointing off.
    pub fn without_checkpointing(&self) -> Spec {
        Spec {
            ckpt: Ckpt::None,
            ..self.clone()
        }
    }
}

enum Task {
    Lm(MarkovText),
    Mlp(Regression),
}

impl Task {
    /// Forward + loss on one batch drawn from the trainer's data cursor.
    fn step(&self, net: &mut Network, rng: &mut DetRng) -> (f64, Tensor) {
        match self {
            Task::Lm(text) => {
                let (x, target) = text.sequence_tensor(rng, SEQ);
                let logits = net.forward(&x);
                softmax_cross_entropy(&logits, &target)
            }
            Task::Mlp(task) => {
                let (x, y) = task.batch(rng, MLP_BATCH);
                let pred = net.forward(&x);
                mse(&pred, &y)
            }
        }
    }
}

/// Per-iteration layer times of a traced round, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct LayerSamples {
    pub forward: Vec<f64>,
    pub backward: Vec<f64>,
    pub compress: Vec<f64>,
    pub optim: Vec<f64>,
    /// `after_update` return → next step entry (not defined for the last
    /// iteration, whose tail is the flush).
    pub materialize: Vec<f64>,
    pub layer_hooks: Vec<f64>,
    pub synced_hook: Vec<f64>,
    pub update_hook: Vec<f64>,
    pub flush: Vec<f64>,
    /// Step-to-step time minus every layer above, per iteration.
    pub unaccounted: Vec<f64>,
}

/// What a traced round adds to an untraced one.
#[derive(Clone, Debug, Default)]
pub struct TracedRound {
    pub layers: LayerSamples,
    pub puts: Vec<PutRec>,
    pub tally: IoTally,
    pub engine: EngineCounters,
}

/// One training round's measurements.
#[derive(Clone, Debug)]
pub struct Round {
    /// Round start → first step entry.
    pub setup_s: f64,
    pub iters: u64,
    /// First step entry → `run_with_data` return.
    pub run_s: f64,
    /// Step entry to next step entry (the last ends at the run's return).
    pub gaps_ms: Vec<f64>,
    pub lags: Lags,
    /// Bytes accepted by storage.
    pub bytes: u64,
    pub traced: Option<TracedRound>,
}

impl Round {
    pub fn iters_per_s(&self) -> f64 {
        self.iters as f64 / self.run_s
    }
}

/// The state a resume must reproduce bit for bit.
pub fn same_bits(a: &ModelState, b: &ModelState) -> bool {
    let eq = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.iteration == b.iteration
        && a.opt.t == b.opt.t
        && eq(&a.params, &b.params)
        && eq(&a.opt.m, &b.opt.m)
        && eq(&a.opt.v, &b.opt.v)
}

/// Mean loss of the last ten iterations is below that of the first ten.
pub fn learned(losses: &[f64]) -> bool {
    let k = losses.len().min(10);
    let first: f64 = losses[..k].iter().sum();
    let last: f64 = losses[losses.len() - k..].iter().sum();
    k > 0 && last < first
}

fn disk(dir: &Path) -> io::Result<Arc<dyn StorageBackend>> {
    Ok(Arc::new(DiskBackend::new(dir)?))
}

/// A finished training run, before its measurements are taken.
struct Trained {
    t0: Instant,
    backend: Arc<TimedBackend>,
    run: RunOut,
    state: ModelState,
}

/// Build model, store and strategy in `dir` (the set-up, timed from
/// `t0`), then train `iters` iterations. With a ledger, the strategy's own
/// recovery paths are checked against the live state.
fn train(
    spec: &Spec,
    seeds: Seeds,
    dir: &Path,
    iters: u64,
    trace: bool,
    gates: Option<&mut Ledger>,
) -> io::Result<Trained> {
    let t0 = Instant::now();
    let net = spec.net(seeds);
    let backend = Arc::new(TimedBackend::new(disk(dir)?, trace));
    let store = Arc::new(CheckpointStore::new(
        Arc::clone(&backend) as Arc<dyn StorageBackend>
    ));
    let task = spec.task(seeds);
    let (tcfg, adam) = (spec.tcfg.clone(), spec.adam);
    let (state, run) = match &spec.ckpt {
        Ckpt::LowDiff(c) => {
            let s = LowDiffStrategy::new(store, c.clone());
            let tr = Trainer::new(net, adam, TimedStrategy::new(s, trace), tcfg);
            let (tr, run) = drive(tr, iters, &task, trace);
            if let Some(ledger) = gates {
                let recovered = recover_serial(&CheckpointStore::new(disk(dir)?), &adam)?;
                ledger.gate(
                    recovered
                        .as_ref()
                        .is_some_and(|(s, _)| same_bits(s, tr.state())),
                    || "lowdiff: recover_serial does not reproduce the live params, m and v".into(),
                );
            }
            (tr.state().clone(), run)
        }
        Ckpt::LowDiffPlus(c) => {
            let initial = ModelState::new(net.params_flat());
            let s = LowDiffPlusStrategy::new(store, c.clone(), initial);
            let tr = Trainer::new(net, adam, TimedStrategy::new(s, trace), tcfg);
            let (tr, run) = drive(tr, iters, &task, trace);
            let live = tr.state();
            if let Some(ledger) = gates {
                ledger.gate(
                    same_bits(&tr.strategy().inner().recover_software(), live),
                    || "dense: recover_software differs from the live state".into(),
                );
                let last_persist = live.iteration / c.persist_every * c.persist_every;
                let hw = LowDiffPlusStrategy::recover_hardware(&CheckpointStore::new(disk(dir)?))?;
                ledger.gate(
                    hw.as_ref().map(|s| s.iteration) == Some(last_persist),
                    || format!("dense: recover_hardware is not at iteration {last_persist}"),
                );
            }
            (live.clone(), run)
        }
        Ckpt::None => {
            let tr = Trainer::new(
                net,
                adam,
                TimedStrategy::new(NoCheckpoint::new(), trace),
                tcfg,
            );
            let (tr, run) = drive(tr, iters, &task, trace);
            (tr.state().clone(), run)
        }
    };
    Ok(Trained {
        t0,
        backend,
        run,
        state,
    })
}

/// Train one round in `dir` and gate it. Returns the round and the live
/// final state (what every resume of `dir` must reproduce).
pub fn round(
    spec: &Spec,
    seeds: Seeds,
    dir: &Path,
    trace: bool,
    ledger: &mut Ledger,
) -> io::Result<(Round, ModelState)> {
    let Trained {
        t0,
        backend,
        run,
        state,
    } = train(spec, seeds, dir, spec.iters, trace, Some(ledger))?;
    let RunOut {
        steps,
        end,
        losses,
        stats,
        hooks,
        flush,
    } = run;
    ledger.gate(learned(&losses), || {
        "loss did not fall over the round".into()
    });
    ledger.gate(stats.healthy(), || {
        format!("strategy stats unhealthy: {stats:?}")
    });

    // Iteration t returns at the next step's entry; the last at the run's return.
    let returns: Vec<Instant> = steps.entries[1..].iter().copied().chain([end]).collect();
    let gaps_ms: Vec<f64> = steps
        .entries
        .iter()
        .zip(&returns)
        .map(|(a, b)| ms_between(*a, *b))
        .collect();
    let puts = backend.puts();
    let secs = |t: Instant| ms_between(t0, t) / 1e3;
    let writes: Vec<(&str, f64)> = puts
        .iter()
        .filter(|p| p.ok)
        .map(|p| (p.key.as_str(), secs(p.end)))
        .collect();
    let ret_s: Vec<f64> = returns.iter().map(|&t| secs(t)).collect();
    let lags = match spec.ckpt {
        Ckpt::None => Lags::default(),
        _ => durable_lags(state.iteration - spec.iters, &ret_s, &writes),
    };
    let tally = backend.tally();
    ledger.ops(
        spec.iters + puts.len() as u64 + tally.ranged_calls,
        tally.errors + stats.io_errors + stats.dropped_batches + u64::from(stats.degraded),
    );
    if !matches!(spec.ckpt, Ckpt::None) {
        ledger.gate(lags.uncovered == 0, || {
            format!("{} iterations never became recoverable", lags.uncovered)
        });
    }

    let traced = trace.then(|| TracedRound {
        layers: layer_samples(&steps, &hooks, end, flush),
        puts: puts.clone(),
        tally: tally.clone(),
        engine: stats.engine.clone(),
    });
    let round = Round {
        setup_s: ms_between(t0, steps.entries[0]) / 1e3,
        iters: spec.iters,
        run_s: ms_between(steps.entries[0], end) / 1e3,
        gaps_ms,
        lags,
        bytes: backend.bytes_accepted(),
        traced,
    };
    Ok((round, state))
}

/// One set-up — the same construction a round makes — timed from its
/// start to the entry of the first step of a one-iteration run. Returns
/// the set-up time in seconds.
pub fn setup_once(spec: &Spec, seeds: Seeds, dir: &Path, ledger: &mut Ledger) -> io::Result<f64> {
    let Trained {
        t0, backend, run, ..
    } = train(spec, seeds, dir, 1, false, None)?;
    let failed = backend.tally().errors + run.stats.io_errors + u64::from(run.stats.degraded);
    ledger.ops(1, failed);
    Ok(ms_between(t0, run.steps.entries[0]) / 1e3)
}

struct RunOut {
    steps: StepLog,
    end: Instant,
    losses: Vec<f64>,
    stats: StrategyStats,
    hooks: Vec<crate::probe::IterHooks>,
    flush: f64,
}

fn drive<S: CheckpointStrategy>(
    mut tr: Trainer<TimedStrategy<S>>,
    iters: u64,
    task: &Task,
    trace: bool,
) -> (Trainer<TimedStrategy<S>>, RunOut) {
    let mut steps = StepLog::new(trace);
    let report = tr.run_with_data(iters, |net, _t, rng| {
        steps.enter();
        let out = task.step(net, rng);
        steps.leave();
        out
    });
    let end = Instant::now();
    let hooks = std::mem::take(&mut tr.strategy_mut().iters);
    let flush = ms(tr.strategy().flush);
    let run = RunOut {
        steps,
        end,
        losses: report.losses,
        stats: report.stats,
        hooks,
        flush,
    };
    (tr, run)
}

/// Split each traced iteration's step-to-step interval into layers.
fn layer_samples(
    steps: &StepLog,
    hooks: &[crate::probe::IterHooks],
    end: Instant,
    flush_ms: f64,
) -> LayerSamples {
    let mut l = LayerSamples::default();
    let n = steps.entries.len();
    for (i, h) in hooks.iter().enumerate().take(n) {
        let (Some(back_end), Some((s_in, s_out)), Some((u_in, u_out))) =
            (h.last_layer_out, h.synced, h.update)
        else {
            continue;
        };
        let step_in = steps.entries[i];
        let step_out = steps.returns[i];
        let hooks_ms = ms(h.layer_hooks);
        let fwd = ms_between(step_in, step_out);
        let bwd = ms_between(step_out, back_end) - hooks_ms;
        let comp = ms_between(back_end, s_in);
        let sync = ms_between(s_in, s_out);
        let opt = ms_between(s_out, u_in);
        let upd = ms_between(u_in, u_out);
        let (next, mat) = if i + 1 < n {
            let m = ms_between(u_out, steps.entries[i + 1]);
            l.materialize.push(m);
            (steps.entries[i + 1], m)
        } else {
            (end, flush_ms)
        };
        let gap = ms_between(step_in, next);
        l.forward.push(fwd);
        l.backward.push(bwd);
        l.compress.push(comp);
        l.optim.push(opt);
        l.layer_hooks.push(hooks_ms);
        l.synced_hook.push(sync);
        l.update_hook.push(upd);
        l.unaccounted
            .push(gap - (fwd + bwd + hooks_ms + comp + sync + opt + upd + mat));
    }
    l.flush.push(flush_ms);
    l
}

/// One timed resume through the public entry point, gated against the
/// live state. Returns its wall time in seconds.
pub fn resume_once(
    spec: &Spec,
    seeds: Seeds,
    dir: &Path,
    live: &ModelState,
    ledger: &mut Ledger,
) -> io::Result<f64> {
    let net = spec.net(seeds);
    let t0 = Instant::now();
    let store = CheckpointStore::new(disk(dir)?);
    let r = Trainer::resume(
        net,
        spec.adam,
        NoCheckpoint::new(),
        spec.tcfg.clone(),
        &store,
    );
    let secs = t0.elapsed().as_secs_f64();
    ledger.ops(1, 0);
    match r {
        Ok(Some((tr, rep))) => {
            let ok = !rep.lossy && rep.replayed == spec.replayed && same_bits(tr.state(), live);
            if !ok {
                ledger.failed += 1;
            }
            ledger.gate(ok, || {
                format!(
                    "resume at {} replayed {} (want {}), lossy {}, bit-exact {}",
                    rep.resumed_iteration,
                    rep.replayed,
                    spec.replayed,
                    rep.lossy,
                    same_bits(tr.state(), live)
                )
            });
        }
        Ok(None) => {
            ledger.failed += 1;
            ledger.gate(false, || "resume found no full checkpoint".into());
        }
        Err(e) => {
            ledger.failed += 1;
            ledger.gate(false, || format!("resume failed: {e}"));
        }
    }
    Ok(secs)
}

/// The public steps `Trainer::resume` makes, called one by one through a
/// tracing backend, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct ResumeParts {
    pub sweep: f64,
    pub full_read: f64,
    pub full_decode: f64,
    pub chain_read: f64,
    pub chain_decode: f64,
    pub replay: f64,
    pub replayed: usize,
    pub tally: IoTally,
}

pub fn resume_traced(
    spec: &Spec,
    seeds: Seeds,
    dir: &Path,
    live: &ModelState,
    ledger: &mut Ledger,
) -> io::Result<ResumeParts> {
    let net = spec.net(seeds);
    let backend = Arc::new(TimedBackend::new(disk(dir)?, true));
    let store = CheckpointStore::new(Arc::clone(&backend) as Arc<dyn StorageBackend>);
    let read_ms = || ms(backend.tally().read_time());

    let t0 = Instant::now();
    store.sweep_unsealed()?;
    let t1 = Instant::now();
    let r0 = read_ms();
    let fc = store
        .latest_valid_full_checkpoint()?
        .ok_or_else(|| io::Error::other("no full checkpoint to resume from"))?;
    let t2 = Instant::now();
    let r1 = read_ms();
    // The trainer's replay gate: an error-feedback residual anchors the
    // resume at the full, so the chain is not fetched.
    let ef_on = spec.tcfg.error_feedback && spec.tcfg.compress_ratio.is_some();
    let chain = if ef_on && fc.aux.residual.is_some() {
        Vec::new()
    } else {
        store.diff_chain_from(fc.state.iteration)?
    };
    let t3 = Instant::now();
    let r2 = read_ms();
    let (tr, rep) = Trainer::resume_from_parts(
        net,
        spec.adam,
        NoCheckpoint::new(),
        spec.tcfg.clone(),
        fc,
        chain,
        ResumeOpts::default(),
    )?;
    let t4 = Instant::now();
    ledger.ops(1, 0);
    let ok = !rep.lossy && rep.replayed == spec.replayed && same_bits(tr.state(), live);
    if !ok {
        ledger.failed += 1;
    }
    ledger.gate(ok, || {
        "traced resume is lossy, short or not bit-exact".into()
    });
    Ok(ResumeParts {
        sweep: ms_between(t0, t1),
        full_read: r1 - r0,
        full_decode: ms_between(t1, t2) - (r1 - r0),
        chain_read: r2 - r1,
        chain_decode: ms_between(t2, t3) - (r2 - r1),
        replay: ms_between(t3, t4),
        replayed: rep.replayed,
        tally: backend.tally(),
    })
}
