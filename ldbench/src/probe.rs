//! The benchmark's instruments. Every one times calls into a layer's
//! public API from outside the program:
//!
//! * [`StepLog`] — timestamps taken by the bench-owned step closure
//!   (entry always; return only when tracing);
//! * [`TimedStrategy`] — a [`CheckpointStrategy`] decorator timing every
//!   training-thread hook around the inner strategy;
//! * [`TimedBackend`] — a [`StorageBackend`] decorator handed to
//!   `CheckpointStore::new`, logging every put's completion (and, when
//!   tracing, its start plus every get/list).
//!
//! The decorators forward every call unchanged, so the stored bytes and
//! the reported `StrategyStats` are those of the undecorated run (see
//! `tests/instruments.rs`).

use lowdiff::{CheckpointStrategy, CowTicket, StrategyStats};
use lowdiff_compress::{AuxView, CompressedGrad};
use lowdiff_optim::ModelState;
use lowdiff_storage::StorageBackend;
use lowdiff_util::units::Secs;
use std::io;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Step-closure timestamps: `entries[i]` is when iteration `i` of the run
/// entered the closure, `returns[i]` (traced runs only) when it left.
#[derive(Default)]
pub struct StepLog {
    trace: bool,
    pub entries: Vec<Instant>,
    pub returns: Vec<Instant>,
}

impl StepLog {
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            ..Self::default()
        }
    }

    pub fn enter(&mut self) {
        self.entries.push(Instant::now());
    }

    pub fn leave(&mut self) {
        if self.trace {
            self.returns.push(Instant::now());
        }
    }
}

/// Hook timestamps of one training iteration, as seen by [`TimedStrategy`].
#[derive(Clone, Debug)]
pub struct IterHooks {
    pub iteration: u64,
    /// Summed time inside `on_layer_gradient` calls.
    pub layer_hooks: Duration,
    /// Return of the last `on_layer_gradient` call (end of backward).
    pub last_layer_out: Option<Instant>,
    /// `on_synced_gradient` entry and return.
    pub synced: Option<(Instant, Instant)>,
    /// `after_update` entry and return.
    pub update: Option<(Instant, Instant)>,
}

impl IterHooks {
    fn new(iteration: u64) -> Self {
        Self {
            iteration,
            layer_hooks: Duration::ZERO,
            last_layer_out: None,
            synced: None,
            update: None,
        }
    }
}

/// [`CheckpointStrategy`] decorator that, when tracing, timestamps every
/// hook the training thread calls; untraced it only forwards. `prime`,
/// `take_pending_capture`, `flush` and `stats` are forwarded unchanged
/// (`flush` is timed as well when tracing).
pub struct TimedStrategy<S> {
    inner: S,
    trace: bool,
    pub iters: Vec<IterHooks>,
    pub flush: Duration,
}

impl<S: CheckpointStrategy> TimedStrategy<S> {
    pub fn new(inner: S, trace: bool) -> Self {
        Self {
            inner,
            trace,
            iters: Vec::new(),
            flush: Duration::ZERO,
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The record of `iteration`, started on its first hook.
    fn record(&mut self, iteration: u64) -> &mut IterHooks {
        if self.iters.last().is_none_or(|r| r.iteration != iteration) {
            self.iters.push(IterHooks::new(iteration));
        }
        self.iters.last_mut().expect("record pushed above")
    }
}

impl<S: CheckpointStrategy> CheckpointStrategy for TimedStrategy<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.inner.prime(state, aux)
    }

    fn on_layer_gradient(
        &mut self,
        iteration: u64,
        layer: usize,
        range: Range<usize>,
        grad: &[f32],
    ) -> Secs {
        if !self.trace {
            return self.inner.on_layer_gradient(iteration, layer, range, grad);
        }
        let t0 = Instant::now();
        let stall = self.inner.on_layer_gradient(iteration, layer, range, grad);
        let t1 = Instant::now();
        let r = self.record(iteration);
        r.layer_hooks += t1 - t0;
        r.last_layer_out = Some(t1);
        stall
    }

    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        grad: &Arc<CompressedGrad>,
        aux: &AuxView<'_>,
    ) -> Secs {
        if !self.trace {
            return self.inner.on_synced_gradient(iteration, grad, aux);
        }
        let t0 = Instant::now();
        let stall = self.inner.on_synced_gradient(iteration, grad, aux);
        let t1 = Instant::now();
        self.record(iteration).synced = Some((t0, t1));
        stall
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        if !self.trace {
            return self.inner.after_update(state, aux);
        }
        let t0 = Instant::now();
        let stall = self.inner.after_update(state, aux);
        let t1 = Instant::now();
        // `state` is M_{t+1}: the update belongs to iteration t.
        self.record(state.iteration - 1).update = Some((t0, t1));
        stall
    }

    fn take_pending_capture(&mut self) -> Option<Arc<CowTicket>> {
        self.inner.take_pending_capture()
    }

    fn flush(&mut self) -> Secs {
        if !self.trace {
            return self.inner.flush();
        }
        let t0 = Instant::now();
        let stall = self.inner.flush();
        self.flush += t0.elapsed();
        stall
    }

    fn stats(&self) -> StrategyStats {
        self.inner.stats()
    }
}

/// One completed (or failed) object write: a plain `put`, or the
/// `finish_ranged` seal that makes a ranged object visible.
#[derive(Clone, Debug)]
pub struct PutRec {
    pub key: String,
    /// Call entry; equal to `end` in untraced mode (one timestamp per put).
    pub start: Instant,
    pub end: Instant,
    /// Bytes this call handed to storage.
    pub bytes: u64,
    pub ok: bool,
}

/// Read-side and error tallies of a [`TimedBackend`].
#[derive(Clone, Debug, Default)]
pub struct IoTally {
    pub gets: u64,
    pub get_bytes: u64,
    pub get_time: Duration,
    pub lists: u64,
    pub list_time: Duration,
    /// Bytes accepted by `put_ranged` calls (their seals carry 0 bytes).
    pub ranged_bytes: u64,
    pub ranged_calls: u64,
    /// Failed calls of any kind.
    pub errors: u64,
}

impl IoTally {
    /// Time spent in read-side calls (get + len + list).
    pub fn read_time(&self) -> Duration {
        self.get_time + self.list_time
    }
}

/// [`StorageBackend`] decorator recording every write's completion time
/// and byte count; with `trace` on it also records write start times and
/// times every read-side call. All calls — including `len`, `put_ranged`
/// and `finish_ranged` — are forwarded to the inner backend unchanged.
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    trace: bool,
    puts: Mutex<Vec<PutRec>>,
    tally: Mutex<IoTally>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a bench thread panicked while logging storage calls")
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, trace: bool) -> Self {
        Self {
            inner,
            trace,
            puts: Mutex::new(Vec::new()),
            tally: Mutex::new(IoTally::default()),
        }
    }

    /// Every write recorded so far, in completion order.
    pub fn puts(&self) -> Vec<PutRec> {
        lock(&self.puts).clone()
    }

    pub fn tally(&self) -> IoTally {
        lock(&self.tally).clone()
    }

    /// Bytes accepted by successful writes (plain puts + ranged parts).
    pub fn bytes_accepted(&self) -> u64 {
        let plain: u64 = lock(&self.puts)
            .iter()
            .filter(|p| p.ok)
            .map(|p| p.bytes)
            .sum();
        plain + self.tally().ranged_bytes
    }

    fn now_if_traced(&self) -> Option<Instant> {
        self.trace.then(Instant::now)
    }

    fn log_put(&self, key: &str, start: Option<Instant>, bytes: u64, ok: bool) {
        let end = Instant::now();
        lock(&self.puts).push(PutRec {
            key: key.to_string(),
            start: start.unwrap_or(end),
            end,
            bytes,
            ok,
        });
        if !ok {
            lock(&self.tally).errors += 1;
        }
    }

    /// Time a read-side call (when tracing) and count its failure.
    fn read<T>(
        &self,
        f: impl FnOnce() -> io::Result<T>,
        note: impl FnOnce(&mut IoTally, &T, Duration),
    ) -> io::Result<T> {
        let t0 = self.now_if_traced();
        let r = f();
        let dt = t0.map_or(Duration::ZERO, |t| t.elapsed());
        let mut tally = lock(&self.tally);
        match &r {
            Ok(v) => note(&mut tally, v, dt),
            Err(_) => tally.errors += 1,
        }
        r
    }
}

impl StorageBackend for TimedBackend {
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
        let t0 = self.now_if_traced();
        let r = self.inner.put(key, data);
        self.log_put(key, t0, data.len() as u64, r.is_ok());
        r
    }

    fn get(&self, key: &str) -> io::Result<Vec<u8>> {
        self.read(
            || self.inner.get(key),
            |t, v, dt| {
                t.gets += 1;
                t.get_bytes += v.len() as u64;
                t.get_time += dt;
            },
        )
    }

    fn len(&self, key: &str) -> io::Result<u64> {
        self.read(|| self.inner.len(key), |t, _, dt| t.get_time += dt)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.read(
            || self.inner.list(),
            |t, _, dt| {
                t.lists += 1;
                t.list_time += dt;
            },
        )
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        let r = self.inner.delete(key);
        if r.is_err() {
            lock(&self.tally).errors += 1;
        }
        r
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn put_ranged(&self, key: &str, offset: u64, total_len: u64, data: &[u8]) -> io::Result<()> {
        let r = self.inner.put_ranged(key, offset, total_len, data);
        let mut tally = lock(&self.tally);
        tally.ranged_calls += 1;
        match &r {
            Ok(()) => tally.ranged_bytes += data.len() as u64,
            Err(_) => tally.errors += 1,
        }
        r
    }

    fn finish_ranged(&self, key: &str, total_len: u64) -> io::Result<()> {
        let t0 = self.now_if_traced();
        let r = self.inner.finish_ranged(key, total_len);
        self.log_put(key, t0, 0, r.is_ok());
        r
    }
}
