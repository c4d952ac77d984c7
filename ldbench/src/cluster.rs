//! The two-rank cluster round: an in-process `Coordinator` and two
//! `run_worker` threads over one data root, then a relaunch of both
//! ranks with `resume: true`.
//!
//! Inside `run_worker` nothing can be decorated, so the instruments sit
//! on what the program exposes: the coordinator's global manifest store
//! (a [`TimedBackend`] handed to `CoordConfig::global_store`), the wall
//! time of each `run_worker` call, and the files the ranks leave in
//! their `rank-*` directories. It runs in the sparse-lowdiff traced pass
//! (per-layer `cluster.*` metrics only): its end-to-end figures were too
//! unsteady on a 2-core host to bound (see `ldbench/README.md`).

use crate::probe::{PutRec, TimedBackend};
use crate::report::Ledger;
use crate::stats::ms_between;
use crate::train::Seeds;
use lowdiff_cluster::rt::worker::task_for;
use lowdiff_cluster::{CoordConfig, Coordinator, WorkerConfig, WorkerReport};
use lowdiff_model::builders::mlp;
use lowdiff_model::loss::mse;
use lowdiff_storage::shard::stitch_fulls;
use lowdiff_storage::{CheckpointStore, DiskBackend, StorageBackend};
use lowdiff_util::DetRng;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

pub const DIMS: [usize; 4] = [64, 512, 512, 16];
pub const EPOCH_ITERS: u64 = 50;
const RANKS: u32 = 2;

/// One launch + relaunch of the two-rank cluster.
#[derive(Clone, Debug)]
pub struct ClusterRound {
    /// Each rank's `run_worker` wall time.
    pub rank_run_s: Vec<f64>,
    /// Each rank's `run_worker` wall time on the `resume: true` relaunch.
    pub resume_rank_s: Vec<f64>,
    /// Global seal writes, in completion order.
    pub seals: Vec<PutRec>,
    /// Gaps between consecutive global seals.
    pub seal_gaps_ms: Vec<f64>,
    /// Bytes each rank left in its `rank-*` directory.
    pub rank_bytes: Vec<u64>,
}

fn worker_cfg(
    coord: &str,
    dir: &Path,
    rank: u32,
    seeds: Seeds,
    iters: u64,
    resume: bool,
) -> WorkerConfig {
    WorkerConfig {
        coord: coord.to_string(),
        dir: dir.to_path_buf(),
        name: format!("rank{rank}"),
        rank_hint: Some(rank),
        dims: DIMS.to_vec(),
        seed: seeds.model,
        data_seed: seeds.data,
        compress_ratio: Some(0.01),
        iters,
        epoch_iters: EPOCH_ITERS,
        resume,
        // The `lowdiff-worker` binary's defaults.
        heartbeat_every: Duration::from_millis(500),
        barrier_timeout: Duration::from_secs(30),
        step_delay: Duration::ZERO,
    }
}

/// Run every rank to completion on its own thread; returns the reports
/// and each rank's wall time.
fn launch(
    coord: &str,
    dir: &Path,
    seeds: Seeds,
    iters: u64,
    resume: bool,
) -> Vec<(io::Result<WorkerReport>, f64)> {
    let handles: Vec<_> = (0..RANKS)
        .map(|rank| {
            let cfg = worker_cfg(coord, dir, rank, seeds, iters, resume);
            thread::spawn(move || {
                let t0 = Instant::now();
                let r = lowdiff_cluster::rt::run_worker(cfg);
                (r, t0.elapsed().as_secs_f64())
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("a rank thread panicked"))
        .collect()
}

fn gate_ranks(
    runs: &[(io::Result<WorkerReport>, f64)],
    iters: u64,
    resumed: Option<u64>,
    ledger: &mut Ledger,
) {
    ledger.ops(runs.len() as u64, 0);
    for (r, _) in runs {
        let ok = match r {
            Ok(rep) => {
                rep.degraded.is_none()
                    && rep.final_iteration == iters
                    && rep.resumed_from == resumed
            }
            Err(_) => false,
        };
        if !ok {
            ledger.failed += 1;
        }
        ledger.gate(ok, || format!("rank run (resume {resumed:?}): {r:?}"));
    }
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for e in std::fs::read_dir(dir)? {
        total += e?.metadata()?.len();
    }
    Ok(total)
}

pub fn round(
    dir: &Path,
    seeds: Seeds,
    iters: u64,
    ledger: &mut Ledger,
) -> io::Result<ClusterRound> {
    let backend = Arc::new(TimedBackend::new(
        Arc::new(DiskBackend::new(dir.join("global"))?),
        true,
    ));
    let global = Arc::new(CheckpointStore::new(
        Arc::clone(&backend) as Arc<dyn StorageBackend>
    ));
    let coord = Coordinator::start(
        "127.0.0.1:0",
        CoordConfig {
            world_size: RANKS,
            global_store: Some(Arc::clone(&global)),
            ..CoordConfig::default()
        },
    )?;
    let addr = coord.addr().to_string();
    let runs = launch(&addr, dir, seeds, iters, false);
    gate_ranks(&runs, iters, None, ledger);
    let resumes = launch(&addr, dir, seeds, iters, true);
    gate_ranks(&resumes, iters, Some(iters), ledger);
    coord.shutdown();

    let puts = backend.puts();
    ledger.ops(puts.len() as u64, backend.tally().errors);
    let seals: Vec<PutRec> = puts
        .into_iter()
        .filter(|p| p.ok && p.key.starts_with("global-"))
        .collect();
    let want = iters / EPOCH_ITERS;
    ledger.gate(seals.len() as u64 == want, || {
        format!("{} global seals, want {want}", seals.len())
    });
    learned(dir, &global, seeds, ledger)?;

    let seal_gaps_ms = seals
        .windows(2)
        .map(|w| ms_between(w[0].end, w[1].end))
        .collect();
    let rank_bytes = (0..RANKS)
        .map(|r| dir_bytes(&dir.join(format!("rank-{r}"))))
        .collect::<io::Result<Vec<u64>>>()?;
    Ok(ClusterRound {
        rank_run_s: runs.iter().map(|r| r.1).collect(),
        resume_rank_s: resumes.iter().map(|r| r.1).collect(),
        seals,
        seal_gaps_ms,
        rank_bytes,
    })
}

/// Gate: the stitched global state at the last seal has a lower loss than
/// the initial model on a fixed batch.
fn learned(
    dir: &Path,
    global: &CheckpointStore,
    seeds: Seeds,
    ledger: &mut Ledger,
) -> io::Result<()> {
    let manifest = global
        .latest_global_manifest()?
        .ok_or_else(|| io::Error::other("no global manifest"))?;
    let mut parts = Vec::new();
    for seal in &manifest.shards {
        let store = CheckpointStore::new(Arc::new(DiskBackend::new(
            dir.join(format!("rank-{}", seal.rank)),
        )?));
        parts.push((
            manifest.spec_of(seal.rank)?,
            store.load_full_checkpoint(manifest.iteration)?,
        ));
    }
    let mut net = mlp(&DIMS, seeds.model);
    let psi = net.num_params();
    let stitched = stitch_fulls(psi, &parts)?;
    let task = task_for(&DIMS, seeds.data);
    let (x, y) = task.batch(&mut DetRng::new(seeds.data ^ 0xe7a1), 64);
    let before = mse(&net.forward(&x), &y).0;
    net.set_params_flat(&stitched.state.params);
    let after = mse(&net.forward(&x), &y).0;
    ledger.gate(after < before, || {
        format!("cluster loss {before} -> {after} did not fall")
    });
    Ok(())
}
