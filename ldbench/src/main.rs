//! `ldbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Scratch checkpoints live under `.bench_work/` in the current directory
//! and are removed before exit. See `ldbench/README.md`.

use ldbench::cluster::{self, ClusterRound};
use ldbench::metrics::{Values, END_TO_END, PER_LAYER};
use ldbench::report::{result_line, Ledger};
use ldbench::stats::{max, mean, median, ms, quantile};
use ldbench::train::{self, Ckpt, Model, ResumeParts, Round, Seeds, Spec, TracedRound};
use lowdiff::{LowDiffConfig, LowDiffPlusConfig, TrainerConfig};
use lowdiff_optim::Adam;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: &[&str] = &["sparse-lowdiff", "dense-lowdiffplus", "resume-replay"];
/// Timed resumes after each training round.
const RESUMES_PER_ROUND: usize = 10;
/// Rounds every training-workload run makes at least: ≥ 1000 lag samples.
const MIN_TRAINING_ROUNDS: usize = 4;
/// Dedicated set-ups per training-workload run, timed with the rounds'.
const SETUPS: usize = 9;
/// Timed resumes after each resume-replay set-up.
const REPLAY_RESUMES: usize = 12;
/// Cluster iterations per launch (a multiple of the epoch length).
const CLUSTER_ITERS: u64 = 300;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ldbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!(
        "host: nproc {nproc}, kernel {}; MALLOC_MMAP_THRESHOLD_={} MALLOC_TRIM_THRESHOLD_={} LOWDIFF_NUM_THREADS={}",
        kernel.trim(),
        env("MALLOC_MMAP_THRESHOLD_"),
        env("MALLOC_TRIM_THRESHOLD_"),
        env("LOWDIFF_NUM_THREADS"),
    );
    match std::env::var("LOWDIFF_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if (1..=nproc).contains(&n) => {}
        _ => {
            eprintln!("ldbench: LOWDIFF_NUM_THREADS must be set to 1..={nproc}; run through ldbench/run.sh");
            return ExitCode::from(2);
        }
    }

    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let mut ledger = Ledger::default();
    let result = std::fs::create_dir_all(&work).and_then(|()| run(&args, &work, &mut ledger));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let values = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ldbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = values.emit(defs);
    if !args.trace {
        for (name, v, _) in &metrics.0 {
            ledger.gate(*v != 0.0, || format!("end-to-end metric {name} is 0"));
        }
    }
    for (name, v, unit) in &metrics.0 {
        println!("{:>30} {v:>14.4} {unit}", name);
    }
    println!(
        "failed operations: {} of {} attempted ({:.4}%)",
        ledger.failed,
        ledger.attempted,
        100.0 * ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    for g in &ledger.gate_failures {
        println!("GATE FAILED: {g}");
    }
    println!("{}", result_line(&mut ledger, &metrics));
    if ledger.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn lm_adam() -> Adam {
    Adam {
        lr: 3e-3,
        ..Adam::default()
    }
}

fn sparse_spec(seeds: Seeds) -> Spec {
    Spec {
        model: Model::SparseLm,
        tcfg: TrainerConfig {
            compress_ratio: Some(0.01),
            error_feedback: true,
            data_seed: seeds.data,
            ..TrainerConfig::default()
        },
        adam: lm_adam(),
        ckpt: Ckpt::LowDiff(LowDiffConfig {
            full_every: 50,
            batch_size: 8,
            ..LowDiffConfig::default()
        }),
        // A multiple of full_every: the newest full is the final state,
        // so every resume is checked bit for bit.
        iters: 250,
        replayed: 0,
    }
}

fn dense_spec(seeds: Seeds) -> Spec {
    let adam = Adam::default();
    Spec {
        model: Model::DenseMlp,
        tcfg: TrainerConfig {
            compress_ratio: None,
            error_feedback: false,
            data_seed: seeds.data,
            ..TrainerConfig::default()
        },
        adam,
        ckpt: Ckpt::LowDiffPlus(LowDiffPlusConfig {
            persist_every: 10,
            snapshot_threads: 2,
            adam,
            ..LowDiffPlusConfig::default()
        }),
        iters: 250,
        replayed: 0,
    }
}

/// The sparse LM without error feedback, so resume replays the chain:
/// 392 iterations with full_every 200 leave `full@200` + 192 diffs.
fn replay_spec(seeds: Seeds) -> Spec {
    Spec {
        model: Model::SparseLm,
        tcfg: TrainerConfig {
            compress_ratio: Some(0.01),
            error_feedback: false,
            data_seed: seeds.data,
            ..TrainerConfig::default()
        },
        adam: lm_adam(),
        ckpt: Ckpt::LowDiff(LowDiffConfig {
            full_every: 200,
            batch_size: 8,
            ..LowDiffConfig::default()
        }),
        iters: 392,
        replayed: 192,
    }
}

/// Call `f` for round 0, 1, … until `budget` is spent: always at least
/// `min` rounds, and another only if it is expected to end in budget.
fn rounds<T>(
    budget: Duration,
    min: usize,
    mut f: impl FnMut(usize) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        let k = out.len();
        if k >= min && t0.elapsed() + t0.elapsed() / k as u32 > budget {
            return Ok(out);
        }
        out.push(f(k)?);
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args, work: &Path, ledger: &mut Ledger) -> io::Result<Values> {
    let seeds = Seeds::from_workload(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let mut v = Values::default();
    match (args.workload.as_str(), args.trace) {
        ("sparse-lowdiff", false) => {
            training_e2e(&sparse_spec(seeds), seeds, budget, work, ledger, &mut v)?
        }
        ("dense-lowdiffplus", false) => {
            training_e2e(&dense_spec(seeds), seeds, budget, work, ledger, &mut v)?
        }
        ("resume-replay", false) => {
            replay_e2e(&replay_spec(seeds), seeds, budget, work, ledger, &mut v)?
        }
        ("sparse-lowdiff", true) => {
            training_traced(&sparse_spec(seeds), seeds, work, ledger, &mut v)?;
            // The same compressed LowDiff scenario on the two-rank cluster
            // runtime: the cluster layers ride on this traced pass.
            let dir = work.join("cluster");
            cluster_layers(&cluster::round(&dir, seeds, CLUSTER_ITERS, ledger)?, &mut v);
            std::fs::remove_dir_all(&dir)?;
        }
        ("dense-lowdiffplus", true) => {
            training_traced(&dense_spec(seeds), seeds, work, ledger, &mut v)?
        }
        ("resume-replay", true) => {
            training_traced(&replay_spec(seeds), seeds, work, ledger, &mut v)?
        }
        _ => unreachable!("workload names are checked in parse_args"),
    }
    Ok(v)
}

/// The training metrics shared by every training workload's untraced run.
fn training_values(rounds: &[Round], v: &mut Values) {
    let gaps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.gaps_ms.iter().copied())
        .collect();
    let lags: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lags.ms.iter().copied())
        .collect();
    let ips: Vec<f64> = rounds.iter().map(Round::iters_per_s).collect();
    let bytes: u64 = rounds.iter().map(|r| r.bytes).sum();
    let iters: u64 = rounds.iter().map(|r| r.iters).sum();
    v.set("iters_per_s", median(&ips));
    v.set("iter_ms_p50", median(&gaps));
    v.set("durable_lag_ms_p50", quantile(&lags, 0.50));
    v.set("durable_lag_ms_p90", quantile(&lags, 0.90));
    v.set("storage_bytes_per_iter", bytes as f64 / iters as f64);
    println!(
        "samples: {} rounds, {iters} iterations, {} lags ({} beyond p99); round it/s {:.2?}",
        rounds.len(),
        lags.len(),
        lags.len() / 100,
        ips
    );
}

fn training_e2e(
    spec: &Spec,
    seeds: Seeds,
    budget: Duration,
    work: &Path,
    ledger: &mut Ledger,
    v: &mut Values,
) -> io::Result<()> {
    let mut setup = Vec::new();
    for k in 0..SETUPS {
        let dir = work.join(format!("setup-{k}"));
        setup.push(train::setup_once(spec, seeds, &dir, ledger)?);
        std::fs::remove_dir_all(&dir)?;
    }
    let (mut resumes, mut rss) = (Vec::new(), None);
    let rs = rounds(budget, MIN_TRAINING_ROUNDS, |k| {
        let dir = work.join(format!("round-{k}"));
        let (round, live) = train::round(spec, seeds, &dir, false, ledger)?;
        for _ in 0..RESUMES_PER_ROUND {
            resumes.push(train::resume_once(spec, seeds, &dir, &live, ledger)?);
        }
        rss.get_or_insert_with(peak_rss_mb);
        std::fs::remove_dir_all(&dir)?;
        Ok(round)
    })?;
    training_values(&rs, v);
    setup.extend(rs.iter().map(|r| r.setup_s));
    v.set("setup_s", median(&setup));
    v.set("resume_s", median(&resumes));
    v.set("peak_rss_mb", rss.expect("at least one round ran"));
    Ok(())
}

/// resume-replay: each round's set-up trains the chain (its training
/// metrics come from that run), then the timed resumes read it back.
fn replay_e2e(
    spec: &Spec,
    seeds: Seeds,
    budget: Duration,
    work: &Path,
    ledger: &mut Ledger,
    v: &mut Values,
) -> io::Result<()> {
    let (mut resumes, mut rss) = (Vec::new(), None);
    let rs = rounds(budget, 2, |k| {
        let dir = work.join(format!("round-{k}"));
        let (round, live) = train::round(spec, seeds, &dir, false, ledger)?;
        for _ in 0..REPLAY_RESUMES {
            resumes.push(train::resume_once(spec, seeds, &dir, &live, ledger)?);
        }
        rss.get_or_insert_with(peak_rss_mb);
        std::fs::remove_dir_all(&dir)?;
        Ok(round)
    })?;
    training_values(&rs, v);
    // Set-up ends at the first timed resume: it includes writing the chain.
    let setup: Vec<f64> = rs.iter().map(|r| r.setup_s + r.run_s).collect();
    v.set("setup_s", median(&setup));
    v.set("resume_s", median(&resumes));
    v.set("peak_rss_mb", rss.expect("at least one round ran"));
    Ok(())
}

/// The cluster runtime's layers, from one traced launch + relaunch.
fn cluster_layers(r: &ClusterRound, v: &mut Values) {
    v.set("cluster.rank_run_s_max", max(&r.rank_run_s));
    v.set(
        "cluster.rank_run_s_min",
        r.rank_run_s.iter().copied().fold(f64::INFINITY, f64::min),
    );
    v.set("cluster.global_seals", r.seals.len() as f64);
    v.set("cluster.seal_gap_ms_p50", median(&r.seal_gaps_ms));
    v.set(
        "cluster.shard_bytes_per_rank",
        mean(&r.rank_bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()),
    );
    v.set("cluster.resume_rank_s", max(&r.resume_rank_s));
}

/// Traced pass of a training workload: one untraced round (for the
/// tracing overhead), one traced round with traced resumes, and one
/// round of the same workload with `NoCheckpoint`.
fn training_traced(
    spec: &Spec,
    seeds: Seeds,
    work: &Path,
    ledger: &mut Ledger,
    v: &mut Values,
) -> io::Result<()> {
    let (plain, _) = train::round(spec, seeds, &work.join("plain"), false, ledger)?;
    let dir = work.join("traced");
    let (traced, live) = train::round(spec, seeds, &dir, true, ledger)?;
    let parts = (0..RESUMES_PER_ROUND)
        .map(|_| train::resume_traced(spec, seeds, &dir, &live, ledger))
        .collect::<io::Result<Vec<_>>>()?;
    let (wo, _) = train::round(
        &spec.without_checkpointing(),
        seeds,
        &work.join("wo-ckpt"),
        false,
        ledger,
    )?;

    let t = traced
        .traced
        .as_ref()
        .expect("traced round carries a trace");
    layer_values(&traced, t, ledger, v);
    resume_values(&parts, v);
    let errors: u64 = t.tally.errors + parts.iter().map(|p| p.tally.errors).sum::<u64>();
    v.set("storage.errors", errors as f64);
    v.set("trainer.wo_ckpt_iters_per_s", wo.iters_per_s());
    v.set(
        "trace.overhead_iters_per_s",
        plain.iters_per_s() - traced.iters_per_s(),
    );
    v.set(
        "strategy.overhead_pct",
        100.0 * (wo.iters_per_s() / plain.iters_per_s() - 1.0),
    );
    v.set("durable.uncovered_iters", traced.lags.uncovered as f64);
    // The lag tail as a diagnostic: on the training workloads p99 rests
    // on a handful of durable writes (the diff batch or full that covers
    // 8–10 consecutive iterations), too few to bound end to end.
    let lags: Vec<f64> = plain
        .lags
        .ms
        .iter()
        .chain(&traced.lags.ms)
        .copied()
        .collect();
    v.set("durable.lag_ms_p99", quantile(&lags, 0.99));
    Ok(())
}

fn layer_values(round: &Round, t: &TracedRound, ledger: &mut Ledger, v: &mut Values) {
    let l = &t.layers;
    let n = l.forward.len() as f64;
    v.set("trainer.traced_iters", n);
    v.set("model.forward_ms", median(&l.forward));
    v.set("model.backward_ms", median(&l.backward));
    v.set("compress.ms", median(&l.compress));
    v.set("optim.update_ms", median(&l.optim));
    v.set("trainer.materialize_ms", median(&l.materialize));
    v.set("trainer.iter_ms_p99", quantile(&round.gaps_ms, 0.99));
    v.set("trainer.unaccounted_ms", mean(&l.unaccounted));
    v.set("strategy.layer_hook_ms", median(&l.layer_hooks));
    v.set("strategy.synced_hook_ms", median(&l.synced_hook));
    v.set("strategy.update_hook_ms_p50", median(&l.update_hook));
    v.set("strategy.update_hook_ms_max", max(&l.update_hook));
    let hooks: f64 = l
        .layer_hooks
        .iter()
        .chain(&l.synced_hook)
        .chain(&l.update_hook)
        .sum();
    v.set("strategy.stall_ms_per_iter", hooks / n);
    v.set("strategy.flush_ms", l.flush.iter().sum());

    let e = &t.engine;
    v.set("engine.snapshot_ms_max", e.snapshot.max.as_f64() * 1e3);
    v.set("engine.encode_ms_p50", e.encode.p50.as_f64() * 1e3);
    v.set("engine.encode_ms_total", e.encode.total.as_f64() * 1e3);
    v.set("engine.persist_ms_p50", e.persist.p50.as_f64() * 1e3);
    v.set("engine.persist_ms_p99", e.persist.p99.as_f64() * 1e3);
    v.set("engine.queue_peak", e.queue_peak as f64);
    v.set("engine.queue_capacity", e.queue_capacity as f64);
    v.set("engine.cow_chunks", e.cow_chunks as f64);
    v.set("engine.sweep_chunks", e.sweep_chunks as f64);

    let ok: Vec<_> = t.puts.iter().filter(|p| p.ok).collect();
    let bytes_with = |prefix: &str| {
        ok.iter()
            .filter(|p| p.key.starts_with(prefix))
            .map(|p| p.bytes)
            .sum::<u64>() as f64
    };
    let put_ms: Vec<f64> = ok.iter().map(|p| ms(p.end - p.start)).collect();
    v.set("storage.puts", t.puts.len() as f64);
    v.set("storage.put_bytes", round.bytes as f64);
    v.set("storage.full_bytes", bytes_with("full-"));
    v.set("storage.diff_bytes", bytes_with("diff-"));
    v.set("storage.put_ms_p50", median(&put_ms));
    v.set("storage.put_ms_p99", quantile(&put_ms, 0.99));
    v.set(
        "storage.put_busy_share",
        put_ms.iter().sum::<f64>() / (round.run_s * 1e3),
    );
    // Self-check: the layers tile the step-to-step interval, so more than
    // a sliver of unaccounted time means an instrument lost a stamp.
    let (lost, step) = (mean(&l.unaccounted).abs(), mean(&round.gaps_ms));
    ledger.gate(lost <= 0.05 * step, || {
        format!("layers leave {lost:.3} ms of a {step:.3} ms step unaccounted")
    });
}

fn resume_values(parts: &[ResumeParts], v: &mut Values) {
    let col = |f: &dyn Fn(&ResumeParts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    v.set("resume.sweep_ms", col(&|p| p.sweep));
    v.set("resume.full_read_ms", col(&|p| p.full_read));
    v.set("resume.full_decode_ms", col(&|p| p.full_decode));
    v.set("resume.chain_read_ms", col(&|p| p.chain_read));
    v.set("resume.chain_decode_ms", col(&|p| p.chain_decode));
    v.set("resume.replay_ms", col(&|p| p.replay));
    v.set("resume.replayed", col(&|p| p.replayed as f64));
    v.set(
        "resume.replay_us_per_diff",
        col(&|p| {
            if p.replayed == 0 {
                0.0
            } else {
                p.replay * 1e3 / p.replayed as f64
            }
        }),
    );
    v.set("resume.read_bytes", col(&|p| p.tally.get_bytes as f64));
    v.set("storage.gets", col(&|p| p.tally.gets as f64));
    v.set("storage.get_bytes", col(&|p| p.tally.get_bytes as f64));
    v.set("storage.get_ms_total", col(&|p| ms(p.tally.get_time)));
    v.set("storage.lists", col(&|p| p.tally.lists as f64));
    v.set("storage.list_ms_total", col(&|p| ms(p.tally.list_time)));
}
