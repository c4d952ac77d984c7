//! The metric catalogue: every name the benchmark reports, with its unit
//! and which direction is better. `BENCHMARK.json` lists the same names
//! (checked by `tests/catalogue.rs`).

use crate::report::Metrics;
use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Untraced runs (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    lo("setup_s", "s"),
    hi("iters_per_s", "1/s"),
    lo("iter_ms_p50", "ms"),
    lo("durable_lag_ms_p50", "ms"),
    lo("durable_lag_ms_p90", "ms"),
    lo("storage_bytes_per_iter", "B"),
    lo("resume_s", "s"),
    lo("peak_rss_mb", "MB"),
];

/// Traced runs (`--trace 1`). A metric a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: &[Def] = &[
    lo("model.forward_ms", "ms"),
    lo("model.backward_ms", "ms"),
    lo("compress.ms", "ms"),
    lo("optim.update_ms", "ms"),
    lo("trainer.materialize_ms", "ms"),
    lo("trainer.iter_ms_p99", "ms"),
    lo("trainer.unaccounted_ms", "ms"),
    hi("trainer.traced_iters", "count"),
    hi("trainer.wo_ckpt_iters_per_s", "1/s"),
    lo("trace.overhead_iters_per_s", "1/s"),
    lo("strategy.overhead_pct", "%"),
    lo("strategy.layer_hook_ms", "ms"),
    lo("strategy.synced_hook_ms", "ms"),
    lo("strategy.update_hook_ms_p50", "ms"),
    lo("strategy.update_hook_ms_max", "ms"),
    lo("strategy.stall_ms_per_iter", "ms"),
    lo("strategy.flush_ms", "ms"),
    lo("engine.snapshot_ms_max", "ms"),
    lo("engine.encode_ms_p50", "ms"),
    lo("engine.encode_ms_total", "ms"),
    lo("engine.persist_ms_p50", "ms"),
    lo("engine.persist_ms_p99", "ms"),
    lo("engine.queue_peak", "count"),
    hi("engine.queue_capacity", "count"),
    lo("engine.cow_chunks", "count"),
    hi("engine.sweep_chunks", "count"),
    lo("storage.puts", "count"),
    lo("storage.put_bytes", "B"),
    lo("storage.full_bytes", "B"),
    lo("storage.diff_bytes", "B"),
    lo("storage.put_ms_p50", "ms"),
    lo("storage.put_ms_p99", "ms"),
    lo("storage.put_busy_share", "ratio"),
    lo("storage.gets", "count"),
    lo("storage.get_bytes", "B"),
    lo("storage.get_ms_total", "ms"),
    lo("storage.lists", "count"),
    lo("storage.list_ms_total", "ms"),
    lo("storage.errors", "count"),
    lo("durable.lag_ms_p99", "ms"),
    lo("durable.uncovered_iters", "count"),
    lo("resume.sweep_ms", "ms"),
    lo("resume.full_read_ms", "ms"),
    lo("resume.full_decode_ms", "ms"),
    lo("resume.chain_read_ms", "ms"),
    lo("resume.chain_decode_ms", "ms"),
    lo("resume.replay_ms", "ms"),
    lo("resume.replayed", "count"),
    lo("resume.replay_us_per_diff", "us"),
    lo("resume.read_bytes", "B"),
    lo("cluster.rank_run_s_max", "s"),
    lo("cluster.rank_run_s_min", "s"),
    hi("cluster.global_seals", "count"),
    lo("cluster.seal_gap_ms_p50", "ms"),
    lo("cluster.shard_bytes_per_rank", "B"),
    lo("cluster.resume_rank_s", "s"),
];

/// Values by name, emitted in catalogue order.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// Every metric of `defs`, 0 where the workload set none.
    pub fn emit(&self, defs: &[Def]) -> Metrics {
        let mut m = Metrics::default();
        for d in defs {
            m.put(d.name, self.0.get(d.name).copied().unwrap_or(0.0), d.unit);
        }
        m
    }
}
