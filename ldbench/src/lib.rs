//! End-to-end and per-layer benchmark of LowDiff: real training steps,
//! durable lag and resume, and the two-rank cluster runtime, driven
//! through the public APIs of the repository's crates.

pub mod cluster;
pub mod lag;
pub mod metrics;
pub mod probe;
pub mod report;
pub mod stats;
pub mod train;
