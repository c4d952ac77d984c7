//! Durable-lag attribution: for each iteration, how long after its step
//! returned did the first write land that makes it recoverable.
//!
//! A write makes iteration `t` recoverable when its key is
//! * `diff-S-E` (a differential batch, plain `.ckpt` or striped manifest
//!   `.sm.ckpt`) with `S <= t <= E` — the end is inclusive;
//! * `full-N` (plain or striped manifest) with `N > t` — a full checkpoint
//!   of state `M_N` holds every iteration below `N`.
//!
//! Other keys (the health blob, striped data objects, global manifests)
//! make nothing recoverable on their own and are ignored.

/// The iterations a stored object makes recoverable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Covers {
    /// Iterations `start..=end`.
    Diff { start: u64, end: u64 },
    /// Every iteration below `below`.
    Full { below: u64 },
}

/// Parse a checkpoint key into what it covers (`None` for other keys and
/// for striped data objects, which are invisible until their manifest).
pub fn covers(key: &str) -> Option<Covers> {
    let body = key
        .strip_suffix(".sm.ckpt")
        .or_else(|| key.strip_suffix(".ckpt"))?;
    if body.ends_with(".sd") {
        return None;
    }
    if let Some(n) = body.strip_prefix("full-") {
        return Some(Covers::Full {
            below: n.parse().ok()?,
        });
    }
    let (s, e) = body.strip_prefix("diff-")?.split_once('-')?;
    Some(Covers::Diff {
        start: s.parse().ok()?,
        end: e.parse().ok()?,
    })
}

/// Lags of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Lags {
    /// `recoverable − step return` in milliseconds, one per covered
    /// iteration, in iteration order. Negative when the covering write
    /// landed before the step was over (kept, not clamped).
    pub ms: Vec<f64>,
    /// Iterations no successful write ever covered.
    pub uncovered: usize,
}

/// Attribute writes to iterations. `returns[i]` is when iteration
/// `first + i` returned from its step (the next step's entry; the run's
/// return for the last), `writes` are `(key, completion time)` of every
/// successful write; all times in seconds on one clock. The earliest
/// covering write wins.
pub fn durable_lags(first: u64, returns: &[f64], writes: &[(&str, f64)]) -> Lags {
    let mut earliest: Vec<Option<f64>> = vec![None; returns.len()];
    let last = first + returns.len() as u64; // exclusive
    for &(key, end) in writes {
        let Some(c) = covers(key) else { continue };
        let (lo, hi) = match c {
            Covers::Diff { start, end } => (start.max(first), (end + 1).min(last)),
            Covers::Full { below } => (first, below.min(last)),
        };
        for t in lo..hi {
            let slot = &mut earliest[(t - first) as usize];
            if slot.is_none_or(|e| end < e) {
                *slot = Some(end);
            }
        }
    }
    let mut out = Lags::default();
    for (at, ret) in earliest.iter().zip(returns) {
        match at {
            Some(at) => out.ms.push((at - ret) * 1e3),
            None => out.uncovered += 1,
        }
    }
    out
}
