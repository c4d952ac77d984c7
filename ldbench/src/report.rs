//! The result line: correctness, operation counts and named metrics.

use std::fmt::Write as _;

/// Operations attempted and failed, plus every failed correctness gate.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
}

impl Ledger {
    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record a correctness gate; a false `ok` fails the run.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The JSON result object (one line). Non-finite values — which no
/// instrument should produce — are written as 0 and fail the run.
pub fn result_line(ledger: &mut Ledger, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let v = if value.is_finite() {
            *value
        } else {
            ledger
                .gate_failures
                .push(format!("metric {name} is not finite"));
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` keeps every digit and always prints a decimal point.
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        ledger.correct(),
        ledger.attempted,
        ledger.failed
    )
}
