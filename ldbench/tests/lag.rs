//! Durable-lag attribution on a synthetic put log.

use ldbench::lag::{covers, durable_lags, Covers};

#[test]
fn keys_parse_with_inclusive_diff_ends() {
    assert_eq!(
        covers("full-0000000050.ckpt"),
        Some(Covers::Full { below: 50 })
    );
    assert_eq!(
        covers("full-0000000050.sm.ckpt"),
        Some(Covers::Full { below: 50 })
    );
    assert_eq!(
        covers("diff-0000000001-0000000008.ckpt"),
        Some(Covers::Diff { start: 1, end: 8 })
    );
    assert_eq!(
        covers("diff-0000000001-0000000008.sm.ckpt"),
        Some(Covers::Diff { start: 1, end: 8 })
    );
    // Striped data objects are invisible until sealed; other keys cover nothing.
    assert_eq!(covers("diff-0000000001-0000000008.sd.ckpt"), None);
    assert_eq!(covers("global-0000000050.gm.ckpt"), None);
    assert_eq!(covers("meta-engine-health.json"), None);
}

#[test]
fn earliest_covering_write_wins_and_gaps_are_counted() {
    // Iterations 10..=15 return at 1 s, 2 s, …, 6 s.
    let returns = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    let writes = [
        // Lands after 10 returned, but before 11 did: 11's lag is negative.
        ("diff-0000000010-0000000011.ckpt", 1.9),
        ("meta-engine-health.json", 1.0),
        // Covers 10..=12; 10 and 11 keep their earlier batch.
        ("full-0000000013.ckpt", 3.5),
        // Logged after the full but completed earlier: it wins for 12.
        ("diff-0000000012-0000000013.ckpt", 3.2),
        // A data object without its manifest covers nothing.
        ("diff-0000000014-0000000015.sd.ckpt", 4.5),
    ];
    let lags = durable_lags(10, &returns, &writes);
    let want = [900.0, -100.0, 200.0, -800.0];
    assert_eq!(lags.ms.len(), want.len());
    for (got, want) in lags.ms.iter().zip(want) {
        assert!((got - want).abs() < 1e-6, "lag {got} ms, want {want} ms");
    }
    // 14 and 15 were never covered: counted, not dropped silently.
    assert_eq!(lags.uncovered, 2);
}

#[test]
fn a_full_covers_only_iterations_below_it() {
    // full-101 holds M_101: iteration 100 is recoverable, 101 is not.
    let lags = durable_lags(100, &[1.0, 2.0], &[("full-0000000101.ckpt", 2.5)]);
    assert_eq!(lags.ms, vec![1500.0]);
    assert_eq!(lags.uncovered, 1);
}

#[test]
fn writes_outside_the_run_are_clipped() {
    let lags = durable_lags(
        100,
        &[1.0, 2.0],
        &[
            ("full-0000000500.ckpt", 2.5),
            ("diff-0000000050-0000000099.ckpt", 0.5),
        ],
    );
    assert_eq!(lags.ms, vec![1500.0, 500.0]);
    assert_eq!(lags.uncovered, 0);
}
