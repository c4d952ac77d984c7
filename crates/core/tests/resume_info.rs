//! `lowdiff-ctl resume-info` prints the resume planner's decision, so it
//! must agree with what `Trainer::resume` actually does on the same
//! directory: anchor-only under error feedback with a residual, the
//! number of replayed diffs without it, and a lossy verdict (exit 1) for
//! an aux-less v1 blob.

use lowdiff::{LowDiffConfig, LowDiffStrategy, NoCheckpoint, ResumeReport, Trainer, TrainerConfig};
use lowdiff_compress::{Compressor, TopK};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec::{self, DiffEntry};
use lowdiff_storage::{CheckpointStore, DiskBackend};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

const DIMS: [usize; 3] = [4, 8, 2];

fn cfg(error_feedback: bool) -> TrainerConfig {
    TrainerConfig {
        compress_ratio: Some(0.2),
        error_feedback,
        data_seed: 17,
        ..TrainerConfig::default()
    }
}

/// A fresh checkpoint directory, removed when dropped.
struct Dir(PathBuf);

impl Dir {
    fn new(case: &str) -> Self {
        let p =
            std::env::temp_dir().join(format!("lowdiff-resume-info-{case}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        Self(p)
    }

    fn store(&self) -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::new(Arc::new(
            DiskBackend::new(&self.0).unwrap(),
        )))
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What `resume-info` printed, parsed back into a report's terms.
#[derive(Debug, PartialEq)]
struct Info {
    replayed: usize,
    resumed_iteration: u64,
    lossy: bool,
}

fn resume_info(dir: &Dir) -> Info {
    let out = Command::new(env!("CARGO_BIN_EXE_lowdiff-ctl"))
        .arg("resume-info")
        .arg(&dir.0)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let field = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{stdout}"))
            .split_whitespace()
            .next()
            .unwrap()
            .to_string()
    };
    let replay = field("replay: ");
    let lossy = stdout.contains("LOSSY:");
    assert_eq!(
        out.status.code(),
        Some(if lossy { 1 } else { 0 }),
        "exit code must flag exactly the lossy resumes:\n{stdout}"
    );
    Info {
        replayed: if replay == "none" {
            0
        } else {
            replay.parse().unwrap()
        },
        resumed_iteration: field("resume at iteration ").parse().unwrap(),
        lossy,
    }
}

fn trainer_resume(store: &CheckpointStore, cfg: TrainerConfig) -> ResumeReport {
    let (_, rep) = Trainer::resume(
        mlp(&DIMS, 2),
        Adam::default(),
        NoCheckpoint::new(),
        cfg,
        store,
    )
    .unwrap()
    .expect("the directory holds a full checkpoint");
    rep
}

fn agrees(info: &Info, rep: &ResumeReport) {
    assert_eq!(
        info,
        &Info {
            replayed: rep.replayed,
            resumed_iteration: rep.resumed_iteration,
            lossy: rep.lossy,
        },
        "resume-info disagrees with Trainer::resume"
    );
}

/// Train 13 iterations: fulls at 5 and 10, diffs 10..=12 past the newest.
fn train(dir: &Dir, error_feedback: bool) {
    let strat = LowDiffStrategy::new(
        dir.store(),
        LowDiffConfig {
            full_every: 5,
            batch_size: 1,
            ..LowDiffConfig::default()
        },
    );
    let mut tr = Trainer::new(mlp(&DIMS, 2), Adam::default(), strat, cfg(error_feedback));
    let task = Regression::new(4, 2, 3);
    tr.run_with_data(13, |net, _t, rng| {
        let (x, y) = task.batch(rng, 4);
        mse(&net.forward(&x), &y)
    });
}

#[test]
fn error_feedback_with_residual_anchors_at_the_full() {
    let dir = Dir::new("ef");
    train(&dir, true);
    let info = resume_info(&dir);
    let rep = trainer_resume(&dir.store(), cfg(true));
    assert_eq!((rep.replayed, rep.resumed_iteration), (0, 10));
    agrees(&info, &rep);
}

#[test]
fn without_error_feedback_the_chain_is_replayed() {
    let dir = Dir::new("no-ef");
    train(&dir, false);
    let info = resume_info(&dir);
    let rep = trainer_resume(&dir.store(), cfg(false));
    assert_eq!((rep.replayed, rep.resumed_iteration), (3, 13));
    agrees(&info, &rep);
}

#[test]
fn auxless_v1_blob_is_lossy() {
    let dir = Dir::new("v1");
    let store = dir.store();
    let psi = mlp(&DIMS, 2).num_params();
    let mut state = ModelState::new(vec![0.5; psi]);
    state.iteration = 3;
    store
        .put_full(3, &codec::reference::encode_model_state(&state))
        .unwrap();
    let mut topk = TopK::new(0.2);
    let chain: Vec<DiffEntry> = (3..5)
        .map(|iteration| DiffEntry {
            iteration,
            grad: topk.compress(&vec![0.01; psi]),
        })
        .collect();
    store.save_diff_batch(&chain).unwrap();

    let info = resume_info(&dir);
    let rep = trainer_resume(&store, cfg(true));
    assert!(rep.lossy, "a v1 blob has no residual to restore");
    assert_eq!((rep.replayed, rep.resumed_iteration), (2, 5));
    agrees(&info, &rep);
}
