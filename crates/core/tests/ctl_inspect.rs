//! `lowdiff-ctl inspect` reads one blob through the same walk recovery
//! decodes with. Its output on the golden v1/v2/v3 blobs is pinned, and a
//! CRC-valid but malformed blob is reported as a corrupt record with exit
//! code 1 instead of aborting the process.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../storage/tests/golden")
        .join(name)
}

fn inspect(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lowdiff-ctl"))
        .arg("inspect")
        .arg(path)
        .output()
        .unwrap()
}

fn stdout_of(name: &str) -> String {
    let out = inspect(&golden(name));
    assert_eq!(out.status.code(), Some(0), "{name}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn inspect_output_is_pinned_on_the_goldens() {
    let sparse_quant_dense = "  iter      200  sparse        4/16 values
  iter      201  quant        16/16 values
  iter      202  dense        16/16 values
";
    assert_eq!(
        stdout_of("diff_v1.bin"),
        format!(
            "diff batch (format v1): 3 entries, 0.2 KB\n{sparse_quant_dense}\
             value plane: 0.1 KB stored, 0.1 KB as raw f32  (blob is 0.80x raw)\n"
        )
    );
    assert_eq!(
        stdout_of("diff_v2.bin"),
        format!(
            "diff batch (format v2): 3 entries, 0.2 KB\n{sparse_quant_dense}\
             value plane: 0.1 KB stored, 0.1 KB as raw f32  (blob is 0.79x raw)\n"
        )
    );
    assert_eq!(
        stdout_of("diff_v3.bin"),
        "diff batch (format v3): 5 entries, 0.3 KB
  iter      300  sparse        8/16 values  chunk bits: 4×1
  iter      301  dense        16/16 values  chunk bits: 8×1
  iter      302  sparse        5/16 values  chunk bits: 16×1
  iter      303  dense        16/16 values  chunk bits: 32×1
  iter      304  quant        16/16 values
value plane: 0.1 KB stored, 0.2 KB as raw f32  (blob is 0.72x raw)
"
    );
    assert_eq!(
        stdout_of("full_v1.bin"),
        "full checkpoint (format v1): iter 200, 16 params, 0.2 KB
aux: residual=absent compressor=absent rng-cursor=absent quant-policy=absent
"
    );
    assert_eq!(
        stdout_of("full_v2_aux.bin"),
        "full checkpoint (format v2): iter 200, 16 params, 0.3 KB
aux: residual=present compressor=CompressorCfg { kind: TopK, ratio: 0.01, bits: 0 } \
         rng-cursor=present quant-policy=8bit (streak 1)
"
    );
}

#[test]
fn inspect_reports_a_crc_valid_malformed_batch_as_corrupt() {
    // LDDB v2 claiming u32::MAX entries in a 14-byte blob.
    let mut blob = b"LDDB".to_vec();
    blob.extend_from_slice(&2u16.to_le_bytes());
    blob.extend_from_slice(&u32::MAX.to_le_bytes());
    let crc = lowdiff_util::crc::crc32(&blob);
    blob.extend_from_slice(&crc.to_le_bytes());
    let path =
        std::env::temp_dir().join(format!("lowdiff-ctl-inspect-{}.ckpt", std::process::id()));
    std::fs::write(&path, &blob).unwrap();
    let out = inspect(&path);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("corrupt record"), "stderr: {stderr}");
}
