//! `figures all` renders the same bytes on one sweep worker, on two
//! workers with every cell journaled, and when resumed from that journal,
//! and those bytes hash to the digest recorded for this tree.
//!
//! Each pass simulates the paper's whole figure set, which is seconds in
//! release and far longer in debug, so this is gated to optimized builds
//! like `determinism.rs`.

#![cfg(not(debug_assertions))]

use std::process::Command;

/// FNV-1a of the bytes `figures all` prints. A change that means to alter
/// the simulated results updates this and `RECORDED_FIGURES_DIGEST` in
/// `perfbench/src/batch.rs` together.
const FIGURES_DIGEST: u64 = 0xe3f8_7b6b_c827_e273;

/// Distinct cell labels of `figures all`: the journal's line count.
const JOURNALED_CELLS: usize = 456;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `figures all` on `jobs` sweep workers; returns (stdout, stderr).
fn figures(jobs: usize, extra: &[&str]) -> (Vec<u8>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("all")
        .args(extra)
        .env("SUBWARP_JOBS", jobs.to_string())
        .output()
        .expect("run figures");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "figures {extra:?} failed: {stderr}");
    (out.stdout, stderr)
}

#[test]
fn figures_all_digest_is_stable_across_workers_and_resume() {
    let journal = std::env::temp_dir().join(format!(
        "subwarp_figures_digest_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let path = journal.to_str().unwrap();

    let (serial, stderr) = figures(1, &[]);
    assert_eq!(fnv1a(&serial), FIGURES_DIGEST, "1 worker");
    assert!(
        stderr.contains("sweep: 576 cells, 396 simulated, 180 deduplicated, 0 restored"),
        "{stderr}"
    );

    let (parallel, _) = figures(2, &["--journal", path]);
    assert_eq!(fnv1a(&parallel), FIGURES_DIGEST, "2 workers, journaled");
    let lines = std::fs::read_to_string(&journal).unwrap().lines().count();
    assert_eq!(lines, JOURNALED_CELLS);

    let (resumed, stderr) = figures(1, &["--resume", "--journal", path]);
    assert_eq!(fnv1a(&resumed), FIGURES_DIGEST, "resumed");
    assert!(
        stderr.contains(&format!("({JOURNALED_CELLS} cells restored)")),
        "{stderr}"
    );
    assert!(stderr.contains("0 simulated"), "{stderr}");
    let _ = std::fs::remove_file(&journal);
}
