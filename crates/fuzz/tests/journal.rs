//! Durability of the fuzzing journal across a killed append: a record
//! written after a torn last line must survive the next reopen.

use std::path::PathBuf;

use subwarp_fuzz::{Divergence, FuzzJournal, SeedOutcome};

fn outcome(seed: u64) -> SeedOutcome {
    SeedOutcome {
        seed,
        runs: 29,
        instructions: 1000 + seed,
        // Every other seed is a failure whose text needs escaping, so cuts
        // also land inside escapes and string fields.
        failure: seed.is_multiple_of(2).then(|| Divergence {
            seed,
            config: format!("cfg-{seed}"),
            what: format!("word {seed} differs: \"a\\b\"\nnext"),
        }),
    }
}

fn same(a: &Option<SeedOutcome>, b: &SeedOutcome) -> bool {
    format!("{a:?}") == format!("{:?}", Some(b))
}

#[test]
fn record_after_a_torn_tail_survives_reopen_at_every_cut() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("subwarp_fuzz_torn_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    const EARLIER: u64 = 3;
    const TORN: u64 = EARLIER + 1;
    const NEW: u64 = 99;
    {
        let j = FuzzJournal::open(&path).unwrap();
        for seed in 1..=TORN {
            j.record(&outcome(seed));
        }
    }
    let full = std::fs::read(&path).unwrap();
    // Start of the last line: just after the second-to-last newline.
    let last_line = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    // Every cut a killed append can leave: from none of the last line up
    // to all of it but its newline.
    for cut in last_line..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        {
            let j = FuzzJournal::open(&path).unwrap();
            assert_eq!(j.restored() as u64, EARLIER, "cut at byte {cut}");
            j.record(&outcome(NEW));
        }
        let j = FuzzJournal::open(&path).unwrap();
        for seed in 1..=EARLIER {
            assert!(
                same(&j.lookup(seed), &outcome(seed)),
                "cut at byte {cut}: seed {seed}"
            );
        }
        assert!(
            same(&j.lookup(NEW), &outcome(NEW)),
            "cut at byte {cut}: the record written after the torn tail was lost"
        );
        assert!(j.lookup(TORN).is_none(), "cut at byte {cut}");
    }
    let _ = std::fs::remove_file(&path);
}
