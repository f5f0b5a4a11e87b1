//! The content-keyed cell memo behind the process-global sweep policy.
//!
//! This is its own test binary because the policy is process-global: it is
//! installed once, here, and every test in this file runs under it. Each
//! test owns its workloads, so no test sees another's memo entries or
//! journal lines, and tests hold `SERIAL` so the process-global cell
//! counters can be read as per-test deltas.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use subwarp_core::{FaultKind, FaultPlan, RunStats, SiConfig, SmConfig, Workload};
use subwarp_sweep::{
    cell_counts, cell_fingerprint, global_policy, install_global_policy, lock_path_for,
    run_resilient, workload_hash, CellCounts, Journal, Sweep, SweepPolicy,
};
use subwarp_workloads::{figure9_workload, microbenchmark};

type Grid = Vec<Vec<RunStats>>;

/// The cell the fault plan targets; `fault/clean` has the same content.
const FAULTED: &str = "fault/faulted";

fn base() -> (SmConfig, SiConfig) {
    (SmConfig::turing_like(), SiConfig::disabled())
}

fn si() -> (SmConfig, SiConfig) {
    (SmConfig::turing_like(), SiConfig::best())
}

fn grid(rows: &[(&str, &Arc<Workload>)], cols: &[(&str, (SmConfig, SiConfig))]) -> Sweep {
    let mut s = Sweep::new();
    for (name, wl) in rows {
        s = s.workload(*name, Arc::clone(wl));
    }
    for (label, (sm, si)) in cols {
        s = s.config(*label, sm.clone(), *si);
    }
    s
}

struct Fixture {
    /// `a` has a twin column (`base2` = `base`); `b` repeats `a`'s cells
    /// under new labels; `c` has a fresh workload and a twin column.
    a: Sweep,
    b: Sweep,
    c: Sweep,
    /// `primer` holds the content of both cells of `faulted`.
    primer: Sweep,
    faulted: Sweep,
    /// Run through `run_resilient` after warming the memo.
    explicit: Sweep,
    /// Each grid above run without an installed policy, at 1 and 2
    /// workers, in declaration order.
    reference: Vec<(Grid, Grid)>,
    journal: PathBuf,
}

/// Computes the references, then installs the global policy (once).
fn fixture() -> (MutexGuard<'static, ()>, &'static Fixture) {
    static SERIAL: Mutex<()> = Mutex::new(());
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = FIXTURE.get_or_init(|| {
        let toy = Arc::new(figure9_workload());
        let micro = Arc::new(microbenchmark(8, 4));
        let micro2 = Arc::new(microbenchmark(8, 2));
        let fault = Arc::new(microbenchmark(4, 2));
        let explicit = Arc::new(microbenchmark(16, 2));
        let both = [("toy", &toy), ("micro", &micro)];
        let mut fx = Fixture {
            a: grid(&both, &[("base", base()), ("si", si()), ("base2", base())]),
            b: grid(&both, &[("base-b", base()), ("si-b", si())]),
            c: grid(
                &[("micro2", &micro2)],
                &[("base", base()), ("si", si()), ("si2", si())],
            ),
            primer: grid(&[("fault", &fault)], &[("primer", base())]),
            faulted: grid(
                &[("fault", &fault)],
                &[("faulted", base()), ("clean", base())],
            ),
            explicit: grid(
                &[("explicit", &explicit)],
                &[("base", base()), ("si", si())],
            ),
            reference: Vec::new(),
            // The installed policy holds the journal (and its lock) for
            // the process lifetime, so it is never removed: keep it in
            // Cargo's per-target temporary directory.
            journal: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("memo_{}.jsonl", std::process::id())),
        };
        fx.reference = [&fx.a, &fx.b, &fx.c, &fx.primer, &fx.faulted, &fx.explicit]
            .iter()
            .map(|s| (s.run_with_jobs(1).unwrap(), s.run_with_jobs(2).unwrap()))
            .collect();
        let _ = std::fs::remove_file(&fx.journal);
        let _ = std::fs::remove_file(lock_path_for(&fx.journal));
        let policy = SweepPolicy {
            faults: Some(FaultPlan::none(7).with_target(FAULTED, FaultKind::Error)),
            journal: Some(Arc::new(Journal::open(&fx.journal).unwrap())),
            ..SweepPolicy::default()
        };
        assert!(install_global_policy(policy));
        fx
    });
    (guard, fx)
}

fn since(before: CellCounts) -> CellCounts {
    let now = cell_counts();
    CellCounts {
        cells: now.cells - before.cells,
        simulated: now.simulated - before.simulated,
        deduplicated: now.deduplicated - before.deduplicated,
        restored: now.restored - before.restored,
    }
}

fn counts(cells: usize, simulated: usize, deduplicated: usize, restored: usize) -> CellCounts {
    CellCounts {
        cells,
        simulated,
        deduplicated,
        restored,
    }
}

/// Journal lines whose label starts with one of `rows` (a test's own).
fn journal_lines(path: &Path, rows: &[&str]) -> usize {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| {
            rows.iter()
                .any(|r| l.contains(&format!("\"label\":\"{r}/")))
        })
        .count()
}

#[test]
fn twins_are_simulated_once_and_journaled_under_every_label() {
    let (_serial, fx) = fixture();
    let rows = ["toy", "micro", "micro2"];
    for (r1, r2) in &fx.reference {
        assert_eq!(r1, r2, "the unmemoized references disagree across workers");
    }

    // Grid a, 1 worker: 4 distinct cells, and `base2` twins `base`.
    let before = cell_counts();
    assert_eq!(fx.a.run_with_jobs(1).unwrap(), fx.reference[0].0);
    assert_eq!(since(before), counts(6, 4, 2, 0));
    assert_eq!(journal_lines(&fx.journal, &rows), 6);

    // Grid b, 2 workers: every cell is a twin of one in grid a.
    let before = cell_counts();
    assert_eq!(fx.b.run_with_jobs(2).unwrap(), fx.reference[1].1);
    assert_eq!(since(before), counts(4, 0, 4, 0));
    assert_eq!(journal_lines(&fx.journal, &rows), 10);

    // Grid c, 2 workers: a fresh workload whose `si2` twins `si` within
    // the grid.
    let before = cell_counts();
    assert_eq!(fx.c.run_with_jobs(2).unwrap(), fx.reference[2].1);
    assert_eq!(since(before), counts(3, 2, 1, 0));
    assert_eq!(journal_lines(&fx.journal, &rows), 13);

    // Grid a again, 2 workers: every label is journaled, so journal hits
    // come first and nothing new is written.
    let before = cell_counts();
    assert_eq!(fx.a.run_with_jobs(2).unwrap(), fx.reference[0].1);
    assert_eq!(since(before), counts(6, 0, 0, 6));
    assert_eq!(journal_lines(&fx.journal, &rows), 13);
}

#[test]
fn a_fault_targeted_cell_is_never_served_from_the_memo() {
    let (_serial, fx) = fixture();
    assert_eq!(fx.primer.run_with_jobs(1).unwrap(), fx.reference[3].0);

    // `fault/faulted` has `fault/primer`'s content but is targeted: it
    // runs (and fails), while its healthy twin `fault/clean` is served.
    let before = cell_counts();
    let err = fx
        .faulted
        .run_with_jobs(1)
        .expect_err("the targeted cell fails");
    assert!(err.to_string().contains(FAULTED), "{err}");
    assert_eq!(since(before), counts(2, 1, 1, 0));

    // The healthy twin is journaled under its own label; the hole is not.
    assert_eq!(journal_lines(&fx.journal, &["fault"]), 2);
    let (sm, si) = base();
    let fault_wl = &fx.faulted.workload_rows()[0].1;
    let fp = |label| cell_fingerprint(label, workload_hash(fault_wl), &sm, &si);
    let journal = global_policy().unwrap().journal.as_ref().unwrap();
    assert_eq!(
        journal.lookup(fp("fault/clean")).as_ref(),
        Some(&fx.reference[4].0[0][1])
    );
    assert_eq!(journal.lookup(fp(FAULTED)), None);
}

#[test]
fn run_resilient_simulates_every_cell_despite_the_memo() {
    let (_serial, fx) = fixture();
    assert_eq!(fx.explicit.run_with_jobs(1).unwrap(), fx.reference[5].0);
    let before = cell_counts();
    let grid = run_resilient(&fx.explicit, &SweepPolicy::default());
    assert_eq!(since(before), counts(2, 2, 0, 0));
    assert_eq!(grid.into_result().unwrap(), fx.reference[5].0);
}
