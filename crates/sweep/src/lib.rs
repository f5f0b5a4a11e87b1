//! Reusable sweep engine: the declarative workload × configuration grid,
//! fault-tolerant supervised execution, content fingerprints, and locked
//! JSONL checkpoint journals.
//!
//! Extracted from `subwarp-bench` so both the figure pipeline and the
//! `subwarp-serve` daemon share one implementation of "run this simulation
//! exactly once, remember the answer exactly, and survive every failure
//! mode". The pieces:
//!
//! - [`Sweep`]: the cartesian grid of shared workloads × named simulator
//!   configurations every figure (and every batch of service jobs) is a
//!   slice of.
//! - [`run_resilient`]: the grid under [`subwarp_pool::run_supervised`] —
//!   each cell isolated by `catch_unwind`, optionally bounded by a soft
//!   wall-clock deadline and retried on transient failures — returning a
//!   [`PartialGrid`] where every cell is either its `RunStats` or a labeled
//!   [`JobError`] *hole*, never a lost sweep.
//! - [`Journal`]: an append-only JSONL checkpoint keyed by
//!   [`cell_fingerprint`], exact for the all-integer `RunStats`, guarded by
//!   an exclusive lock file so two writers can never interleave.
//! - [`SweepPolicy`] + [`FaultPlan`] deterministic fault injection — the
//!   chaos path exercised by `figures chaos` and the CI `chaos-smoke` and
//!   `serve-smoke` jobs.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use subwarp_core::{FaultPlan, RunStats, SiConfig, SimError, Simulator, SmConfig, Workload};
use subwarp_pool::{JobCause, JobError, Supervisor};
use subwarp_workloads::built_suite;

pub mod fingerprint;
pub mod journal;

pub use fingerprint::{cell_fingerprint, fnv1a, workload_hash};
pub use journal::{
    json_escape, lock_path_for, stats_to_units, units_to_stats, CompactPolicy, CompactStats,
    CompactStep, Journal,
};

// ------------------------------------------------------------------- Sweep

/// A declarative experiment sweep: the cartesian grid of shared workloads
/// × named simulator configurations.
///
/// Every figure and table of the paper is some slice of this grid. The
/// cells are completely independent `Simulator::run` calls, so
/// [`Sweep::run`] fans them out across the [`subwarp_pool`] workers and
/// reassembles the results in grid order — a parallel sweep returns
/// exactly what the serial one (`SUBWARP_JOBS=1`) returns.
#[derive(Default)]
pub struct Sweep {
    workloads: Vec<(String, Arc<Workload>)>,
    // Per-row fingerprint override, parallel to `workloads`. `None` rows
    // are keyed by the structural `workload_hash`; `Some` rows carry it
    // precomputed (suite rows) or are keyed by the trace content
    // fingerprint (workloads loaded from trace files), which survives
    // across processes and format-compatible re-encodes.
    hashes: Vec<Option<u64>>,
    configs: Vec<(String, SmConfig, SiConfig)>,
}

impl Sweep {
    /// An empty sweep; add rows and columns with the builder methods.
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// A sweep over the shared, built-once Table II suite
    /// ([`built_suite`]).
    pub fn over_suite() -> Sweep {
        let mut s = Sweep::new();
        for ((t, wl), &h) in built_suite().iter().zip(suite_hashes()) {
            s.workloads.push((t.name.to_owned(), Arc::clone(wl)));
            s.hashes.push(Some(h));
        }
        s
    }

    /// Adds a (prebuilt, shared) workload row.
    pub fn workload(mut self, name: impl Into<String>, wl: Arc<Workload>) -> Sweep {
        self.workloads.push((name.into(), wl));
        self.hashes.push(None);
        self
    }

    /// Adds a workload row whose memo/journal identity is `hash` instead
    /// of the structural [`workload_hash`].
    ///
    /// Trace-sourced rows use this with
    /// `subwarp_trace::trace_fingerprint(&bytes)`: the cell fingerprint is
    /// then keyed by the trace *content* (format version + bytes), so a
    /// journal written against a trace file stays valid exactly as long
    /// as the file's fingerprint does.
    pub fn workload_hashed(
        mut self,
        name: impl Into<String>,
        wl: Arc<Workload>,
        hash: u64,
    ) -> Sweep {
        self.workloads.push((name.into(), wl));
        self.hashes.push(Some(hash));
        self
    }

    /// Adds a simulator-configuration column.
    pub fn config(mut self, label: impl Into<String>, sm: SmConfig, si: SiConfig) -> Sweep {
        self.configs.push((label.into(), sm, si));
        self
    }

    /// Workload names in grid row order.
    pub fn workload_names(&self) -> impl Iterator<Item = &str> {
        self.workloads.iter().map(|(n, _)| n.as_str())
    }

    /// Configuration labels in grid column order.
    pub fn config_labels(&self) -> impl Iterator<Item = &str> {
        self.configs.iter().map(|(l, _, _)| l.as_str())
    }

    /// The workload rows (name, shared workload), in grid order.
    pub fn workload_rows(&self) -> &[(String, Arc<Workload>)] {
        &self.workloads
    }

    /// The configuration columns (label, SM config, SI config), in grid
    /// order.
    pub fn config_cols(&self) -> &[(String, SmConfig, SiConfig)] {
        &self.configs
    }

    /// Number of cells (`workloads × configs`) the sweep will run.
    pub fn len(&self) -> usize {
        self.workloads.len() * self.configs.len()
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the grid on the default worker count
    /// ([`subwarp_pool::default_jobs`]). `grid[w][c]` holds workload `w`
    /// under configuration `c`; on failure, the first error in grid order
    /// is returned.
    pub fn run(&self) -> Result<Vec<Vec<RunStats>>, SimError> {
        self.run_with_jobs(subwarp_pool::default_jobs())
    }

    /// Runs the grid on exactly `workers` threads (the serial/parallel
    /// determinism A/B hook).
    ///
    /// When a process-global [`SweepPolicy`] has been installed (the
    /// `figures` binary always installs one), the grid runs under
    /// supervision instead, and each distinct cell content is simulated at
    /// most once per process (see [`install_global_policy`]); a
    /// strict-mode caller still sees the first hole as a `SimError`.
    /// Without an installed policy this is the original unsupervised fast
    /// path, which simulates every cell.
    pub fn run_with_jobs(&self, workers: usize) -> Result<Vec<Vec<RunStats>>, SimError> {
        if let Some(policy) = global_policy() {
            let mut policy = policy.clone();
            policy.workers = Some(workers);
            return run_cells(self, &policy, Some(&CELL_MEMO)).into_result();
        }
        CELLS.fetch_add(self.len(), Ordering::Relaxed);
        SIMULATED.fetch_add(self.len(), Ordering::Relaxed);
        let nc = self.configs.len();
        let cells = subwarp_pool::run_with_jobs(workers, self.len(), |i| {
            let (_, wl) = &self.workloads[i / nc];
            let (_, sm, si) = &self.configs[i % nc];
            Simulator::new(sm.clone(), *si).run(wl)
        });
        let mut it = cells.into_iter();
        let mut grid = Vec::with_capacity(self.workloads.len());
        for _ in 0..self.workloads.len() {
            grid.push((&mut it).take(nc).collect::<Result<Vec<_>, _>>()?);
        }
        Ok(grid)
    }

    /// Runs the grid under a supervision policy, returning a partial grid
    /// with labeled holes instead of dying with the first failure. See
    /// [`run_resilient`].
    pub fn run_resilient(&self, policy: &SweepPolicy) -> PartialGrid {
        run_resilient(self, policy)
    }
}

// ----------------------------------------------------------------- policy

/// How a resilient sweep is supervised.
#[derive(Debug, Clone, Default)]
pub struct SweepPolicy {
    /// Worker threads; `None` uses [`subwarp_pool::default_jobs`].
    pub workers: Option<usize>,
    /// Per-cell soft wall-clock deadline; an overdue cell becomes a
    /// [`SimError::Timeout`] hole.
    pub deadline: Option<Duration>,
    /// Attempts per cell (`0`/`1` = no retries). Retries apply to panics
    /// and simulation errors — transient injected faults (see
    /// `FaultPlan::clears_after`) succeed on a later attempt.
    pub max_attempts: u32,
    /// Deterministic fault injection, evaluated per cell label before the
    /// simulation runs.
    pub faults: Option<FaultPlan>,
    /// Checkpoint journal: completed cells are restored from (and recorded
    /// to) this journal.
    pub journal: Option<Arc<Journal>>,
}

impl SweepPolicy {
    fn supervisor(&self) -> Supervisor {
        Supervisor {
            workers: self.workers.unwrap_or_else(subwarp_pool::default_jobs),
            deadline: self.deadline,
            max_attempts: self.max_attempts.max(1),
            retry_panics: self.max_attempts > 1,
            retry_errors: self.max_attempts > 1,
            ..Supervisor::default()
        }
    }
}

/// Process-global sweep policy, installed once by the `figures` binary so
/// every figure's internal `Sweep::run` becomes resilient without threading
/// the policy through each experiment's signature. Library users (and
/// tests) pass a policy to [`run_resilient`] explicitly instead; nothing in
/// this crate installs a global policy on its own.
static GLOBAL_POLICY: OnceLock<SweepPolicy> = OnceLock::new();

/// Results of every cell simulated under the installed global policy,
/// keyed by content: [`cell_fingerprint`] with an empty label, so the same
/// workload and configurations under another figure's label collide.
/// Values are [`pack`]ed.
type Memo = Mutex<BTreeMap<u64, Box<[u8]>>>;

/// The content-keyed cell memo. Only grids run through the global policy
/// read or fill it; [`run_resilient`] and the policy-less fast path always
/// simulate every cell.
static CELL_MEMO: Memo = Mutex::new(BTreeMap::new());

/// Installs the process-global policy. Returns `false` (and changes
/// nothing) if one was already installed.
///
/// From then on [`Sweep::run_with_jobs`] runs every grid under this
/// policy and simulates each distinct cell content at most once per
/// process: cells restored from the journal, or simulated by an earlier
/// grid or by a twin in the same grid, are answered from a content-keyed
/// memo and still journaled under their own label. Cells a
/// [`FaultPlan`] may sabotage neither read nor fill the memo.
pub fn install_global_policy(policy: SweepPolicy) -> bool {
    GLOBAL_POLICY.set(policy).is_ok()
}

/// The installed process-global policy, if any.
pub fn global_policy() -> Option<&'static SweepPolicy> {
    GLOBAL_POLICY.get()
}

/// Process-global count of holes produced by [`run_resilient`] calls, for
/// callers (the `figures --max-holes` budget) that aggregate over many
/// grids without threading a counter through every experiment signature.
static HOLES: AtomicUsize = AtomicUsize::new(0);

/// Total holes observed by every [`run_resilient`] call in this process.
pub fn holes_observed() -> usize {
    HOLES.load(Ordering::Relaxed)
}

static CELLS: AtomicUsize = AtomicUsize::new(0);
static SIMULATED: AtomicUsize = AtomicUsize::new(0);
static DEDUPLICATED: AtomicUsize = AtomicUsize::new(0);
static RESTORED: AtomicUsize = AtomicUsize::new(0);

/// What every sweep in this process did with its cells. Each cell is
/// exactly one of simulated, deduplicated or restored, so the three add up
/// to `cells`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellCounts {
    /// Grid cells requested.
    pub cells: usize,
    /// Cells handed to the simulator (a failed attempt counts too).
    pub simulated: usize,
    /// Cells answered from the content-keyed memo: a twin of a cell
    /// simulated or restored earlier, or of one simulated in the same grid.
    pub deduplicated: usize,
    /// Cells restored from the policy's journal by their label.
    pub restored: usize,
}

impl std::fmt::Display for CellCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cells, {} simulated, {} deduplicated, {} restored from journal",
            self.cells, self.simulated, self.deduplicated, self.restored
        )
    }
}

/// Totals over every sweep run in this process so far.
pub fn cell_counts() -> CellCounts {
    CellCounts {
        cells: CELLS.load(Ordering::Relaxed),
        simulated: SIMULATED.load(Ordering::Relaxed),
        deduplicated: DEDUPLICATED.load(Ordering::Relaxed),
        restored: RESTORED.load(Ordering::Relaxed),
    }
}

/// [`workload_hash`] of each [`built_suite`] workload, computed once per
/// process: every suite sweep would otherwise re-render all ten workloads.
fn suite_hashes() -> &'static [u64] {
    static HASHES: OnceLock<Vec<u64>> = OnceLock::new();
    HASHES.get_or_init(|| {
        built_suite()
            .iter()
            .map(|(_, wl)| workload_hash(wl))
            .collect()
    })
}

// ----------------------------------------------------------- partial grid

/// A sweep result where every cell is either its `RunStats` or a labeled
/// hole explaining the failure.
#[derive(Debug)]
pub struct PartialGrid {
    n_configs: usize,
    cells: Vec<Result<RunStats, JobError<SimError>>>,
}

impl PartialGrid {
    /// Grid rows: `rows()[w][c]` is workload `w` under configuration `c`.
    pub fn rows(&self) -> Vec<&[Result<RunStats, JobError<SimError>>]> {
        if self.n_configs == 0 {
            return Vec::new();
        }
        self.cells.chunks(self.n_configs).collect()
    }

    /// One cell.
    pub fn cell(&self, workload: usize, config: usize) -> &Result<RunStats, JobError<SimError>> {
        &self.cells[workload * self.n_configs + config]
    }

    /// Every failed cell, in grid order.
    pub fn holes(&self) -> Vec<&JobError<SimError>> {
        self.cells.iter().filter_map(|c| c.as_ref().err()).collect()
    }

    /// Cells that completed successfully.
    pub fn completed(&self) -> usize {
        self.cells.iter().filter(|c| c.is_ok()).count()
    }

    /// Collapses into the strict all-or-nothing grid `Sweep::run` returns:
    /// the first hole in grid order becomes the sweep's `SimError`.
    pub fn into_result(self) -> Result<Vec<Vec<RunStats>>, SimError> {
        let n_configs = self.n_configs;
        let mut flat = Vec::with_capacity(self.cells.len());
        for cell in self.cells {
            flat.push(cell.map_err(job_error_to_sim)?);
        }
        Ok(if n_configs == 0 {
            Vec::new()
        } else {
            flat.chunks(n_configs).map(<[RunStats]>::to_vec).collect()
        })
    }
}

/// Converts a supervision failure into the `SimError` vocabulary so strict
/// callers keep their `Result<_, SimError>` signature.
pub fn job_error_to_sim(e: JobError<SimError>) -> SimError {
    match e.cause {
        JobCause::Err(sim) => sim,
        JobCause::Panic(message) => SimError::Panicked {
            workload: e.label,
            message,
        },
        JobCause::Timeout { deadline } => SimError::Timeout {
            workload: e.label,
            deadline_ms: deadline.as_millis() as u64,
        },
        JobCause::Cancelled => SimError::Cancelled { workload: e.label },
    }
}

// ------------------------------------------------------------ run_resilient

struct JobSpec {
    label: String,
    fp: u64,
    // Content key (the fingerprint with an empty label) when this cell may
    // use the memo; `None` without a memo or when the fault plan may
    // sabotage the cell.
    key: Option<u64>,
}

/// Runs a sweep grid under supervision, returning a [`PartialGrid`] with
/// one labeled outcome per cell.
///
/// Cells whose fingerprint is already in the policy's [`Journal`] are
/// restored without re-simulating; freshly completed cells are journaled
/// as they finish. Cell labels are `"<workload>/<config>"`. Every other
/// cell is simulated, even when another cell of the grid has the same
/// content. Determinism: for a fault-free (or deterministically-faulted)
/// sweep, the `Ok`/`Err` pattern and every `Ok` payload are identical for
/// serial and parallel runs, and for interrupted-then-resumed versus
/// uninterrupted runs.
// `JobError<SimError>` is only materialized once per *failed* cell; boxing
// it would push the indirection into every PartialGrid accessor for no
// hot-path benefit.
#[allow(clippy::result_large_err)]
pub fn run_resilient(sweep: &Sweep, policy: &SweepPolicy) -> PartialGrid {
    run_cells(sweep, policy, None)
}

/// [`run_resilient`], answering cells from `memo` by content where it can:
/// journal hits by label come first (and seed the memo), then memo hits,
/// then one simulation per distinct content among the remaining cells.
/// Memo-served cells are journaled under their own label, so a resumed run
/// restores exactly the cells an unmemoized one would have journaled.
#[allow(clippy::result_large_err)]
fn run_cells(sweep: &Sweep, policy: &SweepPolicy, memo: Option<&Memo>) -> PartialGrid {
    let n_configs = sweep.configs.len();
    let exposed = |label: &str| {
        policy.faults.as_ref().is_some_and(|plan| {
            (1..=policy.max_attempts.max(1)).any(|a| plan.decide(label, a).is_some())
        })
    };
    let specs: Vec<JobSpec> = sweep
        .workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, (wname, wl))| {
            let whash = sweep
                .hashes
                .get(wi)
                .copied()
                .flatten()
                .unwrap_or_else(|| workload_hash(wl));
            sweep.configs.iter().map(move |(cname, sm, si)| {
                let label = format!("{wname}/{cname}");
                let fp = cell_fingerprint(&label, whash, sm, si);
                let key = (memo.is_some() && !exposed(&label))
                    .then(|| cell_fingerprint("", whash, sm, si));
                JobSpec { label, fp, key }
            })
        })
        .collect();

    let mut cells: Vec<Option<Result<RunStats, JobError<SimError>>>> =
        (0..specs.len()).map(|_| None).collect();
    let mut restored = 0;
    if let Some(journal) = &policy.journal {
        for (i, spec) in specs.iter().enumerate() {
            if let Some(stats) = journal.lookup(spec.fp) {
                if let (Some(m), Some(key), Some(packed)) = (memo, spec.key, pack(&stats)) {
                    m.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(key, packed);
                }
                cells[i] = Some(Ok(stats));
                restored += 1;
            }
        }
    }

    // Each pending cell is memo-served, the twin of an earlier pending
    // cell, or a job of its own.
    let mut served = Vec::new();
    let mut jobs: Vec<usize> = Vec::new();
    let mut twins: Vec<Vec<usize>> = Vec::new();
    let known = memo.map(|m| m.lock().unwrap_or_else(|e| e.into_inner()));
    let mut job_of: HashMap<u64, usize> = HashMap::new();
    for (i, spec) in specs.iter().enumerate() {
        if cells[i].is_some() {
            continue;
        }
        if let Some(key) = spec.key {
            if let Some(packed) = known.as_ref().and_then(|m| m.get(&key)) {
                served.push((i, unpack(packed)));
                continue;
            }
            if let Some(&k) = job_of.get(&key) {
                twins[k].push(i);
                continue;
            }
            job_of.insert(key, jobs.len());
        }
        jobs.push(i);
        twins.push(Vec::new());
    }
    drop(known);
    let deduplicated = served.len() + twins.iter().map(Vec::len).sum::<usize>();
    for (i, stats) in served {
        if let Some(j) = &policy.journal {
            j.record(specs[i].fp, &specs[i].label, &stats);
        }
        cells[i] = Some(Ok(stats));
    }

    if !jobs.is_empty() {
        let labels: Vec<String> = jobs.iter().map(|&i| specs[i].label.clone()).collect();
        let specs = Arc::new(specs);
        let twins = Arc::new(twins);
        let (run_specs, run_twins, run_jobs) =
            (Arc::clone(&specs), Arc::clone(&twins), jobs.clone());
        // One copy of each row and column for the job closure, not one per
        // cell: cell `i` is row `i / n_configs`, column `i % n_configs`.
        let rows: Vec<Arc<Workload>> = sweep
            .workloads
            .iter()
            .map(|(_, wl)| Arc::clone(wl))
            .collect();
        let cols: Vec<(SmConfig, SiConfig)> = sweep
            .configs
            .iter()
            .map(|(_, sm, si)| (sm.clone(), *si))
            .collect();
        let faults = policy.faults.clone();
        let journal = policy.journal.clone();
        let outcomes =
            subwarp_pool::run_supervised(&policy.supervisor(), &labels, move |k, attempt| {
                let cell = run_jobs[k];
                let spec = &run_specs[cell];
                if let Some(plan) = &faults {
                    plan.sabotage(&spec.label, attempt)?;
                }
                let (sm, si) = &cols[cell % n_configs];
                let stats = Simulator::new(sm.clone(), *si).run(&rows[cell / n_configs])?;
                if let Some(j) = &journal {
                    for &i in std::iter::once(&cell).chain(&run_twins[k]) {
                        j.record(run_specs[i].fp, &run_specs[i].label, &stats);
                    }
                }
                Ok(stats)
            });
        for (k, outcome) in outcomes.into_iter().enumerate() {
            let packed = outcome.as_ref().ok().and_then(pack);
            if let (Some(m), Some(key), Some(packed)) = (memo, specs[jobs[k]].key, packed) {
                m.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(key, packed);
            }
            // Re-anchor the supervised batch's job index (and, for twins,
            // the label) to the grid cell.
            for &i in std::iter::once(&jobs[k]).chain(&twins[k]) {
                cells[i] = Some(outcome.clone().map_err(|e| JobError {
                    index: i,
                    label: specs[i].label.clone(),
                    ..e
                }));
            }
        }
    }
    let grid = PartialGrid {
        n_configs,
        cells: cells
            .into_iter()
            .map(|c| c.expect("every cell resolved"))
            .collect(),
    };
    HOLES.fetch_add(grid.holes().len(), Ordering::Relaxed);
    CELLS.fetch_add(grid.cells.len(), Ordering::Relaxed);
    SIMULATED.fetch_add(jobs.len(), Ordering::Relaxed);
    DEDUPLICATED.fetch_add(deduplicated, Ordering::Relaxed);
    RESTORED.fetch_add(restored, Ordering::Relaxed);
    grid
}

/// Packs `stats` for the memo: the journal's exact integer codec
/// ([`stats_to_units`]), each value LEB128-encoded. Counters are mostly
/// small, so an entry takes about 100 bytes where a `RunStats` takes 440,
/// which keeps the memo from raising a `figures` run's peak RSS. `None`
/// when the codec would not reproduce `stats` (a per-SM breakdown, phase
/// timings): such a cell is simply not memoized.
fn pack(stats: &RunStats) -> Option<Box<[u8]>> {
    let (u, ch) = stats_to_units(stats);
    if units_to_stats(&u, &ch).as_ref() != Some(stats) {
        return None;
    }
    let mut out = Vec::with_capacity(128);
    let lengths = ([u.len() as u64], [ch.len() as u64]);
    for mut v in lengths.0.into_iter().chain(u).chain(lengths.1).chain(ch) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    Some(out.into_boxed_slice())
}

/// Inverse of [`pack`].
fn unpack(packed: &[u8]) -> RunStats {
    let mut bytes = packed.iter();
    let mut next = || {
        let mut v = 0u64;
        for (shift, &b) in (0..64).step_by(7).zip(&mut bytes) {
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    };
    let n = next();
    let u: Vec<u64> = (0..n).map(|_| next()).collect();
    let n = next();
    let ch: Vec<u64> = (0..n).map(|_| next()).collect();
    units_to_stats(&u, &ch).expect("memo entries are packed from exact stats")
}

// ------------------------------------------------------------- chaos sweep

/// A small, fast sweep with deterministic injected faults, used by
/// `figures chaos` and the CI `chaos-smoke` job to prove the supervision
/// layer end to end: a panic hole, an injected-`SimError` hole, a
/// deadline-timeout hole, and a dropped-fill column that must surface as a
/// deadlock hole via the SM watchdog — while every healthy cell completes.
pub fn chaos_sweep() -> (Sweep, SweepPolicy) {
    use subwarp_core::{FaultKind, MemBackendConfig, MemFaultConfig};
    use subwarp_workloads::{figure9_workload, microbenchmark};

    let mut sm = SmConfig::turing_like();
    // Keep the dropped-fill deadlock cheap: a short watchdog horizon is
    // plenty for these tiny kernels.
    sm.max_cycles = 10_000_000;
    let mut faulty_sm = sm.clone();
    faulty_sm.mem_backend = MemBackendConfig::Faulty {
        fault: MemFaultConfig {
            seed: 0xC405,
            drop_per_mille: 1000,
            ..MemFaultConfig::default()
        },
        inner: Box::new(MemBackendConfig::Fixed),
    };

    let sweep = Sweep::new()
        .workload("toy", Arc::new(figure9_workload()))
        .workload("micro", Arc::new(microbenchmark(8, 4)))
        .config("base", sm.clone(), SiConfig::disabled())
        .config("si", sm, SiConfig::best())
        .config("dropped-fills", faulty_sm, SiConfig::disabled());

    let faults = FaultPlan::none(0xC405)
        .with_target("toy/si", FaultKind::Panic)
        .with_target("micro/base", FaultKind::Error)
        .with_target("micro/si", FaultKind::Delay { ms: 60_000 });
    let policy = SweepPolicy {
        deadline: Some(Duration::from_millis(1500)),
        faults: Some(faults),
        ..SweepPolicy::default()
    };
    (sweep, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_memo_entries_round_trip_exactly() {
        let mut stats = RunStats {
            cycles: u64::MAX,
            instructions: 0x80,
            peak_resident_warps: 32,
            ..RunStats::default()
        };
        stats.cycle_causes[3] = 1 << 40;
        stats.mem.channel_busy_cycles = vec![0, 127, 128, u64::MAX - 1];
        let packed = pack(&stats).expect("integer stats pack");
        assert_eq!(unpack(&packed), stats);
        stats.phase_nanos[0] = 1;
        assert_eq!(pack(&stats), None, "phase timings are not in the codec");
    }

    #[test]
    fn cached_suite_hashes_equal_workload_hash() {
        let suite = Sweep::over_suite();
        assert_eq!(suite.hashes.len(), built_suite().len());
        for ((_, wl), h) in suite.workload_rows().iter().zip(&suite.hashes) {
            assert_eq!(*h, Some(workload_hash(wl)));
        }
    }
}
