//! The `figures` workload: the release `figures` binary regenerating the
//! paper's figures on one sweep worker.
//!
//! One run is: set-up (building the Table II suite, several times), one
//! check pass on two workers that also journals every sweep cell, then for
//! at least `--seconds` cold passes, each followed by resumed passes that
//! answer every journaled cell from that journal. Every pass must render
//! the same bytes, and those bytes must hash to the recorded digest.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use subwarp_core::{
    HierarchyConfig, MemBackendConfig, SelectPolicy, SiConfig, Simulator, SmConfig,
};
use subwarp_serve::json::{parse, Value};
use subwarp_sweep::{fnv1a, units_to_stats};
use subwarp_workloads::{figure9_workload, microbenchmark_with, suite, MicroConfig};

use crate::proc::{run_timed, CpuTicks, Finished};
use crate::report::{secs, Report, Samples, END_TO_END};
use crate::{Args, Env};

/// FNV-1a of the bytes `figures all` renders for this tree. A change to
/// the simulated results changes it; such a change updates this constant
/// and the value in `perfbench/README.md`.
const RECORDED_FIGURES_DIGEST: u64 = 0xe3f8_7b6b_c827_e273;

const MIN_COLD_PASSES: usize = 3;
/// Resumed passes after each cold pass.
const HITS_PER_COLD: usize = 8;
const SETUP_REPS: usize = 21;

/// Builds the Table II suite from scratch `reps` times; the durations.
pub fn suite_builds(reps: usize) -> Samples {
    let mut s = Samples::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let built: Vec<_> = suite().iter().map(|t| t.build()).collect();
        std::hint::black_box(&built);
        s.push(secs(t0));
    }
    s
}

/// Runs `figures all` on `jobs` sweep workers with `extra` flags.
fn figures(env: &Env, jobs: usize, extra: &[&str], log: &str) -> Result<Finished, String> {
    let mut cmd = Command::new(env.bin("figures"));
    cmd.arg("all")
        .args(extra)
        .env("SUBWARP_JOBS", jobs.to_string())
        .current_dir(&env.root);
    run_timed(&mut cmd, &env.work.join(log)).map_err(|e| format!("cannot run figures: {e}"))
}

pub fn run(env: &Env, args: &Args) -> Result<Report, String> {
    let mut r = Report::new(&END_TO_END);
    r.metric("setup_s", suite_builds(SETUP_REPS).median());

    // Check pass: two sweep workers, every sweep cell journaled. Its
    // output is the reference every timed pass must reproduce, and its
    // journal counts the work and feeds the resumed passes.
    let journal = env.work.join("figures.jsonl");
    let journal_arg = journal.to_string_lossy().into_owned();
    let f = figures(env, 2, &["--journal", &journal_arg], "check.log")?;
    r.attempt(f.success);
    if !f.success {
        r.fail_check("`figures` check pass failed (see check.log)".into());
        return Ok(r);
    }
    let reference = f.stdout;
    let digest = fnv1a(0, &reference);
    println!("figures output digest {digest:#018x} (recorded {RECORDED_FIGURES_DIGEST:#018x})");
    r.check(digest == RECORDED_FIGURES_DIGEST, || {
        format!(
            "`figures all` output digest {digest:#018x} differs from the recorded \
             {RECORDED_FIGURES_DIGEST:#018x}: the simulated results changed"
        )
    });
    let (mut cells, mut instructions) = journal_totals(&journal)?;
    let journaled = cells;
    let (direct_cells, direct_inst) = figure10_runs()?;
    cells += direct_cells;
    instructions += direct_inst;
    r.check(cells > 0 && instructions > 0, || {
        "no simulated work counted".into()
    });

    // Timed passes on one worker, interleaved so that both kinds see the
    // same host conditions: a cold pass (every cell simulated, no
    // journal), then resumed passes (every journaled cell answered from
    // the journal).
    let (mut cold, mut hit) = (Samples::default(), Samples::default());
    let mut rss_kib = Vec::new();
    let t0 = Instant::now();
    let ticks = CpuTicks::now();
    // Start another cycle only if it would end nearer to `--seconds` than
    // stopping now does, so a run lasts about `--seconds`.
    while cold.len() < MIN_COLD_PASSES || secs(t0) * (1.0 + 0.5 / cold.len() as f64) < args.seconds
    {
        let f = figures(env, 1, &[], "cold.log")?;
        r.attempt(f.success);
        r.check(f.success && f.stdout == reference, || {
            "figures output differs between 1 and 2 sweep workers, or between passes".into()
        });
        cold.push(f.wall_s);
        rss_kib.push(f.max_rss_kib as f64);
        for _ in 0..HITS_PER_COLD {
            let f = figures(env, 1, &["--resume", "--journal", &journal_arg], "hit.log")?;
            r.attempt(f.success);
            r.check(f.success && f.stdout == reference, || {
                "figures output differs after resuming from the journal".into()
            });
            let log = std::fs::read_to_string(env.work.join("hit.log")).unwrap_or_default();
            r.check(
                log.contains(&format!("({journaled} cells restored)")),
                || format!("resumed pass did not restore all {journaled} journaled cells: {log}"),
            );
            hit.push(f.wall_s);
        }
    }

    let wall = cold.median();
    println!(
        "figures: {cells} simulations, {instructions} warp-instructions per pass; cold passes (s) {}; resumed passes (s) {}; host steal {:.3}",
        cold.list(),
        hit.list(),
        CpuTicks::now().since(ticks).steal_share()
    );
    r.metric("wall_s", wall);
    r.metric("sim_inst_per_s", instructions as f64 / wall);
    r.metric(
        "peak_rss_mb",
        rss_kib.iter().sum::<f64>() / rss_kib.len() as f64 / 1024.0,
    );
    r.metric("jobs_per_s", cells as f64 / wall);
    r.metric("cold_p50_ms", cold.median() * 1e3);
    r.metric("cold_p95_ms", cold.quantile(0.95) * 1e3);
    r.metric("hit_p50_ms", hit.median() * 1e3);
    r.metric("hit_p95_ms", hit.quantile(0.95) * 1e3);
    Ok(r)
}

/// Cells in a sweep journal and their total warp-instructions.
pub fn journal_totals(path: &Path) -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read journal: {e}"))?;
    let mut cells = 0u64;
    let mut instructions = 0u64;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = parse(line).map_err(|e| format!("bad journal line: {e}"))?;
        let ints = |key: &str| -> Option<Vec<u64>> {
            v.get(key)?.as_arr()?.iter().map(Value::as_u64).collect()
        };
        let stats = ints("u")
            .zip(ints("ch"))
            .and_then(|(u, ch)| units_to_stats(&u, &ch))
            .ok_or_else(|| format!("journal line without stats: {line}"))?;
        cells += 1;
        instructions += stats.instructions;
    }
    Ok((cells, instructions))
}

/// Figure 10's two toy runs (the only simulations `figures all` runs
/// outside a sweep).
fn figure10_runs() -> Result<(u64, u64), String> {
    let wl = figure9_workload();
    let mut inst = 0;
    for si in [
        SiConfig::sos(SelectPolicy::AnyStalled),
        SiConfig::both(SelectPolicy::AnyStalled),
    ] {
        let s = Simulator::new(SmConfig::turing_like(), si)
            .run(&wl)
            .map_err(|e| e.to_string())?;
        inst += s.instructions;
    }
    Ok((2, inst))
}

/// The machine `chip_sweep()` simulates at `n_sms` SMs, with its workload.
pub fn chip_point(n_sms: usize) -> (subwarp_core::Workload, SmConfig) {
    let wl = microbenchmark_with(MicroConfig {
        n_warps: 8 * n_sms,
        ..MicroConfig::default()
    });
    let mut sm = SmConfig::turing_like().with_mem_backend(MemBackendConfig::Hierarchical(
        HierarchyConfig::turing_like(),
    ));
    sm.n_sms = n_sms;
    (wl, sm)
}
