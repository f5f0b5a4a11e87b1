//! The traced run (`--trace 1`): per-layer metrics, each taken by timing
//! calls into one layer's public functions from outside.
//!
//! The run is the same for every workload (the seed drives its service
//! requests). Its order: workload build, trace codec, the Figure 12a grid
//! untraced, cell by cell, and with phase clocks on, the memory-backend
//! runs untraced and traced, a scratch journal, a short service session with
//! direct-to-shard and via-router requests, and a router in front of a
//! shard that refuses its first connections.

use std::sync::Arc;
use std::time::Instant;

use subwarp_bench::{fig12a_sweep, gain_pct, Sweep};
use subwarp_core::{
    HierarchyConfig, MemBackendConfig, RunStats, SiConfig, Simulator, SmConfig, Workload, N_PHASES,
    PHASE_NAMES,
};
use subwarp_serve::chaos::{ChaosPlan, ChaosProxy};
use subwarp_serve::json::parse;
use subwarp_serve::{Client, JobSpec, Router, RouterConfig};
use subwarp_sweep::{fnv1a, stats_to_units, CompactPolicy, Journal};
use subwarp_trace::{decode_workload, encode_workload, trace_fingerprint};
use subwarp_workloads::built_suite;

use crate::batch::{chip_point, suite_builds};
use crate::mix::{ask, corpus_files, drive, Cluster, Outcome, ReplyCheck, Request, Stream};
use crate::report::{secs, Report, Samples, PER_LAYER};
use crate::{Args, Env};

/// The stats digest of this tree, also in `perfbench/README.md`. A run
/// whose digest differs simulated something different and fails; a change
/// that means to alter the simulated results updates both.
const RECORDED_STATS_DIGEST: u32 = 0x638e_7327;
/// Connections the faulty shard refuses before it heals.
const REFUSED_CONNS: u64 = 5;

pub fn run(env: &Env, args: &Args) -> Result<Report, String> {
    let mut r = Report::new(&PER_LAYER);
    r.metric("workloads.build_s", suite_builds(3).median());
    trace_codec(env, &mut r)?;
    let mut digest = 0u64;
    core_and_sweep(&mut r, &mut digest)?;
    memory(&mut r, &mut digest)?;
    let digest = (digest ^ (digest >> 32)) as u32;
    println!("model.stats_digest {digest:#010x} (recorded {RECORDED_STATS_DIGEST:#010x})");
    r.check(digest == RECORDED_STATS_DIGEST, || {
        format!(
            "stats digest {digest:#010x} differs from the recorded {RECORDED_STATS_DIGEST:#010x}: \
             the simulated results changed"
        )
    });
    journal(env, &mut r)?;
    service(env, args, &mut r)?;
    Ok(r)
}

fn fold_stats(digest: &mut u64, s: &RunStats) {
    let (u, ch) = stats_to_units(s);
    for x in u.iter().chain(&ch) {
        *digest = fnv1a(*digest, &x.to_le_bytes());
    }
}

fn same_result(a: &RunStats, b: &RunStats) -> bool {
    stats_to_units(a) == stats_to_units(b)
}

/// Repeats `f` for at least `min_s` seconds (and 3 rounds); rounds run.
fn repeat_for(min_s: f64, mut f: impl FnMut()) -> (u32, f64) {
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || secs(t0) < min_s {
        f();
        rounds += 1;
    }
    (rounds, secs(t0))
}

/// `decode_workload` and `trace_fingerprint` over the encoded suite plus
/// the trace corpus.
fn trace_codec(env: &Env, r: &mut Report) -> Result<(), String> {
    let mut blobs: Vec<Vec<u8>> = built_suite()
        .iter()
        .map(|(_, wl)| encode_workload(wl))
        .collect();
    for f in corpus_files(&env.root)? {
        blobs.push(std::fs::read(env.root.join(&f)).map_err(|e| format!("{f}: {e}"))?);
    }
    let bytes: usize = blobs.iter().map(Vec::len).sum();
    for b in &blobs {
        let wl = decode_workload(b).map_err(|e| e.to_string())?;
        r.check(encode_workload(&wl) == *b, || {
            "trace re-encode is not byte-identical".into()
        });
    }
    let (rounds, s) = repeat_for(0.5, || {
        for b in &blobs {
            std::hint::black_box(decode_workload(std::hint::black_box(b)).ok());
        }
    });
    r.metric(
        "trace.decode_mb_s",
        bytes as f64 * f64::from(rounds) / s / 1e6,
    );
    let (rounds, s) = repeat_for(0.3, || {
        for b in &blobs {
            std::hint::black_box(trace_fingerprint(std::hint::black_box(b)));
        }
    });
    r.metric(
        "trace.fingerprint_mb_s",
        bytes as f64 * f64::from(rounds) / s / 1e6,
    );
    println!("trace: {} blobs, {bytes} bytes", blobs.len());
    Ok(())
}

/// The Figure 12a grid on one worker: untraced through the sweep layer,
/// cell by cell, and with phase clocks on.
fn core_and_sweep(r: &mut Report, digest: &mut u64) -> Result<(), String> {
    let sweep = fig12a_sweep();
    let t0 = Instant::now();
    let grid = sweep.run_with_jobs(1).map_err(|e| e.to_string())?;
    let untraced = secs(t0);
    let instructions: u64 = grid.iter().flatten().map(|s| s.instructions).sum();
    r.metric("core.ns_per_inst", untraced * 1e9 / instructions as f64);
    grid.iter().flatten().for_each(|s| fold_stats(digest, s));

    let mut cells = Samples::default();
    for ((_, wl), row) in sweep.workload_rows().iter().zip(&grid) {
        for ((_, sm, si), expected) in sweep.config_cols().iter().zip(row) {
            let t = Instant::now();
            let s = Simulator::new(sm.clone(), *si)
                .run(wl)
                .map_err(|e| e.to_string())?;
            cells.push(secs(t) * 1e3);
            r.check(same_result(&s, expected), || {
                "a cell run alone differs from the sweep".into()
            });
        }
    }
    r.metric("sweep.cells", cells.len() as f64);
    r.metric("sweep.cell_p50_ms", cells.median());
    r.metric("sweep.cell_max_ms", cells.max());

    let mut traced_sweep = Sweep::new();
    for (name, wl) in sweep.workload_rows() {
        traced_sweep = traced_sweep.workload(name.clone(), Arc::clone(wl));
    }
    for (label, sm, si) in sweep.config_cols() {
        traced_sweep =
            traced_sweep.config(label.clone(), sm.clone().with_profile_phases(true), *si);
    }
    let t0 = Instant::now();
    let traced_grid = traced_sweep.run_with_jobs(1).map_err(|e| e.to_string())?;
    let traced = secs(t0);
    let mut phases = [0u64; N_PHASES];
    for (s, expected) in traced_grid.iter().flatten().zip(grid.iter().flatten()) {
        r.check(same_result(s, expected), || {
            "phase clocks changed a simulated result".into()
        });
        for (acc, n) in phases.iter_mut().zip(s.phase_nanos) {
            *acc += n;
        }
    }
    for (name, ns) in PHASE_NAMES.iter().zip(phases) {
        r.metric(&format!("core.phase.{name}_s"), ns as f64 / 1e9);
    }
    r.metric("core.trace_overhead", traced / untraced);
    let phase_sum = phases.iter().sum::<u64>() as f64 / 1e9;
    println!(
        "core: fig12a grid {} cells, {instructions} warp-instructions; untraced {untraced:.3} s, \
         traced {traced:.3} s, phase sum {phase_sum:.3} s = {:.1}% of traced wall, {:.1}% of untraced",
        cells.len(),
        100.0 * phase_sum / traced,
        100.0 * phase_sum / untraced
    );

    let both_half = sweep
        .config_labels()
        .position(|l| l == "Both,N>=0.5")
        .ok_or("fig12a grid has no Both,N>=0.5 column")?;
    let gains: Vec<f64> = grid
        .iter()
        .map(|row| gain_pct(&row[both_half], &row[0]))
        .collect();
    r.metric(
        "model.fig12a_gain_pct",
        gains.iter().sum::<f64>() / gains.len() as f64,
    );
    Ok(())
}

/// The memory backend under load: the 36-SM point of `chip_sweep()`
/// (shared L2/DRAM, no reuse) and the suite on the Turing-like hierarchy
/// (`mem_sweep()`'s `lat x1.0` point, where some loads hit in L2),
/// baseline and SI, untraced and traced.
fn memory(r: &mut Report, digest: &mut u64) -> Result<(), String> {
    let (chip_wl, chip_sm) = chip_point(36);
    let hier_sm = SmConfig::turing_like().with_mem_backend(MemBackendConfig::Hierarchical(
        HierarchyConfig::turing_like(),
    ));
    let mut machines: Vec<(&Workload, &SmConfig)> = vec![(&chip_wl, &chip_sm)];
    machines.extend(built_suite().iter().map(|(_, wl)| (&**wl, &hier_sm)));
    let run_all = |phases: bool| -> Result<(Vec<RunStats>, f64), String> {
        let t0 = Instant::now();
        let mut out = Vec::new();
        for (wl, sm) in &machines {
            for si in [SiConfig::disabled(), SiConfig::best()] {
                let sm = (*sm).clone().with_profile_phases(phases);
                out.push(Simulator::new(sm, si).run(wl).map_err(|e| e.to_string())?);
            }
        }
        Ok((out, secs(t0)))
    };
    let (untraced, untraced_s) = run_all(false)?;
    let (traced, traced_s) = run_all(true)?;
    for (a, b) in traced.iter().zip(&untraced) {
        r.check(same_result(a, b), || {
            "phase clocks changed a memory-backend result".into()
        });
        fold_stats(digest, b);
    }
    let fills: u64 = traced.iter().map(|s| s.mem.fills).sum();
    let (hits, misses) = traced
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.mem.l2.hits, m + s.mem.l2.misses));
    let busy: u64 = traced.iter().flat_map(|s| &s.mem.channel_busy_cycles).sum();
    let chan_cycles: u64 = traced
        .iter()
        .map(|s| s.mem.channel_busy_cycles.len() as u64 * s.cycles)
        .sum();
    let memory_ns: u64 = traced.iter().map(|s| s.phase_nanos[2]).sum();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    r.metric("mem.fills", fills as f64);
    r.metric("mem.l2_hit_rate", ratio(hits, hits + misses));
    r.metric("mem.chan_util", ratio(busy, chan_cycles));
    r.metric("mem.ns_per_fill", ratio(memory_ns, fills));
    r.metric(
        "model.chip36_gain_pct",
        gain_pct(&untraced[1], &untraced[0]),
    );
    let phase_sum: u64 = traced.iter().flat_map(|s| s.phase_nanos).sum();
    println!(
        "memory: {} runs, untraced {untraced_s:.3} s, traced {traced_s:.3} s, phase sum {:.3} s, \
         memory phase {:.3} s",
        traced.len(),
        phase_sum as f64 / 1e9,
        memory_ns as f64 / 1e9
    );
    Ok(())
}

/// `Journal::record`, `lookup` and `compact` on a scratch journal sized
/// like a shard's during `serve-mix`.
fn journal(env: &Env, r: &mut Report) -> Result<(), String> {
    const ROUNDS: u64 = 5;
    const RECORDS: u64 = 256;
    let stats: Vec<RunStats> = built_suite()
        .iter()
        .take(2)
        .map(|(_, wl)| Simulator::new(SmConfig::turing_like(), SiConfig::best()).run(wl))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let path = env.work.join("scratch-journal.jsonl");
    let j = Journal::open(&path).map_err(|e| e.to_string())?;
    let (mut append, mut lookup, mut compact) =
        (Samples::default(), Samples::default(), Samples::default());
    for round in 0..ROUNDS {
        let fps: Vec<u64> = (0..RECORDS)
            .map(|i| fnv1a(round, &i.to_le_bytes()))
            .collect();
        for (i, fp) in fps.iter().enumerate() {
            let t = Instant::now();
            j.record(*fp, "scratch/cell", &stats[i % stats.len()]);
            append.push(secs(t) * 1e6);
        }
        for fp in &fps {
            let t = Instant::now();
            let found = j.lookup(*fp);
            lookup.push(secs(t) * 1e6);
            r.check(found.is_some(), || {
                "a recorded cell is missing from the journal".into()
            });
        }
        let policy = CompactPolicy {
            max_bytes: Some(j.disk_bytes() / 2),
            max_entries: None,
        };
        let t = Instant::now();
        j.compact(&policy).map_err(|e| e.to_string())?;
        compact.push(secs(t) * 1e3);
    }
    r.metric("journal.append_p50_us", append.median());
    r.metric("journal.append_p99_us", append.quantile(0.99));
    r.metric("journal.lookup_p50_us", lookup.median());
    r.metric("journal.compact_ms", compact.median());
    Ok(())
}

/// A short `serve-mix` session, then the same hit specs sent directly to
/// their owner shard and through the router, fresh specs simulated
/// in-process and by their owner shard, and the hit specs again through a
/// router whose first shard refuses its first connections.
fn service(env: &Env, args: &Args, r: &mut Report) -> Result<(), String> {
    let files = corpus_files(&env.root)?;
    let cluster = Cluster::launch(env, &env.work.join("traced-cluster"))?;
    let result = measure_service(&cluster, args.seed, &files, r);
    let clean = cluster.shutdown();
    r.check(clean, || "the cluster did not shut down cleanly".into());
    result
}

fn measure_service(
    cluster: &Cluster,
    seed: u64,
    files: &[String],
    r: &mut Report,
) -> Result<(), String> {
    const SESSION_BATCHES: usize = 6;
    const HIT_SPECS: usize = 16;
    const HIT_ROUNDS: usize = 10;
    const COLD_SPECS: usize = 24;
    let mut mix = drive(
        &cluster.router.addr,
        seed,
        files,
        0.0,
        Some(SESSION_BATCHES),
        r,
    )?;
    let checker = &mut mix.checker;
    let shard_addrs = cluster.shard_addrs();
    let ring = Router::new(RouterConfig {
        shards: shard_addrs.clone(),
        ..RouterConfig::default()
    });
    let connect = |addr: &str| Client::connect(addr).map_err(|e| format!("{addr}: {e}"));
    let mut via_router = connect(&cluster.router.addr)?;
    let mut direct: Vec<Client> = shard_addrs
        .iter()
        .map(|a| connect(a))
        .collect::<Result<_, _>>()?;

    // Router-hop decomposition: recent completions are still memoized.
    // Each connection completes only its own shard's specs, so take the
    // most recent ones of every shard alike.
    let mut hits: Vec<&Request> = Vec::new();
    for shard in 0..shard_addrs.len() {
        hits.extend(
            mix.completed
                .iter()
                .rev()
                .filter(|req| ring.owners(req.fp)[0] == shard)
                .take(HIT_SPECS / shard_addrs.len()),
        );
    }
    let (mut routed, mut straight) = (Samples::default(), Samples::default());
    for _ in 0..HIT_ROUNDS {
        for req in &hits {
            let owner = ring.owners(req.fp)[0];
            let t = Instant::now();
            let a = via_router.request_raw(&req.line);
            routed.push(secs(t) * 1e3);
            let t = Instant::now();
            let b = direct[owner].request_raw(&req.line);
            straight.push(secs(t) * 1e3);
            for reply in [a, b] {
                r.attempt(reply.is_ok());
                match reply
                    .map_err(|e| e.to_string())
                    .and_then(|rep| checker.check(req.fp, &rep))
                {
                    Ok(Outcome::Hit) => {}
                    Ok(o) => r.fail_check(format!("{o:?} for memoized {}", req.line)),
                    Err(e) => r.fail_check(e),
                }
            }
        }
    }
    println!(
        "router hop: {} hit samples each, via router p50 {:.3} ms, direct to shard p50 {:.3} ms",
        routed.len(),
        routed.median(),
        straight.median()
    );
    r.metric("serve.shard_hit_p50_ms", straight.median());
    r.metric(
        "cluster.router_hop_p50_ms",
        routed.median() - straight.median(),
    );

    // Fresh specs: in-process simulation versus the owner shard.
    let mut stream = Stream::new(seed ^ 0x7ace_d5ee_d000_0001, 0, files);
    let fresh = (0..COLD_SPECS)
        .map(|_| stream.fresh())
        .collect::<Result<Vec<_>, _>>()?;
    let (mut sim, mut shard_cold) = (Samples::default(), Samples::default());
    for req in &fresh {
        let spec = JobSpec::from_request(&parse(&req.line).map_err(|e| e.to_string())?)?;
        let t = Instant::now();
        let local = Simulator::new(spec.sm.clone(), spec.si)
            .run(&spec.wl)
            .map_err(|e| e.to_string())?;
        sim.push(secs(t) * 1e3);
        let owner = ring.owners(req.fp)[0];
        let t = Instant::now();
        let reply = direct[owner].request_raw(&req.line);
        let ms = secs(t) * 1e3;
        r.attempt(reply.is_ok());
        match reply
            .map_err(|e| e.to_string())
            .and_then(|rep| checker.check(req.fp, &rep))
        {
            Ok(Outcome::Cold(inst)) => {
                shard_cold.push(ms);
                r.check(inst == local.instructions, || {
                    format!("shard and in-process runs disagree for {}", req.line)
                });
            }
            Ok(_) => {}
            Err(e) => r.fail_check(e),
        }
    }
    r.metric("serve.sim_ms_p50", sim.median());
    r.metric("serve.shard_cold_p50_ms", shard_cold.median());

    let (mut store_hits, mut store_misses, mut coalesced, mut compactions) = (0, 0, 0, 0);
    for addr in &shard_addrs {
        let s = ask(addr, r#"{"cmd":"stats"}"#)?;
        let field = |k: &str| s.u64_field(k).unwrap_or(0);
        store_hits += field("store_hits");
        store_misses += field("store_misses");
        coalesced += field("coalesced");
        compactions += field("compactions");
    }
    println!(
        "service: {} session requests, store hits {store_hits} misses {store_misses}, \
         {compactions} compactions",
        mix.replies_ok
    );
    r.metric(
        "serve.hit_ratio",
        store_hits as f64 / (store_hits + store_misses).max(1) as f64,
    );
    r.metric("serve.coalesced", coalesced as f64);
    r.metric("journal.compactions", compactions as f64);
    faulty_router(&shard_addrs, &hits, checker, r)
}

/// `Router::route_run` over the two shards, the first behind a proxy that
/// refuses its first `REFUSED_CONNS` connections: the router retries it,
/// marks it down, fails over to its ring successor, and takes it back once
/// it heals. Every reply must still be the one the owner gave.
fn faulty_router(
    shard_addrs: &[String],
    specs: &[&Request],
    checker: &mut ReplyCheck,
    r: &mut Report,
) -> Result<(), String> {
    let plan = ChaosPlan {
        refuse_per_mille: 1000,
        clears_after: Some(REFUSED_CONNS),
        ..ChaosPlan::none(0)
    };
    let mut proxy = ChaosProxy::spawn(&shard_addrs[0], plan).map_err(|e| e.to_string())?;
    let router = Router::new(RouterConfig {
        shards: vec![proxy.addr().to_owned(), shard_addrs[1].clone()],
        ..RouterConfig::default()
    });
    for req in specs {
        let reply = router.route_run(&req.line, req.fp);
        r.attempt(true);
        if let Err(e) = checker.check(req.fp, &reply) {
            r.fail_check(format!("through a faulty shard: {e}"));
        }
    }
    proxy.stop();
    let stats = parse(&router.stats_json()).map_err(|e| e.to_string())?;
    let (retries, failovers) = (
        stats.u64_field("retries").unwrap_or(0),
        stats.u64_field("failovers").unwrap_or(0),
    );
    println!(
        "faulty shard: {} requests, {} refused connections of {} accepted, \
         retries {retries}, failovers {failovers}",
        specs.len(),
        REFUSED_CONNS,
        proxy.accepted()
    );
    r.check(proxy.accepted() >= REFUSED_CONNS, || {
        "the faulty shard's refusals were never reached".into()
    });
    r.metric("cluster.retries", retries as f64);
    r.metric("cluster.failovers", failovers as f64);
    Ok(())
}
