//! The `serve-mix` workload: the release `subwarp-router` in front of two
//! `subwarp-serve` shards (one worker each, on-disk journals, compaction
//! during the run), driven by two closed-loop client connections.
//!
//! Each connection sends a seeded stream in batches: new distinct specs
//! (suite traces × SI setting × latency, and `file:` specs over the trace
//! corpus) that take the write path, and repeats of its specs completed in
//! earlier batches that take the read path. Connection `c` draws its new
//! specs only from those the router sends to shard `c`, so the two
//! connections' cold jobs run side by side on the two workers and never
//! queue behind each other. Every batch starts with one more new spec that
//! both connections send at once, so its owner shard sees two identical
//! jobs in flight and coalesces them. One untimed batch fills the repeat
//! windows before timing starts.
//!
//! The traffic shares below are assumptions: the repository holds no
//! recorded production traffic to take them from. `perfbench/README.md`
//! gives the reason for each value and the metrics that depend on it.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use subwarp_prng::SmallRng;
use subwarp_serve::json::parse;
use subwarp_serve::{Client, JobSpec, Router, RouterConfig};

use crate::proc::{CpuTicks, Daemon};
use crate::report::{secs, Report, Samples, END_TO_END};
use crate::{Args, Env};

/// Client connections (≤ `nproc` on the reference host), one per shard.
pub const CONNS: usize = 2;
/// The stream lane of the specs both connections send at once; lanes
/// `0..CONNS` are the connections' own.
const SHARED_LANE: usize = CONNS;
/// Journal size at which each shard compacts (keeping the newest half).
const COMPACT_AT: u64 = 32 * 1024;
/// Requests per connection per batch, the shared new spec included.
const BATCH_PER_CONN: usize = 50;
/// Share of a connection's other requests that are new specs; the rest
/// repeat its recent completions.
const NEW_SHARE: f64 = 0.5;
/// Share of new specs that name a corpus file instead of a
/// suite trace.
const FILE_SHARE: f64 = 1.0 / 3.0;
/// Completed specs per connection that repeats draw from. Small enough
/// that compaction (which keeps the most recently used records) never
/// evicts them.
const WINDOW: usize = 8;
const SETUP_REPS: usize = 15;
/// The timed batches are cut into this many consecutive segments; the
/// tail and rate metrics are the median over the segments, so a burst of
/// load from elsewhere on the host moves at most a few of them.
pub const SEGMENTS: usize = 7;
/// Cold and hit samples each segment needs so its p95 has ten samples
/// beyond it.
const MIN_TAIL_SAMPLES: usize = 200;

const SI_SETTINGS: [(&str, Option<&str>); 7] = [
    ("off", None),
    ("sos", Some("any")),
    ("sos", Some("half")),
    ("sos", Some("all")),
    ("both", Some("any")),
    ("both", Some("half")),
    ("both", Some("all")),
];
/// Latencies: 200, 210, ... 990 cycles for the connections' own specs, and
/// 205, 215, ... 995 for the shared lane, so the lanes never send the same
/// spec (the connections' own are told apart by their owner shard).
const LATENCIES: u64 = 80;
/// A spec outside the stream's space, used to build each daemon's suite
/// before timing starts.
const WARM_SPEC: &str = r#"{"cmd":"run","workload":"trace:AV1","latency":100}"#;

/// A running router and its shards.
pub struct Cluster {
    pub shards: Vec<Daemon>,
    pub router: Daemon,
}

impl Cluster {
    /// Starts `CONNS` shards with fresh stores under `dir` and a router in
    /// front of them, then warms every daemon's workload cache.
    pub fn launch(env: &Env, dir: &Path) -> Result<Cluster, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let timeout = Duration::from_secs(20);
        let mut shards = Vec::new();
        for i in 0..CONNS {
            let mut cmd = Command::new(env.bin("subwarp-serve"));
            cmd.args(["--listen", "127.0.0.1:0", "--workers", "1", "--compact-at"])
                .arg(COMPACT_AT.to_string())
                .arg("--store")
                .arg(dir.join(format!("shard{i}.jsonl")))
                .current_dir(&env.root);
            shards.push(Daemon::spawn(
                "subwarp-serve",
                &mut cmd,
                &dir.join(format!("shard{i}.log")),
                timeout,
            )?);
        }
        let mut cmd = Command::new(env.bin("subwarp-router"));
        cmd.args(["--listen", "127.0.0.1:0"]).current_dir(&env.root);
        for s in &shards {
            cmd.args(["--shard", &s.addr]);
        }
        let router = Daemon::spawn("subwarp-router", &mut cmd, &dir.join("router.log"), timeout)?;
        let cluster = Cluster { shards, router };
        for d in cluster.shards.iter().chain([&cluster.router]) {
            let reply = Client::connect(&d.addr)
                .and_then(|mut c| c.request_raw(WARM_SPEC))
                .map_err(|e| format!("cannot warm {}: {e}", d.name))?;
            if !reply.starts_with("{\"ok\":true") {
                return Err(format!("warm-up request failed on {}: {reply}", d.name));
            }
        }
        Ok(cluster)
    }

    /// Shard addresses in ring order.
    pub fn shard_addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// Sum of the daemons' peak resident set sizes, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kib: u64 = self
            .shards
            .iter()
            .chain([&self.router])
            .filter_map(Daemon::peak_rss_kib)
            .sum();
        kib as f64 / 1024.0
    }

    /// Asks every daemon to shut down and waits for it. Returns whether
    /// all exited cleanly.
    pub fn shutdown(self) -> bool {
        let mut clean = true;
        for d in [self.router].into_iter().chain(self.shards) {
            let _ =
                Client::connect(&d.addr).and_then(|mut c| c.request_raw(r#"{"cmd":"shutdown"}"#));
            clean &= d.wait_or_kill(Duration::from_secs(15));
        }
        clean
    }
}

/// Sends one request to `addr` on a fresh connection and parses the reply.
pub fn ask(addr: &str, line: &str) -> Result<subwarp_serve::json::Value, String> {
    let reply = Client::connect(addr)
        .and_then(|mut c| c.request_raw(line))
        .map_err(|e| format!("{addr}: {e}"))?;
    parse(&reply).map_err(|e| format!("bad reply `{reply}`: {e}"))
}

/// One request: its line and the fingerprint the reply must carry.
#[derive(Clone)]
pub struct Request {
    pub line: String,
    pub fp: u64,
    pub new_spec: bool,
    /// Sent by both connections at once.
    pub shared: bool,
}

/// One lane's seeded request stream.
pub struct Stream {
    rng: SmallRng,
    lane: usize,
    traces: Vec<&'static str>,
    files: Vec<String>,
    used: HashSet<String>,
    window: VecDeque<Request>,
    fps: HashMap<String, u64>,
    ring: Arc<Router>,
}

impl Stream {
    /// The stream of `lane`; with no `files` its new specs are suite
    /// traces only.
    pub fn new(seed: u64, lane: usize, files: &[String]) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane as u64 + 1)),
            ),
            lane,
            traces: subwarp_workloads::suite().iter().map(|t| t.name).collect(),
            files: files.to_vec(),
            used: HashSet::new(),
            window: VecDeque::new(),
            fps: HashMap::new(),
            ring: Router::new(RouterConfig {
                shards: (0..CONNS).map(|i| format!("shard{i}")).collect(),
                ..RouterConfig::default()
            }),
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    /// A spec this stream has not sent before (not yet checked for its
    /// owner).
    fn new_spec(&mut self) -> String {
        loop {
            let workload = if self.rng.next_f64() < FILE_SHARE && !self.files.is_empty() {
                let i = self.pick(self.files.len());
                format!("file:{}", self.files[i])
            } else {
                let i = self.pick(self.traces.len());
                format!("trace:{}", self.traces[i])
            };
            let (si, policy) = SI_SETTINGS[self.pick(SI_SETTINGS.len())];
            let offset = if self.lane == SHARED_LANE { 205 } else { 200 };
            let lat = offset + 10 * (self.rng.next_u64() % LATENCIES);
            let policy = policy.map_or(String::new(), |p| format!(",\"policy\":\"{p}\""));
            let line = format!(
                "{{\"cmd\":\"run\",\"workload\":\"{workload}\",\"si\":\"{si}\"{policy},\"latency\":{lat}}}"
            );
            if self.used.insert(line.clone()) {
                return line;
            }
        }
    }

    fn fingerprint(&mut self, line: &str) -> Result<u64, String> {
        if let Some(&fp) = self.fps.get(line) {
            return Ok(fp);
        }
        let req = parse(line).map_err(|e| e.to_string())?;
        let fp = JobSpec::from_request(&req)?.fp;
        self.fps.insert(line.to_owned(), fp);
        Ok(fp)
    }

    /// The shard the router sends `fp` to first.
    pub fn owner(&self, fp: u64) -> usize {
        self.ring.owners(fp)[0]
    }

    /// A request for a spec this stream has not sent before; on a
    /// connection's lane, one that the router sends to that connection's
    /// shard.
    pub fn fresh(&mut self) -> Result<Request, String> {
        loop {
            let line = self.new_spec();
            let fp = self.fingerprint(&line)?;
            if self.lane == SHARED_LANE || self.owner(fp) == self.lane {
                return Ok(Request {
                    line,
                    fp,
                    new_spec: true,
                    shared: self.lane == SHARED_LANE,
                });
            }
        }
    }

    /// `first`, then `n - 1` requests: new specs, and repeats of specs
    /// completed in earlier batches, so a batch's content depends only on
    /// the seed and on which earlier requests succeeded.
    pub fn batch(&mut self, first: Request, n: usize) -> Result<Vec<Request>, String> {
        let mut out = Vec::with_capacity(n);
        out.push(first);
        while out.len() < n {
            if self.window.is_empty() || self.rng.next_f64() < NEW_SHARE {
                out.push(self.fresh()?);
            } else {
                let i = self.pick(self.window.len());
                out.push(Request {
                    new_spec: false,
                    shared: false,
                    ..self.window[i].clone()
                });
            }
        }
        Ok(out)
    }

    /// Makes a completed new spec available for repeats.
    pub fn completed(&mut self, req: &Request) {
        if req.new_spec && !self.window.iter().any(|w| w.fp == req.fp) {
            self.window.push_back(req.clone());
            if self.window.len() > WINDOW {
                self.window.pop_front();
            }
        }
    }
}

/// Corpus trace files, relative to the repository root, sorted.
pub fn corpus_files(root: &Path) -> Result<Vec<String>, String> {
    let dir = root.join("tests/corpus");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".swt"))
        .map(|n| format!("tests/corpus/{n}"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err("no .swt files in tests/corpus".into());
    }
    Ok(files)
}

/// How a reply was classified.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Simulated for this request; carries its warp-instruction count.
    Cold(u64),
    /// Answered from the memo store.
    Hit,
    /// A failure reply (`shed`, `error`, ...), with its kind.
    Failed(String),
}

/// Checks replies: each must carry the fingerprint of its request, and
/// every reply for one fingerprint must be byte-identical to the first
/// one, apart from the `cached` flag.
#[derive(Default, Clone)]
pub struct ReplyCheck {
    canonical: HashMap<u64, String>,
}

impl ReplyCheck {
    /// Classifies `reply` to a request for `fp`; `Err` means a wrong
    /// output.
    pub fn check(&mut self, fp: u64, reply: &str) -> Result<Outcome, String> {
        let v = parse(reply).map_err(|e| format!("unparsable reply `{reply}`: {e}"))?;
        if v.bool_field("ok") != Some(true) {
            return Ok(Outcome::Failed(
                v.str_field("kind").unwrap_or("?").to_owned(),
            ));
        }
        let want = format!("{fp:016x}");
        if v.str_field("fp") != Some(want.as_str()) {
            return Err(format!("reply for fp {want} carries another fp: {reply}"));
        }
        let cached = v
            .bool_field("cached")
            .ok_or_else(|| format!("reply without `cached`: {reply}"))?;
        let canon = reply.replacen("\"cached\":true", "\"cached\":false", 1);
        match self.canonical.get(&fp) {
            Some(first) if *first != canon => {
                return Err(format!(
                    "reply for fp {want} differs from the first one:\n  first: {first}\n  now:   {canon}"
                ))
            }
            Some(_) => {}
            None => {
                self.canonical.insert(fp, canon);
            }
        }
        Ok(if cached {
            Outcome::Hit
        } else {
            Outcome::Cold(v.u64_field("instructions").unwrap_or(0))
        })
    }
}

/// What one batch, or several merged, measured.
#[derive(Default)]
pub struct Measured {
    pub wall_s: f64,
    pub cold: Samples,
    pub hit: Samples,
    /// Warp-instructions of the distinct specs simulated.
    pub cold_instructions: u64,
    pub replies_ok: u64,
    pub ticks: CpuTicks,
}

impl Measured {
    fn merge<'a>(parts: impl IntoIterator<Item = &'a Measured>) -> Measured {
        let mut m = Measured::default();
        for p in parts {
            m.wall_s += p.wall_s;
            m.cold.0.extend(&p.cold.0);
            m.hit.0.extend(&p.hit.0);
            m.cold_instructions += p.cold_instructions;
            m.replies_ok += p.replies_ok;
            m.ticks.busy += p.ticks.busy;
            m.ticks.steal += p.ticks.steal;
        }
        m
    }
}

/// Everything the mix measured.
#[derive(Default)]
pub struct MixResult {
    /// The timed batches, in order.
    pub batches: Vec<Measured>,
    /// Successful replies, the untimed first batch included.
    pub replies_ok: u64,
    /// Completed specs (request lines and fingerprints), once each, newest
    /// last.
    pub completed: Vec<Request>,
    /// Checks every reply of the session; later requests for the same
    /// specs can be checked against it.
    pub checker: ReplyCheck,
}

impl MixResult {
    /// All timed batches merged.
    pub fn total(&self) -> Measured {
        Measured::merge(&self.batches)
    }

    /// The timed batches cut into `k` consecutive runs of (nearly) equal
    /// length.
    pub fn segments(&self, k: usize) -> Vec<Measured> {
        let n = self.batches.len();
        (0..k)
            .map(|i| Measured::merge(&self.batches[i * n / k..(i + 1) * n / k]))
            .collect()
    }
}

/// Median over `segments` of `f`.
fn segment_median(segments: &[Measured], f: impl Fn(&Measured) -> f64) -> f64 {
    Samples(segments.iter().map(f).collect()).median()
}

/// Runs batches through `addr`: one untimed batch that fills the repeat
/// windows, then timed ones until `seconds` have passed and every segment
/// has enough samples (or until `max_batches` timed ones ran, if given).
pub fn drive(
    addr: &str,
    seed: u64,
    files: &[String],
    seconds: f64,
    max_batches: Option<usize>,
    r: &mut Report,
) -> Result<MixResult, String> {
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| Client::connect(addr).map_err(|e| format!("cannot connect to router: {e}")))
        .collect::<Result<_, _>>()?;
    let mut streams: Vec<Stream> = (0..CONNS).map(|c| Stream::new(seed, c, files)).collect();
    let mut shared = Stream::new(seed, SHARED_LANE, &[]);
    let mut res = MixResult::default();
    let mut simulated = HashSet::new();
    let mut t0 = Instant::now();
    // Hard stop for a host too slow to collect the tail samples in time.
    let cap = seconds + 60.0;
    let mut warm_up = true;
    loop {
        let first = shared.fresh()?;
        let batches: Vec<Vec<Request>> = streams
            .iter_mut()
            .map(|s| s.batch(first.clone(), BATCH_PER_CONN))
            .collect::<Result<_, _>>()?;
        let tb = Instant::now();
        let ticks = CpuTicks::now();
        let replies: Vec<Vec<(f64, std::io::Result<String>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&batches)
                .map(|(client, batch)| {
                    scope.spawn(move || {
                        batch
                            .iter()
                            .map(|req| {
                                let t = Instant::now();
                                let reply = client.request_raw(&req.line);
                                (secs(t) * 1e3, reply)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread does not panic"))
                .collect()
        });
        let mut m = Measured {
            wall_s: secs(tb),
            ticks: CpuTicks::now().since(ticks),
            ..Measured::default()
        };
        let mut shared_hits = 0;
        for ((stream, batch), replies) in streams.iter_mut().zip(&batches).zip(replies) {
            for (req, (ms, reply)) in batch.iter().zip(replies) {
                let outcome = match reply {
                    Ok(reply) => res.checker.check(req.fp, &reply),
                    Err(e) => Ok(Outcome::Failed(format!("io: {e}"))),
                };
                match outcome {
                    Ok(Outcome::Cold(inst)) => {
                        r.attempt(true);
                        m.replies_ok += 1;
                        m.cold.push(ms);
                        r.check(inst > 0, || {
                            format!("cold reply without instructions: {}", req.line)
                        });
                        r.check(req.new_spec, || {
                            format!("a repeated spec was simulated again: {}", req.line)
                        });
                        // Coalesced replies of a shared spec are cold too,
                        // but only one simulation ran.
                        if simulated.insert(req.fp) {
                            m.cold_instructions += inst;
                            res.completed.push(req.clone());
                        }
                        stream.completed(req);
                    }
                    Ok(Outcome::Hit) => {
                        r.attempt(true);
                        m.replies_ok += 1;
                        m.hit.push(ms);
                        // The other connection may have finished a shared
                        // spec before this request reached the shard.
                        r.check(!req.new_spec || req.shared, || {
                            format!("a new spec was a cache hit: {}", req.line)
                        });
                        if req.shared {
                            shared_hits += 1;
                            stream.completed(req);
                        }
                    }
                    Ok(Outcome::Failed(kind)) => {
                        r.attempt(false);
                        eprintln!("perfbench: request failed ({kind}): {}", req.line);
                    }
                    Err(e) => {
                        r.attempt(true);
                        r.fail_check(e);
                    }
                }
            }
        }
        r.check(shared_hits < CONNS, || {
            format!("no connection simulated the shared spec {}", first.line)
        });
        res.replies_ok += m.replies_ok;
        if warm_up {
            warm_up = false;
            t0 = Instant::now();
            continue;
        }
        res.batches.push(m);
        let n = res.batches.len();
        let done = match max_batches {
            Some(limit) => n >= limit,
            None => {
                let enough = n >= SEGMENTS
                    && res.segments(SEGMENTS).iter().all(|s| {
                        s.cold.len() >= MIN_TAIL_SAMPLES && s.hit.len() >= MIN_TAIL_SAMPLES
                    });
                (enough && secs(t0) >= seconds) || secs(t0) > cap
            }
        };
        if done {
            return Ok(res);
        }
    }
}

pub fn run(env: &Env, args: &Args) -> Result<Report, String> {
    let mut r = Report::new(&END_TO_END);
    let files = corpus_files(&env.root)?;

    // Set-up: launch the cluster from scratch several times; the last one
    // is measured.
    let mut setup = Samples::default();
    let mut cluster = None;
    for i in 0..SETUP_REPS {
        if let Some(c) = cluster.take() {
            r.check(Cluster::shutdown(c), || {
                "a set-up cluster did not shut down cleanly".into()
            });
        }
        let t0 = Instant::now();
        cluster = Some(Cluster::launch(env, &env.work.join(format!("cluster{i}")))?);
        setup.push(secs(t0));
    }
    let cluster = cluster.expect("set-up launched a cluster");
    r.metric("setup_s", setup.median());

    let res = drive(
        &cluster.router.addr,
        args.seed,
        &files,
        args.seconds,
        None,
        &mut r,
    );
    let rss = cluster.peak_rss_mb();
    let router_stats = ask(&cluster.router.addr, r#"{"cmd":"stats"}"#);
    let shard_stats: Vec<_> = cluster
        .shard_addrs()
        .iter()
        .map(|a| ask(a, r#"{"cmd":"stats"}"#))
        .collect();
    let clean = cluster.shutdown();
    let res = res?;
    r.check(clean, || "the cluster did not shut down cleanly".into());
    if let Ok(s) = router_stats {
        println!(
            "router: retries={} failovers={} shed={}",
            s.u64_field("retries").unwrap_or(0),
            s.u64_field("failovers").unwrap_or(0),
            s.u64_field("shed").unwrap_or(0)
        );
    }
    for (i, s) in shard_stats.iter().enumerate() {
        if let Ok(s) = s {
            println!(
                "shard{i}: simulated={} cached={} coalesced={} compactions={}",
                s.u64_field("simulated").unwrap_or(0),
                s.u64_field("cached").unwrap_or(0),
                s.u64_field("coalesced").unwrap_or(0),
                s.u64_field("compactions").unwrap_or(0)
            );
        }
    }

    let total = res.total();
    let segments = res.segments(SEGMENTS);
    println!(
        "serve-mix: {} timed batches of {} requests, {} cold samples, {} hit samples, \
         {SEGMENTS} segments, host steal {:.3}",
        res.batches.len(),
        CONNS * BATCH_PER_CONN,
        total.cold.len(),
        total.hit.len(),
        total.ticks.steal_share()
    );
    for (i, s) in segments.iter().enumerate() {
        println!(
            "segment {i}: {} cold p95 {:.3} ms, {} hit p95 {:.3} ms, {:.0} sim inst/s, host steal {:.3}",
            s.cold.len(),
            s.cold.quantile(0.95),
            s.hit.len(),
            s.hit.quantile(0.95),
            s.cold_instructions as f64 / s.wall_s,
            s.ticks.steal_share()
        );
        r.check(
            s.cold.has_tail(0.95, 10) && s.hit.has_tail(0.95, 10),
            || {
                format!(
                    "segment {i} has {} cold and {} hit samples: each p95 needs {MIN_TAIL_SAMPLES}",
                    s.cold.len(),
                    s.hit.len()
                )
            },
        );
    }
    let walls = Samples(res.batches.iter().map(|b| b.wall_s).collect());
    r.metric("wall_s", walls.median());
    r.metric(
        "sim_inst_per_s",
        segment_median(&segments, |s| s.cold_instructions as f64 / s.wall_s),
    );
    r.metric("peak_rss_mb", rss);
    r.metric(
        "jobs_per_s",
        segment_median(&segments, |s| s.replies_ok as f64 / s.wall_s),
    );
    r.metric("cold_p50_ms", total.cold.median());
    r.metric(
        "cold_p95_ms",
        segment_median(&segments, |s| s.cold.quantile(0.95)),
    );
    r.metric("hit_p50_ms", total.hit.median());
    r.metric(
        "hit_p95_ms",
        segment_median(&segments, |s| s.hit.quantile(0.95)),
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLD: &str = r#"{"ok":true,"fp":"00000000000000aa","label":"toy/SOS","cached":false,"cycles":120,"instructions":40,"u":[120,1,40],"ch":[]}"#;

    #[test]
    fn hit_replies_must_match_the_cold_reply() {
        let mut c = ReplyCheck::default();
        assert_eq!(c.check(0xaa, COLD), Ok(Outcome::Cold(40)));
        let hit = COLD.replace("\"cached\":false", "\"cached\":true");
        assert_eq!(c.check(0xaa, &hit), Ok(Outcome::Hit));
        // A corrupted hit: one stats unit changed.
        let corrupt = hit.replace("[120,1,40]", "[120,2,40]");
        assert!(c.check(0xaa, &corrupt).is_err());
        // A reply carrying another request's fingerprint.
        assert!(c.check(0xab, COLD).is_err());
        assert!(c.check(0xaa, "{\"ok\":true").is_err());
    }

    #[test]
    fn failure_replies_are_failed_operations_not_wrong_outputs() {
        let mut c = ReplyCheck::default();
        let shed = r#"{"ok":false,"kind":"shed","retry_after_ms":500,"message":"full"}"#;
        assert_eq!(c.check(1, shed), Ok(Outcome::Failed("shed".into())));
    }

    #[test]
    fn streams_are_seeded_and_each_connection_sends_its_shards_specs() {
        let files =
            vec![concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/corpus/toy.swt").to_owned()];
        let fresh = |seed, lane| {
            let mut s = Stream::new(seed, lane, &files);
            (0..40).map(|_| s.fresh().unwrap()).collect::<Vec<_>>()
        };
        let lines = |reqs: Vec<Request>| reqs.into_iter().map(|r| r.line).collect::<Vec<_>>();
        assert_eq!(lines(fresh(7, 0)), lines(fresh(7, 0)));
        assert_ne!(lines(fresh(7, 0)), lines(fresh(8, 0)));
        let ring = Router::new(RouterConfig {
            shards: vec!["a".into(), "b".into()],
            ..RouterConfig::default()
        });
        for c in 0..CONNS {
            for req in fresh(7, c) {
                assert_eq!(ring.owners(req.fp)[0], c, "{}", req.line);
                assert!(!req.shared);
            }
        }
        let own: HashSet<_> = (0..CONNS).flat_map(|c| lines(fresh(7, c))).collect();
        let mut shared = Stream::new(7, SHARED_LANE, &[]);
        for _ in 0..40 {
            let req = shared.fresh().unwrap();
            assert!(req.shared && req.line.contains("trace:"));
            assert!(!own.contains(&req.line));
        }
    }

    #[test]
    fn repeats_come_from_earlier_completions_and_are_neither_new_nor_shared() {
        let first = Stream::new(7, SHARED_LANE, &[]).fresh().unwrap();
        let mut s = Stream::new(7, 0, &[]);
        // Nothing completed yet: every request is new.
        let batch = s.batch(first.clone(), 40).unwrap();
        assert!(batch.iter().all(|r| r.new_spec));
        assert!(batch[1..].iter().all(|r| !r.shared));
        for req in &batch {
            s.completed(req);
        }
        assert_eq!(s.window.len(), WINDOW);
        s.completed(&first);
        let batch = s.batch(first.clone(), 40).unwrap();
        assert!(batch[0].shared && batch[0].new_spec);
        let repeats: Vec<_> = batch[1..].iter().filter(|r| !r.new_spec).collect();
        assert!(
            repeats.len() > 5 && repeats.len() < 35,
            "{} repeats",
            repeats.len()
        );
        assert!(repeats.iter().all(|r| !r.shared));
        assert!(repeats
            .iter()
            .all(|r| s.window.iter().any(|w| w.fp == r.fp)));
    }

    #[test]
    fn segments_cover_every_batch_once() {
        let res = MixResult {
            batches: (0..10)
                .map(|i| Measured {
                    wall_s: 1.0,
                    cold: Samples(vec![f64::from(i)]),
                    ..Measured::default()
                })
                .collect(),
            ..MixResult::default()
        };
        let segments = res.segments(SEGMENTS);
        assert_eq!(segments.len(), SEGMENTS);
        assert!(segments.iter().all(|s| s.wall_s >= 1.0));
        let cold: Vec<f64> = segments.iter().flat_map(|s| s.cold.0.clone()).collect();
        assert_eq!(cold, (0..10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(segment_median(&segments, |s| s.wall_s), 1.0);
    }
}
