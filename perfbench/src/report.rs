//! Metric catalogue, sample statistics, and the result printer.

/// End-to-end metrics (`--trace 0`), printed for every workload:
/// `(name, unit)`. `perfbench/README.md` defines each one per workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_inst_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("cold_p95_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_p95_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.build_s", "s"),
    ("trace.decode_mb_s", "MB/s"),
    ("trace.fingerprint_mb_s", "MB/s"),
    ("core.ns_per_inst", "ns"),
    ("core.phase.issue_s", "s"),
    ("core.phase.execute_s", "s"),
    ("core.phase.memory_s", "s"),
    ("core.phase.fast_forward_s", "s"),
    ("core.phase.other_s", "s"),
    ("core.trace_overhead", "ratio"),
    ("mem.fills", "count"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.chan_util", "ratio"),
    ("mem.ns_per_fill", "ns"),
    ("sweep.cells", "count"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_max_ms", "ms"),
    ("journal.append_p50_us", "us"),
    ("journal.append_p99_us", "us"),
    ("journal.lookup_p50_us", "us"),
    ("journal.compact_ms", "ms"),
    ("journal.compactions", "count"),
    ("serve.sim_ms_p50", "ms"),
    ("serve.shard_cold_p50_ms", "ms"),
    ("serve.shard_hit_p50_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("cluster.router_hop_p50_ms", "ms"),
    ("cluster.retries", "count"),
    ("cluster.failovers", "count"),
    ("model.fig12a_gain_pct", "%"),
    ("model.chip36_gain_pct", "%"),
];

/// Everything one run reports: counts, metrics, and failed output checks.
pub struct Report {
    catalogue: &'static [(&'static str, &'static str)],
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    check_failures: Vec<String>,
}

impl Default for Report {
    fn default() -> Report {
        Report::new(&END_TO_END)
    }
}

impl Report {
    /// An empty report that must end up holding every metric of
    /// `catalogue`.
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Report {
        Report {
            catalogue,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            check_failures: Vec::new(),
        }
    }

    /// Records a metric; its unit comes from the catalogue.
    pub fn metric(&mut self, name: &str, value: f64) {
        match self.catalogue.iter().find(|(n, _)| *n == name) {
            Some(&(n, unit)) => {
                self.metrics.retain(|(m, _, _)| *m != n);
                self.metrics.push((n, unit, value));
            }
            None => self.fail_check(format!("metric `{name}` is not in the catalogue")),
        }
    }

    /// Records a failed output check.
    pub fn fail_check(&mut self, what: String) {
        self.check_failures.push(what);
    }

    /// Records an output check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail_check(what());
        }
    }

    /// Counts one attempted operation, and one failure when `ok` is false.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether every output check passed and every catalogue metric is
    /// present and finite.
    fn finish(&mut self) -> bool {
        for (name, _) in self.catalogue {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                None => self
                    .check_failures
                    .push(format!("metric `{name}` was not measured")),
                Some((_, _, v)) if !v.is_finite() => self
                    .check_failures
                    .push(format!("metric `{name}` is not finite ({v})")),
                Some(_) => {}
            }
        }
        self.metrics.retain(|(_, _, v)| v.is_finite());
        self.attempted = self.attempted.max(1);
        self.check_failures.is_empty()
    }

    /// The final result line.
    fn json(&self, correct: bool) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.attempted, self.failed
        )
    }

    /// Prints one line per metric and check failure, then the JSON result
    /// as the last line. Returns whether the run was correct.
    pub fn print(mut self) -> bool {
        let correct = self.finish();
        for (n, u, v) in &self.metrics {
            println!("metric {n:<28} {v:>16.6} {u}");
        }
        println!(
            "failed_frac {} ({} of {} operations failed)",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted
        );
        for f in &self.check_failures {
            println!("CHECK FAILED: {f}");
        }
        println!("{}", self.json(correct));
        correct
    }
}

/// A set of latency (or duration) samples.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v[self.rank(q) - 1]
    }

    /// 1-based nearest rank of quantile `q` (tolerant of `0.9 * 100`
    /// landing just above 90).
    fn rank(&self, q: f64) -> usize {
        let n = self.0.len();
        ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn max(&self) -> f64 {
        self.quantile(1.0)
    }

    /// The samples in order taken, for the log.
    pub fn list(&self) -> String {
        let v: Vec<String> = self.0.iter().map(|x| format!("{x:.3}")).collect();
        format!("[{}] n={}", v.join(" "), v.len())
    }

    /// Whether at least `n` samples lie beyond the `q` quantile.
    pub fn has_tail(&self, q: f64, n: usize) -> bool {
        !self.0.is_empty() && self.0.len() - self.rank(q) >= n
    }
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subwarp_serve::json::{parse, Value};

    /// Names listed under `key` in the repository's `BENCHMARK.json`.
    fn benchmark_names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| m.str_field("name").expect("metric name").to_owned())
            .collect()
    }

    /// Parses a printed result line and checks that each of `names` is
    /// present with a finite value and a unit.
    fn check_result_line(line: &str, names: &[String]) -> Result<bool, String> {
        let v = parse(line).map_err(|e| e.to_string())?;
        let correct = v.bool_field("correct").ok_or("no `correct`")?;
        let attempted = v.u64_field("attempted").ok_or("no `attempted`")?;
        v.u64_field("failed").ok_or("no `failed`")?;
        if attempted == 0 {
            return Err("attempted is 0".into());
        }
        let metrics = v.get("metrics").ok_or("no `metrics`")?;
        for name in names {
            let m = metrics.get(name).ok_or(format!("`{name}` missing"))?;
            m.str_field("unit").ok_or(format!("`{name}` has no unit"))?;
            match m.get("value") {
                Some(Value::Float(x)) if x.is_finite() => {}
                Some(Value::Int(_)) => {}
                _ => return Err(format!("`{name}` has no finite value")),
            }
        }
        Ok(correct)
    }

    fn full_report(catalogue: &'static [(&'static str, &'static str)]) -> Report {
        let mut r = Report::new(catalogue);
        for (i, (name, _)) in catalogue.iter().enumerate() {
            r.metric(name, 0.25 + i as f64);
        }
        r.attempt(true);
        r
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(benchmark_names("end_to_end"), e2e);
        assert_eq!(benchmark_names("per_layer"), layers);
    }

    #[test]
    fn printed_result_carries_every_named_metric() {
        for (catalogue, key) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let mut r = full_report(catalogue);
            assert!(r.finish());
            let line = r.json(true);
            assert_eq!(check_result_line(&line, &benchmark_names(key)), Ok(true));
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_makes_the_run_incorrect() {
        let mut r = full_report(&END_TO_END);
        r.metric("wall_s", f64::NAN);
        assert!(!r.finish());
        let line = r.json(false);
        assert!(check_result_line(&line, &benchmark_names("end_to_end")).is_err());

        let mut r = Report::new(&END_TO_END);
        r.metric("setup_s", 1.0);
        assert!(!r.finish());
    }

    #[test]
    fn quantiles_and_tails() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.95), 95.0);
        assert_eq!(s.max(), 100.0);
        assert!(s.has_tail(0.9, 10));
        assert!(!s.has_tail(0.95, 10));
        assert!(Samples::default().median().is_nan());
    }
}
