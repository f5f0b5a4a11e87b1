//! End-to-end profiler tests: attaching a `Profiler` must not perturb the
//! simulation, and the emitted Chrome trace-event JSON must be structurally
//! sound for a real suite workload (the dependency-free counterpart of
//! loading it in Perfetto).

use subwarp_interleaving::core::{
    ChromeTraceProfiler, CounterSample, CycleCause, HierarchyConfig, MemBackendConfig, Profiler,
    SiConfig, Simulator, SmConfig, TraceEvent,
};
use subwarp_interleaving::workloads::{built_suite, figure9_workload};

/// Minimal structural JSON check: balanced brackets outside strings, valid
/// escapes, and a single top-level value. Not a full parser — just enough to
/// catch truncated output, unescaped quotes, and mismatched nesting, which
/// are the failure modes of hand-rendered JSON.
fn assert_json_sound(json: &str) {
    let mut depth: Vec<char> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut top_level_values = 0usize;
    for (i, c) in json.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            } else {
                assert!(c >= ' ', "raw control character at byte {i}");
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                if depth.is_empty() {
                    top_level_values += 1;
                }
                depth.push(c);
            }
            '}' => assert_eq!(depth.pop(), Some('{'), "mismatched `}}` at byte {i}"),
            ']' => assert_eq!(depth.pop(), Some('['), "mismatched `]` at byte {i}"),
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string literal");
    assert!(depth.is_empty(), "unclosed brackets: {depth:?}");
    assert_eq!(top_level_values, 1, "expected exactly one top-level value");
}

/// Checks the profiler protocol: every callback arrives between one SM's
/// `begin_sm(k)` and its `end_sm`, SMs come in id order, and no two SMs'
/// streams interleave.
#[derive(Default)]
struct StreamCheck {
    /// Inside a `begin_sm`/`end_sm` pair.
    open: bool,
    /// Callbacks seen per SM, indexed by `begin_sm` order.
    callbacks: Vec<u64>,
    /// The cycle each SM's `end_sm` reported.
    end_cycles: Vec<u64>,
}

impl StreamCheck {
    fn tick(&mut self) {
        assert!(self.open, "callback outside begin_sm/end_sm");
        *self.callbacks.last_mut().unwrap() += 1;
    }
}

impl Profiler for StreamCheck {
    fn begin_sm(&mut self, sm_id: usize) {
        assert!(!self.open, "begin_sm({sm_id}) inside another SM's stream");
        assert_eq!(sm_id, self.callbacks.len(), "SM streams out of order");
        self.open = true;
        self.callbacks.push(0);
    }

    fn end_sm(&mut self, cycle: u64) {
        assert!(self.open, "end_sm without begin_sm");
        self.open = false;
        self.end_cycles.push(cycle);
    }

    fn sm_cycles(&mut self, _start: u64, _n: u64, _cause: CycleCause) {
        self.tick();
    }

    fn pb_cycles(&mut self, _pb: usize, _start: u64, _n: u64, _cause: CycleCause) {
        self.tick();
    }

    fn event(&mut self, _ev: &TraceEvent) {
        self.tick();
    }

    fn counters(&mut self, _sample: &CounterSample) {
        self.tick();
    }
}

#[test]
fn profiling_is_observation_not_actuation() {
    // Every entry point returns identical RunStats with and without a
    // profiler attached — for the toy and for a real trace, baseline and
    // SI — on one SM, on a 4-SM chip sharing hierarchical L2/DRAM
    // partitions (one interleaved group), and on 2 SMs of the shareless
    // fixed-latency stub (one group per SM).
    let suite = built_suite();
    let (_, trace_wl) = &suite[0];
    let chip = SmConfig::turing_like()
        .with_mem_backend(MemBackendConfig::Hierarchical(
            HierarchyConfig::turing_like(),
        ))
        .with_n_sms(4);
    let configs = [
        ("1sm", SmConfig::turing_like()),
        ("4sm-shared-hier", chip),
        ("2sm-fixed", SmConfig::turing_like().with_n_sms(2)),
    ];
    for (tag, sm) in configs {
        for wl in [&figure9_workload(), trace_wl.as_ref()] {
            for si in [SiConfig::disabled(), SiConfig::best()] {
                let ctx = format!("{tag} / {} / {}", wl.name, si.label());
                let sim = Simulator::new(sm.clone(), si);
                let plain = sim.run(wl).unwrap();
                assert_eq!(plain, sim.run_recorded(wl).unwrap().0, "{ctx}");
                assert_eq!(plain, sim.run_with_memory(wl).unwrap().0, "{ctx}");
                let mut check = StreamCheck::default();
                assert_eq!(plain, sim.run_profiled(wl, &mut check).unwrap(), "{ctx}");
                assert!(!check.open, "{ctx}: last SM stream left open");
                assert_eq!(check.callbacks.len(), sm.n_sms, "{ctx}");
                for (k, &n) in check.callbacks.iter().enumerate() {
                    assert_eq!(n > 0, k < wl.n_warps, "{ctx}: SM {k} saw {n} callbacks");
                }
                let sm_cycles: Vec<u64> = if sm.n_sms > 1 {
                    plain.per_sm.iter().map(|s| s.cycles).collect()
                } else {
                    vec![plain.cycles]
                };
                assert_eq!(check.end_cycles, sm_cycles, "{ctx}");
            }
        }
    }
    // A real trace-event sink sees the same stream.
    let mut profiler = ChromeTraceProfiler::new();
    let sim = Simulator::new(SmConfig::turing_like(), SiConfig::best());
    let profiled = sim.run_profiled(trace_wl, &mut profiler).unwrap();
    assert_eq!(sim.run(trace_wl).unwrap(), profiled);
    assert!(profiler.event_count() > 0);
}

#[test]
fn chrome_trace_json_is_structurally_sound_for_a_suite_workload() {
    let suite = built_suite();
    let (spec, wl) = &suite[0];
    let mut profiler = ChromeTraceProfiler::new();
    Simulator::new(SmConfig::turing_like(), SiConfig::best())
        .run_profiled(wl, &mut profiler)
        .unwrap();
    let json = profiler.to_json();
    assert!(!json.is_empty(), "{}: empty trace", spec.name);
    assert_json_sound(&json);
    // The trace-event envelope and every track family are present.
    for needle in [
        "\"traceEvents\"",
        "\"displayTimeUnit\"",
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
        "\"ph\":\"C\"",
        "issued",
        "load-stall",
        "L1D hit rate",
        "LSU in-flight",
    ] {
        assert!(json.contains(needle), "{}: missing {needle}", spec.name);
    }
}
