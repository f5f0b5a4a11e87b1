//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload figures|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs one workload for about `S` seconds with no
//! instrumentation and prints every end-to-end metric. With `--trace 1` it
//! runs the traced pass instead: timed calls into the public functions of
//! each layer (workload build, trace codec, SM core, memory backend, sweep,
//! journal, serve, cluster), printing every per-layer metric. Either way it
//! checks the outputs, prints one `name value unit` line per metric, and
//! ends with one JSON line:
//!
//! ```json
//! {"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":6.1,"unit":"s"}}}
//! ```
//!
//! The process exits 1 when an output check fails and 2 on bad arguments
//! or a missing build. `perfbench/README.md` defines every metric.

mod batch;
mod layers;
mod mix;
mod proc;
mod report;

use std::path::PathBuf;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload figures|serve-mix --seed N --seconds S --trace 0|1";

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 2] = ["figures", "serve-mix"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                workload = Some(w);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where the benchmark runs: the repository root (the current directory),
/// the release binaries it drives, and a scratch directory it removes when
/// done.
pub struct Env {
    pub root: PathBuf,
    pub bin_dir: PathBuf,
    pub work: PathBuf,
}

impl Env {
    fn discover() -> Result<Env, String> {
        let root = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
        for needed in ["Cargo.toml", "crates", "tests/corpus"] {
            if !root.join(needed).exists() {
                return Err(format!(
                    "`{needed}` not found: run from the repository root"
                ));
            }
        }
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        let target = if target.is_absolute() {
            target
        } else {
            root.join(target)
        };
        let bin_dir = target.join("release");
        for bin in ["figures", "subwarp-serve", "subwarp-router"] {
            if !bin_dir.join(bin).is_file() {
                return Err(format!(
                    "release binary `{bin}` missing in {}: run perfbench/run.sh",
                    bin_dir.display()
                ));
            }
        }
        let work = target
            .join("perfbench-work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("cannot create work dir: {e}"))?;
        Ok(Env {
            root,
            bin_dir,
            work,
        })
    }

    /// Path of one of the release binaries.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// `nproc` and CPU model, printed with every result.
fn host_tag() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu={cpu:?}")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let env = match Env::discover() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host: {} sweep_workers=1 shard_workers=1 client_conns={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host_tag(),
        mix::CONNS
    );
    let report = if args.trace {
        layers::run(&env, &args)
    } else {
        match args.workload.as_str() {
            "figures" => batch::run(&env, &args),
            _ => mix::run(&env, &args),
        }
    };
    let report = report.unwrap_or_else(|e| {
        let mut r = Report::default();
        r.fail_check(format!("benchmark aborted: {e}"));
        r
    });
    let correct = report.print();
    drop(env);
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = args("--workload serve-mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "serve-mix");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload figures --trace 2").is_err());
        assert!(args("--workload figures --seconds 0").is_err());
        assert!(args("--workload figures --bogus").is_err());
    }
}
