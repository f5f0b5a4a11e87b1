//! Child processes: timed runs with their peak memory, and long-lived
//! daemons with a readiness line.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` from `<sys/resource.h>` on 64-bit Linux: two
/// `timeval`s, then fourteen `long`s starting with `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// The outcome of one finished child process.
pub struct Finished {
    /// Wall time from spawn to exit.
    pub wall_s: f64,
    /// Peak resident set size of the child alone.
    pub max_rss_kib: i64,
    pub stdout: Vec<u8>,
    pub success: bool,
}

/// Waits for `child` with `wait4`, which reports the child's own peak
/// resident set size (`Child::wait` does not).
fn wait_with_rusage(child: &Child) -> std::io::Result<(i32, RUsage)> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C `int` and `struct rusage` that wait4 fills; `pid` is our
        // own unreaped child, which `Child` never waits for on its own.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Runs `cmd` to completion, capturing stdout and sending stderr to
/// `stderr_log`. Timing starts just before the spawn.
pub fn run_timed(cmd: &mut Command, stderr_log: &Path) -> std::io::Result<Finished> {
    let log = std::fs::File::create(stderr_log)?;
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log))
        .spawn()?;
    let mut out = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        out.read_to_end(&mut buf).map(|_| buf)
    });
    let waited = wait_with_rusage(&child);
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = reader.join().expect("stdout reader does not panic")?;
    let (status, usage) = waited?;
    // WIFEXITED(status) && WEXITSTATUS(status) == 0
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Finished {
        wall_s,
        max_rss_kib: usage.ru_maxrss,
        stdout,
        success,
    })
}

/// A long-lived child (a shard or the router) that announced its address.
pub struct Daemon {
    pub name: String,
    pub addr: String,
    child: Child,
    // Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `cmd` and waits (up to `timeout`) for its readiness line
    /// `"<name> listening on <addr> ..."`.
    pub fn spawn(
        name: &str,
        cmd: &mut Command,
        stderr_log: &Path,
        timeout: Duration,
    ) -> Result<Daemon, String> {
        let log = std::fs::File::create(stderr_log).map_err(|e| e.to_string())?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Read the readiness line on a helper thread so a daemon that
        // never prints it cannot hang the benchmark.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut line = String::new();
            let res = r.read_line(&mut line).map(|_| line);
            let _ = tx.send(());
            (r, res)
        });
        let ready = rx.recv_timeout(timeout).is_ok();
        if !ready {
            let _ = child.kill();
        }
        let (stdout, line) = reader.join().expect("readiness reader does not panic");
        let addr = line.ok().filter(|_| ready).and_then(|l| {
            l.strip_prefix(&format!("{name} listening on "))
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_owned)
        });
        match addr {
            Some(addr) => Ok(Daemon {
                name: name.to_owned(),
                addr,
                child,
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{name} did not report its address (log: {})",
                    stderr_log.display()
                ))
            }
        }
    }

    /// Peak resident set size so far, from `/proc/<pid>/status`.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Waits up to `timeout` for the daemon to exit on its own (after a
    /// `shutdown` request), then kills it. Returns whether it exited
    /// cleanly in time.
    pub fn wait_or_kill(mut self, timeout: Duration) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < timeout {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here was abandoned by an error path:
        // never leave it behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Host-wide CPU time in clock ticks from `/proc/stat`: time the CPUs spent
/// running (user, nice, system, irq, softirq) and time the hypervisor gave
/// to other guests while a CPU of this one wanted to run (steal).
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuTicks {
    pub busy: u64,
    pub steal: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuTicks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of the time this guest's CPUs wanted to run that the
    /// hypervisor gave to other guests.
    pub fn steal_share(self) -> f64 {
        self.steal as f64 / (self.busy + self.steal).max(1) as f64
    }

    /// Ticks from `earlier` to `self`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            busy: self.busy.saturating_sub(earlier.busy),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }
}
