//! What the process under test cost, read from `/proc` from outside it: CPU
//! time of all its threads and peak resident memory (`VmHWM`).

use std::collections::HashMap;
use std::process::{Child, ExitStatus};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second of the `utime`/`stime` fields. Linux fixes
/// the unit `/proc` reports in (`USER_HZ`) at 100 on every architecture.
const TICKS_PER_S: f64 = 100.0;

/// How often a self-terminating child is polled. `VmHWM` and the per-thread
/// CPU counters only ever grow, so the last poll before exit misses at most
/// this much of the final growth.
const POLL: Duration = Duration::from_millis(2);

/// Process state letter and CPU seconds (user + system, whole thread group,
/// exited threads included) from `/proc/<pid>/stat` — complete, but counted
/// in 10 ms ticks.
fn stat(pid: u32) -> Option<(char, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces or parentheses; fields are counted
    // from the last ')'. After it: state, then utime and stime as the 12th
    // and 13th field.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let state = fields.first()?.chars().next()?;
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((state, (utime + stime) / TICKS_PER_S))
}

/// Peak resident set size in KiB, while the process still has a memory map.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU time of a live process at nanosecond resolution: the on-CPU counter of
/// every thread (`/proc/<pid>/task/<tid>/schedstat`), summed. A thread that
/// has exited keeps the last value seen for it, so the sum never drops.
/// Where the kernel has no `schedstat`, falls back to the tick-counted total.
pub struct CpuMeter {
    pid: u32,
    on_cpu_ns: HashMap<String, u64>,
}

impl CpuMeter {
    pub fn new(pid: u32) -> CpuMeter {
        CpuMeter {
            pid,
            on_cpu_ns: HashMap::new(),
        }
    }

    /// CPU seconds consumed so far, or `None` once the process is gone.
    pub fn sample(&mut self) -> Option<f64> {
        let tasks = std::fs::read_dir(format!("/proc/{}/task", self.pid)).ok()?;
        let mut any = false;
        for task in tasks.flatten() {
            let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            let Some(ns) = text
                .split_ascii_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
            else {
                continue;
            };
            any = true;
            let seen = self
                .on_cpu_ns
                .entry(task.file_name().to_string_lossy().into_owned())
                .or_insert(0);
            *seen = (*seen).max(ns);
        }
        if any {
            Some(self.on_cpu_ns.values().sum::<u64>() as f64 / 1e9)
        } else {
            stat(self.pid).map(|(_, cpu_s)| cpu_s)
        }
    }
}

/// What a child that ran to its own exit cost.
#[derive(Debug, Clone, Copy)]
pub struct Exited {
    pub status: ExitStatus,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
}

/// Watch a child started at `started` until it exits by itself, polling its
/// CPU time and peak RSS; both are the last reading before the exit.
pub fn watch(mut child: Child, started: Instant, limit: Duration) -> std::io::Result<Exited> {
    let pid = child.id();
    let mut meter = CpuMeter::new(pid);
    let (mut cpu_s, mut peak) = (0.0f64, 0u64);
    loop {
        match stat(pid) {
            // Zombie: exited, not yet reaped.
            Some(('Z' | 'X', ticked)) => {
                let wall_s = started.elapsed().as_secs_f64();
                let status = child.wait()?;
                // A child too short to be polled even once still has its
                // tick-counted total.
                if cpu_s == 0.0 {
                    cpu_s = ticked;
                }
                return Ok(Exited {
                    status,
                    wall_s,
                    cpu_s,
                    peak_rss_kb: peak,
                });
            }
            None => {
                return Err(std::io::Error::other(format!(
                    "/proc/{pid}/stat is unreadable"
                )));
            }
            Some(_) => {
                if let Some(s) = meter.sample() {
                    cpu_s = cpu_s.max(s);
                }
                if let Some(kb) = peak_rss_kb(pid) {
                    peak = peak.max(kb);
                }
            }
        }
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("process {pid} exceeded {limit:?}"),
            ));
        }
        std::thread::sleep(POLL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        let (state, cpu) = stat(pid).expect("own stat is readable");
        // The letter is the main thread's, which sleeps while tests run.
        assert!("RS".contains(state));
        assert!(cpu >= 0.0);
        assert!(peak_rss_kb(pid).expect("own status is readable") > 100);
        assert!(stat(u32::MAX).is_none());

        let mut meter = CpuMeter::new(pid);
        let before = meter.sample().expect("own threads are readable");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = meter.sample().unwrap();
        assert!(after >= before, "CPU time never decreases");
        assert!(CpuMeter::new(u32::MAX).sample().is_none());
    }

    #[test]
    fn watches_a_child_to_its_exit() {
        let started = Instant::now();
        let child = std::process::Command::new("sh")
            .args([
                "-c",
                "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; exit 3",
            ])
            .spawn()
            .expect("sh runs");
        let exited = watch(child, started, Duration::from_secs(30)).unwrap();
        assert_eq!(exited.status.code(), Some(3));
        assert!(exited.wall_s > 0.0 && exited.peak_rss_kb > 0 && exited.cpu_s > 0.0);
    }
}
