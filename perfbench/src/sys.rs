//! Process figures from `/proc`: resident memory (`VmRSS`, `VmHWM`),
//! CPU time (user + system), child processes and CPU affinity.

/// A `/proc/<pid>/status` memory field in MiB, `None` when unreadable.
fn status_mib(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of `pid` in MiB (`VmHWM`), `None` when unreadable.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    status_mib(pid, "VmHWM:")
}

/// How far this process's resident set rises above where it stood when
/// the measurement started: the memory the calls in between needed at
/// their peak, without what the process already held (inputs, oracles).
pub struct RssGrowth {
    base_mib: f64,
}

impl RssGrowth {
    /// Reset this process's `VmHWM` to its current resident set and
    /// remember that level. `None` when the kernel refuses the reset.
    pub fn start() -> Option<Self> {
        std::fs::write("/proc/self/clear_refs", "5").ok()?;
        Some(RssGrowth {
            base_mib: status_mib(std::process::id(), "VmRSS:")?,
        })
    }

    /// Peak resident set since [`RssGrowth::start`], less the level then.
    pub fn peak_mib(&self) -> Option<f64> {
        Some(peak_rss_mib(std::process::id())? - self.base_mib)
    }
}

/// The CPUs this process may run on, as a `taskset` CPU list
/// (`Cpus_allowed_list` in `/proc/self/status`, e.g. `0-1`).
pub fn allowed_cpus() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line.split_whitespace().nth(1)?.to_string())
}

/// Restrict every thread of this process to `cpus` (a `taskset` CPU
/// list); threads and processes started afterwards inherit it. False
/// when `taskset` is missing or refuses.
pub fn pin(cpus: &str) -> bool {
    std::process::Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// User + system CPU time of `pid` in milliseconds. The kernel reports
/// it in clock ticks; Linux exports `USER_HZ = 100` to user space on
/// every architecture this benchmark targets.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// Direct children of `pid`, across all of its threads.
pub fn children(pid: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for task in tasks.flatten() {
        let path = task.path().join("children");
        if let Ok(text) = std::fs::read_to_string(path) {
            out.extend(
                text.split_whitespace()
                    .filter_map(|s| s.parse::<u32>().ok()),
            );
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_growth_sees_memory_touched_after_the_start_only() {
        let before = vec![1u8; 16 << 20];
        drop(before);
        let growth = RssGrowth::start().expect("clear_refs");
        let block = vec![1u8; 32 << 20];
        let grown = growth.peak_mib().expect("VmHWM");
        std::hint::black_box(&block);
        assert!((30.0..48.0).contains(&grown), "grew {grown} MiB");
    }
}
