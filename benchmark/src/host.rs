//! What the run header reports about the machine, and the one-CPU pin
//! every workload runs under.

use std::fs;

/// `cpu_set_t`: 1024 CPUs as 16 words.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread — and every thread it later spawns, which
/// inherit the mask — to the highest CPU it may run on. Must run before
/// any other thread exists. Returns the CPU, or `None` where pinning is
/// not available (the run is then marked noisy).
///
/// On this 2-vCPU VM an unpinned closed loop pays a cross-core futex
/// wake-up per RPC: about 4x slower and ±20 % run to run. Pinned, wall
/// time is path length.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable 128-byte buffer and the size
    // passed is its size; pid 0 names the calling thread. The kernel
    // writes at most that many bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live 128-byte buffer read for exactly its size;
    // it names one CPU the kernel just reported as allowed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The value of the first `key: value` line of `text`.
fn value_of(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    value_of(&fs::read_to_string(path).ok()?, key)
}

pub fn hostname() -> String {
    fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

pub fn cpu_model() -> String {
    first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The 1-minute load average, or 0 where `/proc` does not give one.
pub fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The commit of the checkout, when it is a git checkout (the driver's is
/// not).
pub fn git_commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Process-wide CPU time and context switches, read from `/proc/self`,
/// and what the pinned CPU did meanwhile, from `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcUsage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary plus involuntary, summed over live threads.
    pub ctx_switches: u64,
    /// Seconds the pinned CPU was not idle, for whomever: this process,
    /// other processes, interrupts, and time the hypervisor took away.
    pub cpu_busy_s: f64,
}

impl ProcUsage {
    pub fn now(pinned_cpu: Option<usize>) -> ProcUsage {
        // Fields 14 and 15 of /proc/self/stat, counted after the
        // parenthesised command name, in clock ticks of 1/100 s.
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let mut fields = after.split_whitespace().skip(11);
        let mut ticks = || {
            fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let (user_s, sys_s) = (ticks() / 100.0, ticks() / 100.0);
        let mut ctx_switches = 0;
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
                for key in ["voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"] {
                    ctx_switches += value_of(&status, key)
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                }
            }
        }
        // cpuN user nice system idle iowait irq softirq steal, in ticks.
        let cpu_busy_s = pinned_cpu
            .and_then(|cpu| {
                let stat = fs::read_to_string("/proc/stat").ok()?;
                let line = stat
                    .lines()
                    .find(|l| l.starts_with(&format!("cpu{cpu} ")))?;
                let t: Vec<f64> = line
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect();
                Some((t.get(..8)?.iter().sum::<f64>() - t[3] - t[4]) / 100.0)
            })
            .unwrap_or(0.0);
        ProcUsage {
            user_s,
            sys_s,
            ctx_switches,
            cpu_busy_s,
        }
    }

    pub fn since(&self, earlier: &ProcUsage) -> ProcUsage {
        ProcUsage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            cpu_busy_s: self.cpu_busy_s - earlier.cpu_busy_s,
        }
    }

    /// The share of the pinned CPU's busy time that went to someone else.
    pub fn other_cpu_frac(&self) -> f64 {
        if self.cpu_busy_s > 0.0 {
            (1.0 - (self.user_s + self.sys_s) / self.cpu_busy_s).max(0.0)
        } else {
            0.0
        }
    }
}

/// Peak resident set of this process in MB.
pub fn max_rss_mb() -> f64 {
    first_line_value("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
