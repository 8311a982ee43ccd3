//! Readings of the host and of this process. The core count and the CPU
//! steal from `/proc/stat` are diagnostics recorded next to every result;
//! no run is dropped or re-weighted by them. The process's CPU time and
//! peak resident set feed `cpu_ms_per_step` and `peak_rss_mb`.

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

impl CpuTimes {
    /// Reads the `cpu` line; zeros where `/proc/stat` is unavailable.
    pub fn now() -> CpuTimes {
        let Ok(text) = std::fs::read_to_string("/proc/stat") else {
            return CpuTimes::default();
        };
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU time since `earlier` that the hypervisor stole.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// `VmHWM` of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// CPU time all threads of this process have used so far, live and
/// exited, from `CLOCK_PROCESS_CPUTIME_ID` (zero where unavailable).
pub fn process_cpu() -> std::time::Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return std::time::Duration::ZERO;
    }
    std::time::Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
