//! Host-side clocks: process CPU time and peak resident set size.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, including threads that have already exited (the per-batch
/// DAG workers and the WAL writer).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (all threads) in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU time of one interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Host wall time, ns.
    pub wall_ns: u64,
    /// Process CPU time (all threads), ns.
    pub cpu_ns: u64,
}

/// A running wall + CPU stopwatch.
pub struct Stopwatch {
    wall: Instant,
    cpu: u64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_ns(),
        }
    }

    /// Wall and CPU time since [`Self::start`].
    pub fn stop(&self) -> Cost {
        Cost {
            wall_ns: self.wall.elapsed().as_nanos() as u64,
            cpu_ns: cpu_ns().saturating_sub(self.cpu),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let c = sw.stop();
        assert!(c.cpu_ns > 0 && c.wall_ns > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
