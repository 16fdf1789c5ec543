//! Host measurements: process CPU time, peak resident memory, and the
//! copy-bandwidth roof that every `*.roof_fraction` metric divides by.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for the CPU time of every thread of the process,
/// exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds the whole process has consumed so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and the
    // clock id names a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// Bytes per copy pass of the roofline probe: 64 MiB, past any
/// last-level cache, so the probe sees memory bandwidth.
const COPY_BYTES: usize = 64 << 20;

/// Copy passes; the probe reports their median.
const COPY_PASSES: usize = 7;

/// Achievable host copy bandwidth in GB/s (10^9 bytes copied per
/// second): the median of several passes copying one 64 MiB buffer into
/// another. Allocates 128 MiB, so callers read `peak_rss_mb` first.
pub fn copy_gb_per_s() -> f64 {
    let src: Vec<u8> = (0..COPY_BYTES).map(|i| i as u8).collect();
    let mut dst = vec![0u8; COPY_BYTES];
    let mut rates: Vec<f64> = (0..COPY_PASSES)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            COPY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&mut rates)
}

/// Median of a non-empty sample (sorts it in place).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > t0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
