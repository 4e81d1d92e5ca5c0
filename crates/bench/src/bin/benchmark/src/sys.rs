//! Process resource readings: CPU time from the kernel's CPU-time
//! clocks (the same user+system time `/proc/self/stat` reports, at
//! nanosecond rather than 10 ms resolution) and the resident-set
//! high-water mark from `/proc/self/status`.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// The Linux clock ids of the calling process's and the calling
/// thread's CPU time (`<time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ms(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) for the
    // whole call, and the clock id is one of the kernel's fixed ids.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// User plus system CPU time of the whole process so far (every thread,
/// the in-process server included), in milliseconds.
pub fn cpu_ms() -> f64 {
    clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU time of the calling thread so far, in
/// milliseconds.
pub fn thread_cpu_ms() -> f64 {
    clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_cpu_advances() {
        let (before, thread_before) = (cpu_ms(), thread_cpu_ms());
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() - before >= 5.0, "30 ms of spinning");
        assert!(thread_cpu_ms() - thread_before >= 5.0, "30 ms of spinning");
        assert!(peak_rss_mb() > 0.0);
    }
}
