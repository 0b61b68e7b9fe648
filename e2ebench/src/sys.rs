//! Process and thread resource clocks: CPU time through `clock_gettime`
//! and the resident-set high-water mark through procfs, plus the glibc
//! allocator settings that make the latter repeatable.

use std::fs;

/// `CLOCK_PROCESS_CPUTIME_ID`: user plus system time of every thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: user plus system time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// glibc's `mallopt` parameter for the number of malloc arenas.
const M_ARENA_MAX: i32 = -8;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

fn cpu_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout, and
    // both clock ids are valid on every Linux kernel this runs on.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed so far by the whole process.
pub fn process_cpu() -> f64 {
    cpu_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu() -> f64 {
    cpu_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Makes every thread allocate from the one main arena. With an arena per
/// thread the peak resident set of a multi-threaded unit swung by 15%
/// from run to run with how threads happened to land on arenas; with one
/// it repeats to a fraction of a percent, at no measured cost in run
/// time.
pub fn single_malloc_arena() -> Result<(), String> {
    // SAFETY: `mallopt` takes two integers and only adjusts allocator
    // tuning; it is called before the benchmark spawns any thread.
    match unsafe { mallopt(M_ARENA_MAX, 1) } {
        1 => Ok(()),
        _ => Err("mallopt(M_ARENA_MAX, 1) failed".into()),
    }
}

/// Returns the allocator's free pages to the kernel, then resets the
/// process's peak resident set (`VmHWM`) to its current resident set, so
/// the next [`peak_rss_mb`] covers what follows and not memory earlier
/// units freed but the allocator kept.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call at any time from any thread.
    unsafe { malloc_trim(0) };
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// The process's peak resident set since the last reset, in MB (10^6
/// bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("cannot read status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line '{line}': {e}"))?;
    Ok(kib * 1024.0 / 1e6)
}
