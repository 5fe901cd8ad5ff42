//! The few OS calls the standard library does not offer: `ppoll(2)` for the
//! load generator's single-threaded event loop, and `clock_gettime(2)`,
//! `getrusage(2)` and `sysconf(3)` for CPU time and peak memory. Linux
//! x86-64/aarch64 layouts.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;
pub const POLLERR: i16 = 0x8;
pub const POLLHUP: i16 = 0x10;

#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Wait until one of `fds` is ready or `timeout` passes; returns the number
/// of ready descriptors (0 on timeout). Interrupted waits report 0.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records whose length is passed alongside it; `ts` outlives the
    // call; a null sigmask means "keep the current mask".
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable `#[repr(C)]` struct with the kernel's
    // `struct rusage` layout (two timevals, then fourteen longs). On failure
    // the kernel leaves it untouched, so it reads as zero.
    unsafe { getrusage(who, &mut usage) };
    usage
}

fn cpu_secs(u: &Rusage) -> f64 {
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(u.utime) + tv(u.stime)
}

/// CPU seconds of the calling thread, to the nanosecond. Time the
/// hypervisor gave to other guests (steal) is not in it, unlike wall-clock
/// time.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `#[repr(C)]` timespec; the clock id is a
    // constant the kernel always accepts.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User plus system CPU seconds of every child process waited for so far.
pub fn children_cpu_s() -> f64 {
    cpu_secs(&rusage(RUSAGE_CHILDREN))
}

/// Largest resident set, in MiB, of any child process this process has
/// waited for.
pub fn children_peak_rss_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss as f64 / 1024.0
}

/// CPU seconds of process `pid` so far, to the nanosecond: the run time
/// (`/proc/<pid>/task/*/schedstat`) of each of its live threads, summed.
/// Threads that have exited are not counted, which suits a server whose
/// threads live as long as it does. Falls back to the tick-granular user
/// plus system time of `/proc/<pid>/stat`; 0 when neither is readable.
pub fn process_cpu_s(pid: u32) -> f64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"));
    let ns: Option<u64> = tasks.ok().and_then(|dir| {
        dir.map(|t| {
            let t = t.ok()?;
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
    });
    match ns {
        Some(ns) if ns > 0 => ns as f64 * 1e-9,
        _ => stat_cpu_s(pid),
    }
}

fn stat_cpu_s(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    f.iter().sum::<f64>() / hz
}

/// Peak resident set (`VmHWM`), in MiB, of process `pid` (`"self"` for this
/// one), read from procfs; 0 when unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_work_not_sleep() {
        let t0 = thread_cpu_s();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_s() - t0;
        assert!(slept < 0.02, "sleeping 50 ms cost {slept} s of CPU");
        // Spinning accrues CPU time; how fast depends on the host, so wait
        // for it (with a generous wall-clock cap) rather than time it.
        let t0 = thread_cpu_s();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while thread_cpu_s() - t0 < 0.05 && start.elapsed() < Duration::from_secs(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(thread_cpu_s() - t0 >= 0.05, "spinning accrued no CPU time");
        assert!(process_cpu_s(std::process::id()) >= 0.05);
        assert!(stat_cpu_s(std::process::id()) > 0.0);
        assert!(peak_rss_mb("self") > 0.0);
    }
}
