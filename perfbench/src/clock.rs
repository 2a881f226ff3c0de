//! The benchmark's host clock: CPU time of the calling thread, and a
//! calibration kernel that measures how fast the host runs right now.
//!
//! The benchmark and the program run on one thread, so the thread's CPU
//! time is the host time an op costs.  Unlike wall time it leaves out the
//! time the thread waited for a CPU: other processes on a shared machine,
//! and, on a virtual machine whose kernel accounts steal time, the time
//! the hypervisor gave the CPU to other guests.
//!
//! CPU time still moves with the load other tenants put on the memory
//! system: on a shared 2-vCPU host the same op's CPU time drifted by up
//! to 1.6× in phases lasting seconds to minutes.  [`kernel`] is a fixed
//! piece of allocation- and hash-heavy work, like the program's own, run
//! from the same heap between ops; its CPU time slows in the same phases
//! (and an allocation-free kernel did not track them).  Host times are
//! reported normalised by it: an op's CPU time times
//! [`KERNEL_REFERENCE_NS`] over the kernel's median time around that op,
//! i.e. in milliseconds of a host on which the kernel takes exactly
//! [`KERNEL_REFERENCE_NS`].  The kernel is benchmark code, so a change
//! to the program moves the op's time and not the reference.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A start point on the thread's CPU clock.
#[derive(Clone, Copy, Debug)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    pub fn now() -> CpuInstant {
        CpuInstant(thread_cpu())
    }

    /// CPU time the thread has used since `self`.
    pub fn elapsed(self) -> Duration {
        thread_cpu().saturating_sub(self.0)
    }
}

/// The kernel's CPU time on the reference host, in nanoseconds: about
/// its median on a quiet 2-vCPU Xeon virtual machine, so normalised
/// times there read close to plain CPU time.
pub const KERNEL_REFERENCE_NS: f64 = 2.0e6;

/// Kernel runs on each side of an op whose median normalises that op.
pub const KERNEL_WINDOW: usize = 12;

/// Run the calibration kernel once and return its CPU time in
/// nanoseconds: build a hash table of 6,000 string-carrying rows, probe
/// it three times, sort the matches and clone the rows.  The inputs are
/// fixed, so the work is the same on every call.
pub fn kernel() -> u64 {
    use std::collections::HashMap;
    let start = CpuInstant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let rows: Vec<(u64, String)> = (0..6000)
        .map(|i| (next() % 1500, format!("r{i}")))
        .collect();
    let mut build: HashMap<u64, Vec<&str>> = HashMap::new();
    for (k, s) in &rows {
        build.entry(*k).or_default().push(s.as_str());
    }
    let mut matches: Vec<(u64, usize)> = Vec::new();
    for _ in 0..3 {
        for (k, s) in &rows {
            if let Some(m) = build.get(&(k ^ 1)) {
                matches.push((*k, m.len() + s.len()));
            }
        }
    }
    matches.sort_unstable();
    let cloned = rows.clone();
    std::hint::black_box((matches.len(), cloned.len()));
    start.elapsed().as_nanos() as u64
}

/// The host's slowdown at each of a sequence of kernel times: the median
/// of the [`KERNEL_WINDOW`] kernels on each side (fewer at the ends) over
/// [`KERNEL_REFERENCE_NS`].
pub fn slowdowns(kernel_ns: &[u64]) -> Vec<f64> {
    (0..kernel_ns.len())
        .map(|i| {
            let lo = i.saturating_sub(KERNEL_WINDOW);
            let hi = (i + KERNEL_WINDOW + 1).min(kernel_ns.len());
            let mut window = kernel_ns[lo..hi].to_vec();
            window.sort_unstable();
            window[window.len() / 2] as f64 / KERNEL_REFERENCE_NS
        })
        .collect()
}

/// The host's slowdown now: the median of one window's worth of kernel
/// runs over [`KERNEL_REFERENCE_NS`].
pub fn slowdown_now() -> f64 {
    let runs: Vec<u64> = (0..2 * KERNEL_WINDOW + 1).map(|_| kernel()).collect();
    slowdowns(&runs)[KERNEL_WINDOW]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_but_not_with_sleep() {
        let start = CpuInstant::now();
        std::thread::sleep(Duration::from_millis(50));
        let slept = start.elapsed();
        let start = CpuInstant::now();
        let mut x = 1u64;
        let wall = std::time::Instant::now();
        while wall.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = start.elapsed();
        assert!(slept < Duration::from_millis(10), "sleeping used {slept:?}");
        assert!(
            busy > Duration::from_millis(5),
            "spinning used only {busy:?}"
        );
    }

    #[test]
    fn slowdown_is_the_windowed_median_over_the_reference() {
        let r = KERNEL_REFERENCE_NS as u64;
        let mut times = vec![r; 40];
        times[20] = 50 * r; // one disturbed kernel run moves no median
        for t in &mut times[25..] {
            *t = 2 * r; // a slow phase does
        }
        let s = slowdowns(&times);
        assert_eq!(s.len(), 40);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[20], 1.0);
        assert_eq!(s[39], 2.0);
        assert!(kernel() > 0);
    }
}
