//! Linux process accounting and CPU placement, read from outside the
//! program: `getrusage` for the driver thread, `/proc/<pid>` for the
//! daemon, `sched_setaffinity` to place the two.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `cpu_set_t`: 1024 CPU bits.
const CPU_SET_WORDS: usize = 16;
const RUSAGE_THREAD: i32 = 1;
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// User and system CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user: Duration,
    pub sys: Duration,
}

impl Cpu {
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }

    pub fn total(self) -> Duration {
        self.user + self.sys
    }
}

fn timeval(tv: &Timeval) -> Duration {
    Duration::from_secs(u64::try_from(tv.sec).unwrap_or(0))
        + Duration::from_micros(u64::try_from(tv.usec).unwrap_or(0))
}

/// CPU time of the calling thread, at microsecond resolution.
pub fn thread_cpu() -> Cpu {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines; getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_THREAD, &mut usage) };
    if rc != 0 {
        return Cpu::default();
    }
    Cpu {
        user: timeval(&usage.utime),
        sys: timeval(&usage.stime),
    }
}

/// CPU time of every thread of process `pid`, from `/proc/<pid>/stat`
/// (clock-tick resolution).
pub fn process_cpu(pid: u32) -> Cpu {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return Cpu::default();
    };
    // The command name may hold spaces; fields resume after its `)`.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return Cpu::default();
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // SAFETY: sysconf only reads the named configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    let hz = u64::try_from(hz).ok().filter(|&h| h > 0).unwrap_or(100);
    let to_dur = |t: u64| Duration::from_nanos(t * 1_000_000_000 / hz);
    Cpu {
        user: to_dur(ticks(11)),
        sys: to_dur(ticks(12)),
    }
}

/// Peak resident set (`VmHWM`) of `pid` (`"self"` for this process), in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pins the calling thread (and the threads it later creates, or the
/// program it later execs) to `cpu`.
pub fn pin_current(cpu: usize) -> std::io::Result<()> {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable cpu_set_t of the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}
