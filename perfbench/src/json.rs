//! A flat JSON object writer (numbers, strings, number arrays) and the
//! process probes every repetition reports.

use std::fmt::Write;

#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{k}\":");
    }

    pub fn num(mut self, k: &str, v: f64) -> Obj {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Obj {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn boolean(mut self, k: &str, v: bool) -> Obj {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    /// Strings here are digests and table renderings: escape only what
    /// JSON requires.
    pub fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.body.push('"');
        for c in v.chars() {
            match c {
                '"' => self.body.push_str("\\\""),
                '\\' => self.body.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.body, "\\u{:04x}", c as u32);
                }
                c => self.body.push(c),
            }
        }
        self.body.push('"');
        self
    }

    pub fn ints(mut self, k: &str, v: &[u64]) -> Obj {
        self.key(k);
        self.body.push('[');
        for (i, x) in v.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            let _ = write!(self.body, "{x}");
        }
        self.body.push(']');
        self
    }

    /// Append every field of `other`.
    pub fn merge(mut self, other: Obj) -> Obj {
        if !other.body.is_empty() {
            if !self.body.is_empty() {
                self.body.push(',');
            }
            self.body.push_str(&other.body);
        }
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds of CPU time on a CPU clock. The kernel brings a running
/// task's time up to date on every call, and excludes time the vCPU was
/// stolen by the hypervisor.
fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // 64-bit Linux) that outlives the call, and both clock ids are
    // supported by every Linux kernel this runs on.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User+system CPU time of the whole process, in seconds.
pub fn cpu_seconds() -> f64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 / 1e9
}

/// CPU time the calling thread has run, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Wall-clock seconds since the Unix epoch; `run.py` subtracts its own
/// spawn time to get the set-up time of a child.
pub fn unix_now() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}
