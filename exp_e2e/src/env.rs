//! The run's environment: the header stamped on every result, process
//! counters read from `/proc`, and the unit-cost calibrations the
//! `_est` metrics use.

use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::Ubig;
use dla_logstore::journal::{Journal, JournalEntry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// The commit being measured: read from `.git` in the working
/// directory when there is one, else `unknown` (benchmark checkouts
/// are plain file trees).
pub fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The filesystem holding `dir`, as `fstype device mountpoint` from
/// the longest matching `/proc/self/mounts` entry.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (device, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), format!("{fstype} {device} {point}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(key)?;
            rest.split_whitespace().next()?.parse().ok()
        })
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Write system calls this process has made so far (`syscw` in
/// `/proc/self/io`; 0 where the kernel does not expose it).
pub fn write_syscalls() -> u64 {
    proc_field("/proc/self/io", "syscw:").unwrap_or(0)
}

#[repr(C)]
struct Timeval {
    tv_sec: std::os::raw::c_long,
    tv_usec: std::os::raw::c_long,
}

/// `struct rusage` of Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    counters: [std::os::raw::c_long; 14],
}

extern "C" {
    fn getrusage(who: std::os::raw::c_int, usage: *mut Rusage) -> std::os::raw::c_int;
}

/// User plus system CPU seconds this process has used so far, on every
/// thread, exited ones included. The kernel keeps time the hypervisor
/// stole from the guest out of these counters, which is why the gated
/// metrics use them rather than the wall clock.
pub fn cpu_s() -> f64 {
    const RUSAGE_SELF: std::os::raw::c_int = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout, and `RUSAGE_SELF` is a valid `who`; getrusage writes only
    // inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    secs(&usage.ru_utime) + secs(&usage.ru_stime)
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// CPU seconds the calling thread has used so far, to the nanosecond
/// (`getrusage(RUSAGE_THREAD)` may count whole scheduler ticks).
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` with the C
    // layout and the clock id is valid; clock_gettime writes only inside
    // it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    t.tv_sec as f64 + t.tv_nsec as f64 / 1e9
}

/// How fast the host runs this process at the moment. Neighbours on the
/// same physical cores slow CPU time as well as wall time: identical
/// work took up to 30% more or less CPU time a few minutes apart on a
/// shared 2-vCPU VM, all workloads together. A fixed multiply-carry
/// chain over 4 KiB (the shape of a Montgomery inner loop), which
/// belongs to the benchmark and not to the program, is timed after
/// every client cycle, and the gated CPU times are scaled by
/// [`HostSpeed::factor`].
pub struct HostSpeed {
    words: Vec<u64>,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// CPU seconds of one timed chain on the host the bounds were set
    /// on (2-vCPU Intel Xeon VM), rounded: the median sample of a run
    /// ranged 0.49–0.55 ms there.
    pub const NOMINAL_S: f64 = 0.5e-3;

    pub fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let words = (0..512)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x | 1
            })
            .collect();
        HostSpeed {
            words,
            samples: Vec::new(),
        }
    }

    /// Runs the chain twice and records the second run's CPU seconds on
    /// this thread alone: the first run brings the words back into the
    /// cache, so the program's memory use cannot move the sample, and
    /// other threads' CPU time cannot either.
    pub fn sample(&mut self) {
        std::hint::black_box(self.chain());
        let cpu = thread_cpu_s();
        std::hint::black_box(self.chain());
        self.samples.push(thread_cpu_s() - cpu);
    }

    fn chain(&mut self) -> u128 {
        let mut carry: u128 = 0;
        for _ in 0..400 {
            for i in 0..self.words.len() {
                let p =
                    u128::from(self.words[i]) * u128::from(self.words[(i * 7 + 3) & 511]) + carry;
                self.words[i] = p as u64 | 1;
                carry = (p >> 64) + (carry >> 3);
            }
        }
        carry
    }

    /// Median CPU seconds of one timed chain in this run.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// [`HostSpeed::NOMINAL_S`] over this run's median: below 1 when the
    /// host ran this process slower than nominal, so a CPU time times
    /// the factor is the time at nominal speed.
    pub fn factor(&self) -> f64 {
        Self::NOMINAL_S / self.median_s()
    }
}

/// Cumulative `(steal, total)` CPU jiffies of the machine from
/// `/proc/stat`: time the hypervisor ran something else while this
/// guest wanted the CPU. Reported beside wall-clock results because it
/// moves them.
pub fn cpu_steal() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Median wall nanoseconds of one Montgomery exponentiation modulo
/// `modulus` with full-width exponents, calling `dla_bigint` directly.
pub fn modexp_ns(modulus: &Ubig, seed: u64) -> f64 {
    let ctx = MontgomeryContext::new(modulus).expect("odd multi-limb modulus");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut times = Vec::new();
    for _ in 0..9 {
        let pairs: Vec<(Ubig, Ubig)> = (0..32)
            .map(|_| {
                (
                    Ubig::random_below(&mut rng, modulus),
                    Ubig::random_below(&mut rng, modulus),
                )
            })
            .collect();
        let started = Instant::now();
        for (base, exp) in &pairs {
            std::hint::black_box(ctx.modexp(std::hint::black_box(base), exp));
        }
        times.push(started.elapsed().as_nanos() as f64 / pairs.len() as f64);
    }
    crate::stats::median(&times)
}

/// Median wall microseconds of one `Journal::append` (write plus
/// `sync_data`) of a fragment-sized entry, on the filesystem holding
/// `dir`.
pub fn journal_append_us(dir: &Path) -> Result<f64, String> {
    let path = dir.join("calibration.journal");
    let (mut journal, _) = Journal::open(&path).map_err(|e| e.to_string())?;
    let entry = JournalEntry::Blob {
        tag: 0x7f,
        bytes: vec![0xA5; 160],
    };
    let mut times = Vec::new();
    for _ in 0..24 {
        let started = Instant::now();
        journal.append(&entry).map_err(|e| e.to_string())?;
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    drop(journal);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    Ok(crate::stats::median(&times))
}
