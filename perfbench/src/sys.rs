//! Process readings from `/proc` and the run's provenance.

use std::path::Path;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Host-wide CPU ticks the hypervisor stole from the machine's virtual
/// CPUs, and all CPU ticks, from the first line of `/proc/stat`.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> f64 {
    status_kib("VmHWM:")
}

fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the sources come from, read from the `.git` directory next to
/// the benchmark package, or "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// glibc's `struct mallinfo2` (glibc 2.33 and later).
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Bytes the allocator currently has handed out, over all arenas plus
/// directly mapped chunks. Unlike the resident set this does not depend on
/// how freed memory is retained, so its growth per commit reads steadily.
pub fn heap_in_use_kib() -> f64 {
    // SAFETY: `mallinfo2` takes no arguments, only reads allocator
    // statistics under the allocator's own locks, and returns the struct by
    // value; `MallInfo2` matches glibc's field order and types.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / 1024.0
}

/// Milliseconds a fixed task that shares no code with the program takes:
/// sorting 2^20 pseudo-random words, median of five. The same code reads
/// slower while a shared host is busy, so this figure, printed with the
/// provenance, tells host drift apart from a change in the program.
pub fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut z = 0u64;
            let mut words: Vec<u64> = (0..1 << 20)
                .map(|_| {
                    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9)
                })
                .collect();
            words.sort_unstable();
            std::hint::black_box(&words);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times)
}
