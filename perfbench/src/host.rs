//! Host facts and probes: the fingerprint every result carries, process
//! CPU and memory readings of the system under test, and the drift and
//! bandwidth probes.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// CPU time (user + system) of a live process, from `/proc/<pid>/stat`,
/// in milliseconds. Includes threads that already exited.
pub fn proc_cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    // `/proc` reports in USER_HZ, which Linux fixes at 100.
    Some((utime + stime) * 10.0)
}

/// A `/proc/<pid>/status` field in kB (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Resource use of every child this process has waited for:
/// (user + system CPU ms, peak RSS kB of the largest child).
pub fn children_rusage() -> (f64, u64) {
    let mut r = Rusage::default();
    // SAFETY: `r` is a writable, correctly laid out `struct rusage` for
    // x86_64/aarch64 Linux; RUSAGE_CHILDREN is -1.
    let rc = unsafe { getrusage(-1, &mut r) };
    if rc != 0 {
        return (0.0, 0);
    }
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    (ms(&r.utime) + ms(&r.stime), r.maxrss.max(0) as u64)
}

/// Time the hypervisor ran other guests on this guest's CPUs (the
/// `steal` column of `/proc/stat`), in milliseconds since boot.
pub fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// A fixed integer loop; its time tracks host speed drift.
pub fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x1234_5678_u64;
    for i in 0..40_000_000u64 {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// memcpy bandwidth in GB/s (bytes read + written) over `bytes`-sized
/// buffers: the bound a sweep of that working set cannot beat.
pub fn copy_gbps(bytes: usize, reps: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    dst.copy_from_slice(&src);
    let mut best = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        best.push(2.0 * bytes as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    crate::stats::median(&mut best)
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Mount options of the filesystem holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn mount_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // mount-id parent major:minor root mount-point options ... - fstype source super-options
        let f: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = f.iter().position(|x| *x == "-") else {
            continue;
        };
        let (Some(mp), Some(opts), Some(fstype), Some(super_opts)) =
            (f.get(4), f.get(5), f.get(sep + 1), f.get(sep + 3))
        else {
            continue;
        };
        if path.starts_with(mp) && best.as_ref().is_none_or(|(l, _)| mp.len() > *l) {
            best = Some((mp.len(), format!("{mp} {fstype} {opts},{super_opts}")));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, s)| s)
}

/// The host fingerprint as a JSON object.
pub fn fingerprint(rustc: &str, git_rev: &str, dirs: &[(&str, &Path)]) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let mut caches = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        if !Path::new(&base).exists() {
            break;
        }
        let level = read_trim(&format!("{base}/level"));
        let kind = read_trim(&format!("{base}/type"));
        let size = read_trim(&format!("{base}/size"));
        caches.push(format!("L{level} {kind} {size}"));
    }
    let mem_kb = std::fs::read_to_string("/proc/meminfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .unwrap_or(0);
    let mounts: Vec<String> = dirs
        .iter()
        .map(|(k, p)| {
            format!(
                "{}:{}",
                crate::inputs::json_str(k),
                crate::inputs::json_str(&mount_of(p))
            )
        })
        .collect();
    format!(
        r#"{{"available_parallelism":{},"cpu":{},"caches":{},"ram_mb":{},"kernel":{},"rustc":{},"git_rev":{},"mounts":{{{}}}}}"#,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        crate::inputs::json_str(&cpu),
        crate::inputs::json_str(&caches.join(", ")),
        mem_kb / 1024,
        crate::inputs::json_str(&read_trim("/proc/sys/kernel/osrelease")),
        crate::inputs::json_str(rustc),
        crate::inputs::json_str(git_rev),
        mounts.join(",")
    )
}
