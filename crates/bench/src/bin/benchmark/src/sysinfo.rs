//! What the machine and the process look like, read from `/proc` and
//! `/sys`: the context every result is printed with, the CPU clock used
//! for `core.cpu_s`, and the resident-set high-water mark behind
//! `peak_rss_mb`.

use std::fs;

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn kernel() -> String {
    read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into())
}

pub fn loadavg() -> String {
    read_trimmed("/proc/loadavg").unwrap_or_else(|| "unknown".into())
}

/// Size of the last-level cache of cpu0 as sysfs prints it (e.g.
/// `266240K`), or `unknown`.
pub fn llc_size() -> String {
    let mut best: Option<(u32, String)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let Ok(level) = level.parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, s)| s)
}

/// `VmHWM` of this process in MiB: the most memory it ever had resident
/// (since the last [`reset_peak_rss`]).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident size, so that set-up (which
/// holds the generated graph and its generator's temporaries) does not
/// set the peak of a workload that times a streaming reader. Returns
/// whether the kernel accepted it; when it does not, the peak covers
/// set-up as well and the report says so.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after the
    // closing parenthesis. utime and stime are fields 14 and 15 (1-based).
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut it = after.split_whitespace().skip(11);
    let utime: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    // USER_HZ is 100 on every Linux ABI this runs on.
    (utime + stime) / 100.0
}

/// The one-line context printed before and after a workload.
pub fn context_line(seed: u64) -> String {
    format!(
        "seed {seed:#x} | nproc {} | kernel {} | LLC {} | loadavg {}",
        nproc(),
        kernel(),
        llc_size(),
        loadavg()
    )
}
