//! The host and build a result was measured on.

use std::fs;

/// `nproc`, each cache level of CPU 0, the build profile, and the thread
/// count, which is marked oversubscribed when it exceeds `nproc`.
pub fn describe(threads: usize) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let oversubscribed = if threads > nproc {
        " (oversubscribed)"
    } else {
        ""
    };
    vec![
        format!("nproc {nproc}, threads {threads}{oversubscribed}, build {profile}"),
        format!("caches (cpu0) {}", caches().join(", ")),
    ]
}

/// `L<level> <type> <size>` per cache of CPU 0, as sysfs lists them.
fn caches() -> Vec<String> {
    let root = "/sys/devices/system/cpu/cpu0/cache";
    let Ok(entries) = fs::read_dir(root) else {
        return vec!["unknown".into()];
    };
    let mut out: Vec<String> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
        .map(|e| {
            let read = |f: &str| {
                fs::read_to_string(e.path().join(f)).map_or("?".into(), |s| s.trim().to_string())
            };
            let shared = read("shared_cpu_list");
            format!(
                "L{} {} {} shared by cpus {shared}",
                read("level"),
                read("type"),
                read("size")
            )
        })
        .collect();
    out.sort();
    out
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
