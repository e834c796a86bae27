//! Host and provenance facts recorded with every result.

use std::fs;
use std::path::Path;

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model from `/proc/cpuinfo`, when readable.
pub fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// The commit of the checkout in the working directory, when it is a
/// git repository; `"unknown"` otherwise.
pub fn commit() -> String {
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&git.join(reference)) {
        return id;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, r)| *r == reference)
                    .map(|(id, _)| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident memory of this process in MB (`VmHWM`), when readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Host facts as `(key, value)` pairs.
pub fn facts(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        (
            "cpu_model",
            cpu_model().unwrap_or_else(|| "unknown".to_owned()),
        ),
        ("rustc", env!("LEDGER_RUSTC_VERSION").to_owned()),
        ("commit", commit()),
        ("seed", seed.to_string()),
    ]
}
