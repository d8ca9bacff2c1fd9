//! What every run records about the machine it ran on, plus the
//! process-level gauges (peak RSS, CPU time) the metrics use.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's own directory (`run.sh` exports it; the default is
/// where the driver's working directory puts it).
pub fn home() -> PathBuf {
    std::env::var_os("PMBENCH_HOME").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// Everything the benchmark writes lands here (git-ignored).
pub fn work_dir() -> PathBuf {
    home().join("target")
}

/// A fresh, empty directory under the work dir.
pub fn fresh_dir(name: &str) -> std::io::Result<PathBuf> {
    let dir = work_dir().join("data").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// File-system type of the mount holding `path`: the longest mount point
/// in `/proc/mounts` that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mut best: Option<(usize, String)> = None;
    for line in read("/proc/mounts").lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(kind)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() > *n) {
            best = Some((mount.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Machine and toolchain facts, as `(key, value)` pairs.
pub fn describe() -> Vec<(&'static str, String)> {
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        ),
        (
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        ),
        ("fs", fs_type(&work_dir())),
    ]
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User and system CPU seconds this process has used (`/proc/self/stat`
/// fields 14 and 15, in 100 Hz ticks — what `getrusage` reports, without
/// a foreign call).
pub fn cpu_seconds() -> (f64, f64) {
    let stat = read("/proc/self/stat");
    // The command name may hold spaces; fields count from after ")".
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0);
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 100.0;
    (tick(11), tick(12))
}
