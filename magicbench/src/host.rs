//! What the benchmark reads about its host: core count, a fixed spin
//! kernel as the noise floor, peak memory and CPU time of this process.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Wall time of a fixed arithmetic kernel (median of five), in ms.  It
/// touches no memory and calls nothing, so a change in it is the host's.
pub fn spin_ms() -> f64 {
    let mut walls = [0.0f64; 5];
    for wall in &mut walls {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..20_000_000u64 {
            x = (x ^ (x >> 30))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
        }
        std::hint::black_box(x);
        *wall = start.elapsed().as_secs_f64() * 1e3;
    }
    crate::stats::median(&walls)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in 100 Hz ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// Where the benchmark writes: a directory beside the executable, so every
/// file stays inside the build directory of its checkout.
pub fn tmp_root() -> PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = base.join("magicbench-tmp");
    std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
    dir
}

/// A fresh, empty directory of this process's own under [`tmp_root`]; the
/// caller removes it when done.
pub fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = tmp_root().join(format!("{}-{label}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
    dir
}
