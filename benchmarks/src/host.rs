//! Host-side plumbing: memory high-water mark, scratch directories,
//! and the tiny timing helpers the workloads share.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Reads a `kB` field of `/proc/self/status` in MiB. No external tools:
/// `/usr/bin/time` is absent on the reference host.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Nanoseconds per call of `f`: the fast decile over `slices` slices
/// of `calls` calls each, after one untimed warm-up slice. For the
/// isolated per-layer timings, where a single call is far below timer
/// resolution.
pub fn ns_per_call(slices: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..calls {
        f();
    }
    let samples: Vec<f64> = (0..slices)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    crate::stats::fast_decile(&samples)
}

/// A scratch directory inside the benchmark's own tree (the driver
/// forbids writing outside the checkout), removed on drop. Every file
/// the benchmark writes at run time lives under one of these.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".tmp")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet created, uniquely named path under the scratch
    /// root, removed again when the guard is dropped.
    pub fn fresh(&self, tag: &str) -> TempDir {
        let n = self.next.get();
        self.next.set(n + 1);
        TempDir(self.root.join(format!("{tag}-{n}")))
    }
}

/// A directory under the scratch root that is removed when the guard
/// is dropped — so that the scratch root stays small however many
/// journal directories a run goes through.
#[derive(Debug)]
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
