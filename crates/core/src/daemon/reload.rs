//! Set-point hot-reload triggers: SIGHUP and a config-file
//! fingerprint watcher.

use std::path::{Path, PathBuf};

#[cfg(unix)]
mod sighup {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FLAG: AtomicBool = AtomicBool::new(false);

    extern "C" fn handler(_sig: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub const SIGHUP: i32 = 1;

    pub fn install() {
        // Only an async-signal-safe atomic store happens in the handler.
        unsafe {
            signal(SIGHUP, handler as extern "C" fn(i32) as usize);
        }
    }

    pub fn take() -> bool {
        FLAG.swap(false, Ordering::SeqCst)
    }
}

/// SIGHUP-driven reload trigger (the conventional daemon reload
/// signal). A no-op stub on non-Unix targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReloadSignal;

impl ReloadSignal {
    /// Installs the SIGHUP handler. Idempotent.
    pub fn install() -> Self {
        #[cfg(unix)]
        sighup::install();
        ReloadSignal
    }

    /// Consumes a pending reload request, if one arrived since the
    /// last call.
    pub fn take(&self) -> bool {
        #[cfg(unix)]
        {
            sighup::take()
        }
        #[cfg(not(unix))]
        {
            false
        }
    }
}

/// Polls a config file's mtime + length + inode fingerprint;
/// `changed()` is true once per observed modification. The inode
/// component catches the atomic rename-over-write deployment idiom
/// (`write tmp; rename tmp config`), which can preserve both length
/// and — on filesystems with coarse timestamps — mtime. The timer
/// loop calls it each period; no inotify dependency needed at a 4 s
/// cadence.
#[derive(Debug)]
pub struct ConfigWatcher {
    path: PathBuf,
    fingerprint: Option<(std::time::SystemTime, u64, u64)>,
}

impl ConfigWatcher {
    /// Starts watching `path`, taking the current state as baseline.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let fingerprint = Self::stat(&path);
        ConfigWatcher { path, fingerprint }
    }

    /// The watched path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn stat(path: &Path) -> Option<(std::time::SystemTime, u64, u64)> {
        let meta = std::fs::metadata(path).ok()?;
        #[cfg(unix)]
        let ino = {
            use std::os::unix::fs::MetadataExt as _;
            meta.ino()
        };
        #[cfg(not(unix))]
        let ino = 0u64;
        Some((meta.modified().ok()?, meta.len(), ino))
    }

    /// True when the file changed since the last call (or appeared).
    pub fn changed(&mut self) -> bool {
        let now = Self::stat(&self.path);
        let changed = now.is_some() && now != self.fingerprint;
        self.fingerprint = now;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    #[test]
    fn sighup_sets_and_clears_the_reload_flag() {
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        let sig = ReloadSignal::install();
        assert!(!sig.take());
        unsafe {
            raise(sighup::SIGHUP);
        }
        assert!(sig.take(), "SIGHUP must latch the reload flag");
        assert!(!sig.take(), "take() consumes the latch");
    }

    #[test]
    fn config_watcher_detects_rewrites() {
        let path = std::env::temp_dir().join(format!(
            "capgpud-watch-{}-{:?}.toml",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, "[daemon]\nsetpoint_watts = 900\n").unwrap();
        let mut w = ConfigWatcher::new(&path);
        assert!(!w.changed(), "baseline is not a change");
        // A rewrite with different length trips the fingerprint even
        // when the mtime granularity is coarse.
        std::fs::write(&path, "[daemon]\nsetpoint_watts = 812.5\n").unwrap();
        assert!(w.changed());
        assert!(!w.changed(), "change reported once");
        std::fs::remove_file(&path).unwrap();
        assert!(!w.changed(), "disappearance is not a change");
        std::fs::write(&path, "[daemon]\nsetpoint_watts = 700\n").unwrap();
        assert!(w.changed(), "reappearance is a change");
        let _ = std::fs::remove_file(&path);
    }
}
