//! Unique scratch paths under the system temp directory.
//!
//! Tests, benches and tools that need a file or directory on disk take a
//! [`TempPath`]: its name combines the process id with a process-wide
//! counter, so no two holders — concurrent tests in one process or
//! parallel test binaries — ever share a path, and whatever was created
//! there is removed when the handle drops.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A path under [`std::env::temp_dir`] owned by this handle alone.
///
/// Nothing is created up front: write a file there or create a directory
/// there. On drop the file, or the directory tree, is removed.
#[derive(Debug)]
pub struct TempPath(PathBuf);

impl TempPath {
    /// A fresh path whose file name ends in `label` (which may carry an
    /// extension, e.g. `"corrupt.gksnap"`). A leftover from an earlier
    /// process with the same id is cleared first.
    pub fn new(label: &str) -> TempPath {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("gkp_{}_{n}_{label}", std::process::id()));
        let temp = TempPath(path);
        temp.remove();
        temp
    }

    /// The path.
    pub fn path(&self) -> &Path {
        &self.0
    }

    fn remove(&self) {
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        self.remove();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_unique_and_removed_on_drop() {
        let (a, b) = (TempPath::new("x.bin"), TempPath::new("x.bin"));
        assert_ne!(a.path(), b.path());
        assert!(a.file_name().unwrap().to_str().unwrap().ends_with("x.bin"));
        std::fs::write(&a, b"payload").unwrap();
        std::fs::create_dir_all(b.join("nested")).unwrap();
        let (pa, pb) = (a.to_path_buf(), b.to_path_buf());
        drop((a, b));
        assert!(!pa.exists() && !pb.exists());
    }
}
