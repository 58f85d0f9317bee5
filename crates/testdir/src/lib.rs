//! # testdir — the one scratch directory a test takes
//!
//! `TestDir::new(tag)` creates an empty `temp_dir()/<tag>-<pid>-<n>`,
//! `n` a process-wide counter, so no two tests share a directory, and
//! removes it when dropped, also while a failing test unwinds. It
//! derefs to `Path`. Only ever a `[dev-dependencies]` entry.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory that lives as long as its owner.
#[derive(Debug)]
pub struct TestDir(PathBuf);

impl TestDir {
    /// A fresh, empty directory whose name starts with `tag`.
    ///
    /// # Panics
    /// If the directory cannot be created: a test cannot run without it.
    #[allow(clippy::panic)]
    pub fn new(tag: &str) -> TestDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        // A directory left by an earlier process of the same pid.
        std::fs::remove_dir_all(&path).ok();
        if let Err(e) = std::fs::create_dir_all(&path) {
            panic!("create test directory {}: {e}", path.display());
        }
        TestDir(path)
    }
}

impl std::ops::Deref for TestDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::TestDir;

    #[test]
    fn two_dirs_of_one_tag_differ_and_each_starts_empty() {
        let (a, b) = (TestDir::new("testdir-pair"), TestDir::new("testdir-pair"));
        assert_ne!(a.to_path_buf(), b.to_path_buf());
        assert_eq!(std::fs::read_dir(&*a).unwrap().count(), 0);
    }

    #[test]
    fn the_dir_is_gone_after_a_panic() {
        let mut path = None;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = TestDir::new("testdir-unwind");
            std::fs::write(dir.join("f"), b"x").unwrap();
            path = Some(dir.to_path_buf());
            panic!("a failing test");
        }));
        assert!(caught.is_err());
        assert!(!path.unwrap().exists());
    }
}
