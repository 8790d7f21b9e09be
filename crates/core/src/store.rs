//! [`DocumentStore`] — a directory of named, mmap-backed document
//! snapshots with generational reload.
//!
//! The store manages a directory in which each logical document name
//! `d` corresponds to one snapshot file `d.gksnap` in the format of
//! `xpath_xml::snap`. Opening a name yields an `Arc<Document>` whose
//! arenas are views into the mapped file — no parse, no copy — and the
//! store caches that handle so repeated opens are a metadata `stat`
//! plus an `Arc` clone.
//!
//! # Generational reload
//!
//! Snapshots are published atomically: [`DocumentStore::publish`]
//! serializes into a temp file in the same directory and
//! `rename(2)`s it over the target, so readers only ever observe a
//! complete snapshot. Each cached entry remembers the *generation* of
//! the file it mapped — `(len, mtime, ino)` — and [`DocumentStore::open`]
//! re-stats the file on every call: if the generation moved (a new
//! snapshot was published over the name), the old mapping is dropped
//! from the cache and the new file is loaded. Readers still holding the
//! previous `Arc<Document>` keep a consistent view of the old
//! generation for as long as they keep the handle — the `mmap` lives
//! until the last `Arc` drops — which is exactly the crash-consistent
//! snapshot-isolation story of an append-only store, without any
//! locking between readers and the publisher.
//!
//! # Names
//!
//! Logical names are path-less identifiers (`[A-Za-z0-9._-]+`, not
//! starting with a dot): the store derives the file name, so callers
//! can't escape the store directory via `..` or absolute paths.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use xpath_xml::snap::{self, OpenOptions, SnapError, SnapshotInfo};
use xpath_xml::Document;

/// Extension of snapshot files managed by a store.
pub const SNAPSHOT_EXT: &str = "gksnap";

/// Errors from [`DocumentStore`] operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The logical name contains characters outside `[A-Za-z0-9._-]`,
    /// is empty, or starts with a dot.
    InvalidName(String),
    /// No snapshot is published under the requested name.
    NotFound(String),
    /// The snapshot file exists but failed to open or verify.
    Snapshot(SnapError),
    /// Filesystem errors outside snapshot decoding (stat, temp file,
    /// rename, directory creation).
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidName(name) => {
                write!(f, "invalid document name {name:?} (want [A-Za-z0-9._-]+, no leading dot)")
            }
            StoreError::NotFound(name) => write!(f, "no snapshot published under {name:?}"),
            StoreError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Snapshot(e) => Some(e),
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapError> for StoreError {
    fn from(e: SnapError) -> StoreError {
        match e {
            SnapError::Io(io) => StoreError::Io(io),
            other => StoreError::Snapshot(other),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Identity of one on-disk snapshot generation: `(len, mtime, ino)`.
///
/// `rename(2)` replaces the directory entry with a different inode, so
/// a publish always changes the generation even when the new snapshot
/// happens to have identical length and a colliding mtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Generation {
    len: u64,
    mtime: (i64, i64),
    ino: u64,
}

impl Generation {
    fn of(meta: &fs::Metadata) -> Generation {
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            Generation {
                len: meta.len(),
                mtime: (meta.mtime(), meta.mtime_nsec()),
                ino: meta.ino(),
            }
        }
        #[cfg(not(unix))]
        {
            let mtime = meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or((0, 0), |d| (d.as_secs() as i64, i64::from(d.subsec_nanos())));
            Generation { len: meta.len(), mtime, ino: 0 }
        }
    }
}

struct CacheEntry {
    generation: Generation,
    doc: Arc<Document>,
}

/// Counters describing how a store's cache has behaved (see
/// [`DocumentStore::stats`]).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Opens served from the cache (generation unchanged).
    pub hits: u64,
    /// Opens that loaded a name not in the cache.
    pub misses: u64,
    /// Opens that found a newer generation on disk and remapped.
    pub reloads: u64,
    /// Snapshots published (streamed to a temp file and renamed in).
    pub publishes: u64,
}

/// A directory of named document snapshots, opened as shared
/// mmap-backed [`Document`]s (see the [module docs](self)).
pub struct DocumentStore {
    dir: PathBuf,
    open_options: OpenOptions,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    cache: HashMap<String, CacheEntry>,
    stats: StoreStats,
}

impl fmt::Debug for DocumentStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DocumentStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl DocumentStore {
    /// Open a store over `dir`, creating the directory if needed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DocumentStore, StoreError> {
        DocumentStore::open_with(dir, OpenOptions::default())
    }

    /// Like [`DocumentStore::open`], with explicit snapshot open
    /// options (e.g. `verify: true` for deep verification on every
    /// load, or `mmap: false` to always read into heap memory).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        open_options: OpenOptions,
    ) -> Result<DocumentStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DocumentStore { dir, open_options, inner: Mutex::new(Inner::default()) })
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot file path a logical name maps to.
    pub fn path_of(&self, name: &str) -> Result<PathBuf, StoreError> {
        validate_name(name)?;
        Ok(self.dir.join(format!("{name}.{SNAPSHOT_EXT}")))
    }

    /// Open the current generation of `name` as a shared document.
    ///
    /// Re-stats the snapshot file on every call; if a newer generation
    /// has been [published](DocumentStore::publish) the old mapping is
    /// evicted and the new file loaded. Handles returned earlier stay
    /// valid (they pin their own generation's mapping).
    pub fn open_doc(&self, name: &str) -> Result<Arc<Document>, StoreError> {
        let path = self.path_of(name)?;
        let meta = match fs::metadata(&path) {
            Ok(m) => m,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound(name.to_owned()));
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        let generation = Generation::of(&meta);
        let mut inner = self.inner.lock().unwrap();
        match inner.cache.get(name) {
            Some(entry) if entry.generation == generation => {
                let doc = Arc::clone(&entry.doc);
                inner.stats.hits += 1;
                return Ok(doc);
            }
            _ => {}
        }
        let reload = inner.cache.contains_key(name);
        // Load outside nothing: the lock is held across the load so two
        // racing opens of the same new generation map the file once.
        let doc = Arc::new(snap::load_with(&path, &self.open_options)?);
        if reload {
            inner.stats.reloads += 1;
        } else {
            inner.stats.misses += 1;
        }
        inner.cache.insert(name.to_owned(), CacheEntry { generation, doc: Arc::clone(&doc) });
        Ok(doc)
    }

    /// Serialize `doc` as the new generation of `name`, atomically.
    ///
    /// Streams the encoding into a temp file in the store directory
    /// section-by-section (`snap::write` never buffers the whole image
    /// in memory), syncs it, and `rename`s it over `<name>.gksnap`:
    /// readers observe either the old complete snapshot or the new
    /// complete snapshot, never a partial write.
    pub fn publish(&self, name: &str, doc: &Document) -> Result<SnapshotInfo, StoreError> {
        let path = self.path_of(name)?;
        let tmp = self.dir.join(format!(".{name}.{SNAPSHOT_EXT}.tmp"));
        let info = match snap::write(doc, &tmp) {
            Ok(info) => info,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(e.into());
            }
        };
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::Io(e));
        }
        self.inner.lock().unwrap().stats.publishes += 1;
        Ok(info)
    }

    /// Remove the snapshot published under `name` (and any cached
    /// mapping). Returns `true` if a file was removed.
    pub fn remove(&self, name: &str) -> Result<bool, StoreError> {
        let path = self.path_of(name)?;
        self.inner.lock().unwrap().cache.remove(name);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Logical names currently published in the store directory,
    /// sorted.
    pub fn names(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let file_name = entry.file_name();
            let Some(file) = file_name.to_str() else { continue };
            let Some(stem) = file.strip_suffix(&format!(".{SNAPSHOT_EXT}")) else { continue };
            if validate_name(stem).is_ok() {
                names.push(stem.to_owned());
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    /// Cache behaviour counters since the store was opened.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().unwrap().stats
    }
}

fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'));
    if ok {
        Ok(())
    } else {
        Err(StoreError::InvalidName(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::{doc_bookstore, doc_figure8};
    use xpath_xml::temp::TempPath;

    fn temp_dir(tag: &str) -> TempPath {
        TempPath::new(&format!("store_{tag}"))
    }

    #[test]
    fn publish_then_open_roundtrips_and_hits_cache() {
        let dir = temp_dir("roundtrip");
        let store = DocumentStore::open(dir.path()).unwrap();
        let doc = doc_figure8();
        let info = store.publish("fig8", &doc).unwrap();
        assert_eq!(info.nodes as usize, doc.len());

        let a = store.open_doc("fig8").unwrap();
        let b = store.open_doc("fig8").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), doc.len());
        assert_eq!(a.serialize(a.root()), doc.serialize(doc.root()));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.reloads), (1, 1, 0));
    }

    #[test]
    fn republish_triggers_generational_reload() {
        let dir = temp_dir("reload");
        let store = DocumentStore::open(dir.path()).unwrap();
        store.publish("d", &doc_figure8()).unwrap();
        let old = store.open_doc("d").unwrap();
        let old_len = old.len();

        store.publish("d", &doc_bookstore()).unwrap();
        let new = store.open_doc("d").unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(new.serialize(new.root()), {
            let b = doc_bookstore();
            b.serialize(b.root())
        });
        // The handle from the old generation still reads consistently.
        assert_eq!(old.len(), old_len);
        assert_eq!(old.serialize(old.root()), {
            let f = doc_figure8();
            f.serialize(f.root())
        });
        assert_eq!(store.stats().reloads, 1);
    }

    #[test]
    fn names_listing_and_remove() {
        let dir = temp_dir("names");
        let store = DocumentStore::open(dir.path()).unwrap();
        store.publish("b", &doc_figure8()).unwrap();
        store.publish("a", &doc_figure8()).unwrap();
        assert_eq!(store.names().unwrap(), vec!["a".to_owned(), "b".to_owned()]);
        assert!(store.remove("a").unwrap());
        assert!(!store.remove("a").unwrap());
        assert_eq!(store.names().unwrap(), vec!["b".to_owned()]);
    }

    #[test]
    fn invalid_names_are_rejected() {
        let dir = temp_dir("badnames");
        let store = DocumentStore::open(dir.path()).unwrap();
        for bad in ["", "..", ".hidden", "a/b", "a\\b", "x y", "é"] {
            assert!(
                matches!(store.open_doc(bad), Err(StoreError::InvalidName(_))),
                "{bad:?} should be rejected"
            );
        }
        assert!(matches!(store.open_doc("absent"), Err(StoreError::NotFound(_))));
    }

    #[test]
    fn open_doc_is_mmap_backed_by_default() {
        let dir = temp_dir("mmap");
        let store = DocumentStore::open(dir.path()).unwrap();
        store.publish("d", &doc_figure8()).unwrap();
        let doc = store.open_doc("d").unwrap();
        // On Linux with mmap available the load is zero-copy; the
        // owned-buffer fallback still yields a correct document.
        if cfg!(target_os = "linux") {
            assert!(doc.is_mapped());
        }
    }
}
