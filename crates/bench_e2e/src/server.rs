//! Starting, probing and stopping the server under test, plus the
//! unique scratch directories each one runs in.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use xpath_core::serve::{Json, ServeConfig, Server};

use crate::client::Conn;

/// Evaluation permits the server runs with.
pub const PERMITS: usize = 2;

/// A directory unique to this process and call (pid + counter), created
/// empty and removed with everything in it on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `parent/<tag>-<pid>-<n>`.
    ///
    /// # Errors
    /// Filesystem errors creating it.
    pub fn new(parent: &Path, tag: &str) -> io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Which server to run.
#[derive(Clone, Debug)]
pub enum Launch {
    /// A child `xpq serve` process built from this repository.
    Xpq(PathBuf),
    /// The same `Server` on a thread of this process. Only the
    /// benchmark's own tests use it: they cannot build `xpq`, and its
    /// `peak_rss_mb` is the whole test process.
    InProcess,
}

enum Backend {
    Child(Child),
    Thread(Arc<Server>, Option<JoinHandle<io::Result<()>>>),
}

/// A running server with its own store directory and socket.
pub struct Served {
    backend: Backend,
    sock: PathBuf,
    store: PathBuf,
    _dir: TempDir,
}

impl Served {
    /// Start a server over an empty store in `dir`. Returns at once; the
    /// socket accepts connections shortly after.
    ///
    /// # Errors
    /// Failure to spawn the child or open the store.
    pub fn start(launch: &Launch, dir: TempDir) -> io::Result<Served> {
        let store = dir.path().join("store");
        let sock = dir.path().join("s.sock");
        let backend = match launch {
            Launch::Xpq(xpq) => Backend::Child(
                Command::new(xpq)
                    .arg("serve")
                    .arg("--store")
                    .arg(&store)
                    .arg("--unix")
                    .arg(&sock)
                    .arg("--permits")
                    .arg(PERMITS.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()?,
            ),
            Launch::InProcess => {
                let mut config = ServeConfig::new(&store);
                config.permits = PERMITS;
                let server = Arc::new(Server::new(config).map_err(io::Error::other)?);
                let accept = {
                    let (server, sock) = (Arc::clone(&server), sock.clone());
                    thread::spawn(move || server.serve_unix(&sock))
                };
                Backend::Thread(server, Some(accept))
            }
        };
        Ok(Served { backend, sock, store, _dir: dir })
    }

    /// The store directory the server serves.
    pub fn store_dir(&self) -> &Path {
        &self.store
    }

    /// Open a client connection, waiting up to 10 s for the socket.
    ///
    /// # Errors
    /// The server never accepted.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.sock, Duration::from_secs(10))
    }

    /// Fetch `op:"stats"` on a fresh connection.
    ///
    /// # Errors
    /// Transport errors or a malformed reply.
    pub fn stats(&self) -> io::Result<Json> {
        let mut conn = self.connect()?;
        let reply = conn.roundtrip("{\"op\":\"stats\"}\n")?;
        let json = Json::parse(reply.trim_end()).map_err(io::Error::other)?;
        json.get("stats").cloned().ok_or_else(|| io::Error::other("stats reply without stats"))
    }

    /// Peak resident set of the server (`VmHWM`), in MiB. For an
    /// in-process server this is the whole benchmark process.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let path = match &self.backend {
            Backend::Child(child) => format!("/proc/{}/status", child.id()),
            Backend::Thread(..) => "/proc/self/status".to_owned(),
        };
        let status = std::fs::read_to_string(path).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }

    /// CPU time each live thread of the server has run, in nanoseconds,
    /// by thread id: the first field of `/proc/<pid>/task/<tid>/schedstat`.
    /// The kernel counts it without steal time, so it does not move when
    /// the host takes the virtual CPU away. For an in-process server it
    /// covers every thread of the benchmark process.
    pub fn thread_cpu_ns(&self) -> Option<BTreeMap<String, u64>> {
        let tasks = match &self.backend {
            Backend::Child(child) => format!("/proc/{}/task", child.id()),
            Backend::Thread(..) => "/proc/self/task".to_owned(),
        };
        let mut threads = BTreeMap::new();
        for task in std::fs::read_dir(tasks).ok()? {
            let task = task.ok()?;
            let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue; // the thread ended after the listing
            };
            let ns = stat.split_whitespace().next()?.parse().ok()?;
            threads.insert(task.file_name().to_string_lossy().into_owned(), ns);
        }
        Some(threads)
    }

    /// Ask the server to drain and wait for it to end (killing a child
    /// that has not exited after 10 s).
    ///
    /// # Errors
    /// Failure to wait for or kill the child.
    pub fn stop(mut self) -> io::Result<()> {
        self.halt()
    }

    fn halt(&mut self) -> io::Result<()> {
        match &mut self.backend {
            Backend::Child(child) => {
                if child.try_wait()?.is_some() {
                    return Ok(());
                }
                if let Ok(mut conn) = Conn::connect(&self.sock, Duration::ZERO) {
                    let _ = conn.roundtrip("{\"op\":\"shutdown\"}\n");
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                while child.try_wait()?.is_none() {
                    if Instant::now() >= deadline {
                        child.kill()?;
                        child.wait()?;
                        break;
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Ok(())
            }
            Backend::Thread(server, accept) => {
                server.begin_shutdown();
                if let Some(accept) = accept.take() {
                    accept.join().map_err(|_| io::Error::other("accept loop panicked"))??;
                }
                Ok(())
            }
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}
