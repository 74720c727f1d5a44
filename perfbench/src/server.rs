//! The `privtree-serve` child process: spawn, discover its port, read
//! its memory and I/O counters, and stop it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;

pub struct Server {
    child: Child,
    // both held open: EOF on the server's stdin starts its drain, and a
    // closed stdout would fail the server's later prints
    _stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

/// `PRIVTREE_POOL_WORKERS` at its shipped default, the machine's
/// parallelism, so an inherited shell variable cannot resize the pool.
pub fn pool_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Server {
    /// Start `binary --listen 127.0.0.1:0 <flags>` and wait for its
    /// `listening on ADDR` line.
    pub fn spawn(binary: &Path, flags: &[String]) -> Result<Self, String> {
        let mut command = Command::new(binary);
        // SAFETY: prctl is async-signal-safe; the server dies with the
        // benchmark even if the benchmark is killed
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
                Ok(())
            });
        }
        let mut child = command
            .args(["--listen", "127.0.0.1:0"])
            .args(flags)
            .env("PRIVTREE_POOL_WORKERS", pool_workers().to_string())
            .env("PRIVTREE_TELEMETRY", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let mut server = Self {
            child,
            _stdin: stdin,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("privtree-serve did not announce a port: {line:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn proc_field(&self, file: &str, key: &str) -> Option<u64> {
        let text = std::fs::read_to_string(format!("/proc/{}/{file}", self.pid())).ok()?;
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn vm_hwm_mb(&self) -> f64 {
        self.proc_field("status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
    }

    /// Bytes the server caused to be written to storage so far
    /// (`/proc/<pid>/io` `write_bytes`; 0 where the kernel hides it).
    pub fn write_bytes(&self) -> u64 {
        self.proc_field("io", "write_bytes:").unwrap_or(0)
    }

    /// SIGTERM, wait for the drain, SIGKILL after a deadline.
    pub fn stop(mut self) {
        self.terminate();
    }

    fn terminate(&mut self) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        // SAFETY: signalling our own child's pid
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.terminate();
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(name: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // leave no empty parent behind
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
