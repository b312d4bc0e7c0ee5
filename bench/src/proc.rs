//! The program under test as a child process: building `hcl`, timing
//! one-shot subcommands, running the socket server, and reading what the
//! kernel knows about it from `/proc`.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// The repository root: this crate lives in `<root>/bench`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench crate has a parent directory")
        .to_path_buf()
}

/// Builds `hcl` in release mode from the checkout and returns the path of
/// the binary. Honours `CARGO_TARGET_DIR` the way cargo does (a relative
/// value is relative to the current directory).
pub fn build_hcl() -> Result<PathBuf, String> {
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "hcl-cli",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of hcl failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("hcl");
    if bin.is_file() {
        // Absolute, so children started in another directory still find it.
        std::fs::canonicalize(&bin).map_err(|e| format!("resolving {}: {e}", bin.display()))
    } else {
        Err(format!("built hcl not found at {}", bin.display()))
    }
}

/// Runs `hcl <args>` to completion with stdout and stderr discarded and
/// returns spawn → exit wall time. A non-zero exit is an error.
pub fn time_hcl(hcl: &Path, args: &[&std::ffi::OsStr]) -> Result<Duration, String> {
    let t0 = Instant::now();
    let status = Command::new(hcl)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawning hcl: {e}"))?;
    let wall = t0.elapsed();
    if status.success() {
        Ok(wall)
    } else {
        Err(format!("hcl {:?} exited with {status}", args))
    }
}

/// Pipes `input` through `hcl serve --index F --workers W --trusted`
/// (the stdin batch mode) and returns the spawn → exit wall time and
/// everything it wrote to stdout.
pub fn batch_serve(
    hcl: &Path,
    index: &Path,
    workers: usize,
    input: &[u8],
) -> Result<(Duration, Vec<u8>), String> {
    let t0 = Instant::now();
    let mut child = Command::new(hcl)
        .arg("serve")
        .arg("--index")
        .arg(index)
        .args(["--workers", &workers.to_string(), "--trusted"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning hcl serve: {e}"))?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let mut answers = Vec::with_capacity(input.len() * 2);
    let fed = std::thread::scope(|scope| {
        // Feed from a second thread: the pipe holds only 64 KiB, so
        // writing and reading must overlap.
        let feeder = scope.spawn(move || stdin.write_all(input));
        let read = stdout.read_to_end(&mut answers);
        let fed = feeder.join().expect("feeder thread panicked");
        read.and(fed)
    });
    let status = child
        .wait()
        .map_err(|e| format!("waiting for hcl serve: {e}"))?;
    let wall = t0.elapsed();
    fed.map_err(|e| format!("piping the batch through hcl serve: {e}"))?;
    if status.success() {
        Ok((wall, answers))
    } else {
        Err(format!("hcl serve (stdin batch) exited with {status}"))
    }
}

/// A running `hcl serve --listen` child. Its stderr goes to a file, so the
/// bytes it logs can be subtracted exactly from its `wchar`.
pub struct Server {
    child: Child,
    pub addr: String,
    stderr_path: PathBuf,
}

impl Server {
    /// Starts the server on an ephemeral loopback port with CLI defaults
    /// and returns when its `listening on <addr>` line has appeared.
    pub fn start(hcl: &Path, index: &Path, stderr_path: &Path) -> Result<Self, String> {
        let stderr = std::fs::File::create(stderr_path)
            .map_err(|e| format!("creating {}: {e}", stderr_path.display()))?;
        let t0 = Instant::now();
        let child = Command::new(hcl)
            .arg("serve")
            .arg("--index")
            .arg(index)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning hcl serve --listen: {e}"))?;
        let mut server = Server {
            child,
            addr: String::new(),
            stderr_path: stderr_path.to_path_buf(),
        };
        loop {
            let log = std::fs::read_to_string(stderr_path).unwrap_or_default();
            // Only complete lines: the server may still be writing one.
            let complete = log.rsplit_once('\n').map_or("", |(done, _)| done);
            let listening = complete
                .lines()
                .find_map(|l| l.strip_prefix("listening on "))
                .and_then(|rest| rest.split_whitespace().next());
            if let Some(addr) = listening {
                server.addr = addr.to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited before listening ({status}): {log}"));
            }
            if t0.elapsed() > Duration::from_secs(60) {
                server.kill9();
                return Err("server did not start listening within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Bytes the server has written to its stderr file so far.
    pub fn stderr_bytes(&self) -> u64 {
        std::fs::metadata(&self.stderr_path).map_or(0, |m| m.len())
    }

    /// Graceful drain: closes the server's stdin and waits for it to exit.
    pub fn drain(mut self) -> Result<ExitStatus, String> {
        drop(self.child.stdin.take());
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if t0.elapsed() > Duration::from_secs(30) => {
                    self.kill9();
                    return Err("server did not drain within 30 s".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }

    /// `kill -9` and reap: what a crash looks like to the index file.
    pub fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reaps on every path, including errors; harmless after `drain`.
        self.kill9();
    }
}

/// `wchar` from `/proc/<pid>/io`: bytes the process passed to write-like
/// system calls, whatever the destination.
pub fn wchar(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/io");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("no wchar line in {path}"))
}

/// User + system CPU time of a process in seconds, from `/proc/<pid>/stat`
/// fields 14 and 15 (clock ticks; Linux fixes `USER_HZ` at 100).
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("unparsable {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / 100.0),
        _ => Err(format!("unparsable {path}")),
    }
}

/// Facts about the host and toolchain recorded in every result.
pub struct Env {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
}

impl Env {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let first_line = |cmd: &mut Command| {
            cmd.stderr(Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_string))
                .unwrap_or_else(|| "unknown".into())
        };
        let rustc = first_line(Command::new("rustc").arg("-V"));
        // The driver's checkout is not a git repository; "unknown" there.
        let git_commit = first_line(
            Command::new("git")
                .arg("-C")
                .arg(repo_root())
                .args(["rev-parse", "HEAD"]),
        );
        Env {
            nproc,
            cpu_model,
            rustc,
            git_commit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_this_process() {
        let pid = std::process::id();
        let before = wchar(pid).unwrap();
        let dir = repo_root().join("bench").join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let scratch = dir.join(format!("proc-test-{pid}"));
        std::fs::write(&scratch, [0u8; 4096]).unwrap();
        std::fs::remove_file(&scratch).unwrap();
        assert!(wchar(pid).unwrap() >= before + 4096);
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(Env::detect().nproc >= 1);
    }
}
