//! Durable atomic publish with a dependency-free injectable I/O layer.
//!
//! Every save entry point in this crate funnels into
//! [`publish_slices_with`], which replaces the old write-temp-then-rename
//! with a **durable publish**: the container's bytes — ordered slices, the
//! header and table then each section straight from its array (see
//! [`ImageParts`](crate::ImageParts)) — go to a uniquely named temporary
//! sibling in the target's directory, the temp file is fsynced, renamed
//! over the target, and finally the parent directory is fsynced so the
//! rename itself survives a power cut. A crash at any point leaves the
//! target holding either the previous complete container or the new one —
//! never a torn half-write — and leftover `<target>.tmp.*` siblings from
//! crashed publishes are swept on the next save to that path.
//!
//! ```text
//! publish_slices_with(path, slices, io):
//!   sweep stale <path>.tmp.* siblings          (best effort)
//!   tmp = <path>.tmp.<pid>.<counter>           (collision-proof name)
//!   1. create-temp   File::create(tmp)
//!   2. write-temp    write_all(slice) for each slice, in order
//!   3. sync-temp     fsync(tmp)        — bytes durable before publish
//!   4. rename        rename(tmp, path) — the atomic publish point
//!   5. sync-dir      fsync(parent)     — the rename itself durable
//! ```
//!
//! [`publish_with`] is the one-slice case, for a container already in
//! memory.
//!
//! The I/O layer follows the same zero-cost discipline as `hcl-index`'s
//! `Probe`: [`StoreIo::decide`] defaults to [`IoDecision::Proceed`] with
//! an `#[inline]` body, so the production path ([`SystemIo`])
//! monomorphises to straight-line syscalls with no branches left. Tests
//! implement [`StoreIo`] to replay deterministic fault schedules — short
//! writes, failed fsyncs, simulated power cuts between any two steps —
//! and assert that a subsequent [`IndexStore::open`](crate::IndexStore::open)
//! still yields the old container, the new one, or a typed error.
//!
//! The same layer gates the journal-tail append of
//! [`JournalWriter`](crate::JournalWriter) — [`AppendStep`]: open-tail,
//! write-frame, sync-tail — through [`StoreIo::decide_append`], so one
//! fault-schedule discipline covers both ways a container changes on
//! disk: a whole-file publish, and a frame appended after the image.
//!
//! Concurrency: temp names carry the pid plus a process-global counter,
//! so any number of same-process saves to one path proceed without
//! colliding (last rename wins, each file complete). The stale-temp sweep
//! skips temps registered as in flight by this process; concurrent
//! writers in *different* processes were always a last-rename-wins race
//! and remain one.

use crate::error::StoreError;
use std::collections::HashSet;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One step of the durable-publish sequence, in execution order — the
/// failpoint catalogue a [`StoreIo`] implementation can inject at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PublishStep {
    /// Create the temporary sibling file.
    CreateTemp,
    /// Write the serialised container into the temp file.
    WriteTemp,
    /// `fsync` the temp file, making its bytes durable before publish.
    SyncTemp,
    /// Atomically rename the temp file over the target path.
    Rename,
    /// `fsync` the target's parent directory, making the rename durable.
    SyncDir,
}

impl PublishStep {
    /// Every step, in execution order — for exhaustive schedule sweeps.
    pub const ALL: [PublishStep; 5] = [
        PublishStep::CreateTemp,
        PublishStep::WriteTemp,
        PublishStep::SyncTemp,
        PublishStep::Rename,
        PublishStep::SyncDir,
    ];

    /// Stable lowercase name, used in [`StoreError::Publish`] diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            PublishStep::CreateTemp => "create-temp",
            PublishStep::WriteTemp => "write-temp",
            PublishStep::SyncTemp => "sync-temp",
            PublishStep::Rename => "rename",
            PublishStep::SyncDir => "sync-dir",
        }
    }
}

/// One step of a journal-tail append ([`JournalWriter`](
/// crate::JournalWriter)), in execution order. The open step runs on a
/// writer's first append (and again after a compaction or a failed
/// append); write and sync run on every append.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppendStep {
    /// Open the container read-write, check it is still the file this
    /// writer descends from, and truncate a torn remainder.
    OpenTail,
    /// Write the frame at the end of the valid tail.
    WriteFrame,
    /// `fdatasync` the file: the frame is durable before the ack.
    SyncTail,
}

impl AppendStep {
    /// Every step, in execution order — for exhaustive schedule sweeps.
    pub const ALL: [AppendStep; 3] = [
        AppendStep::OpenTail,
        AppendStep::WriteFrame,
        AppendStep::SyncTail,
    ];

    /// Stable lowercase name, used in [`StoreError::Append`] diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            AppendStep::OpenTail => "open-tail",
            AppendStep::WriteFrame => "write-frame",
            AppendStep::SyncTail => "sync-tail",
        }
    }
}

/// What an injected I/O layer wants to happen at one publish or append
/// step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoDecision {
    /// Perform the operation normally (the production default).
    Proceed,
    /// The operation fails with an injected `io::Error`: the publish
    /// aborts with a typed [`StoreError::Publish`], removing its temp
    /// file — the disk-full / EIO path.
    Fail,
    /// Simulated power cut immediately **before** the operation runs:
    /// the publish stops, leaving on disk exactly what the completed
    /// prefix of the sequence produced (no cleanup — the process died).
    CrashBefore,
    /// Simulated power cut **during** [`PublishStep::WriteTemp`] or
    /// [`AppendStep::WriteFrame`] after this many bytes reached the file —
    /// the torn-write case. A publish written in several slices keeps the
    /// first `n` bytes of their concatenation. At any other step it
    /// behaves like [`IoDecision::CrashBefore`].
    CrashDuring(usize),
    /// Simulated power cut immediately **after** the operation completes.
    CrashAfter,
}

/// The injectable I/O layer threaded through the durable publish and the
/// journal-tail append.
///
/// The default implementation proceeds at every step and inlines to
/// nothing; [`SystemIo`] is that default. Fault simulators override
/// [`decide`](StoreIo::decide) to return a scheduled [`IoDecision`] per
/// step.
pub trait StoreIo {
    /// Called once per [`PublishStep`] before it executes.
    #[inline]
    fn decide(&self, _step: PublishStep) -> IoDecision {
        IoDecision::Proceed
    }

    /// Called once per [`AppendStep`] before it executes.
    #[inline]
    fn decide_append(&self, _step: AppendStep) -> IoDecision {
        IoDecision::Proceed
    }
}

/// The zero-cost production I/O layer: every operation proceeds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SystemIo;

impl StoreIo for SystemIo {}

/// How a publish attempt ended when it did not fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOutcome {
    /// Every step completed: the new container is durably in place.
    Committed,
    /// A simulated power cut stopped the publish at this step; on-disk
    /// state is whatever the completed steps before it left behind.
    /// [`SystemIo`] never produces this outcome.
    Crashed(PublishStep),
}

/// Process-global counter feeding unique temp names: two concurrent
/// saves to one path (same pid) get distinct temps instead of colliding.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Temp paths this process is currently publishing through, so the
/// stale-temp sweep of a concurrent save cannot delete a live temp.
fn in_flight() -> &'static Mutex<HashSet<PathBuf>> {
    static SET: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(HashSet::new()))
}

fn with_in_flight<R>(f: impl FnOnce(&mut HashSet<PathBuf>) -> R) -> R {
    // The set stays structurally valid across a panic (single insert /
    // remove per critical section), so recovering a poisoned guard is
    // strictly better than cascading the panic into every later save.
    let mut guard = in_flight()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    f(&mut guard)
}

/// Registers a temp path for the duration of one publish attempt;
/// deregisters on drop (including the crash-simulation early returns).
struct TempGuard(PathBuf);

impl TempGuard {
    fn register(path: PathBuf) -> Self {
        with_in_flight(|set| set.insert(path.clone()));
        Self(path)
    }
}

impl Drop for TempGuard {
    fn drop(&mut self) {
        with_in_flight(|set| set.remove(&self.0));
    }
}

/// `<path>.tmp.<pid>.<counter>` — unique per publish attempt.
fn temp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    PathBuf::from(os)
}

/// Best-effort sweep of `<path>.tmp.*` siblings left by crashed
/// publishes. Temps registered in flight by this process are skipped.
fn sweep_stale_temps(path: &Path) {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return;
    };
    let dir = parent_dir(path);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let prefix = format!("{name}.tmp.");
    for entry in entries.flatten() {
        let entry_name = entry.file_name();
        let Some(entry_name) = entry_name.to_str() else {
            continue;
        };
        if !entry_name.starts_with(&prefix) {
            continue;
        }
        let stale = entry.path();
        if with_in_flight(|set| set.contains(&stale)) {
            continue;
        }
        std::fs::remove_file(&stale).ok();
    }
}

/// The directory whose entry the rename mutates (`.` for bare names).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// `fsync` on a plain file. Skipped under Miri (the interpreter has no
/// durability to enforce); the surrounding sequencing still runs, so
/// injected fsync faults behave identically there.
fn sync_file(file: &File) -> std::io::Result<()> {
    #[cfg(not(miri))]
    {
        file.sync_all()
    }
    #[cfg(miri)]
    {
        let _ = file;
        Ok(())
    }
}

/// `fsync` on the target's parent directory — what makes the rename
/// itself durable. Directory fds are a Unix notion; elsewhere (and under
/// Miri, which cannot open directories) the step is a sequenced no-op.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(all(unix, not(miri)))]
    {
        File::open(parent_dir(path))?.sync_all()
    }
    #[cfg(not(all(unix, not(miri))))]
    {
        let _ = path;
        Ok(())
    }
}

/// `fdatasync`: the file's bytes and the size that makes them reachable,
/// without the timestamp update `fsync` would also flush. Skipped under
/// Miri like [`sync_file`].
pub(crate) fn sync_data(file: &File) -> std::io::Result<()> {
    #[cfg(not(miri))]
    {
        file.sync_data()
    }
    #[cfg(miri)]
    {
        let _ = file;
        Ok(())
    }
}

/// The `io::Error` carried by injected [`IoDecision::Fail`] faults.
pub(crate) fn injected_error(step: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {step}"))
}

/// Maps one step's failure into the typed publish error, removing the
/// temp file first — the target still holds its previous contents.
fn fail(step: PublishStep, source: std::io::Error, tmp: &Path) -> StoreError {
    std::fs::remove_file(tmp).ok();
    StoreError::Publish {
        step: step.name(),
        source,
    }
}

/// Runs one publish step under the decision `io` gives it, asked once.
/// `run` receives `Some(n)` when only the first `n` bytes may reach the
/// file (a torn [`PublishStep::WriteTemp`]). `Ok(None)` is a simulated
/// power cut at this step; a failure removes the temp.
fn publish_step<Io: StoreIo, T>(
    io: &Io,
    step: PublishStep,
    tmp: &Path,
    run: impl FnOnce(Option<usize>) -> std::io::Result<T>,
) -> Result<Option<T>, StoreError> {
    let failed = |e| fail(step, e, tmp);
    match io.decide(step) {
        IoDecision::Proceed => run(None).map(Some).map_err(failed),
        IoDecision::Fail => Err(failed(injected_error(step.name()))),
        IoDecision::CrashBefore => Ok(None),
        IoDecision::CrashDuring(n) => {
            if step == PublishStep::WriteTemp {
                run(Some(n)).map_err(failed)?;
            }
            Ok(None)
        }
        IoDecision::CrashAfter => {
            run(None).map_err(failed)?;
            Ok(None)
        }
    }
}

/// Durably publishes `bytes` at `path` through the injectable I/O layer:
/// [`publish_slices_with`] with one slice.
pub fn publish_with<Io: StoreIo>(
    path: &Path,
    bytes: &[u8],
    io: &Io,
) -> Result<PublishOutcome, StoreError> {
    publish_slices_with(path, &[bytes], io)
}

/// Durably publishes the concatenation of `slices` at `path` through the
/// injectable I/O layer, writing them in order without joining them.
///
/// On [`PublishOutcome::Committed`] the new container is in place and
/// durable. On [`StoreError::Publish`] the attempt was abandoned, its
/// temp file removed, and the target path still holds whatever complete
/// container it held before. [`PublishOutcome::Crashed`] only occurs
/// under fault simulation (see [`IoDecision`]); it deliberately leaves
/// the partial on-disk state for the caller to inspect, exactly as a
/// power cut would.
pub fn publish_slices_with<Io: StoreIo>(
    path: &Path,
    slices: &[&[u8]],
    io: &Io,
) -> Result<PublishOutcome, StoreError> {
    sweep_stale_temps(path);
    let tmp = temp_path(path);
    let _guard = TempGuard::register(tmp.clone());
    let crashed = |step| Ok(PublishOutcome::Crashed(step));

    // 1. create-temp
    let Some(mut file) = publish_step(io, PublishStep::CreateTemp, &tmp, |_| File::create(&tmp))?
    else {
        return crashed(PublishStep::CreateTemp);
    };

    // 2. write-temp; a torn write leaves only a prefix before the cut.
    let write = |cut: Option<usize>| {
        let mut left = cut.unwrap_or(usize::MAX);
        for slice in slices {
            let take = slice.len().min(left);
            file.write_all(&slice[..take])?;
            left -= take;
        }
        if cut.is_some() {
            let _ = sync_file(&file);
        }
        Ok(())
    };
    let Some(()) = publish_step(io, PublishStep::WriteTemp, &tmp, write)? else {
        return crashed(PublishStep::WriteTemp);
    };

    // 3. sync-temp
    let Some(()) = publish_step(io, PublishStep::SyncTemp, &tmp, |_| sync_file(&file))? else {
        return crashed(PublishStep::SyncTemp);
    };
    drop(file);

    // 4. rename — the atomic publish point.
    let Some(()) = publish_step(io, PublishStep::Rename, &tmp, |_| {
        std::fs::rename(&tmp, path)
    })?
    else {
        return crashed(PublishStep::Rename);
    };

    // 5. sync-dir. The rename has consumed the temp, so a failure here
    // leaves the fully published target in place.
    let Some(()) = publish_step(io, PublishStep::SyncDir, &tmp, |_| sync_parent_dir(path))? else {
        return crashed(PublishStep::SyncDir);
    };

    Ok(PublishOutcome::Committed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_names_are_unique_within_a_process() {
        let base = Path::new("/some/dir/index.hcl");
        let a = temp_path(base);
        let b = temp_path(base);
        assert_ne!(a, b, "two publishes to one path must not share a temp");
        let pid = std::process::id().to_string();
        for p in [&a, &b] {
            let name = p.file_name().unwrap().to_str().unwrap();
            assert!(name.starts_with("index.hcl.tmp."), "{name}");
            assert!(name.contains(&pid), "{name} should embed the pid");
        }
    }

    #[test]
    fn parent_dir_of_bare_name_is_cwd() {
        assert_eq!(parent_dir(Path::new("index.hcl")), Path::new("."));
        assert_eq!(parent_dir(Path::new("/a/b.hcl")), Path::new("/a"));
    }

    #[test]
    fn in_flight_registration_protects_a_temp_from_the_sweep() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("hcl_durable_guard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("g.hcl");
        let live = PathBuf::from(format!(
            "{}.tmp.{}.999999",
            target.display(),
            std::process::id()
        ));
        let stale = PathBuf::from(format!("{}.tmp.1.0", target.display()));
        std::fs::write(&live, b"live").unwrap();
        std::fs::write(&stale, b"stale").unwrap();
        {
            let _guard = TempGuard::register(live.clone());
            sweep_stale_temps(&target);
            assert!(live.exists(), "in-flight temp must survive the sweep");
            assert!(!stale.exists(), "stale temp must be swept");
        }
        sweep_stale_temps(&target);
        assert!(
            !live.exists(),
            "after the publish ends its temp is fair game"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
