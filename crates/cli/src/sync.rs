//! Poison-recovering lock helpers for the serving path.
//!
//! A poisoned `Mutex` means some thread panicked while holding it. For
//! the serving structures in this crate (slow-log sink state, the
//! admission and job queues, the reload lock)
//! the protected data stays structurally valid across a panic — every
//! critical section either completes its writes or leaves independently
//! meaningful fields — so propagating the poison would only convert one
//! thread's failure into a whole-process outage. These helpers recover
//! the guard instead, count the event (exported as
//! `hcl_lock_poisoned_total` on `/metrics`), and log it once per
//! occurrence so the original panic stays visible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Times a lock was recovered from poisoning anywhere in the process.
/// Global rather than per-`ServerMetrics`: the helpers run in code (the
/// slow log, the pool's job queue) that has no metrics registry in reach.
pub(crate) static LOCK_POISONED: AtomicU64 = AtomicU64::new(0);

fn note_poisoned(what: &str) {
    LOCK_POISONED.fetch_add(1, Ordering::Relaxed);
    eprintln!("warning: {what} lock was poisoned by a panicking thread; recovering");
}

/// Locks `mutex`, recovering (and counting) a poisoned guard. `what`
/// names the lock in the degradation log line.
pub(crate) fn lock_recover<'a, T>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            note_poisoned(what);
            poisoned.into_inner()
        }
    }
}

/// Sleeps for `total`, waking every 25 ms to poll `stop`; returns `false`
/// as soon as `stop` is set (shutdown), `true` after a full sleep. Used by
/// the reload retry backoff and the scrubber interval so neither can hold
/// up a drain for longer than one tick.
pub(crate) fn sleep_unless(
    total: std::time::Duration,
    stop: &std::sync::atomic::AtomicBool,
) -> bool {
    const TICK: std::time::Duration = std::time::Duration::from_millis(25);
    let mut remaining = total;
    while !remaining.is_zero() {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let step = remaining.min(TICK);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
    !stop.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_lock_is_recovered_and_counted() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        let before = LOCK_POISONED.load(Ordering::Relaxed);
        assert_eq!(*lock_recover(&m, "test"), 7);
        assert!(LOCK_POISONED.load(Ordering::Relaxed) > before);
        // Still usable afterwards.
        *lock_recover(&m, "test") = 8;
        assert_eq!(*lock_recover(&m, "test"), 8);
    }
}
