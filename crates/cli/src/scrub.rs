//! Background integrity scrubber for the socket serving mode.
//!
//! Checksums catch corruption only when somebody recomputes them: the
//! open-time CRC-64 pass runs once, after which a serving process can map
//! the same container for weeks while the storage underneath rots. The
//! scrub loop closes that gap. Every `--scrub-interval-s` it re-verifies
//!
//! 1. the **live generation**: the whole-file CRC-64 over the bytes the
//!    query path is actually reading (the mmap'd or heap-resident
//!    container), against the checksum in its header; and
//! 2. the **reload source**: a full validating re-read of the `--index`
//!    file's *current* bytes on disk — the mmap pins the old inode, so
//!    only a fresh read can notice that the file a future reload (or a
//!    restart) would open has been corrupted.
//!
//! A pass that detects corruption bumps `hcl_scrub_failures_total` and
//! sets the degraded flag, turning `/healthz` into a 503 `degraded`
//! answer so load balancers drain the instance — while the query path
//! keeps answering from the intact mapped generation, byte-identical to
//! before. A later clean pass (the operator repaired the source) or a
//! successful reload clears the flag; transitions are logged once, not
//! per pass.
//!
//! This file is on the serving path (registered in xtask's `no-panics`
//! lint): no `unwrap`/`expect`/indexing — corruption must degrade the
//! process, never abort it.

use crate::server::ServerState;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Runs scrub passes every `interval` until shutdown. Spawned by
/// `serve_listen` when `--scrub-interval-s` is non-zero; exits within one
/// sleep tick of the shutdown flag flipping.
pub(crate) fn scrub_loop(state: &ServerState, interval: Duration) {
    while crate::sync::sleep_unless(interval, &state.shutdown) {
        scrub_once(state);
    }
}

/// One scrub pass over the live generation and the reload source.
fn scrub_once(state: &ServerState) {
    let t0 = Instant::now();
    let generation = state.pipeline.handle.current();

    // (1) The bytes being served right now.
    let mut failure = generation
        .store
        .verify_checksum()
        .err()
        .map(|e| format!("live generation {}: {e}", generation.number));

    // (2) The bytes a reload would publish. Only when serving from a
    // file; an edge-list server has no on-disk source to scrub.
    if failure.is_none() {
        if let Some(path) = &state.reload {
            failure = hcl_store::verify_file(path)
                .err()
                .map(|e| format!("reload source {path}: {e}"));
        }
    }

    match failure {
        None => {
            state.pipeline.metrics.scrub_passes.inc();
            if state.pipeline.metrics.degraded.swap(0, Ordering::Relaxed) != 0 {
                eprintln!(
                    "scrub: clean pass in {:.1?}; corruption is gone, /healthz is ok again",
                    t0.elapsed()
                );
            }
        }
        Some(what) => {
            state.pipeline.metrics.scrub_failures.inc();
            if state.pipeline.metrics.degraded.swap(1, Ordering::Relaxed) == 0 {
                eprintln!(
                    "error: scrub detected corruption ({what}); /healthz now reports degraded \
                     while queries continue on the intact mapped generation"
                );
            }
        }
    }
}
