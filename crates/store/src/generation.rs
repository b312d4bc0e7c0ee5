//! Atomically swappable index generations for zero-downtime reload.
//!
//! A long-running serving process wants to pick up a freshly built `.hcl`
//! container **without dropping a single in-flight query**: the old mmap
//! must stay valid until the last query borrowed from it finishes, and new
//! queries must start on the new file immediately. [`GenerationHandle`]
//! packages that pattern: it owns the current [`IndexStore`] behind an
//! `Arc`, hands out `(Arc<IndexStore>, generation)` snapshots to request
//! handlers (one cheap clone per request), and [`swap`](
//! GenerationHandle::swap)s in a replacement atomically. Because
//! [`save_with`](crate::save_with) renames complete files into place and
//! an mmap pins its inode, the whole reload pipeline — writer saves, server
//! re-opens, handle swaps — never exposes a torn or truncated view.
//!
//! The handle is deliberately storage-level: it knows nothing about
//! sockets or request routing, so the same type serves a CLI server, a
//! test harness hammering swaps, or an embedding application.

use crate::IndexStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The current index generation of a [`GenerationHandle`] snapshot:
/// which store to query and which reload produced it.
#[derive(Clone)]
pub struct Generation {
    /// The store backing this generation; queries borrow views from it,
    /// and the `Arc` keeps the mapping alive for as long as any in-flight
    /// query still holds the snapshot.
    pub store: Arc<IndexStore>,
    /// 1-based reload counter: the store the handle was created with is
    /// generation 1, the first successful swap makes 2, and so on.
    pub number: u64,
}

/// An atomically swappable handle to the "current" [`IndexStore`].
///
/// Readers call [`current`](GenerationHandle::current) once per request
/// and run the whole request against that snapshot; a concurrent
/// [`swap`](GenerationHandle::swap) never invalidates it — the old store
/// is dropped (and its mmap unmapped) only when the last snapshot goes
/// away. The read path is one `RwLock` read acquisition plus one `Arc`
/// clone, which is noise against µs-scale distance queries.
pub struct GenerationHandle {
    current: RwLock<Generation>,
    /// Lock-free mirror of the current generation number, for metrics
    /// endpoints that want the number without touching the lock.
    number: AtomicU64,
}

impl GenerationHandle {
    /// Wraps `store` as generation 1.
    pub fn new(store: IndexStore) -> Self {
        Self {
            current: RwLock::new(Generation {
                store: Arc::new(store),
                number: 1,
            }),
            number: AtomicU64::new(1),
        }
    }

    /// A consistent snapshot of the current store and its generation
    /// number; hold it for the duration of one request.
    pub fn current(&self) -> Generation {
        // A poisoned lock means a panic during `swap`; the guarded pair
        // is still a coherent, previously-published generation (the store
        // Arc and number are written together under the same guard), so
        // serving continues on it rather than cascading the panic.
        self.current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Atomically replaces the current store with `store`, returning the
    /// new generation number. In-flight snapshots keep the old store
    /// alive; requests that take a snapshot after `swap` returns see the
    /// new one.
    pub fn swap(&self, store: IndexStore) -> u64 {
        let (old, number) = self.replace(store);
        // Possibly the last reference: unmapping or freeing a whole index
        // image must not happen while readers queue on the lock.
        drop(old);
        number
    }

    /// The swap's critical section: installs `store` and hands the
    /// previous generation's store back, still alive, with the lock
    /// already released.
    fn replace(&self, store: IndexStore) -> (Arc<IndexStore>, u64) {
        let next = Arc::new(store);
        // See `current` for why recovering from poison is sound here.
        let mut cur = self
            .current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let old = std::mem::replace(&mut cur.store, next);
        cur.number += 1;
        self.number.store(cur.number, Ordering::Release);
        (old, cur.number)
    }

    /// The current generation number without taking the lock (may be one
    /// swap stale relative to a racing [`swap`](GenerationHandle::swap) —
    /// fine for metrics, not for correctness decisions).
    pub fn number(&self) -> u64 {
        self.number.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for GenerationHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerationHandle")
            .field("generation", &self.number())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit;
    use hcl_index::{HighwayCoverIndex, IndexConfig, QueryContext};

    fn store_for(seed: u64, landmarks: usize) -> IndexStore {
        let graph = testkit::barabasi_albert(200, 3, seed);
        let index = HighwayCoverIndex::build(
            &graph,
            IndexConfig {
                num_landmarks: landmarks,
            },
        );
        let bytes = crate::serialize(&graph, &index).expect("serialize");
        IndexStore::from_bytes(&bytes).expect("open")
    }

    #[test]
    fn swap_bumps_generation_and_serves_new_store() {
        let handle = GenerationHandle::new(store_for(1, 4));
        let g1 = handle.current();
        assert_eq!(g1.number, 1);
        assert_eq!(handle.number(), 1);

        assert_eq!(handle.swap(store_for(1, 8)), 2);
        let g2 = handle.current();
        assert_eq!(g2.number, 2);
        assert_eq!(handle.number(), 2);
        assert_eq!(g2.store.meta().num_landmarks, 8);

        // The old snapshot is still fully usable: same graph, same exact
        // answers, even though the handle has moved on.
        let mut ctx = QueryContext::new();
        let d_old = g1
            .store
            .index()
            .query_with(g1.store.graph(), &mut ctx, 0, 7);
        let d_new = g2
            .store
            .index()
            .query_with(g2.store.graph(), &mut ctx, 0, 7);
        assert_eq!(d_old, d_new);
    }

    #[test]
    fn readers_are_not_held_for_the_old_stores_drop() {
        let handle = std::sync::Arc::new(GenerationHandle::new(store_for(3, 4)));
        let (old, number) = handle.replace(store_for(3, 8));
        assert_eq!(number, 2);
        // The previous store's last reference left the critical section
        // alive: its drop — the unmap of a whole image — is still ahead...
        assert_eq!(Arc::strong_count(&old), 1);
        assert_eq!(old.meta().num_landmarks, 4);
        // ...and a reader gets through before it happens (with the drop
        // inside the lock this join would never return).
        let reader = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.current().number)
        };
        assert_eq!(reader.join().expect("reader panicked"), 2);
        drop(old);
    }

    #[test]
    fn concurrent_readers_always_see_a_complete_generation() {
        let handle = std::sync::Arc::new(GenerationHandle::new(store_for(2, 4)));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = handle.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut ctx = QueryContext::new();
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let gen = handle.current();
                        // Generations only move forward under a reader.
                        assert!(gen.number >= last, "generation went backwards");
                        last = gen.number;
                        let d = gen
                            .store
                            .index()
                            .query_with(gen.store.graph(), &mut ctx, 3, 11);
                        // Both test stores index the same graph, so the
                        // exact answer is generation-independent.
                        assert!(d.is_some(), "connected BA graph pair lost");
                    }
                    last
                })
            })
            .collect();

        let mut swapped = 1;
        for i in 0..20 {
            swapped = handle.swap(if i % 2 == 0 {
                store_for(2, 8)
            } else {
                store_for(2, 4)
            });
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let seen = r.join().expect("reader panicked");
            assert!(seen <= swapped);
        }
        assert_eq!(handle.number(), swapped);
        assert_eq!(swapped, 21);
    }

    /// Readers querying while generations swap under them get exact
    /// answers from a patched generation — base arrays shared with the
    /// writer under frozen overlays — as from a flat one. Both come from
    /// the update engine over the same deltas: one engine keeps its
    /// overlay under the fold bound, the other compacted to flat arrays.
    #[test]
    fn concurrent_readers_on_a_patched_generation_see_exact_answers() {
        use crate::UpdateEngine;
        use hcl_core::{bfs, DeltaGraph, EdgeDelta, INFINITY};

        const N: u32 = 400;
        let graph = testkit::barabasi_albert(N as usize, 3, 4);
        let index = HighwayCoverIndex::build(&graph, IndexConfig { num_landmarks: 8 });
        let bytes = crate::serialize(&graph, &index).expect("serialize");
        let store = IndexStore::from_bytes(&bytes).expect("open");
        // Three inserts patch 6 adjacency rows and 4 labels: under the
        // fold bound of n / 64 = 6 rows.
        let deltas: Vec<EdgeDelta> = (0..3u32)
            .map(|i| EdgeDelta::insert(i, N - 1 - 3 * i))
            .collect();
        let mut oracle = DeltaGraph::new(graph.as_view());
        let (mut patched_engine, mut flat_engine) = (
            UpdateEngine::from_store(&store, None, 0),
            UpdateEngine::from_store(&store, None, 0),
        );
        for engine in [&mut patched_engine, &mut flat_engine] {
            assert_eq!(engine.apply(&deltas).expect("inserts"), 3);
        }
        for &delta in &deltas {
            oracle.apply(delta).expect("oracle insert");
        }
        assert!(flat_engine.publish(true).expect("compaction").compacted);
        let mut patched = || {
            let store = patched_engine
                .publish(false)
                .expect("patched generation")
                .store;
            assert!(store.graph().is_patched() && store.index().is_patched());
            store
        };
        let mut flat = || {
            let store = flat_engine.publish(false).expect("flat generation").store;
            assert!(!store.graph().is_patched() && !store.index().is_patched());
            store
        };
        let pairs: Vec<(u32, u32, Option<u32>)> = (0..40u32)
            .flat_map(|u| {
                let from = bfs::distances_from(&oracle, u);
                (0..N)
                    .step_by(17)
                    .map(move |v| (u, v, Some(from[v as usize]).filter(|&d| d != INFINITY)))
            })
            .collect();

        let handle = Arc::new(GenerationHandle::new(patched()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let passes = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (handle, stop, passes) = (handle.clone(), stop.clone(), passes.clone());
                let pairs = pairs.clone();
                std::thread::spawn(move || {
                    let mut ctx = QueryContext::new();
                    while !stop.load(Ordering::Relaxed) {
                        let gen = handle.current();
                        let (graph, index) = (gen.store.graph(), gen.store.index());
                        for &(u, v, want) in &pairs {
                            assert_eq!(index.query_with(graph, &mut ctx, u, v), want);
                        }
                        passes.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let mut swaps = 0;
        // A reader that stopped early has panicked: the join reports it.
        while (swaps < 20 || passes.load(Ordering::Relaxed) < 3)
            && !readers.iter().any(|r| r.is_finished())
        {
            handle.swap(if swaps % 2 == 0 { flat() } else { patched() });
            swaps += 1;
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader panicked");
        }
    }
}
