//! The traced run's pipelines: the same inputs pushed through the public
//! functions of `hcl-core` / `hcl-index` / `hcl-store` in the order the
//! CLI calls them, with a span around each call.
//!
//! This file mirrors `crates/cli/src/main.rs::cmd_build` and
//! `crates/cli/src/update.rs::{from_store, apply, persist, fold_store}`
//! (plus the `swap` in `server.rs::handle_http_update`) call for call.
//! When those change, change this file with them: the `*.unattributed_*`
//! metrics are only as good as the mirror.

use crate::trace::Tracer;
use hcl_core::{DeltaGraph, EdgeDelta, Graph, VertexId};
use hcl_index::repair::{DynamicIndex, RepairOutcome};
use hcl_index::{BuildContext, BuildOptions, BuildStats, HighwayCoverIndex};
use hcl_store::durable::{publish_with, SystemIo};
use hcl_store::{BuildInfo, GenerationHandle, IndexStore, StoredBuildStats, StoredJournal};
use std::path::{Path, PathBuf};

/// Span names: one per layer boundary (`crate.module` plus the call).
pub mod span {
    pub const BUILD: &str = "build";
    pub const FROM_EDGES: &str = "core.graph.from_edges";
    pub const INDEX_BUILD: &str = "index.build";
    pub const SERIALIZE: &str = "store.format.serialize";
    pub const PUBLISH: &str = "store.durable.publish";
    pub const OPEN_VALIDATED: &str = "store.open.validated";
    pub const ENGINE: &str = "engine";
    pub const FROM_VIEW: &str = "index.repair.from_view";
    pub const TO_INDEX: &str = "index.repair.to_index";
    pub const TO_OWNED: &str = "engine.to_owned";
    pub const UPDATE: &str = "update";
    pub const REPAIR_INSERT: &str = "index.repair.insert";
    pub const REPAIR_DELETE: &str = "index.repair.delete";
    pub const TO_GRAPH: &str = "core.delta.to_graph";
    pub const FROM_BYTES_TRUSTED: &str = "store.open.from_bytes_trusted";
    pub const SWAP: &str = "store.generation.swap";

    /// The layers one `POST /update` passes through, in call order.
    pub const UPDATE_PATH: [&str; 7] = [
        REPAIR_INSERT,
        TO_GRAPH,
        SERIALIZE,
        PUBLISH,
        TO_INDEX,
        FROM_BYTES_TRUSTED,
        SWAP,
    ];

    /// The layers `hcl build` passes through after parsing its input.
    pub const BUILD_PATH: [&str; 4] = [FROM_EDGES, INDEX_BUILD, SERIALIZE, PUBLISH];
}

pub fn build_options(landmarks: usize, threads: usize) -> BuildOptions {
    BuildOptions {
        num_landmarks: landmarks,
        threads,
        batch_size: 0,
        selection: None,
    }
}

/// What `hcl build` leaves behind, plus what it learnt on the way.
pub struct Built {
    pub stats: BuildStats,
    pub container_bytes: u64,
    pub store: IndexStore,
}

/// `cmd_build` after argument and edge-list parsing: `from_edges` →
/// `build_with_stats` → `serialize_with_stats` → `publish_with` →
/// (the next process's) validated `open`.
pub fn build(
    t: &mut Tracer,
    op: u64,
    edges: &[(VertexId, VertexId)],
    landmarks: usize,
    out: &Path,
) -> Result<Built, String> {
    let root = t.begin(span::BUILD, op);
    let graph = t.leaf(span::FROM_EDGES, op, || Graph::from_edges(edges));
    let options = build_options(landmarks, 1);
    let (index, stats) = t.leaf(span::INDEX_BUILD, op, || {
        HighwayCoverIndex::build_with_stats(&graph, &options, None)
    });
    let info = BuildInfo {
        threads: options.threads as u32,
        batch_size: options.resolved_batch_size() as u32,
        strategy: options.resolved_selection(),
    };
    let stored = StoredBuildStats::from_build(&stats);
    let bytes = t
        .leaf(span::SERIALIZE, op, || {
            hcl_store::serialize_with_stats(&graph, &index, info, &stored)
        })
        .map_err(|e| format!("serialising: {e}"))?;
    t.leaf(span::PUBLISH, op, || publish_with(out, &bytes, &SystemIo))
        .map_err(|e| format!("publishing {}: {e}", out.display()))?;
    t.end(root);
    let store = t
        .leaf(span::OPEN_VALIDATED, op, || IndexStore::open(out))
        .map_err(|e| format!("opening {}: {e}", out.display()))?;
    Ok(Built {
        stats,
        container_bytes: bytes.len() as u64,
        store,
    })
}

/// The live-update engine as the socket server holds it: base snapshot +
/// journal for persisting, live graph + repairable labels for serving.
pub struct Engine {
    base_graph: Graph,
    base_index: HighwayCoverIndex,
    build: BuildInfo,
    journal: Vec<EdgeDelta>,
    compactions: u64,
    live_graph: Graph,
    dynamic: DynamicIndex,
    cx: BuildContext,
    path: PathBuf,
    handle: GenerationHandle,
}

impl Engine {
    /// `UpdateEngine::from_store`, which the server runs lazily inside
    /// its first `POST /update`.
    pub fn from_store(t: &mut Tracer, op: u64, store: IndexStore, path: &Path) -> Self {
        let handle = GenerationHandle::new(store);
        let generation = handle.current();
        let store = &generation.store;
        let root = t.begin(span::ENGINE, op);
        let (journal, compactions) = match store.journal() {
            Some(j) => (j.deltas.clone(), j.compactions),
            None => (Vec::new(), 0),
        };
        let dynamic = t.leaf(span::FROM_VIEW, op, || {
            DynamicIndex::from_view(store.index())
        });
        // The engine flattens once up front (its `live_index` cache).
        let _live_index = t.leaf(span::TO_INDEX, op, || dynamic.to_index());
        let (base_graph, base_index, live_graph) = t.leaf(span::TO_OWNED, op, || {
            (
                store.base_graph().to_owned_graph(),
                store.base_index().to_owned_index(),
                store.graph().to_owned_graph(),
            )
        });
        let build = store.meta().build;
        t.end(root);
        Engine {
            base_graph,
            base_index,
            build,
            journal,
            compactions,
            live_graph,
            dynamic,
            cx: BuildContext::new(),
            path: path.to_path_buf(),
            handle,
        }
    }

    /// `UpdateEngine::apply`: repair the labels on an overlay of the live
    /// graph, then rematerialise the graph.
    fn apply(
        &mut self,
        t: &mut Tracer,
        op: u64,
        delta: EdgeDelta,
        repair_span: &'static str,
    ) -> Result<RepairOutcome, String> {
        let mut overlay = DeltaGraph::new(self.live_graph.as_view());
        let outcome = t
            .leaf(repair_span, op, || {
                self.dynamic
                    .apply_and_repair(&mut overlay, delta, &mut self.cx)
            })
            .map_err(|e| format!("applying {delta}: {e}"))?;
        if outcome.applied {
            self.live_graph = t.leaf(span::TO_GRAPH, op, || overlay.to_graph());
            self.journal.push(delta);
        }
        Ok(outcome)
    }

    /// One single-edge `POST /update`, after parsing: `apply` → `persist`
    /// (base + journal, whole file) → `fold_store` (flatten, serialise the
    /// live state, reopen trusted) → generation `swap`.
    pub fn update(
        &mut self,
        t: &mut Tracer,
        op: u64,
        delta: EdgeDelta,
    ) -> Result<RepairOutcome, String> {
        let root = t.begin(span::UPDATE, op);
        let outcome = self.apply(t, op, delta, span::REPAIR_INSERT)?;

        let journal = StoredJournal {
            deltas: self.journal.clone(),
            compactions: self.compactions,
        };
        let bytes = t
            .leaf(span::SERIALIZE, op, || {
                hcl_store::serialize_with_journal(
                    &self.base_graph,
                    &self.base_index,
                    self.build,
                    &journal,
                )
            })
            .map_err(|e| format!("serialising base + journal: {e}"))?;
        t.leaf(span::PUBLISH, op, || {
            publish_with(&self.path, &bytes, &SystemIo)
        })
        .map_err(|e| format!("publishing {}: {e}", self.path.display()))?;

        let live_index = t.leaf(span::TO_INDEX, op, || self.dynamic.to_index());
        let folded = StoredJournal {
            deltas: Vec::new(),
            compactions: self.compactions,
        };
        let image = t
            .leaf(span::SERIALIZE, op, || {
                hcl_store::serialize_with_journal(
                    &self.live_graph,
                    &live_index,
                    self.build,
                    &folded,
                )
            })
            .map_err(|e| format!("serialising the live state: {e}"))?;
        let store = t
            .leaf(span::FROM_BYTES_TRUSTED, op, || {
                IndexStore::from_bytes_trusted(&image)
            })
            .map_err(|e| format!("reopening the live image: {e}"))?;
        t.leaf(span::SWAP, op, || self.handle.swap(store));
        t.end(root);
        Ok(outcome)
    }

    /// A delete through the repair layer only (`apply`, no persist): one
    /// delete costs about a rebuild, so it gets a layer metric and no
    /// end-to-end one.
    pub fn delete(
        &mut self,
        t: &mut Tracer,
        op: u64,
        u: VertexId,
        v: VertexId,
    ) -> Result<RepairOutcome, String> {
        self.apply(t, op, EdgeDelta::delete(u, v), span::REPAIR_DELETE)
    }

    pub fn live_graph(&self) -> &Graph {
        &self.live_graph
    }

    pub fn label_entries(&self) -> usize {
        self.dynamic.num_label_entries()
    }

    pub fn pending(&self) -> usize {
        self.journal.len()
    }
}
