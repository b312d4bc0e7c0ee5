//! On-disk persistence for highway-cover indexes: a versioned, checksummed
//! binary container (`.hcl`) served back **zero-copy** through a memory
//! map.
//!
//! The motivating workflow is build-once / serve-many: one process runs the
//! expensive labelling and [`save`]s the result; any number of serving
//! processes [`IndexStore::open`] the file and answer queries immediately —
//! no edge-list parse, no rebuild, no deserialisation. On the supported
//! fast path (64-bit little-endian Unix) the file is `mmap`'d and the
//! little-endian fixed-width sections are reinterpreted in place as the
//! `GraphView` / `IndexView` slices the query engine runs on, so "load
//! time" is one page-table walk plus one validation pass, and resident
//! memory is shared between processes by the page cache.
//!
//! ```no_run
//! # use hcl_core::{Graph, testkit};
//! # use hcl_index::{HighwayCoverIndex, IndexConfig, QueryContext};
//! let graph = testkit::barabasi_albert(10_000, 5, 42);
//! let index = HighwayCoverIndex::build(&graph, IndexConfig::default());
//! hcl_store::save("web.hcl", &graph, &index)?;
//!
//! // …later, in a serving process:
//! let store = hcl_store::IndexStore::open("web.hcl")?;
//! let mut ctx = QueryContext::new();
//! let d = store.index().query_with(store.graph(), &mut ctx, 17, 4711);
//! # Ok::<(), hcl_store::StoreError>(())
//! ```
//!
//! Integrity: the container carries magic, version, declared length, and a
//! CRC-64 over the whole file, and every structural invariant of the CSR
//! arrays is validated once at open. Corrupt, truncated, or tampered input
//! yields a typed [`StoreError`] — never a panic, never UB. Every
//! validation cost is linear in the file — the CRC pass streams each byte
//! once (carry-less multiply at memory speed where the CPU has
//! `pclmulqdq`, slicing-by-16 elsewhere), the semantic passes read each
//! section once — and [`IndexStore::open_phases`] says how an open split
//! between them. There is one open: every entry point runs every check,
//! the CRC included, because the CRC is the only check that catches
//! *storage* corruption that stays structurally plausible (a rotted label
//! distance). See [`format`](self) docs in `format.rs` for the byte
//! layout.
//!
//! Every store serves one editable pair, a `PatchedGraph` and a
//! `PatchedIndex`, over its own validated image, which lends them its
//! arrays. Live edge updates never rewrite a container: [`UpdateEngine`]
//! clones the served pair, repairs the labels per delta, and its
//! [`JournalWriter`] appends one small self-checksummed frame per
//! acknowledged batch after the image (the *journal tail*, replayed at
//! open) and stamps the next generation onto the shared image, serving the
//! engine's pair as published: the arrays of its last fold (the image's,
//! until one folds), shared by `Arc` with every generation since, under
//! copy-on-write overlays of the rows patched after that fold — so neither
//! adopting nor publishing copies the arrays, and an update copies only
//! the overlay chunks it writes to. Open-time replay runs the pending
//! journal through the same engine state and fold rule over the image, so
//! a small journal opens patched and a large one folds. Only a compaction
//! writes a whole file.
//!
//! Platforms without the mmap fast path get the same API over an aligned
//! heap buffer that [`IndexStore::open`] reads the file into, and
//! [`IndexStore::from_slices`] copies an in-memory image into one.
#![deny(missing_docs)]
// The unsafe in this crate lives in `backing.rs` (mmap FFI, the
// aligned-buffer casts, the writer's little-endian byte view and the
// `LargePages` allocator's mappings) and
// `checksum.rs` (the carry-less CRC kernel's feature-checked call and
// unaligned 16-byte loads); inside an unsafe fn every unsafe operation
// must still be in an explicit `unsafe {}` block with its own SAFETY
// comment.
#![deny(unsafe_op_in_unsafe_fn)]

mod backing;
mod checksum;
pub mod durable;
mod engine;
mod error;
mod format;
mod generation;
mod tail;

pub use backing::LargePages;
pub use checksum::{crc64, crc64_kernel};
pub use engine::{Published, UpdateEngine, UpdateError, UpdatePhases};
pub use error::StoreError;
pub use format::{
    image_parts, rewrite_checksum, serialize, serialize_with, serialize_with_journal,
    serialize_with_stats, BuildInfo, ImageParts, SectionInfo, StoreMeta, StoredBuildStats,
    StoredJournal, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
pub use generation::{Generation, GenerationHandle};
pub use tail::{encode_tail_frame, AppendOutcome, JournalWriter, TailInfo};

use backing::{cast_u32s, cast_u64s, AlignedBuf, Backing};
use engine::LiveState;
use format::Layout;
use hcl_core::{CsrArrays, DeltaError, EdgeDelta, Graph, GraphView, PatchedGraph, VertexId};
use hcl_index::{HighwayCoverIndex, IndexView, LabelArrays, PatchedIndex};
use std::fs::File;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serialises `graph` and `index` and writes them to `path` atomically,
/// leaving the header's build-metadata bytes unrecorded; see [`save_with`].
pub fn save(
    path: impl AsRef<Path>,
    graph: &Graph,
    index: &HighwayCoverIndex,
) -> Result<u64, StoreError> {
    save_with(path, graph, index, BuildInfo::default())
}

/// Lays `graph` and `index` out as a container — recording `build`
/// (builder threads and group width) in the header — and writes it to
/// `path` atomically, section by section straight from the arrays (no
/// in-memory image): the bytes go to a temporary sibling file which is
/// then renamed over the target, so a concurrent reader either sees the
/// old complete container or the new one — never a truncated half-write,
/// and a process already serving the old file via mmap keeps its mapping
/// (the old inode stays alive until unmapped) instead of faulting on
/// truncated pages. Returns the number of bytes written.
pub fn save_with(
    path: impl AsRef<Path>,
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
) -> Result<u64, StoreError> {
    let image = image_parts(graph.as_view(), index.as_view(), build, None, None)?;
    // `SystemIo` proceeds at every step, so the outcome is always
    // `Committed`; the `Crashed` arm only exists for fault simulators.
    durable::publish_slices_with(path.as_ref(), &image.slices(), &durable::SystemIo)?;
    Ok(image.len_bytes())
}

/// What [`compact_file`] did, for logging and `inspect`-style tooling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// Journal deltas compacted into the base sections.
    pub deltas_compacted: usize,
    /// Container size before compaction, in bytes.
    pub bytes_before: u64,
    /// Container size after compaction, in bytes.
    pub bytes_after: u64,
    /// The container's compaction counter after this compaction.
    pub compactions: u64,
}

/// Compacts a container's delta journal (section and tail frames) into
/// its base sections: opens the file (which replays pending deltas and
/// repairs the labels), then compacts it through a [`JournalWriter`], as
/// a live update does — the replayed state, folded flat, as the new base,
/// an empty journal, no tail, and the compaction counter bumped.
///
/// The write goes through the durable temp-fsync/rename/dir-fsync path
/// ([`durable`]), so a crash mid-compaction leaves the old journalled
/// container intact. A file whose journal is already empty (or absent) is
/// left untouched.
pub fn compact_file(path: impl AsRef<Path>) -> Result<CompactReport, StoreError> {
    let path = path.as_ref();
    let store = IndexStore::open(path)?;
    let bytes_before = store.len_bytes();
    let (pending, compactions) = store.journal().map_or((0, 0), |j| (j.len(), j.compactions));
    if pending == 0 {
        return Ok(CompactReport {
            deltas_compacted: 0,
            bytes_before,
            bytes_after: bytes_before,
            compactions,
        });
    }
    let (mut graph, mut index) = (store.graph.clone(), store.index.clone());
    graph.flatten();
    index.flatten();
    let compacted = JournalWriter::new(&store, Some(path.to_path_buf()))
        .compact(graph.as_view(), index.as_view())?;
    Ok(CompactReport {
        deltas_compacted: pending,
        bytes_before,
        bytes_after: compacted.len_bytes(),
        compactions: compactions + 1,
    })
}

/// Where an open spent its time, phase by phase in the order they run.
/// A phase that did not run reads zero: `replay` on a file with no
/// pending deltas, all four on a generation a [`JournalWriter`] stamped
/// in memory (nothing was opened).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenPhases {
    /// The whole-image CRC-64 pass (with the header and section-table
    /// checks, which are microseconds).
    pub checksum: Duration,
    /// Semantic validation of the CSR arrays (`GraphView::from_csr`).
    pub graph: Duration,
    /// Semantic validation of the labelling (`IndexView::from_parts`).
    pub labels: Duration,
    /// Pending journal deltas replayed over the base sections through the
    /// update engine's live state: label repair per delta into overlays
    /// over the mapped arrays (nothing is copied up front), then one
    /// publish — the overlays served beside the image, or, past the
    /// engine's fold bound (`n / 64` rows in either overlay), both spliced
    /// flat.
    pub replay: Duration,
}

impl OpenPhases {
    /// `(name, duration)` per phase, in the order they run; the names are
    /// what the CLI prints and the `phase` label values of
    /// `hcl_open_seconds`.
    pub fn named(&self) -> [(&'static str, Duration); 4] {
        [
            ("crc", self.checksum),
            ("graph", self.graph),
            ("labels", self.labels),
            ("replay", self.replay),
        ]
    }
}

/// `crc 5.7ms, graph 8.0ms, labels 3.9ms, replay 0.0ns`.
impl std::fmt::Display for OpenPhases {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, took)) in self.named().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{name} {took:.1?}")?;
        }
        Ok(())
    }
}

/// An opened, validated `.hcl` container serving borrowed graph and index
/// views.
///
/// All validation (header, checksum, section geometry, CSR and labelling
/// invariants, journal-tail frames) happens in the constructors;
/// afterwards [`graph`](IndexStore::graph) and [`index`](IndexStore::index)
/// are pointer arithmetic over the backing bytes, under the overlays of
/// whatever the pending journal patched. The store must outlive the views
/// it hands out, which the borrow checker enforces.
///
/// The validated image is shared (`Arc`) between a store, the pair it
/// serves and the generations a [`JournalWriter`] stamps from it after
/// live updates, so publishing an update never copies or re-validates it.
pub struct IndexStore {
    base: Arc<Base>,
    /// The pending journal — the journal section's deltas followed by the
    /// tail frames' (`None` when the file has neither).
    journal: Option<StoredJournal>,
    /// Extent of the journal tail after the image.
    tail: TailInfo,
    /// The current graph and labels: the pending journal replayed over the
    /// image's arrays (at open, or by the engine that appended it).
    graph: PatchedGraph,
    index: PatchedIndex,
    /// Where the open that produced this store spent its time.
    open_phases: OpenPhases,
}

/// The validated container image of an opened store: immutable, and
/// shared by every generation that descends from the same open.
struct Base {
    backing: Backing,
    layout: Layout,
}

impl Base {
    /// The image: the backing's bytes up to the declared length (a file
    /// backing continues with the journal tail).
    fn image(&self) -> &[u8] {
        &self.backing.bytes()[..self.layout.meta.file_len as usize]
    }
}

impl CsrArrays for Base {
    /// The graph sections as a view. Unchecked: a `Base` only ever holds
    /// an image that passed [`validate`].
    fn as_view(&self) -> GraphView<'_> {
        let (bytes, layout) = (self.image(), &self.layout);
        GraphView::from_csr_unchecked(
            cast_u64s(&bytes[layout.graph_offsets.clone()]),
            cast_u32s(&bytes[layout.graph_neighbors.clone()]),
        )
    }
}

impl LabelArrays for Base {
    /// The index sections as a view; unchecked, like the graph's.
    fn as_view(&self) -> IndexView<'_> {
        let (bytes, layout) = (self.image(), &self.layout);
        IndexView::from_parts_unchecked(
            cast_u32s(&bytes[layout.landmarks.clone()]),
            cast_u32s(&bytes[layout.landmark_rank.clone()]),
            cast_u64s(&bytes[layout.label_offsets.clone()]),
            cast_u32s(&bytes[layout.label_entries.clone()]),
            cast_u32s(&bytes[layout.highway.clone()]),
        )
    }
}

/// What [`validate`] establishes about a container's bytes — everything
/// an open checks, before any served state is built from it.
struct Validated {
    layout: Layout,
    /// The pending journal: the journal section's deltas followed by the
    /// tail frames', every one of them applicable in order.
    journal: Option<StoredJournal>,
    tail: TailInfo,
    /// `replay` is still zero: nothing has been replayed yet.
    phases: OpenPhases,
}

/// The typed error for a journal delta that does not apply to the state
/// the deltas before it produced.
fn inapplicable(i: usize, delta: EdgeDelta, why: DeltaError) -> StoreError {
    StoreError::Corrupt {
        what: format!("journal delta {i} ({delta}) cannot be applied: {why}"),
    }
}

/// Runs every check an open makes over `bytes` (a container image plus
/// whatever journal tail follows it): header and section geometry, the
/// whole-image CRC-64, the semantic CSR and label invariants, the journal
/// section's encoding, every tail frame, and that each pending delta
/// applies in order. Builds nothing that serves.
fn validate(bytes: &[u8]) -> Result<Validated, StoreError> {
    #[cfg(target_endian = "big")]
    {
        return Err(StoreError::UnsupportedPlatform {
            why: "zero-copy .hcl serving requires a little-endian host",
        });
    }
    #[cfg(not(target_endian = "big"))]
    {
        let mut phases = OpenPhases::default();
        let t = Instant::now();
        let layout = format::parse_and_validate(bytes)?;
        phases.checksum = t.elapsed();

        // Semantic validation, once: afterwards the accessors can use the
        // unchecked view constructors.
        let (bytes, tail_bytes) = bytes.split_at(layout.meta.file_len as usize);
        let t = Instant::now();
        let graph = GraphView::from_csr(
            cast_u64s(&bytes[layout.graph_offsets.clone()]),
            cast_u32s(&bytes[layout.graph_neighbors.clone()]),
        )?;
        phases.graph = t.elapsed();

        let t = Instant::now();
        let index = IndexView::from_parts(
            cast_u32s(&bytes[layout.landmarks.clone()]),
            cast_u32s(&bytes[layout.landmark_rank.clone()]),
            cast_u64s(&bytes[layout.label_offsets.clone()]),
            cast_u32s(&bytes[layout.label_entries.clone()]),
            cast_u32s(&bytes[layout.highway.clone()]),
        )?;
        phases.labels = t.elapsed();
        if graph.num_vertices() != index.num_vertices() {
            return Err(StoreError::GraphIndexMismatch {
                graph_vertices: graph.num_vertices(),
                index_vertices: index.num_vertices(),
            });
        }

        // The pending journal is the journal section's deltas followed by
        // the tail frames'. An undecodable section or a corrupt frame is a
        // hard error: silently dropping edits would serve stale answers as
        // if they were current. (A torn *final* frame is not corruption —
        // see `format.rs` — and is only counted.)
        let section = match &layout.journal {
            None => None,
            Some(range) => {
                let words = cast_u64s(&bytes[range.clone()]);
                Some(StoredJournal::decode(words).ok_or(StoreError::Corrupt {
                    what: "journal section cannot be decoded (unknown tag, op, or geometry)".into(),
                })?)
            }
        };
        let first_seq = section.as_ref().map_or(0, |j| j.len() as u64);
        let parsed = tail::parse(tail_bytes, layout.meta.checksum, first_seq)?;
        let journal = match section {
            Some(mut journal) => {
                journal.deltas.extend(parsed.deltas);
                Some(journal)
            }
            None if parsed.info.frames > 0 => Some(StoredJournal {
                deltas: parsed.deltas,
                compactions: 0,
            }),
            None => None,
        };

        // Applicability needs only the vertex count: the vertex set is
        // fixed, a no-op delta applies as nothing, and a replay rejects a
        // delta exactly when `EdgeDelta::validate` does.
        let deltas = journal.iter().flat_map(|j| &j.deltas);
        for (i, &delta) in deltas.enumerate() {
            delta
                .validate(graph.num_vertices())
                .map_err(|why| inapplicable(i, delta, why))?;
        }

        Ok(Validated {
            layout,
            journal,
            tail: parsed.info,
            phases,
        })
    }
}

impl std::fmt::Debug for IndexStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexStore")
            .field("backing", &self.backing_kind())
            .field("meta", &self.base.layout.meta)
            .field("tail", &self.tail)
            .finish()
    }
}

impl IndexStore {
    /// Opens a container with **full validation**, preferring the
    /// zero-copy memory-mapped backing and falling back to a heap copy
    /// where mmap is unavailable.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let len = file.metadata()?.len();

        // `not(miri)`: Miri cannot execute the mmap FFI, so under Miri
        // every open takes the aligned heap path below — which is exactly
        // what lets the whole store test suite run under the interpreter.
        #[cfg(all(unix, not(miri), target_pointer_width = "64", target_endian = "little"))]
        {
            if len > 0 {
                if let Ok(map) = backing::mmap::Mmap::map(&file, len as usize) {
                    return Self::from_backing(Backing::Mmap(map));
                }
            }
        }
        Self::open_via_read(file, len)
    }

    /// [`open`](IndexStore::open), kept only because the frozen harness
    /// names it (ROADMAP 1(c)).
    pub fn open_trusted(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open(path)
    }

    /// Opens a container by reading it fully into an aligned heap buffer:
    /// the portable path, where the file cannot be mapped.
    fn open_via_read(mut file: File, len: u64) -> Result<Self, StoreError> {
        let buf = AlignedBuf::read_from(&mut file, len as usize)?;
        Self::from_backing(Backing::Heap(buf))
    }

    /// Validates an in-memory container image, with or without a journal
    /// tail after it (copied into an aligned heap buffer). Handy for tests
    /// and for receiving index images over the network. The one-slice
    /// case of [`from_slices`](IndexStore::from_slices).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::from_slices(&[bytes])
    }

    /// [`from_bytes`](IndexStore::from_bytes) of the concatenation of
    /// `slices` — an [`ImageParts::slices`] layout, say — gathered straight
    /// into the aligned heap buffer, without joining them first.
    pub fn from_slices(slices: &[&[u8]]) -> Result<Self, StoreError> {
        Self::from_backing(Backing::Heap(AlignedBuf::gather(slices)))
    }

    /// [`from_bytes`](IndexStore::from_bytes), kept only because the
    /// frozen harness names it (ROADMAP 1(c)).
    pub fn from_bytes_trusted(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::from_bytes(bytes)
    }

    fn from_backing(backing: Backing) -> Result<Self, StoreError> {
        let Validated {
            layout,
            journal,
            tail,
            phases: mut open_phases,
        } = validate(backing.bytes())?;
        let base = Arc::new(Base { backing, layout });
        let mut graph = PatchedGraph::flat(base.clone());
        let mut index = PatchedIndex::flat(base.clone());

        // Replay pending deltas over the image's arrays through the update
        // engine's live state, so the store serves *current* state,
        // published by the fold rule the live updates ran under.
        if let Some(j) = journal.as_ref().filter(|j| !j.is_empty()) {
            let t = Instant::now();
            let mut live = LiveState::new(graph, index);
            for (i, &delta) in j.deltas.iter().enumerate() {
                live.apply(delta)
                    .map_err(|why| inapplicable(i, delta, why))?;
            }
            (graph, index, _) = live.publish(false);
            open_phases.replay = t.elapsed();
        }

        Ok(Self {
            base,
            journal,
            tail,
            graph,
            index,
            open_phases,
        })
    }

    /// The *current* graph: the image's arrays under the overlays of the
    /// pending journal's edits, or, once an update folded them, the fold's
    /// arrays.
    pub fn graph(&self) -> GraphView<'_> {
        self.graph.as_view()
    }

    /// The *current* index: the image's labels as the pending journal's
    /// edits repaired them; see [`graph`](IndexStore::graph).
    pub fn index(&self) -> IndexView<'_> {
        self.index.as_view()
    }

    /// The graph exactly as stored in the base sections — the
    /// as-last-compacted state a journalled file's deltas replay over.
    /// Identical to [`graph`](IndexStore::graph) when the journal is
    /// empty or absent.
    pub fn base_graph(&self) -> GraphView<'_> {
        CsrArrays::as_view(&*self.base)
    }

    /// The index exactly as stored in the base sections; see
    /// [`base_graph`](IndexStore::base_graph).
    pub fn base_index(&self) -> IndexView<'_> {
        LabelArrays::as_view(&*self.base)
    }

    /// The pending delta journal — the journal section's deltas followed
    /// by the tail frames' — or `None` for a file with neither (one
    /// written without a journal section and never appended to).
    pub fn journal(&self) -> Option<&StoredJournal> {
        self.journal.as_ref()
    }

    /// Bytes the pending journal occupies on disk: the journal section
    /// plus the complete tail frames (0 when there is neither).
    pub fn journal_bytes(&self) -> u64 {
        let section = self.base.layout.journal.as_ref();
        section.map_or(0, |r| (r.end - r.start) as u64) + self.tail.frame_bytes
    }

    /// Extent of the journal tail after the image: complete frames, their
    /// bytes, and any torn remainder.
    pub fn tail(&self) -> TailInfo {
        self.tail
    }

    /// Header metadata (counts, version, checksum) — available without
    /// touching section bytes.
    pub fn meta(&self) -> StoreMeta {
        self.base.layout.meta
    }

    /// Per-section name/offset/size information for inspection tooling
    /// (the seven required sections, then whichever optional ones the
    /// file carries).
    pub fn sections(&self) -> Vec<SectionInfo> {
        self.base.layout.sections()
    }

    /// The build counters recorded in the container's optional
    /// `build_stats` section, or `None` when the file was written without
    /// one or carries a stats layout this reader does not understand.
    pub fn build_stats(&self) -> Option<StoredBuildStats> {
        let range = self.base.layout.build_stats.clone()?;
        let words = cast_u64s(&self.base.image()[range]);
        StoredBuildStats::decode(words, self.base.layout.meta.num_landmarks)
    }

    /// Where the open that produced this store spent its time.
    pub fn open_phases(&self) -> OpenPhases {
        self.open_phases
    }

    /// Which backing serves this store: `"mmap"` or `"heap"`.
    pub fn backing_kind(&self) -> &'static str {
        self.base.backing.kind()
    }

    /// Total size of the file in bytes: the container image plus its
    /// journal tail (complete frames and any torn remainder).
    pub fn len_bytes(&self) -> u64 {
        self.base.layout.meta.file_len + self.tail.frame_bytes + self.tail.torn_bytes
    }

    /// Copies the stored graph and index into owned structures (a full
    /// deserialisation, for callers that want to drop the file); a
    /// patched generation is spliced into flat arrays.
    pub fn to_owned_parts(&self) -> (Graph, HighwayCoverIndex) {
        (self.graph().to_owned_graph(), self.index().to_owned_index())
    }

    /// Re-runs the whole-image CRC-64 pass over this store's live backing
    /// bytes, comparing against the checksum recorded in the header.
    ///
    /// This is the integrity-scrubber entry point: a store mapped long
    /// enough for storage rot to matter can be re-verified in place
    /// without reopening. Returns
    /// [`StoreError::ChecksumMismatch`] when the bytes no longer hash to
    /// the header's value. The journal tail is not re-read here — its
    /// frames were verified at open, and [`verify_file`] re-verifies the
    /// file on disk, tail included.
    pub fn verify_checksum(&self) -> Result<(), StoreError> {
        let computed = format::file_checksum(self.base.image());
        let stored = self.base.layout.meta.checksum;
        if computed != stored {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        Ok(())
    }
}

/// Fully validates the file at `path` — header, section geometry,
/// whole-image CRC-64, semantic CSR/label invariants, every journal-tail
/// frame, and that each pending delta applies — by reading it into a heap
/// buffer, without constructing a served store: no label repair, no
/// replayed graph or index. `Ok` exactly when [`IndexStore::open`] would
/// be, with the same typed error otherwise. Returns the header metadata.
///
/// This is what the serving-path scrubber runs against a reload *source*:
/// it always re-reads the file's current bytes (an existing mmap of the
/// old inode would keep serving pre-rename contents), costs no mmap
/// bookkeeping, and drops the buffer before returning.
pub fn verify_file(path: impl AsRef<Path>) -> Result<StoreMeta, StoreError> {
    let mut file = File::open(path.as_ref())?;
    let len = file.metadata()?.len();
    let buf = AlignedBuf::read_from(&mut file, len as usize)?;
    Ok(validate(buf.bytes())?.layout.meta)
}

// Keep VertexId in the public-API surface story: sections store plain u32
// vertex ids, and this assert documents (at compile time) the assumption
// the 4-byte element size relies on.
const _: () = assert!(std::mem::size_of::<VertexId>() == 4);
