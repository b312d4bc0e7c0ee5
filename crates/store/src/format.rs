//! The `.hcl` container format: header, section table, and the
//! serialise/validate pair.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic "HCLSTOR1"
//!      8     4  format version (u32 LE)
//!     12     4  section count (u32 LE) — 7 through 9: the seven required
//!               sections, then the optional build-stats and journal ones
//!     16     8  length of the container image in bytes (u64 LE): the
//!               whole file, unless a journal tail follows (see below)
//!     24     8  CRC-64/ECMA of the image with this field zeroed
//!     32     8  num_vertices (u64 LE)
//!     40     8  num_edges (u64 LE)
//!     48     8  num_landmarks (u64 LE)
//!     56     8  total label entries (u64 LE)
//!     64     4  build metadata: builder worker threads (u32 LE, 0 = unrecorded)
//!     68     4  build metadata: landmarks per builder group (u32 LE, 0 = unrecorded)
//!     72    24  reserved (zeroed, ignored on read)
//!     96  S·24  section table: {kind u32, elem_size u32, offset u64,
//!               len_bytes u64} per section (S = section count)
//!      …     …  sections, each 8-byte aligned, zero-padded between
//! ```
//!
//! ## Sections
//!
//! Seven sections are required, in canonical order: `graph_offsets` (kind
//! 1, u64), `graph_neighbors` (2, u32), `landmarks` (3, u32),
//! `landmark_rank` (4, u32), `label_offsets` (5, u64), `label_entries`
//! (12, u32), `highway` (8, u32). Each label entry is one `u32` — landmark
//! rank in the high 8 bits, distance in the low 24 (`hcl-index`'s
//! [`pack_label_entry`](hcl_index::pack_label_entry)) — which is exactly
//! the in-memory layout of the query hot path, so a mapped file serves
//! with no decode step at all. The word sets the format's two limits: at
//! most [`MAX_LANDMARKS`](hcl_index::MAX_LANDMARKS) (256) landmarks, which
//! the open enforces (`IndexView::from_parts` refuses more, like more
//! landmarks than vertices), and distances up to
//! [`MAX_LABEL_DISTANCE`](hcl_index::MAX_LABEL_DISTANCE) (2^24 − 1), which
//! the writers enforce (a build fails and an update is refused rather
//! than wrap). Two more may follow, each independently absent:
//!
//! * `build_stats` (kind 10, u64): the thread-count-invariant build
//!   counters — see [`StoredBuildStats`] for the payload layout.
//! * `journal` (kind 11, u64): edge deltas not yet compacted into the base
//!   sections, plus the container's compaction counter — see
//!   [`StoredJournal`]. The base sections always describe the graph/index
//!   *as last compacted*; opening a file with a non-empty journal replays
//!   the deltas (see [`IndexStore::open`](crate::IndexStore)).
//!
//! ## Versions
//!
//! There is one format: this reader accepts exactly [`FORMAT_VERSION`] and
//! every writer emits it. Any other version word — older or newer — is
//! rejected with the typed [`StoreError::UnsupportedVersion`] rather than
//! mis-read. Section kinds 6 and 7 belonged to a retired split-label
//! layout, and kind 9 to version 6's `u64` label entries; they are
//! **reserved and never reused**, so a table entry carrying one is an
//! unknown kind.
//!
//! ## Journal tail (after the container image)
//!
//! Everything above describes the **container image**: header through
//! the declared length at offset 16, covered by the whole-image CRC. A
//! file may continue past that length with a **journal tail** — zero or
//! more self-checksummed *frames*, one per acknowledged update batch,
//! appended and `fdatasync`ed by [`JournalWriter`](crate::JournalWriter)
//! without ever rewriting the image. A frame is a run of little-endian
//! `u64` words:
//!
//! ```text
//! word       value
//! ----       ------------------------------------------------------
//!    0       (delta count C << 32) | frame magic "HCLJ" (C ≥ 1; the
//!            magic is the first four bytes on disk)
//!    1       sequence number of the frame's first delta: how many
//!            pending deltas (journal section ++ earlier frames)
//!            precede it
//! 2+2i       op of delta i (0 = insert, 1 = delete)
//! 3+2i       endpoints of delta i, packed (u << 32) | v
//! 2+2C       CRC-64 of words 0 .. 2+2C, seeded with the image's header
//!            checksum — a frame never replays over another base
//! ```
//!
//! The pending journal of a file is its journal section's deltas followed
//! by every tail frame's, and open replays it exactly as it replays the
//! section alone. Frames are decoded and CRC-checked by every open (they
//! are a few words each). Only a compaction writes a new image (live state
//! as the base, empty journal, no tail).
//!
//! **Torn tail vs corruption.** There is one appender and it syncs each
//! frame before acknowledging it, so a crash can damage only the *last*
//! frame. A final frame that is short (its declared length runs past the
//! end of the file, and what is present is a prefix of a well-formed
//! frame) or that fails its CRC while ending exactly at the end of the
//! file was never acknowledged: the file opens as the state before it,
//! the remainder is reported as torn, and the next append truncates it
//! away. Everything else is a typed [`StoreError::Corrupt`] — bytes that
//! are not a frame (the wrong magic, a zero count, an op word that is
//! neither 0 nor 1), a sequence gap, or a bad frame with further bytes
//! after it — because dropping those would silently lose acknowledged
//! deltas. (The well-formedness of a short frame matters: an *earlier*
//! frame whose count was corrupted upwards also runs past the end of the
//! file, over the acknowledged frames behind it.)
//!
//! All integers are little-endian, all arrays fixed-width (`u32`/`u64`),
//! all section offsets 8-byte aligned — which is exactly what lets a
//! little-endian host reinterpret the mapped file as the index's slices
//! with no decode step (a `u32` section of odd length is followed by 4
//! zero bytes of padding). Validation happens once at open: header, checksum,
//! section-table geometry, then the semantic CSR/label invariants via
//! `hcl-core`/`hcl-index`. After that, serving is pointer arithmetic.

use crate::backing::le_bytes;
use crate::checksum::{crc64_finish, crc64_init, crc64_update};
use crate::error::StoreError;
use hcl_core::{DeltaOp, EdgeDelta, Graph, GraphView};
use hcl_index::{HighwayCoverIndex, IndexView, SelectionStrategy};
use std::borrow::Cow;
use std::ops::Range;

/// File magic: "HCLSTOR1".
pub const MAGIC: [u8; 8] = *b"HCLSTOR1";
/// The format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 7;
/// Header length in bytes.
pub const HEADER_LEN: usize = 96;
/// Byte offset of the checksum field inside the header.
pub const CHECKSUM_OFFSET: usize = 24;
/// Byte offset of the build-metadata block inside the header.
const BUILD_META_OFFSET: usize = 64;

const SECTION_ENTRY_LEN: usize = 24;
/// Highest section-kind discriminant.
const MAX_SECTION_KINDS: usize = 12;

/// Section kinds. Discriminants 6, 7 and 9 are reserved (see the module
/// docs) and must never be reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
enum SectionKind {
    GraphOffsets = 1,
    GraphNeighbors = 2,
    Landmarks = 3,
    LandmarkRank = 4,
    LabelOffsets = 5,
    Highway = 8,
    BuildStats = 10,
    Journal = 11,
    LabelEntries = 12,
}

/// Canonical section-table order. The first [`NUM_REQUIRED_SECTIONS`]
/// kinds are in every container; the trailing `BuildStats` and `Journal`
/// sections are each independently optional.
const SECTION_TABLE: [SectionKind; 9] = [
    SectionKind::GraphOffsets,
    SectionKind::GraphNeighbors,
    SectionKind::Landmarks,
    SectionKind::LandmarkRank,
    SectionKind::LabelOffsets,
    SectionKind::LabelEntries,
    SectionKind::Highway,
    SectionKind::BuildStats,
    SectionKind::Journal,
];
const NUM_REQUIRED_SECTIONS: usize = 7;

impl SectionKind {
    fn from_u32(v: u32) -> Option<Self> {
        match v {
            1 => Some(Self::GraphOffsets),
            2 => Some(Self::GraphNeighbors),
            3 => Some(Self::Landmarks),
            4 => Some(Self::LandmarkRank),
            5 => Some(Self::LabelOffsets),
            8 => Some(Self::Highway),
            10 => Some(Self::BuildStats),
            11 => Some(Self::Journal),
            12 => Some(Self::LabelEntries),
            _ => None,
        }
    }

    fn elem_size(self) -> u32 {
        match self {
            Self::GraphOffsets | Self::LabelOffsets => 8,
            Self::BuildStats | Self::Journal => 8,
            _ => 4,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::GraphOffsets => "graph_offsets",
            Self::GraphNeighbors => "graph_neighbors",
            Self::Landmarks => "landmarks",
            Self::LandmarkRank => "landmark_rank",
            Self::LabelOffsets => "label_offsets",
            Self::Highway => "highway",
            Self::LabelEntries => "label_entries",
            Self::BuildStats => "build_stats",
            Self::Journal => "journal",
        }
    }
}

/// Format tag in word 0 of the `build_stats` section payload; bump when
/// the stats layout changes so old readers degrade to "no stats" instead
/// of mis-decoding.
const STATS_FORMAT_TAG: u64 = 1;

/// The thread-count-invariant build counters persisted in a container's
/// optional `build_stats` section.
///
/// Wall times are deliberately **not** stored: the same graph built with
/// any thread count must produce byte-identical sections (the determinism
/// contract `hcl-index`'s build provides), and timings would break that.
/// The payload is a flat `u64` array:
///
/// ```text
/// word  value
/// ----  ---------------------------------------------------------
///    0  stats format tag (currently 1)
///    1  bfs_visits — (landmark, vertex) pairs the landmark searches reached
///    2  label_insertions — label entries written (Σ landmark_labels)
///    3  dominated — reached pairs that earned no entry (covered by
///       another landmark)
///    4  k — landmark count (length of the per-landmark array)
/// 5..5+k  landmark_labels[i] — label entries contributed by rank i
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoredBuildStats {
    /// `(landmark, vertex)` pairs the landmark searches reached.
    pub bfs_visits: u64,
    /// Total label entries inserted (equals the index's entry count).
    pub label_insertions: u64,
    /// Reached pairs that earned no label entry: another landmark covers
    /// them.
    pub dominated: u64,
    /// Label entries contributed by each landmark, indexed by rank.
    pub landmark_labels: Vec<u64>,
}

impl StoredBuildStats {
    /// The persistable subset of a build's [`hcl_index::BuildStats`]
    /// (counters only — wall times stay in memory).
    pub fn from_build(stats: &hcl_index::BuildStats) -> Self {
        Self {
            bfs_visits: stats.bfs_visits,
            label_insertions: stats.label_insertions,
            dominated: stats.dominated,
            landmark_labels: stats.landmark_labels.clone(),
        }
    }

    /// Fraction of BFS visits another landmark covers, in `[0, 1]`.
    pub fn domination_cut_rate(&self) -> f64 {
        if self.bfs_visits == 0 {
            0.0
        } else {
            self.dominated as f64 / self.bfs_visits as f64
        }
    }

    fn encode(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(5 + self.landmark_labels.len());
        words.push(STATS_FORMAT_TAG);
        words.push(self.bfs_visits);
        words.push(self.label_insertions);
        words.push(self.dominated);
        words.push(self.landmark_labels.len() as u64);
        words.extend_from_slice(&self.landmark_labels);
        words
    }

    /// Decodes a stats payload; `None` for unknown tags or inconsistent
    /// geometry, so readers degrade to "no stats" rather than erroring on
    /// containers written by a future format revision.
    pub(crate) fn decode(words: &[u64], num_landmarks: u64) -> Option<Self> {
        if words.len() < 5 || words[0] != STATS_FORMAT_TAG {
            return None;
        }
        let k = words[4];
        if k != num_landmarks || words.len() as u64 != 5 + k {
            return None;
        }
        Some(Self {
            bfs_visits: words[1],
            label_insertions: words[2],
            dominated: words[3],
            landmark_labels: words[5..].to_vec(),
        })
    }
}

/// Format tag in word 0 of the `journal` section payload; bump when the
/// journal layout changes so old readers degrade to "unreadable journal"
/// (a typed error) instead of mis-decoding edits.
const JOURNAL_FORMAT_TAG: u64 = 1;

/// Word encoding of a delta op inside the journal payload.
const JOURNAL_OP_INSERT: u64 = 0;
const JOURNAL_OP_DELETE: u64 = 1;

/// The two-word `{op, (u << 32) | v}` encoding of one delta, shared by the
/// journal section and the tail frames.
pub(crate) fn encode_delta(d: &EdgeDelta) -> [u64; 2] {
    let op = match d.op {
        DeltaOp::Insert => JOURNAL_OP_INSERT,
        DeltaOp::Delete => JOURNAL_OP_DELETE,
    };
    [op, ((d.u as u64) << 32) | d.v as u64]
}

/// Inverse of [`encode_delta`]; `None` for an unknown op word.
pub(crate) fn decode_delta(op: u64, endpoints: u64) -> Option<EdgeDelta> {
    let op = match op {
        JOURNAL_OP_INSERT => DeltaOp::Insert,
        JOURNAL_OP_DELETE => DeltaOp::Delete,
        _ => return None,
    };
    Some(EdgeDelta {
        op,
        u: (endpoints >> 32) as u32,
        v: endpoints as u32,
    })
}

/// The append-only edge-delta journal persisted in a container's
/// optional `journal` section.
///
/// The base sections of a file always hold the graph and index **as
/// last compacted**; the journal holds the edits applied since, in order.
/// Opening a journalled file replays the deltas (and repairs the labels)
/// to reconstruct current state; `compact` writes the replayed state back
/// as the base sections and empties the journal. The payload is a flat
/// `u64` array:
///
/// ```text
/// word       value
/// ----       ------------------------------------------------------
///    0       journal format tag (currently 1)
///    1       compactions — times this container has been compacted
///    2       delta count D
/// 3+2i       op of delta i (0 = insert, 1 = delete)
/// 4+2i       endpoints of delta i, packed (u << 32) | v
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoredJournal {
    /// Edge edits applied since the last compaction, in application order.
    pub deltas: Vec<EdgeDelta>,
    /// How many times this container's journal has been compacted into
    /// the base sections (monotone across the file's lifetime).
    pub compactions: u64,
}

impl StoredJournal {
    /// Whether there are no pending deltas (the compaction counter may
    /// still be non-zero).
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Number of pending deltas.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    fn encode(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(3 + 2 * self.deltas.len());
        words.push(JOURNAL_FORMAT_TAG);
        words.push(self.compactions);
        words.push(self.deltas.len() as u64);
        for d in &self.deltas {
            words.extend_from_slice(&encode_delta(d));
        }
        words
    }

    /// Decodes a journal payload; `None` for unknown tags, unknown ops, or
    /// inconsistent geometry. Unlike build stats, a journal that cannot be
    /// decoded is a hard open error upstream — silently dropping edits
    /// would serve stale answers as if they were current.
    pub(crate) fn decode(words: &[u64]) -> Option<Self> {
        if words.len() < 3 || words[0] != JOURNAL_FORMAT_TAG {
            return None;
        }
        let count = words[2] as usize;
        if words.len() != 3 + count.checked_mul(2)? {
            return None;
        }
        let mut deltas = Vec::with_capacity(count);
        for pair in words[3..].chunks_exact(2) {
            deltas.push(decode_delta(pair[0], pair[1])?);
        }
        Some(Self {
            deltas,
            compactions: words[1],
        })
    }
}

/// How an index was built, recorded in the container header's
/// build-metadata bytes. It never affects how the file is *served*; the
/// sections are a function of the graph and the landmark count alone, on
/// any machine.
///
/// `0` in `threads`/`batch_size` means "unrecorded" (e.g. a file written
/// through the plain [`serialize`]/[`save`](crate::save) entry points).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildInfo {
    /// Worker threads the builder ran with; `hcl build` leaves it 0, so
    /// its output is the same at every `--threads`.
    pub threads: u32,
    /// Landmarks per builder group: 64, the sweep width, in files this
    /// build writes (it no longer shapes the labelling); the batch size of
    /// the rank-ordered batched builder in older files.
    pub batch_size: u32,
    /// Always [`SelectionStrategy::DegreeRank`]: not written to the
    /// header, and not read from it. The field stays only so struct
    /// literals written against it keep compiling.
    pub strategy: SelectionStrategy,
}

/// Build and graph metadata recorded in the header, available without
/// touching any section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Format version of the file (always [`FORMAT_VERSION`]: an open
    /// rejects every other value).
    pub version: u32,
    /// Declared length of the container image in bytes; a journal tail,
    /// if any, follows it (see
    /// [`IndexStore::len_bytes`](crate::IndexStore::len_bytes)).
    pub file_len: u64,
    /// CRC-64/ECMA checksum recorded in the header.
    pub checksum: u64,
    /// Vertex count of the stored graph.
    pub num_vertices: u64,
    /// Undirected edge count of the stored graph.
    pub num_edges: u64,
    /// Landmark count of the stored index.
    pub num_landmarks: u64,
    /// Total `(hub, dist)` label entries of the stored index.
    pub label_entries: u64,
    /// How the index was built (zeroed when unrecorded).
    pub build: BuildInfo,
}

/// Location and shape of one section, for inspection tooling.
#[derive(Clone, Copy, Debug)]
pub struct SectionInfo {
    /// Section name (stable, lowercase).
    pub name: &'static str,
    /// Bytes per element (4 or 8).
    pub elem_size: u32,
    /// Byte offset of the section within the file.
    pub offset: u64,
    /// Section length in bytes.
    pub len_bytes: u64,
}

/// Validated byte ranges of every section plus the decoded metadata.
pub(crate) struct Layout {
    pub(crate) meta: StoreMeta,
    pub(crate) graph_offsets: Range<usize>,
    pub(crate) graph_neighbors: Range<usize>,
    pub(crate) landmarks: Range<usize>,
    pub(crate) landmark_rank: Range<usize>,
    pub(crate) label_offsets: Range<usize>,
    pub(crate) label_entries: Range<usize>,
    pub(crate) highway: Range<usize>,
    /// The optional `build_stats` section.
    pub(crate) build_stats: Option<Range<usize>>,
    /// The optional `journal` section.
    pub(crate) journal: Option<Range<usize>>,
}

impl Layout {
    pub(crate) fn sections(&self) -> Vec<SectionInfo> {
        let info = |kind: SectionKind, r: &Range<usize>| SectionInfo {
            name: kind.name(),
            elem_size: kind.elem_size(),
            offset: r.start as u64,
            len_bytes: (r.end - r.start) as u64,
        };
        let mut out = vec![
            info(SectionKind::GraphOffsets, &self.graph_offsets),
            info(SectionKind::GraphNeighbors, &self.graph_neighbors),
            info(SectionKind::Landmarks, &self.landmarks),
            info(SectionKind::LandmarkRank, &self.landmark_rank),
            info(SectionKind::LabelOffsets, &self.label_offsets),
            info(SectionKind::LabelEntries, &self.label_entries),
            info(SectionKind::Highway, &self.highway),
        ];
        if let Some(stats) = &self.build_stats {
            out.push(info(SectionKind::BuildStats, stats));
        }
        if let Some(journal) = &self.journal {
            out.push(info(SectionKind::Journal, journal));
        }
        out
    }
}

/// CRC-64 of the file with the header checksum field treated as zero.
pub(crate) fn file_checksum(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() >= HEADER_LEN);
    let mut state = crc64_init();
    state = crc64_update(state, &bytes[..CHECKSUM_OFFSET]);
    state = crc64_update(state, &[0u8; 8]);
    state = crc64_update(state, &bytes[CHECKSUM_OFFSET + 8..]);
    crc64_finish(state)
}

/// A container laid out over the arrays it describes: the header and
/// section table in a small buffer, then the rest of the file as ordered
/// byte slices — each section's bytes, borrowed from the graph and index
/// on little-endian targets, and the zero padding between sections.
///
/// [`image_parts`] makes one; [`serialize`] and friends concatenate it
/// into an in-memory image, and
/// [`durable::publish_slices_with`](crate::durable::publish_slices_with)
/// writes it to a file without ever building that image.
pub struct ImageParts<'a> {
    /// Header and section table, checksum patched.
    head: Vec<u8>,
    /// Everything after the table, in file order.
    body: Vec<Cow<'a, [u8]>>,
    len: u64,
    checksum: u64,
}

impl ImageParts<'_> {
    /// The file's bytes as ordered slices: their concatenation is the
    /// container.
    pub fn slices(&self) -> Vec<&[u8]> {
        std::iter::once(&self.head[..])
            .chain(self.body.iter().map(|part| &part[..]))
            .collect()
    }

    /// Length of the container in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The CRC-64 recorded in the header.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The container as one in-memory image.
    pub fn to_vec(&self) -> Vec<u8> {
        self.slices().concat()
    }
}

/// Zero bytes the padding slices borrow: sections are 8-byte aligned, so
/// a gap is at most 7 bytes.
static PADDING: [u8; 8] = [0; 8];

/// Lays a container out over `graph` and `index`, recording `build` in the
/// header and adding the optional `build_stats` and `journal` sections.
/// Only the header, the table and the two small optional sections are
/// encoded; every other section is its array's bytes. The CRC is streamed
/// over the slices and patched into the header before this returns.
///
/// Fails with [`StoreError::Patched`] if either view carries patches (an
/// image holds flat arrays: fold an edited state first), and with
/// [`StoreError::GraphIndexMismatch`] if the index was built for a
/// different vertex count. The layout is deterministic: the same inputs
/// always concatenate to byte-identical files.
pub fn image_parts<'a>(
    gv: GraphView<'a>,
    iv: IndexView<'a>,
    build: BuildInfo,
    stats: Option<&StoredBuildStats>,
    journal: Option<&StoredJournal>,
) -> Result<ImageParts<'a>, StoreError> {
    if gv.is_patched() || iv.is_patched() {
        return Err(StoreError::Patched);
    }
    if gv.num_vertices() != iv.num_vertices() {
        return Err(StoreError::GraphIndexMismatch {
            graph_vertices: gv.num_vertices(),
            index_vertices: iv.num_vertices(),
        });
    }

    // In `SECTION_TABLE` order.
    let mut sections: Vec<(SectionKind, Cow<'a, [u8]>)> = vec![
        (SectionKind::GraphOffsets, le_bytes(gv.csr_offsets())),
        (SectionKind::GraphNeighbors, le_bytes(gv.csr_neighbors())),
        (SectionKind::Landmarks, le_bytes(iv.landmarks())),
        (SectionKind::LandmarkRank, le_bytes(iv.landmark_rank())),
        (SectionKind::LabelOffsets, le_bytes(iv.label_offsets())),
        (SectionKind::LabelEntries, le_bytes(iv.label_entries())),
        (SectionKind::Highway, le_bytes(iv.highway())),
    ];
    let owned = |words: Vec<u64>| Cow::Owned(le_bytes(&words).into_owned());
    if let Some(stats) = stats {
        sections.push((SectionKind::BuildStats, owned(stats.encode())));
    }
    if let Some(journal) = journal {
        sections.push((SectionKind::Journal, owned(journal.encode())));
    }
    let num_sections = sections.len();
    let table_end = HEADER_LEN + num_sections * SECTION_ENTRY_LEN;
    let mut head = vec![0u8; table_end];
    let mut body = Vec::with_capacity(2 * num_sections);
    let mut end = table_end;
    for (i, (kind, bytes)) in sections.into_iter().enumerate() {
        let offset = end.next_multiple_of(8);
        if offset > end {
            body.push(Cow::Borrowed(&PADDING[..offset - end]));
        }
        end = offset + bytes.len();
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        head[at..at + 4].copy_from_slice(&(kind as u32).to_le_bytes());
        head[at + 4..at + 8].copy_from_slice(&kind.elem_size().to_le_bytes());
        head[at + 8..at + 16].copy_from_slice(&(offset as u64).to_le_bytes());
        head[at + 16..at + 24].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        body.push(bytes);
    }

    // Header; the checksum field stays zero until the CRC is in.
    head[0..8].copy_from_slice(&MAGIC);
    head[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    head[12..16].copy_from_slice(&(num_sections as u32).to_le_bytes());
    head[16..24].copy_from_slice(&(end as u64).to_le_bytes());
    head[32..40].copy_from_slice(&(gv.num_vertices() as u64).to_le_bytes());
    head[40..48].copy_from_slice(&(gv.num_edges() as u64).to_le_bytes());
    head[48..56].copy_from_slice(&(iv.num_landmarks() as u64).to_le_bytes());
    head[56..64].copy_from_slice(&(iv.label_entries().len() as u64).to_le_bytes());
    head[BUILD_META_OFFSET..BUILD_META_OFFSET + 4].copy_from_slice(&build.threads.to_le_bytes());
    head[BUILD_META_OFFSET + 4..BUILD_META_OFFSET + 8]
        .copy_from_slice(&build.batch_size.to_le_bytes());
    // Bytes 72..96 stay zero (reserved).
    let state = body
        .iter()
        .fold(crc64_update(crc64_init(), &head), |state, part| {
            crc64_update(state, part)
        });
    let checksum = crc64_finish(state);
    head[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_le_bytes());
    Ok(ImageParts {
        head,
        body,
        len: end as u64,
        checksum,
    })
}

/// Serialises a graph and its index into an in-memory `.hcl` container
/// (current version), leaving the build-metadata bytes unrecorded (zero).
///
/// Fails with [`StoreError::GraphIndexMismatch`] if the index was built for
/// a different vertex count. Output is deterministic: the same graph and
/// index always produce byte-identical files.
pub fn serialize(graph: &Graph, index: &HighwayCoverIndex) -> Result<Vec<u8>, StoreError> {
    serialize_with(graph, index, BuildInfo::default())
}

/// Serialises a graph and its index (current version), recording how the
/// index was built in the header's build-metadata bytes. See [`serialize`]
/// for everything else; determinism holds per `(graph, index, build)`
/// triple.
pub fn serialize_with(
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
) -> Result<Vec<u8>, StoreError> {
    Ok(image_parts(graph.as_view(), index.as_view(), build, None, None)?.to_vec())
}

/// Serialises a graph, its index, and a delta journal into a container.
///
/// The graph and index must describe the **base** (as-last-compacted)
/// state; the journal's deltas are what a reader replays on top to
/// reconstruct current state. Pass an empty journal with a non-zero
/// compaction counter to record "just compacted". Determinism holds per
/// `(graph, index, build, journal)` tuple.
pub fn serialize_with_journal(
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
    journal: &StoredJournal,
) -> Result<Vec<u8>, StoreError> {
    Ok(image_parts(graph.as_view(), index.as_view(), build, None, Some(journal))?.to_vec())
}

/// Serialises a graph and its index (current version) with the build's
/// thread-count-invariant counters recorded in the optional `build_stats`
/// section. Everything else matches [`serialize_with`]; determinism holds
/// per `(graph, index, build, stats)` tuple — stats carry no wall times,
/// so the same build configuration yields byte-identical files at any
/// thread count.
pub fn serialize_with_stats(
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
    stats: &StoredBuildStats,
) -> Result<Vec<u8>, StoreError> {
    Ok(image_parts(graph.as_view(), index.as_view(), build, Some(stats), None)?.to_vec())
}

/// Recomputes and patches the header checksum of a serialised container.
///
/// Intended for tooling and corruption tests that deliberately edit a file
/// and need it internally consistent again; normal writers never need this.
///
/// # Panics
/// Panics if `bytes` is shorter than the fixed header.
pub fn rewrite_checksum(bytes: &mut [u8]) {
    let crc = file_checksum(bytes);
    bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&crc.to_le_bytes());
}

fn u32_le(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

fn u64_le(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

fn corrupt(what: impl Into<String>) -> StoreError {
    StoreError::Corrupt { what: what.into() }
}

/// Parses and validates the header and section table, returning the layout.
///
/// Checks, in order: magic, header length, version (exactly
/// [`FORMAT_VERSION`]), declared vs actual file length (truncation; bytes
/// past the declared length are the journal tail and are not looked at
/// here), checksum over the image, then section-table geometry (known kinds,
/// element sizes, 8-byte alignment, in-bounds, non-overlapping) and
/// element counts against the header metadata. Semantic validation of the array *contents* happens
/// afterwards in `IndexStore` via `GraphView::from_csr` /
/// `IndexView::from_parts`.
pub(crate) fn parse_and_validate(bytes: &[u8]) -> Result<Layout, StoreError> {
    // Magic first (when at least 8 bytes exist): "this is not an index
    // file" is a more useful diagnosis than "truncated" for foreign files.
    if bytes.len() >= 8 {
        let magic: [u8; 8] = bytes[0..8].try_into().expect("bounds checked");
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    let version = u32_le(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let file_len = u64_le(bytes, 16);
    if (bytes.len() as u64) < file_len {
        return Err(StoreError::Truncated {
            expected: file_len,
            actual: bytes.len() as u64,
        });
    }
    if file_len < HEADER_LEN as u64 {
        return Err(corrupt(format!(
            "declared length {file_len} shorter than the {HEADER_LEN}-byte header"
        )));
    }
    // Bytes past the declared length are the journal tail, decoded by
    // `tail::parse`; from here on `bytes` is the image alone.
    let bytes = &bytes[..file_len as usize];
    let stored = u64_le(bytes, CHECKSUM_OFFSET);
    let computed = file_checksum(bytes);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }

    // The required sections plus any of the optional trailing ones.
    let section_count = u32_le(bytes, 12) as usize;
    if !(NUM_REQUIRED_SECTIONS..=SECTION_TABLE.len()).contains(&section_count) {
        return Err(corrupt(format!(
            "header declares {section_count} sections, expected {NUM_REQUIRED_SECTIONS} \
             through {}",
            SECTION_TABLE.len()
        )));
    }
    let table_end = HEADER_LEN + section_count * SECTION_ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(corrupt("section table extends past end of file"));
    }

    let meta = StoreMeta {
        version,
        file_len,
        checksum: stored,
        num_vertices: u64_le(bytes, 32),
        num_edges: u64_le(bytes, 40),
        num_landmarks: u64_le(bytes, 48),
        label_entries: u64_le(bytes, 56),
        build: BuildInfo {
            threads: u32_le(bytes, BUILD_META_OFFSET),
            batch_size: u32_le(bytes, BUILD_META_OFFSET + 4),
            strategy: SelectionStrategy::DegreeRank,
        },
        // The reserved header bytes (72..96) are deliberately not
        // validated: older writers stored a landmark-selection tag and seed
        // there, and a future writer may use them without breaking this
        // reader.
    };

    let mut ranges: [Option<Range<usize>>; MAX_SECTION_KINDS] = Default::default();
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(section_count);
    for i in 0..section_count {
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let kind_raw = u32_le(bytes, at);
        let kind = SectionKind::from_u32(kind_raw)
            .ok_or_else(|| corrupt(format!("unknown section kind {kind_raw}")))?;
        let elem_size = u32_le(bytes, at + 4);
        let offset = u64_le(bytes, at + 8);
        let len = u64_le(bytes, at + 16);
        let name = kind.name();
        if elem_size != kind.elem_size() {
            return Err(corrupt(format!(
                "section {name} declares element size {elem_size}, expected {}",
                kind.elem_size()
            )));
        }
        if offset % 8 != 0 {
            return Err(corrupt(format!(
                "section {name} offset {offset} not 8-byte aligned"
            )));
        }
        if offset < table_end as u64 {
            return Err(corrupt(format!("section {name} overlaps header/table")));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt(format!("section {name} length overflows")))?;
        if end > file_len {
            return Err(corrupt(format!("section {name} extends past end of file")));
        }
        if len % elem_size as u64 != 0 {
            return Err(corrupt(format!(
                "section {name} length {len} not a multiple of element size {elem_size}"
            )));
        }
        let slot = &mut ranges[kind as u32 as usize - 1];
        if slot.is_some() {
            return Err(corrupt(format!("duplicate section {name}")));
        }
        *slot = Some(offset as usize..end as usize);
        spans.push((offset, end));
    }
    spans.sort_unstable();
    for pair in spans.windows(2) {
        if pair[1].0 < pair[0].1 {
            return Err(corrupt("overlapping sections"));
        }
    }

    // A short table could have smuggled an optional entry in place of a
    // required section, so check presence explicitly.
    for kind in &SECTION_TABLE[..NUM_REQUIRED_SECTIONS] {
        if ranges[*kind as u32 as usize - 1].is_none() {
            return Err(corrupt(format!("missing section {}", kind.name())));
        }
    }
    let take = |kind: SectionKind| -> Range<usize> {
        ranges[kind as u32 as usize - 1]
            .clone()
            .expect("required kinds checked present above")
    };
    let layout = Layout {
        meta,
        graph_offsets: take(SectionKind::GraphOffsets),
        graph_neighbors: take(SectionKind::GraphNeighbors),
        landmarks: take(SectionKind::Landmarks),
        landmark_rank: take(SectionKind::LandmarkRank),
        label_offsets: take(SectionKind::LabelOffsets),
        label_entries: take(SectionKind::LabelEntries),
        highway: take(SectionKind::Highway),
        build_stats: ranges[SectionKind::BuildStats as u32 as usize - 1].clone(),
        journal: ranges[SectionKind::Journal as u32 as usize - 1].clone(),
    };

    // Element counts must agree with the header metadata.
    let elems = |r: &Range<usize>, elem: usize| ((r.end - r.start) / elem) as u64;
    let expect = |name: &str, actual: u64, expected: u64| -> Result<(), StoreError> {
        if actual != expected {
            Err(corrupt(format!(
                "section {name} holds {actual} elements, header metadata implies {expected}"
            )))
        } else {
            Ok(())
        }
    };
    let nv = meta.num_vertices;
    let k = meta.num_landmarks;
    expect(
        "graph_offsets",
        elems(&layout.graph_offsets, 8),
        nv.checked_add(1)
            .ok_or_else(|| corrupt("vertex count overflows"))?,
    )?;
    expect(
        "graph_neighbors",
        elems(&layout.graph_neighbors, 4),
        meta.num_edges
            .checked_mul(2)
            .ok_or_else(|| corrupt("edge count overflows"))?,
    )?;
    expect("landmarks", elems(&layout.landmarks, 4), k)?;
    expect("landmark_rank", elems(&layout.landmark_rank, 4), nv)?;
    expect("label_offsets", elems(&layout.label_offsets, 8), nv + 1)?;
    expect(
        "label_entries",
        elems(&layout.label_entries, 4),
        meta.label_entries,
    )?;
    expect(
        "highway",
        elems(&layout.highway, 4),
        k.checked_mul(k)
            .ok_or_else(|| corrupt("landmark count overflows"))?,
    )?;
    if let Some(stats) = &layout.build_stats {
        // Contents are tag-versioned and decoded leniently (see
        // `StoredBuildStats::decode`); geometry just has to be non-empty.
        if elems(stats, 8) == 0 {
            return Err(corrupt("section build_stats is empty"));
        }
    }
    if let Some(journal) = &layout.journal {
        // Full decoding (and the hard error on an undecodable payload)
        // happens at open; here just require the fixed preamble to exist.
        if elems(journal, 8) < 3 {
            return Err(corrupt("section journal shorter than its preamble"));
        }
    }

    Ok(layout)
}
