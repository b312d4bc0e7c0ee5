//! The journal tail — self-checksummed frames appended after the
//! container image — and [`JournalWriter`], the one writer that appends
//! them and stamps out the generations that share the image.
//!
//! The byte layout and the torn-vs-corrupt rule are specified in
//! `format.rs`'s module docs ("Journal tail"); this module is the codec
//! ([`encode_tail_frame`] / [`parse`]) and the write path. A non-compacting
//! persist costs one frame write plus one `fdatasync`, whatever the size
//! of the container; only [`JournalWriter::compact`] writes a whole image.
//! The generation a persist is served as ([`JournalWriter::generation`])
//! takes the live state as the update engine cloned it — a `PatchedGraph`
//! and a `PatchedIndex`: the arrays of its last fold (the image's, until
//! one folds), shared, under the overlays of rows patched since — so it
//! copies nothing but the pending journal.
//!
//! This file is on the update-serving path (the `no-panics` lint covers
//! it): every failure is a typed [`StoreError`].

use crate::checksum::{crc64_finish, crc64_init, crc64_update};
use crate::durable::{self, AppendStep, IoDecision, PublishOutcome, StoreIo, SystemIo};
use crate::error::StoreError;
use crate::format::{decode_delta, encode_delta, image_parts, StoredJournal, MAGIC};
use crate::{Base, IndexStore, OpenPhases};
use hcl_core::{EdgeDelta, GraphView, PatchedGraph};
use hcl_index::{IndexView, PatchedIndex};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// "HCLJ": the low half of a frame's first word, so the first four bytes
/// of every frame on disk.
const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"HCLJ");
const WORD: usize = 8;

/// Extent of a file's journal tail, for `inspect`-style tooling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailInfo {
    /// Complete, checksum-verified frames after the container image.
    pub frames: u64,
    /// Bytes those frames occupy.
    pub frame_bytes: u64,
    /// Bytes of a torn final frame after them (never acknowledged; the
    /// next append truncates them away). Zero on a cleanly written file.
    pub torn_bytes: u64,
}

/// A decoded tail: the deltas of every complete frame, in order.
#[derive(Default)]
pub(crate) struct ParsedTail {
    pub(crate) deltas: Vec<EdgeDelta>,
    pub(crate) info: TailInfo,
}

/// Length in bytes of a frame holding `count` deltas.
fn frame_len(count: u64) -> u64 {
    (3 + 2 * count) * WORD as u64
}

/// CRC-64 of a frame body, seeded with the image's header checksum.
fn frame_crc(seed: u64, body: &[u8]) -> u64 {
    let state = crc64_update(crc64_init(), &seed.to_le_bytes());
    crc64_finish(crc64_update(state, body))
}

/// Encodes one tail frame: `deltas` as the pending deltas number
/// `first_seq` onwards of the image whose header checksum is `seed`.
///
/// [`JournalWriter`] is the writer; this is public so tests and tooling
/// can fabricate tails in memory (torn, damaged, bound to the wrong
/// container).
pub fn encode_tail_frame(
    deltas: &[EdgeDelta],
    first_seq: u64,
    seed: u64,
) -> Result<Vec<u8>, StoreError> {
    let count = u32::try_from(deltas.len()).map_err(|_| StoreError::Corrupt {
        what: format!(
            "{} deltas do not fit one journal frame (the count field is 32 bits)",
            deltas.len()
        ),
    })?;
    let mut out = Vec::with_capacity(frame_len(u64::from(count)) as usize);
    let head = (u64::from(count) << 32) | u64::from(FRAME_MAGIC);
    out.extend_from_slice(&head.to_le_bytes());
    out.extend_from_slice(&first_seq.to_le_bytes());
    for delta in deltas {
        for word in encode_delta(delta) {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
    let crc = frame_crc(seed, &out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Word `i` of `bytes`, if all eight of its bytes are present.
fn word(bytes: &[u8], i: u64) -> Option<u64> {
    let at = usize::try_from(i).ok()?.checked_mul(WORD)?;
    let chunk = bytes.get(at..at.checked_add(WORD)?)?;
    chunk.try_into().ok().map(u64::from_le_bytes)
}

enum Frame {
    Complete {
        deltas: Vec<EdgeDelta>,
        len: usize,
    },
    /// Short, or checksum-failed and ending at the end of the file: the
    /// append that wrote it never finished, so it was never acknowledged.
    Torn,
}

/// Decodes the frame at the start of `rest` (everything from the frame's
/// first byte to the end of the file), expected to carry sequence number
/// `seq`; `index` is only for diagnostics.
fn decode_frame(rest: &[u8], seed: u64, seq: u64, index: u64) -> Result<Frame, StoreError> {
    let bad = |why: String| StoreError::Corrupt {
        what: format!("journal tail frame {index} {why}"),
    };
    let magic = FRAME_MAGIC.to_le_bytes();
    let shown = rest.len().min(magic.len());
    if rest[..shown] != magic[..shown] {
        return Err(bad(format!(
            "is not a frame: {} trailing bytes without the frame magic",
            rest.len()
        )));
    }
    let Some(head) = word(rest, 0) else {
        return Ok(Frame::Torn);
    };
    let count = head >> 32;
    if count == 0 {
        return Err(bad("declares zero deltas".into()));
    }
    if let Some(found) = word(rest, 1) {
        if found != seq {
            return Err(bad(format!(
                "breaks the sequence: carries number {found}, expected {seq}"
            )));
        }
    }
    // Every delta word that is present must decode, in a short frame too: a
    // torn write leaves a prefix of a well-formed frame, whereas an earlier
    // frame whose count was corrupted upwards runs past the end of the file
    // with the checksums and headers of the acknowledged frames behind it
    // sitting where op words belong.
    let mut deltas = Vec::new();
    for i in 0..count {
        let Some(op) = word(rest, 2 + 2 * i) else {
            break;
        };
        let ends = word(rest, 3 + 2 * i);
        let delta = decode_delta(op, ends.unwrap_or(0))
            .ok_or_else(|| bad(format!("holds an unknown delta op {op:#x}")))?;
        if ends.is_none() {
            break;
        }
        deltas.push(delta);
    }
    let len = frame_len(count);
    if (rest.len() as u64) < len {
        return Ok(Frame::Torn);
    }
    let len = len as usize;
    if word(rest, 2 + 2 * count) == Some(frame_crc(seed, &rest[..len - WORD])) {
        Ok(Frame::Complete { deltas, len })
    } else if rest.len() == len {
        Ok(Frame::Torn)
    } else {
        Err(bad(format!(
            "fails its checksum with {} bytes after it (or belongs to another container)",
            rest.len() - len
        )))
    }
}

/// Decodes the bytes after a container image. `seed` is the image's header
/// checksum and `first_seq` the number of deltas in its journal section.
pub(crate) fn parse(tail: &[u8], seed: u64, first_seq: u64) -> Result<ParsedTail, StoreError> {
    let mut out = ParsedTail::default();
    let mut pos = 0usize;
    while pos < tail.len() {
        let seq = first_seq + out.deltas.len() as u64;
        match decode_frame(&tail[pos..], seed, seq, out.info.frames)? {
            Frame::Complete { deltas, len } => {
                out.deltas.extend(deltas);
                out.info.frames += 1;
                pos += len;
            }
            Frame::Torn => {
                out.info.torn_bytes = (tail.len() - pos) as u64;
                break;
            }
        }
    }
    out.info.frame_bytes = pos as u64;
    Ok(out)
}

/// How a tail append ended when it did not fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The frame is durably on disk (`bytes` long; 0 for an in-memory
    /// image, which has no file to append to).
    Committed {
        /// Bytes written to the file.
        bytes: u64,
    },
    /// A simulated power cut stopped the append at this step; on-disk
    /// state is whatever the completed steps left. [`SystemIo`] never
    /// produces this outcome.
    Crashed(AppendStep),
}

/// The single writer of one container's update history.
///
/// Created from an opened [`IndexStore`], it shares that store's validated
/// image and carries the pending journal forward. Per update batch the
/// caller [`append`](JournalWriter::append)s the batch's deltas — one
/// frame, synced before it returns — and stamps the repaired state into
/// the next [`generation`](JournalWriter::generation), an `IndexStore`
/// answering exactly as reopening the file would, built without
/// serialising or re-validating anything: its base arrays and the
/// overlays of patched rows are shared with the update engine.
/// [`compact`](JournalWriter::compact) is the one operation that writes a
/// whole container.
///
/// One writer per file: frames are positioned after the last frame *this*
/// writer knows of, and a file that grew behind its back is refused.
pub struct JournalWriter {
    base: Arc<Base>,
    /// Journal section ++ tail frames, including everything appended
    /// through this writer.
    journal: StoredJournal,
    tail: TailInfo,
    /// `None` for an in-memory image: deltas are journalled in memory only.
    path: Option<PathBuf>,
    /// Append handle; opened (file identity checked, torn remainder cut)
    /// by the first append and dropped by any failure or compaction.
    file: Option<File>,
}

impl JournalWriter {
    /// A writer continuing `store`'s history: frames go to `path`, which
    /// must be the file `store` was opened from.
    pub fn new(store: &IndexStore, path: Option<PathBuf>) -> Self {
        Self {
            base: Arc::clone(&store.base),
            journal: store.journal.clone().unwrap_or_default(),
            tail: TailInfo {
                torn_bytes: 0,
                ..store.tail
            },
            path,
            file: None,
        }
    }

    /// The file frames are appended to (`None` for an in-memory image).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Pending (journalled, not yet compacted) deltas.
    pub fn pending(&self) -> usize {
        self.journal.len()
    }

    /// Compactions of this container so far.
    pub fn compactions(&self) -> u64 {
        self.journal.compactions
    }

    /// Byte offset just past the last frame this writer knows of.
    fn end(&self) -> u64 {
        self.base.layout.meta.file_len + self.tail.frame_bytes
    }

    /// Durably appends `deltas` as one frame; returns the bytes written.
    pub fn append(&mut self, deltas: &[EdgeDelta]) -> Result<u64, StoreError> {
        match self.append_with(deltas, &SystemIo)? {
            AppendOutcome::Committed { bytes } => Ok(bytes),
            AppendOutcome::Crashed(step) => Err(StoreError::Append {
                step: step.name(),
                source: std::io::Error::other("simulated power cut"),
            }),
        }
    }

    /// [`append`](JournalWriter::append) through an injectable I/O layer.
    /// On an error the journal is unchanged and whatever reached the file
    /// is cut off again (best effort; a leftover is a torn tail).
    pub fn append_with<Io: StoreIo>(
        &mut self,
        deltas: &[EdgeDelta],
        io: &Io,
    ) -> Result<AppendOutcome, StoreError> {
        if deltas.is_empty() {
            return Ok(AppendOutcome::Committed { bytes: 0 });
        }
        let Some(path) = self.path.clone() else {
            self.journal.deltas.extend_from_slice(deltas);
            return Ok(AppendOutcome::Committed { bytes: 0 });
        };
        let seed = self.base.layout.meta.checksum;
        let frame = encode_tail_frame(deltas, self.journal.len() as u64, seed)?;
        let end = self.end();

        let mut file = match self.file.take() {
            Some(file) => file,
            None => match step(io, AppendStep::OpenTail, |_| self.open_tail(&path))? {
                Some(file) => file,
                None => return Ok(AppendOutcome::Crashed(AppendStep::OpenTail)),
            },
        };
        match write_frame(&mut file, &frame, end, io) {
            Ok(None) => {}
            Ok(Some(crashed_at)) => return Ok(AppendOutcome::Crashed(crashed_at)),
            Err(e) => {
                let _ = file.set_len(end);
                return Err(e);
            }
        }

        self.file = Some(file);
        self.journal.deltas.extend_from_slice(deltas);
        self.tail.frames += 1;
        self.tail.frame_bytes += frame.len() as u64;
        Ok(AppendOutcome::Committed {
            bytes: frame.len() as u64,
        })
    }

    /// Opens the container for appending: it must still be the file this
    /// writer descends from, holding exactly the frames the writer knows
    /// of plus at most a torn remainder, which is truncated away.
    fn open_tail(&self, path: &Path) -> Result<File, StoreError> {
        let changed = |why: String| StoreError::Corrupt {
            what: format!("{} {why}", path.display()),
        };
        let meta = self.base.layout.meta;
        let mut file = File::options().read(true).write(true).open(path)?;
        let mut head = [0u8; 32];
        file.read_exact(&mut head)?;
        let field = |at: usize| word(&head, (at / WORD) as u64);
        if head[..8] != MAGIC
            || field(16) != Some(meta.file_len)
            || field(24) != Some(meta.checksum)
        {
            return Err(changed(
                "is no longer the container this writer was opened from".into(),
            ));
        }
        let end = self.end();
        let len = file.metadata()?.len();
        if len < end {
            return Err(changed(format!(
                "lost acknowledged journal frames: {len} bytes on disk, {end} expected"
            )));
        }
        if len > end {
            let mut extra = Vec::new();
            file.seek(SeekFrom::Start(end))?;
            file.read_to_end(&mut extra)?;
            if parse(&extra, meta.checksum, self.journal.len() as u64)?
                .info
                .frames
                > 0
            {
                return Err(changed(
                    "holds journal frames this writer did not append (a second writer?)".into(),
                ));
            }
            file.set_len(end)?;
            durable::sync_data(&file)?;
        }
        Ok(file)
    }

    /// The generation after everything appended so far: `graph` and
    /// `index` are the live state (what replaying the pending journal over
    /// the image yields — the caller's repair path produced them) as base
    /// arrays under shared overlays, served beside the shared,
    /// already-validated image. The one cost that grows with
    /// history is the copy of the pending journal (12 bytes per delta since
    /// the last compaction).
    pub fn generation(
        &self,
        graph: PatchedGraph,
        index: PatchedIndex,
    ) -> Result<IndexStore, StoreError> {
        let (graph_vertices, index_vertices) = (
            graph.as_view().num_vertices(),
            index.as_view().num_vertices(),
        );
        if graph_vertices != index_vertices {
            return Err(StoreError::GraphIndexMismatch {
                graph_vertices,
                index_vertices,
            });
        }
        if graph_vertices as u64 != self.base.layout.meta.num_vertices {
            return Err(StoreError::Corrupt {
                what: format!(
                    "live state has {graph_vertices} vertices, the container it descends from {}",
                    self.base.layout.meta.num_vertices
                ),
            });
        }
        let journalled = self.base.layout.journal.is_some() || !self.journal.is_empty();
        Ok(IndexStore {
            base: Arc::clone(&self.base),
            journal: journalled.then(|| self.journal.clone()),
            tail: self.tail,
            graph,
            index,
            open_phases: OpenPhases::default(),
        })
    }

    /// Compacts the journal: durably publishes a whole new container with
    /// the live `graph` / `index` as its base, an empty journal, no tail
    /// and the compaction counter bumped, then continues from a validated
    /// reopen of it — the returned store, which is also the generation to
    /// serve. Both views must be flat (fold a patched state first): a
    /// patched one is [`StoreError::Patched`], and nothing is written.
    /// (An in-memory image is re-imaged in memory instead.)
    pub fn compact(
        &mut self,
        graph: GraphView<'_>,
        index: IndexView<'_>,
    ) -> Result<IndexStore, StoreError> {
        self.compact_with(graph, index, &SystemIo)?
            .ok_or_else(|| StoreError::Publish {
                step: "compact",
                source: std::io::Error::other("simulated power cut"),
            })
    }

    /// [`compact`](JournalWriter::compact) through an injectable I/O
    /// layer; `None` when a simulated power cut stopped the publish.
    pub fn compact_with<Io: StoreIo>(
        &mut self,
        graph: GraphView<'_>,
        index: IndexView<'_>,
        io: &Io,
    ) -> Result<Option<IndexStore>, StoreError> {
        let compacted = StoredJournal {
            deltas: Vec::new(),
            compactions: self.journal.compactions + 1,
        };
        let image = image_parts(
            graph,
            index,
            self.base.layout.meta.build,
            None,
            Some(&compacted),
        )?;
        // The append handle points at the inode the rename unlinks.
        self.file = None;
        let store = match &self.path {
            Some(path) => {
                let slices = image.slices();
                if let PublishOutcome::Crashed(_) = durable::publish_slices_with(path, &slices, io)?
                {
                    return Ok(None);
                }
                IndexStore::open(path)?
            }
            None => IndexStore::from_slices(&image.slices())?,
        };
        *self = Self::new(&store, self.path.take());
        Ok(Some(store))
    }
}

/// Writes `frame` at offset `end` and syncs it. `Ok(Some(step))` is a
/// simulated power cut at that step.
fn write_frame<Io: StoreIo>(
    file: &mut File,
    frame: &[u8],
    end: u64,
    io: &Io,
) -> Result<Option<AppendStep>, StoreError> {
    let wrote = step(io, AppendStep::WriteFrame, |cut| {
        let upto = cut.map_or(frame.len(), |n| n.min(frame.len()));
        file.seek(SeekFrom::Start(end))?;
        file.write_all(&frame[..upto])?;
        if cut.is_some() {
            // Torn write: the prefix is what the cut left on disk.
            let _ = durable::sync_data(file);
        }
        Ok(())
    })?;
    if wrote.is_none() {
        return Ok(Some(AppendStep::WriteFrame));
    }
    let synced = step(io, AppendStep::SyncTail, |_| Ok(durable::sync_data(file)?))?;
    Ok(synced.is_none().then_some(AppendStep::SyncTail))
}

/// Runs one append step under the injected decision. `run` receives
/// `Some(n)` when only the first `n` bytes may reach the file (a torn
/// write). `Ok(None)` is a simulated power cut.
fn step<Io: StoreIo, T>(
    io: &Io,
    step: AppendStep,
    run: impl FnOnce(Option<usize>) -> Result<T, StoreError>,
) -> Result<Option<T>, StoreError> {
    let named = |e: StoreError| match e {
        StoreError::Io(source) => StoreError::Append {
            step: step.name(),
            source,
        },
        other => other,
    };
    match io.decide_append(step) {
        IoDecision::Proceed => run(None).map(Some).map_err(named),
        IoDecision::Fail => Err(named(StoreError::Io(durable::injected_error(step.name())))),
        IoDecision::CrashBefore => Ok(None),
        IoDecision::CrashDuring(n) => {
            if step == AppendStep::WriteFrame {
                run(Some(n)).map_err(named)?;
            }
            Ok(None)
        }
        IoDecision::CrashAfter => {
            run(None).map_err(named)?;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x5EED_5EED_5EED_5EED;

    fn frames(batches: &[&[EdgeDelta]]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut seq = 4; // as if the journal section held four deltas
        for batch in batches {
            out.extend(encode_tail_frame(batch, seq, SEED).unwrap());
            seq += batch.len() as u64;
        }
        out
    }

    #[test]
    fn frames_round_trip_in_order() {
        let a = [EdgeDelta::insert(1, 2)];
        let b = [EdgeDelta::delete(3, 4), EdgeDelta::insert(u32::MAX, 0)];
        let bytes = frames(&[&a, &b]);
        assert_eq!(bytes.len(), 40 + 56, "24 + 16 bytes per delta");
        let parsed = parse(&bytes, SEED, 4).unwrap();
        assert_eq!(parsed.deltas, [a.as_slice(), b.as_slice()].concat());
        assert_eq!(
            parsed.info,
            TailInfo {
                frames: 2,
                frame_bytes: 96,
                torn_bytes: 0
            }
        );
        assert_eq!(parse(&[], SEED, 4).unwrap().info, TailInfo::default());
    }

    #[test]
    fn inflated_count_in_an_earlier_frame_is_not_a_torn_tail() {
        let a = [EdgeDelta::insert(1, 2)];
        let mut bytes = frames(&[&a, &a, &a]);
        // Frame 0 now claims 9 deltas: it runs past the end of the file
        // over frames 1 and 2, whose headers are not op words.
        bytes[4] = 9;
        assert!(matches!(
            parse(&bytes, SEED, 4),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
