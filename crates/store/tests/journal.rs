//! Journal behaviour: replay-on-open answer identity, compaction, and
//! journal corruption — for the journal section and for the frames
//! appended after the image (the torn-tail sweep, damaged and foreign
//! frames, and the writer that appends them).

use hcl_core::{bfs, testkit, EdgeDelta, Graph, PatchedGraph};
use hcl_index::{BuildOptions, HighwayCoverIndex, PatchedIndex, QueryContext};
use hcl_store::{
    compact_file, encode_tail_frame, serialize, serialize_with_journal, BuildInfo, IndexStore,
    JournalWriter, StoreError, StoredJournal, TailInfo,
};
use std::sync::Arc;

fn build(graph: &Graph, k: usize) -> HighwayCoverIndex {
    HighwayCoverIndex::build_with(
        graph,
        &BuildOptions {
            num_landmarks: k,
            ..Default::default()
        },
    )
}

/// A deterministic mixed edit script that is effective on the given graph
/// (every delta changes it).
fn script(graph: &Graph, len: usize, seed: u64) -> Vec<EdgeDelta> {
    let mut overlay = PatchedGraph::new(graph.as_view());
    let mut rng = testkit::SplitMix64::new(seed);
    let n = graph.num_vertices() as u64;
    let mut out = Vec::new();
    while out.len() < len {
        let u = rng.next_below(n) as u32;
        let v = rng.next_below(n) as u32;
        if u == v {
            continue;
        }
        let delta = if overlay.has_edge(u, v) {
            EdgeDelta::delete(u, v)
        } else {
            EdgeDelta::insert(u, v)
        };
        assert!(overlay.apply(delta).unwrap());
        out.push(delta);
    }
    out
}

#[test]
fn journalled_open_replays_to_current_answers() {
    let base = testkit::barabasi_albert(80, 3, 11);
    let index = build(&base, 6);
    let deltas = script(&base, 10, 0xD1CE);
    let journal = StoredJournal {
        deltas: deltas.clone(),
        compactions: 0,
    };
    let bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &journal).unwrap();
    let store = IndexStore::from_bytes(&bytes).unwrap();

    assert_eq!(store.meta().version, 7);
    assert_eq!(store.journal().unwrap().deltas, deltas);
    assert!(store.journal_bytes() > 0);
    // Base sections still carry the pre-edit graph; current views don't.
    assert_eq!(store.base_graph().num_edges(), base.num_edges());

    let mut overlay = PatchedGraph::new(base.as_view());
    for &d in &deltas {
        overlay.apply(d).unwrap();
    }
    let edited = overlay.to_graph();
    assert_eq!(store.graph().num_edges(), edited.num_edges());

    // Replayed answers equal ground truth on the edited graph.
    let mut ctx = QueryContext::new();
    let mut scratch = bfs::BfsScratch::new();
    for u in (0..80).step_by(3) {
        for v in (0..80).step_by(7) {
            assert_eq!(
                store.index().query_with(store.graph(), &mut ctx, u, v),
                bfs::distance_with(&edited, u, v, &mut scratch),
                "replayed answer wrong for ({u}, {v})"
            );
        }
    }
}

#[test]
fn empty_journal_serves_base_sections_directly() {
    let base = testkit::grid(5, 5);
    let index = build(&base, 3);
    let journal = StoredJournal {
        deltas: Vec::new(),
        compactions: 4,
    };
    let bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &journal).unwrap();
    let store = IndexStore::from_bytes(&bytes).unwrap();
    assert_eq!(store.journal().unwrap().compactions, 4);
    assert!(store.journal().unwrap().is_empty());
    assert_eq!(store.graph().num_edges(), base.num_edges());
}

#[test]
fn plain_serialize_has_no_journal_section() {
    let base = testkit::path(6);
    let index = build(&base, 2);
    let store = IndexStore::from_bytes(&serialize(&base, &index).unwrap()).unwrap();
    assert_eq!(store.meta().version, 7);
    assert!(store.journal().is_none());
    assert_eq!(store.journal_bytes(), 0);
}

#[test]
fn compact_folds_journal_and_preserves_answers() {
    let dir = tempdir();
    let path = dir.join("compact.hcl");
    let base = testkit::barabasi_albert(60, 3, 21);
    let index = build(&base, 5);
    let deltas = script(&base, 8, 0xC0FFEE);
    let journal = StoredJournal {
        deltas,
        compactions: 2,
    };
    let bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &journal).unwrap();
    std::fs::write(&path, &bytes).unwrap();

    let before = IndexStore::open(&path).unwrap();
    let reference: Vec<Option<u32>> = {
        let mut ctx = QueryContext::new();
        (0..60u32)
            .map(|v| before.index().query_with(before.graph(), &mut ctx, 0, v))
            .collect()
    };
    let edited_edges = before.graph().num_edges();
    drop(before);

    let report = compact_file(&path).unwrap();
    assert_eq!(report.deltas_compacted, 8);
    assert_eq!(report.compactions, 3);

    let after = IndexStore::open(&path).unwrap();
    assert!(after.journal().unwrap().is_empty());
    assert_eq!(after.journal().unwrap().compactions, 3);
    // The journal folded into the base sections: base == current now.
    assert_eq!(after.base_graph().num_edges(), edited_edges);
    let mut ctx = QueryContext::new();
    for v in 0..60u32 {
        assert_eq!(
            after.index().query_with(after.graph(), &mut ctx, 0, v),
            reference[v as usize],
            "answer changed across compaction for (0, {v})"
        );
    }

    // Compacting an already-clean file is a no-op.
    let report = compact_file(&path).unwrap();
    assert_eq!(report.deltas_compacted, 0);
    assert_eq!(report.compactions, 3);
}

#[test]
fn undecodable_journal_is_a_hard_error() {
    let base = testkit::path(5);
    let index = build(&base, 2);
    let journal = StoredJournal {
        deltas: vec![EdgeDelta::insert(0, 3)],
        compactions: 0,
    };
    let mut bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &journal).unwrap();
    // The journal is the last section: word 0 of its payload is the format
    // tag. Stamp an unknown tag and re-checksum; the open must refuse
    // rather than serve stale base answers.
    let len = bytes.len();
    bytes[len - 5 * 8..len - 4 * 8].copy_from_slice(&99u64.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    let opened = IndexStore::from_bytes(&bytes);
    assert_verify_file_agrees(&bytes, &opened, "unknown journal tag");
    match opened {
        Err(StoreError::Corrupt { what }) => {
            assert!(what.contains("journal"), "unexpected diagnosis: {what}")
        }
        other => panic!("expected journal corruption error, got {other:?}"),
    }

    // An out-of-range delta is equally fatal.
    let bad = StoredJournal {
        deltas: vec![EdgeDelta::insert(0, 77)],
        compactions: 0,
    };
    let bytes = serialize_with_journal(&base, &index, BuildInfo::default(), &bad).unwrap();
    let opened = IndexStore::from_bytes(&bytes);
    assert_verify_file_agrees(&bytes, &opened, "out-of-range section delta");
    match opened {
        Err(StoreError::Corrupt { what }) => {
            assert!(what.contains("delta"), "unexpected diagnosis: {what}")
        }
        other => panic!("expected delta corruption error, got {other:?}"),
    }
}

/// A journalled image plus a tail: two deltas in the journal section, then
/// `batches` as one frame each. Returns the image, each frame's bytes,
/// and every delta in replay order.
fn image_and_frames(
    base: &Graph,
    batch_lens: &[usize],
    seed: u64,
) -> (Vec<u8>, Vec<Vec<u8>>, Vec<EdgeDelta>) {
    let index = build(base, 5);
    let all = script(base, 2 + batch_lens.iter().sum::<usize>(), seed);
    let journal = StoredJournal {
        deltas: all[..2].to_vec(),
        compactions: 1,
    };
    let image = serialize_with_journal(base, &index, BuildInfo::default(), &journal).unwrap();
    let checksum = IndexStore::from_bytes(&image).unwrap().meta().checksum;
    let mut frames = Vec::new();
    let mut seq = 2;
    for &len in batch_lens {
        frames.push(encode_tail_frame(&all[seq..seq + len], seq as u64, checksum).unwrap());
        seq += len;
    }
    (image, frames, all)
}

fn concat(image: &[u8], frames: &[&[u8]]) -> Vec<u8> {
    let mut bytes = image.to_vec();
    for frame in frames {
        bytes.extend_from_slice(frame);
    }
    bytes
}

/// The scrubber's verdict on `bytes` as a file must be the validated
/// open's — the same metadata, or the same typed error — although
/// `verify_file` stops before anything is replayed.
fn assert_verify_file_agrees(bytes: &[u8], opened: &Result<IndexStore, StoreError>, what: &str) {
    let dir = tempdir();
    let path = dir.join("verify.hcl");
    std::fs::write(&path, bytes).unwrap();
    let verdict = hcl_store::verify_file(&path);
    let expected = opened.as_ref().map(IndexStore::meta);
    assert_eq!(format!("{verdict:?}"), format!("{expected:?}"), "{what}");
}

fn assert_corrupt(bytes: &[u8], what: &str) {
    let validated = IndexStore::from_bytes(bytes);
    assert_verify_file_agrees(bytes, &validated, what);
    match validated {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("{what}: expected a corruption error, got {other:?}"),
    }
}

#[test]
fn tail_frames_replay_after_the_journal_section() {
    let base = testkit::barabasi_albert(70, 3, 5);
    let (image, frames, all) = image_and_frames(&base, &[1, 2, 3], 0x7A11);
    assert_eq!(frames[0].len(), 40, "a single-delta frame is five words");
    let bytes = concat(&image, &[&frames[0], &frames[1], &frames[2]]);
    let tail_len = (bytes.len() - image.len()) as u64;

    let validated = IndexStore::from_bytes(&bytes);
    assert_verify_file_agrees(&bytes, &validated, "three intact frames");
    let store = validated.unwrap();
    let journal = store.journal().unwrap();
    assert_eq!(
        journal.deltas, all,
        "section deltas ++ tail deltas, in order"
    );
    assert_eq!(journal.compactions, 1);
    assert_eq!(store.meta().file_len, image.len() as u64, "the image");
    assert_eq!(store.len_bytes(), bytes.len() as u64, "the whole file");
    assert_eq!(
        store.tail(),
        TailInfo {
            frames: 3,
            frame_bytes: tail_len,
            torn_bytes: 0
        }
    );
    let section = store
        .sections()
        .iter()
        .find(|s| s.name == "journal")
        .unwrap()
        .len_bytes;
    assert_eq!(store.journal_bytes(), section + tail_len);
    store.verify_checksum().expect("the image still verifies");

    let mut overlay = PatchedGraph::new(base.as_view());
    for &d in &all {
        overlay.apply(d).unwrap();
    }
    let edited = overlay.to_graph();
    let mut ctx = QueryContext::new();
    let mut scratch = bfs::BfsScratch::new();
    for u in (0..70).step_by(3) {
        for v in (0..70).step_by(5) {
            assert_eq!(
                store.index().query_with(store.graph(), &mut ctx, u, v),
                bfs::distance_with(&edited, u, v, &mut scratch),
                "replayed answer wrong for ({u}, {v})"
            );
        }
    }

    // A tail also follows an image that has no journal section at all.
    let index = build(&base, 5);
    let plain = serialize(&base, &index).unwrap();
    let checksum = IndexStore::from_bytes(&plain).unwrap().meta().checksum;
    let frame = encode_tail_frame(&all[..1], 0, checksum).unwrap();
    let store = IndexStore::from_bytes(&concat(&plain, &[&frame])).unwrap();
    assert_eq!(store.journal().unwrap().deltas, all[..1]);
    assert_eq!(store.journal().unwrap().compactions, 0);
}

/// A crash mid-append damages only the last frame: cut the file at every
/// byte inside it and the open is the state before that frame.
#[test]
fn torn_tail_at_every_byte_opens_as_the_state_before_the_last_frame() {
    let base = testkit::barabasi_albert(50, 3, 8);
    let (image, frames, all) = image_and_frames(&base, &[2, 1, 3], 0x70A2);
    let before_last = &all[..all.len() - 3];
    let intact = concat(&image, &[&frames[0], &frames[1]]);
    let intact_tail = (intact.len() - image.len()) as u64;
    for cut in 0..frames[2].len() {
        let bytes = concat(&intact, &[&frames[2][..cut]]);
        let validated = IndexStore::from_bytes(&bytes);
        assert_verify_file_agrees(&bytes, &validated, &format!("cut at {cut}"));
        let store = validated.unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(store.journal().unwrap().deltas, before_last, "cut at {cut}");
        assert_eq!(
            store.tail(),
            TailInfo {
                frames: 2,
                frame_bytes: intact_tail,
                torn_bytes: cut as u64
            },
            "cut at {cut}"
        );
        assert_eq!(store.len_bytes(), bytes.len() as u64);
    }
    // Whole length on disk but not whole contents: the checksum fails and
    // the frame ends the file. (Bytes 24.. are delta 0's endpoints; the
    // last eight are the checksum itself.)
    for at in [24usize, 47, frames[2].len() - 1] {
        let mut damaged = frames[2].clone();
        damaged[at] ^= 0x20;
        let bytes = concat(&intact, &[&damaged]);
        let validated = IndexStore::from_bytes(&bytes);
        assert_verify_file_agrees(&bytes, &validated, &format!("damaged byte {at}"));
        let store = validated.unwrap();
        assert_eq!(store.journal().unwrap().deltas, before_last, "byte {at}");
        assert_eq!(store.tail().torn_bytes, frames[2].len() as u64);
    }
}

/// Anything wrong with a frame that is *not* the last one would drop
/// acknowledged deltas if it were tolerated: every single-bit flip in
/// every word of an earlier frame is a typed error.
#[test]
fn a_damaged_earlier_frame_is_a_typed_error() {
    let base = testkit::barabasi_albert(50, 3, 9);
    let (image, frames, _) = image_and_frames(&base, &[2, 1, 3], 0xBAD5);
    for victim in [0usize, 1] {
        for bit in 0..frames[victim].len() * 8 {
            let mut damaged = frames[victim].clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            let mut parts: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            parts[victim] = &damaged;
            assert_corrupt(
                &concat(&image, &parts),
                &format!("frame {victim}, word {}, bit {}", bit / 64, bit % 64),
            );
        }
    }
}

#[test]
fn foreign_misnumbered_and_non_frame_tails_are_typed_errors() {
    let base = testkit::barabasi_albert(50, 3, 10);
    let (image, frames, all) = image_and_frames(&base, &[1, 1, 1], 0xF0E1);
    let checksum = IndexStore::from_bytes(&image).unwrap().meta().checksum;

    // Bound to another container's checksum (a tail copied across files).
    let foreign = encode_tail_frame(&all[2..3], 2, checksum ^ 1).unwrap();
    assert_corrupt(
        &concat(&image, &[&foreign, &frames[1], &frames[2]]),
        "frame of another container",
    );
    // A sequence gap: frame 1 missing, frame 2 in its place.
    assert_corrupt(&concat(&image, &[&frames[0], &frames[2]]), "sequence gap");
    // A frame replayed twice.
    assert_corrupt(
        &concat(&image, &[&frames[0], &frames[0]]),
        "repeated sequence number",
    );
    // Not a frame at all, behind good frames.
    assert_corrupt(
        &concat(&image, &[&frames[0], b"garbage after the journal"]),
        "non-frame bytes",
    );
    // A well-formed header that declares no deltas.
    let empty = encode_tail_frame(&[], 2, checksum).unwrap();
    assert_corrupt(&concat(&image, &[&empty]), "zero-delta frame");
    // A frame whose delta cannot apply (vertex out of range, self-loop)
    // decodes but must not replay, and the error names why.
    for (delta, cause) in [
        (EdgeDelta::insert(0, 5000), "vertex 5000 out of range"),
        (EdgeDelta::insert(3, 3), "self-loop (3, 3)"),
    ] {
        let bad = concat(
            &image,
            &[&encode_tail_frame(&[delta], 2, checksum).unwrap()],
        );
        assert_corrupt(&bad, "inapplicable delta");
        let why = IndexStore::from_bytes(&bad).unwrap_err().to_string();
        assert!(
            why.contains(&format!("({delta}) cannot be applied: {cause}")),
            "{why}"
        );
    }
}

/// The write path: frames land after an untouched image, a reopen replays
/// them, the stamped generation equals that reopen, a torn remainder is
/// cut by the next append, and a compaction leaves no tail.
#[test]
fn writer_appends_frames_and_stamps_the_generation_a_reopen_would_produce() {
    let dir = tempdir();
    let path = dir.join("writer.hcl");
    let base = testkit::barabasi_albert(60, 3, 33);
    let index = build(&base, 5);
    hcl_store::save(&path, &base, &index).unwrap();
    let image = std::fs::read(&path).unwrap();
    let deltas = script(&base, 4, 0xA99E);

    let opened = IndexStore::open(&path).unwrap();
    let mut writer = JournalWriter::new(&opened, Some(path.clone()));
    assert_eq!(writer.append(&deltas[..1]).unwrap(), 40);
    assert_eq!(writer.append(&deltas[1..3]).unwrap(), 56);
    assert_eq!(
        writer.append(&[]).unwrap(),
        0,
        "an empty batch writes nothing"
    );
    assert_eq!(writer.pending(), 3);

    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk.len(), image.len() + 96);
    assert_eq!(
        &on_disk[..image.len()],
        &image[..],
        "the image is never rewritten"
    );
    hcl_store::verify_file(&path).expect("scrubbers cover the tail");
    let reopened = IndexStore::open(&path).unwrap();
    assert_eq!(reopened.journal().unwrap().deltas, deltas[..3]);

    // The generation is stamped from the caller's live state; here, the
    // reopen's own replay result.
    let (graph, live) = reopened.to_owned_parts();
    let stamped = writer
        .generation(
            PatchedGraph::flat(Arc::new(graph)),
            PatchedIndex::flat(Arc::new(live)),
        )
        .unwrap();
    assert_eq!(stamped.journal(), reopened.journal());
    assert_eq!(stamped.tail(), reopened.tail());
    assert_eq!(stamped.len_bytes(), on_disk.len() as u64);
    assert_eq!(stamped.meta(), reopened.meta());
    assert_eq!(stamped.base_graph().num_edges(), base.num_edges());
    let mut ctx = QueryContext::new();
    for v in 0..60u32 {
        assert_eq!(
            stamped.index().query_with(stamped.graph(), &mut ctx, 7, v),
            reopened
                .index()
                .query_with(reopened.graph(), &mut ctx, 7, v),
        );
    }
    // A live state for some other graph is refused.
    let other = testkit::path(9);
    assert!(matches!(
        writer.generation(
            PatchedGraph::flat(Arc::new(other.clone())),
            PatchedIndex::flat(Arc::new(build(&other, 2)))
        ),
        Err(StoreError::Corrupt { .. })
    ));

    // A crashed append left half a frame: the file opens as before it, and
    // the next writer's first append truncates the remainder away.
    drop((writer, reopened, stamped, opened));
    let frame = encode_tail_frame(
        &deltas[3..],
        3,
        IndexStore::open(&path).unwrap().meta().checksum,
    );
    let mut torn = on_disk.clone();
    torn.extend_from_slice(&frame.unwrap()[..21]);
    std::fs::write(&path, &torn).unwrap();
    let recovered = IndexStore::open(&path).unwrap();
    assert_eq!(recovered.tail().torn_bytes, 21);
    assert_eq!(recovered.journal().unwrap().deltas, deltas[..3]);
    let mut writer = JournalWriter::new(&recovered, Some(path.clone()));
    assert_eq!(writer.append(&deltas[3..]).unwrap(), 40);
    assert_eq!(std::fs::read(&path).unwrap().len(), on_disk.len() + 40);
    let whole = IndexStore::open(&path).unwrap();
    assert_eq!(whole.journal().unwrap().deltas, deltas);
    assert_eq!(whole.tail().torn_bytes, 0);

    // A second writer from a stale open must not overwrite acknowledged
    // frames.
    let mut stale = JournalWriter::new(&recovered, Some(path.clone()));
    assert!(matches!(
        stale.append(&deltas[..1]),
        Err(StoreError::Corrupt { .. })
    ));

    // Compaction: whole new container, live state as the base, no tail.
    let (graph, live) = whole.to_owned_parts();
    let compacted = writer.compact(graph.as_view(), live.as_view()).unwrap();
    assert_eq!(compacted.tail(), TailInfo::default());
    assert!(compacted.journal().unwrap().is_empty());
    assert_eq!(compacted.journal().unwrap().compactions, 1);
    assert_eq!(
        compacted.base_graph().num_edges(),
        whole.graph().num_edges()
    );
    assert_eq!(
        std::fs::read(&path).unwrap().len() as u64,
        compacted.meta().file_len
    );
    // The writer continues on the new container.
    assert_eq!(writer.pending(), 0);
    writer.append(&deltas[..1]).unwrap();
    assert_eq!(IndexStore::open(&path).unwrap().tail().frames, 1);
}

/// A per-call temp dir (no external tempfile dependency), removed on
/// drop. The counter keeps two dirs alive in one thread apart.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn join(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn tempdir() -> TempDir {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hcl-journal-test-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}
