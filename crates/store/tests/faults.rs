//! Torn-write / power-cut simulation over the durable publish sequence.
//!
//! Every fault schedule — an injected hard failure or a simulated power
//! cut at each [`PublishStep`], plus torn writes that cut the payload at
//! arbitrary byte positions — is replayed through the [`StoreIo`]
//! injection layer, and the survivor file is reopened. The property under
//! test is the crash-safety trichotomy: [`IndexStore::open`] on the
//! target path always yields the **old complete container**, the **new
//! complete container**, or a **typed error** — never accepted garbage.
//!
//! The same schedule discipline covers the live-update write path: a
//! journal-frame append (open-tail, write-frame with a cut at every byte,
//! sync-tail) and the compacting persist that folds the journal into a new
//! container. There the survivor is the **old state** (every acknowledged
//! delta) or the **new state** (those plus the batch in flight), and an
//! acknowledged delta is never lost.
//!
//! Set `HCL_FAULT_SWEEP=full` (the fault-injection CI job does) to
//! densify the torn-write cut positions from a handful of landmarks to a
//! sweep across the whole payload.

use hcl_core::{testkit, EdgeDelta, Graph};
use hcl_index::HighwayCoverIndex;
use hcl_store::durable::{
    publish_slices_with, AppendStep, IoDecision, PublishOutcome, PublishStep, StoreIo, SystemIo,
};
use hcl_store::{
    AppendOutcome, BuildInfo, IndexStore, JournalWriter, StoreError, StoredBuildStats,
};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// The top `k` by degree, labelled with the auto-mode contexts.
fn build_top_k(g: &Graph, k: usize) -> HighwayCoverIndex {
    let landmarks = g.top_k_by_degree(k);
    HighwayCoverIndex::build(g, &landmarks, &mut [], None)
        .unwrap()
        .0
}

/// A sample graph on `n` vertices and its index with `k` landmarks.
fn sample(n: usize, k: usize) -> (Graph, HighwayCoverIndex) {
    let g = testkit::barabasi_albert(n, 3, 4);
    let idx = build_top_k(&g, k);
    (g, idx)
}

/// Serialised container with `k` landmarks over the shared sample graph;
/// distinct `k` values make the old/new survivors distinguishable both
/// byte-wise and through [`IndexStore::meta`].
fn container(k: usize) -> Vec<u8> {
    let (g, idx) = sample(80, k);
    hcl_store::serialize(&g, &idx).expect("serialize")
}

/// Fresh scratch directory for one test, cleaned up by `Scratch::drop`.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let mut dir = std::env::temp_dir();
        dir.push(format!("hcl_faults_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self { dir }
    }

    fn target(&self) -> PathBuf {
        self.dir.join("live.hcl")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Injects one decision at one step; every other step proceeds.
struct FaultAt {
    step: PublishStep,
    decision: IoDecision,
}

impl StoreIo for FaultAt {
    fn decide(&self, step: PublishStep) -> IoDecision {
        if step == self.step {
            self.decision
        } else {
            IoDecision::Proceed
        }
    }
}

/// Injects one decision at one append step; every other step proceeds.
struct AppendFaultAt {
    step: AppendStep,
    decision: IoDecision,
}

impl StoreIo for AppendFaultAt {
    fn decide_append(&self, step: AppendStep) -> IoDecision {
        if step == self.step {
            self.decision
        } else {
            IoDecision::Proceed
        }
    }
}

/// `<target>.tmp.*` siblings currently on disk.
fn temps(target: &Path) -> Vec<PathBuf> {
    let name = target.file_name().unwrap().to_str().unwrap();
    let prefix = format!("{name}.tmp.");
    std::fs::read_dir(target.parent().unwrap())
        .expect("read scratch dir")
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .map(|e| e.path())
        .collect()
}

/// Asserts the crash-safety trichotomy for the target path: its bytes are
/// exactly `old`, exactly `new`, or opening it yields a typed error (the
/// path for schedules that never published a complete container).
fn assert_trichotomy(target: &Path, old: &[u8], new: &[u8], schedule: &str) {
    let on_disk = std::fs::read(target).expect("target must exist once seeded");
    if on_disk == old || on_disk == new {
        let store = IndexStore::open(target)
            .unwrap_or_else(|e| panic!("{schedule}: complete survivor failed to open: {e}"));
        let k = store.meta().num_landmarks as usize;
        let expect = if on_disk == old { 4 } else { 8 };
        assert_eq!(k, expect, "{schedule}: survivor identity vs its landmarks");
    } else {
        let err = IndexStore::open(target)
            .err()
            .unwrap_or_else(|| panic!("{schedule}: torn survivor opened without error"));
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::Corrupt { .. }
            ),
            "{schedule}: torn survivor must be a typed container error, got {err:?}"
        );
    }
}

/// A clean I/O layer of the same type as the faulty ones.
const PROCEED: FaultAt = FaultAt {
    step: PublishStep::CreateTemp,
    decision: IoDecision::Proceed,
};

/// Publishes the new container at a path through a fault schedule: in one
/// slice, or in the slices of its layout.
type Publish<'a> = &'a dyn Fn(&Path, &FaultAt) -> Result<PublishOutcome, StoreError>;

/// Every step × {fail, crash-before, crash-after} against `publish`, then
/// recovery — a clean publish over the survivor must commit, sweep stale
/// temps, and leave exactly `new`.
fn sweep_every_schedule(tag: &str, old: &[u8], new: &[u8], publish: Publish<'_>) {
    for step in PublishStep::ALL {
        for decision in [
            IoDecision::Fail,
            IoDecision::CrashBefore,
            IoDecision::CrashAfter,
        ] {
            let schedule = format!("{tag}: {decision:?}@{}", step.name());
            let scratch = Scratch::new(&format!("{tag}_sweep_{}_{decision:?}", step.name()));
            let target = scratch.target();
            assert!(matches!(
                publish_slices_with(&target, &[old], &SystemIo),
                Ok(PublishOutcome::Committed)
            ));

            let io = FaultAt { step, decision };
            match publish(&target, &io) {
                Err(StoreError::Publish {
                    step: failed,
                    source,
                }) => {
                    assert_eq!(decision, IoDecision::Fail, "{schedule}: unexpected error");
                    assert_eq!(failed, step.name(), "{schedule}: error names wrong step");
                    assert!(
                        source.to_string().contains("injected fault"),
                        "{schedule}: source must be the injected error, got {source}"
                    );
                    // A failed publish cleans its own temp immediately.
                    assert_eq!(temps(&target), Vec::<PathBuf>::new(), "{schedule}");
                }
                Err(other) => panic!("{schedule}: unexpected error kind {other:?}"),
                Ok(PublishOutcome::Crashed(at)) => {
                    assert_ne!(decision, IoDecision::Fail, "{schedule}: fail must error");
                    assert_eq!(at, step, "{schedule}: crash reported at wrong step");
                }
                Ok(PublishOutcome::Committed) => {
                    // Only a fault injected *after* the last real operation
                    // could commit; with this schedule set, never.
                    panic!("{schedule}: publish committed despite injected fault");
                }
            }

            assert_trichotomy(&target, old, new, &schedule);

            // Power-cut schedules may strand a temp; the next save to the
            // path must sweep it and publish cleanly.
            assert!(matches!(
                publish(&target, &PROCEED),
                Ok(PublishOutcome::Committed)
            ));
            assert_eq!(
                temps(&target),
                Vec::<PathBuf>::new(),
                "{schedule}: recovery save must sweep stale temps"
            );
            assert_eq!(
                std::fs::read(&target).unwrap(),
                new,
                "{schedule}: recovery save must publish the new container"
            );
        }
    }
}

/// The full schedule sweep over a publish of one slice.
#[test]
fn every_fault_schedule_leaves_old_new_or_typed_error() {
    let old = container(4);
    let new = container(8);
    sweep_every_schedule("whole", &old, &new, &|target, io| {
        publish_slices_with(target, &[&new], io)
    });
}

/// Power cuts mid-`write-temp` after each of `cuts` bytes of `new`. The
/// target must keep serving the old container byte-identically, and the
/// stranded torn temp — were anyone to open it directly — must hold
/// exactly the prefix and be a typed error, not accepted garbage.
fn sweep_torn_writes(tag: &str, old: &[u8], new: &[u8], cuts: &[usize], publish: Publish<'_>) {
    let scratch = Scratch::new(&format!("{tag}_torn"));
    let target = scratch.target();
    for &cut in cuts {
        let schedule = format!("{tag}: cut at {cut}");
        assert!(matches!(
            publish_slices_with(&target, &[old], &SystemIo),
            Ok(PublishOutcome::Committed)
        ));
        let io = FaultAt {
            step: PublishStep::WriteTemp,
            decision: IoDecision::CrashDuring(cut),
        };
        assert_eq!(
            publish(&target, &io).unwrap(),
            PublishOutcome::Crashed(PublishStep::WriteTemp),
            "{schedule}"
        );
        // The target never saw the torn bytes.
        assert_eq!(std::fs::read(&target).unwrap(), old, "{schedule}");
        assert_trichotomy(&target, old, new, &schedule);

        // The stranded temp holds exactly the prefix; opening it directly
        // is the would-be disaster of a non-atomic writer, and it must be
        // a typed error (`cut == new.len()` never happens: strict prefix).
        let stranded = temps(&target);
        assert_eq!(stranded.len(), 1, "{schedule}: exactly one torn temp");
        let torn = std::fs::read(&stranded[0]).unwrap();
        assert_eq!(&torn, &new[..cut], "{schedule}: temp holds the prefix");
        assert!(
            IndexStore::open(&stranded[0]).is_err(),
            "{schedule}: torn prefix must not open"
        );

        // Recovery sweeps the stranded temp.
        assert!(matches!(
            publish(&target, &PROCEED),
            Ok(PublishOutcome::Committed)
        ));
        assert_eq!(temps(&target), Vec::<PathBuf>::new(), "{schedule}");
    }
}

/// Torn writes of a publish of one slice: the power cut lands
/// mid-`write-temp`, so only a prefix of the payload reaches the temp file.
#[test]
fn torn_write_prefixes_never_reach_the_target() {
    let old = container(4);
    let new = container(8);
    let full_sweep = std::env::var("HCL_FAULT_SWEEP").as_deref() == Ok("full");
    let cuts: Vec<usize> = if full_sweep {
        // Dense through the header/section table, stride through payload.
        let mut cuts: Vec<usize> = (0..new.len().min(300)).step_by(7).collect();
        cuts.extend((300..new.len()).step_by(499));
        cuts
    } else {
        vec![0, 1, 8, 24, new.len() / 2, new.len() - 1]
    };
    sweep_torn_writes("whole", &old, &new, &cuts, &|target, io| {
        publish_slices_with(target, &[&new], io)
    });
}

/// `publish_slices_with` over a container's layout — header and table,
/// then each section and padding gap as its own slice — replays both
/// sweeps: every step's schedules, and torn writes cut inside every slice
/// and on both sides of, and exactly on, every slice edge. An odd vertex
/// count leaves `landmark_rank` 4 bytes short of alignment, and an odd
/// number of 4-byte label entries does the same to `label_entries`, so
/// two slices are padding.
#[test]
fn a_publish_in_slices_keeps_the_trichotomy() {
    let old = container(4);
    let (g, idx) = sample(81, 8);
    let stats = StoredBuildStats {
        bfs_visits: 1,
        label_insertions: 2,
        dominated: 3,
        landmark_labels: vec![1; 8],
    };
    let image = hcl_store::image_parts(
        g.as_view(),
        idx.as_view(),
        BuildInfo::default(),
        Some(&stats),
        None,
    )
    .expect("lay out");
    let slices = image.slices();
    let new = image.to_vec();
    assert_eq!(slices.len(), 11, "head, 8 sections, 2 padding gaps");
    assert!(slices.contains(&&[0u8; 4][..]), "a padding slice");
    let publish = |target: &Path, io: &FaultAt| publish_slices_with(target, &slices, io);

    sweep_every_schedule("sliced", &old, &new, &publish);

    let mut cuts = vec![0];
    let mut edge = 0;
    for slice in &slices {
        cuts.push(edge + slice.len() / 2);
        edge += slice.len();
        cuts.extend([edge - 1, edge, edge + 1]);
    }
    cuts.retain(|&cut| cut < new.len());
    cuts.sort_unstable();
    cuts.dedup();
    sweep_torn_writes("sliced", &old, &new, &cuts, &publish);
}

/// The old `write_atomically` used `.tmp.<pid>` alone, so two same-process
/// saves to one path shared a temp file and could tear each other. The
/// pid+counter names make concurrent same-path saves independent: every
/// save succeeds, the survivor is one of the published containers in full,
/// and no temp survives.
#[test]
fn concurrent_same_path_saves_never_collide() {
    let scratch = Scratch::new("concurrent");
    let target = scratch.target();
    let payloads: Vec<Vec<u8>> = vec![container(4), container(6), container(8)];

    std::thread::scope(|scope| {
        for payload in &payloads {
            let target = target.clone();
            scope.spawn(move || {
                for _ in 0..8 {
                    let outcome = publish_slices_with(&target, &[payload], &SystemIo)
                        .expect("concurrent publish must succeed");
                    assert_eq!(outcome, PublishOutcome::Committed);
                }
            });
        }
    });

    let survivor = std::fs::read(&target).expect("target exists");
    assert!(
        payloads.contains(&survivor),
        "survivor must be one complete published container"
    );
    IndexStore::open(&target).expect("survivor opens");
    // Every guard has dropped, so one more save sweeps anything left.
    publish_slices_with(&target, &[&payloads[0]], &SystemIo).unwrap();
    assert_eq!(temps(&target), Vec::<PathBuf>::new());
}

/// Stale `.tmp.*` siblings from a crashed save (simulated here by planting
/// them directly, including a foreign-pid name) are swept by the next save
/// to that path — and only siblings of *that* path are touched.
#[test]
fn next_save_sweeps_stale_temps_from_crashed_saves() {
    let scratch = Scratch::new("stale");
    let target = scratch.target();
    let stale_same_pid = PathBuf::from(format!(
        "{}.tmp.{}.424242",
        target.display(),
        std::process::id()
    ));
    let stale_foreign = PathBuf::from(format!("{}.tmp.1.0", target.display()));
    let unrelated = scratch.dir.join("other.hcl.tmp.1.0");
    for p in [&stale_same_pid, &stale_foreign, &unrelated] {
        std::fs::write(p, b"leftover").unwrap();
    }

    publish_slices_with(&target, &[&container(4)], &SystemIo).unwrap();
    assert!(!stale_same_pid.exists(), "same-pid stale temp swept");
    assert!(!stale_foreign.exists(), "foreign-pid stale temp swept");
    assert!(
        unrelated.exists(),
        "other files' temps are not ours to sweep"
    );
    IndexStore::open(&target).expect("publish over stale temps still lands");
}

/// A failed fsync is reported as a typed error naming the exact step, and
/// the target is untouched (for `sync-dir`, the rename has already
/// happened, so the new container is in place — also asserted).
#[test]
fn failed_fsyncs_name_their_step() {
    let old = container(4);
    let new = container(8);

    let scratch = Scratch::new("fsync_temp");
    let target = scratch.target();
    publish_slices_with(&target, &[&old], &SystemIo).unwrap();
    let err = publish_slices_with(
        &target,
        &[&new],
        &FaultAt {
            step: PublishStep::SyncTemp,
            decision: IoDecision::Fail,
        },
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("sync-temp"),
        "display must name the step: {err}"
    );
    assert_eq!(std::fs::read(&target).unwrap(), old, "target untouched");

    // sync-dir fails *after* the atomic publish point: the caller gets a
    // typed error (durability of the rename is not guaranteed) but the
    // target already holds the complete new container.
    let err = publish_slices_with(
        &target,
        &[&new],
        &FaultAt {
            step: PublishStep::SyncDir,
            decision: IoDecision::Fail,
        },
    )
    .unwrap_err();
    assert!(matches!(
        err,
        StoreError::Publish {
            step: "sync-dir",
            ..
        }
    ));
    assert_eq!(
        std::fs::read(&target).unwrap(),
        new,
        "rename already landed"
    );
}

/// A stateful schedule: counts every `decide` call and gives `decision`
/// the first time `step` is asked about, `Proceed` otherwise.
struct OneShot {
    step: Option<PublishStep>,
    decision: IoDecision,
    fired: Cell<bool>,
    calls: Cell<usize>,
}

impl OneShot {
    fn at(step: Option<PublishStep>, decision: IoDecision) -> Self {
        Self {
            step,
            decision,
            fired: Cell::new(false),
            calls: Cell::new(0),
        }
    }
}

impl StoreIo for OneShot {
    fn decide(&self, step: PublishStep) -> IoDecision {
        self.calls.set(self.calls.get() + 1);
        if Some(step) == self.step && !self.fired.replace(true) {
            self.decision
        } else {
            IoDecision::Proceed
        }
    }
}

/// A publish asks its I/O layer exactly once per step, so a schedule
/// with state sees each step once: a committed publish makes five calls,
/// and a one-shot crash-after fires at whichever step it names.
#[test]
fn publish_decides_each_step_once() {
    let scratch = Scratch::new("decide_once");
    let target = scratch.target();
    let bytes = container(4);

    let io = OneShot::at(None, IoDecision::Proceed);
    let outcome = publish_slices_with(&target, &[&bytes], &io).expect("publish");
    assert_eq!(outcome, PublishOutcome::Committed);
    assert_eq!(io.calls.get(), PublishStep::ALL.len());

    for (i, step) in PublishStep::ALL.into_iter().enumerate() {
        let io = OneShot::at(Some(step), IoDecision::CrashAfter);
        let outcome = publish_slices_with(&target, &[&bytes], &io).expect("publish");
        assert_eq!(outcome, PublishOutcome::Crashed(step), "{step:?}");
        assert_eq!(io.calls.get(), i + 1, "{step:?}: one call per step run");
    }
}

/// `save` rides the same durable publish: it leaves no temp siblings
/// behind and the result round-trips.
#[test]
fn save_is_durable_and_leaves_no_temps() {
    let scratch = Scratch::new("save");
    let target = scratch.target();
    let g = testkit::barabasi_albert(60, 3, 9);
    let idx = build_top_k(&g, 5);
    hcl_store::save(&target, &g, &idx).expect("save");
    assert_eq!(temps(&target), Vec::<PathBuf>::new());
    let store = IndexStore::open(&target).expect("open");
    assert_eq!(store.meta().num_landmarks, 5);
    store
        .verify_checksum()
        .expect("freshly saved file verifies");
}

/// Three absent edges of the shared sample graph, as inserts: `acked` is
/// journalled before the fault, `in_flight` is the batch the fault hits,
/// `after` is the recovery append.
fn sample_inserts() -> [EdgeDelta; 3] {
    let g = testkit::barabasi_albert(80, 3, 4);
    let mut absent = (1..80u32)
        .filter(|&v| !g.has_edge(0, v))
        .map(|v| EdgeDelta::insert(0, v));
    [(); 3].map(|()| absent.next().expect("vertex 0 has three non-neighbours"))
}

fn has(store: &IndexStore, delta: EdgeDelta) -> bool {
    store.graph().has_edge(delta.u, delta.v)
}

/// Every fault schedule over one frame append — each step × {fail,
/// crash-before, crash-after}, plus a cut at every byte of the frame write
/// — leaves a file that opens as the old state or the new one, with the
/// acknowledged delta present either way; and the next writer appends
/// cleanly over whatever the fault left.
#[test]
fn append_fault_schedules_leave_old_or_new_and_never_lose_an_ack() {
    let [acked, in_flight, after] = sample_inserts();
    let scratch = Scratch::new("append");
    let target = scratch.target();
    publish_slices_with(&target, &[&container(4)], &SystemIo).unwrap();
    let opened = IndexStore::open(&target).unwrap();
    JournalWriter::new(&opened, Some(target.clone()))
        .append(&[acked])
        .unwrap();
    drop(opened);
    let old = std::fs::read(&target).unwrap();
    let frame_len = 40;

    let mut schedules: Vec<(AppendStep, IoDecision)> = Vec::new();
    for step in AppendStep::ALL {
        for decision in [
            IoDecision::Fail,
            IoDecision::CrashBefore,
            IoDecision::CrashAfter,
        ] {
            schedules.push((step, decision));
        }
    }
    schedules.extend((0..=frame_len).map(|n| (AppendStep::WriteFrame, IoDecision::CrashDuring(n))));

    for (step, decision) in schedules {
        let schedule = format!("{decision:?}@{}", step.name());
        std::fs::write(&target, &old).unwrap();
        let before = IndexStore::open(&target).unwrap();
        let mut writer = JournalWriter::new(&before, Some(target.clone()));
        let outcome = writer.append_with(&[in_flight], &AppendFaultAt { step, decision });
        drop((writer, before));

        match outcome {
            Ok(AppendOutcome::Committed { .. }) => {
                panic!("{schedule}: append committed despite the injected fault")
            }
            Ok(AppendOutcome::Crashed(at)) => {
                assert_ne!(decision, IoDecision::Fail, "{schedule}: fail must error");
                assert_eq!(at, step, "{schedule}: crash reported at the wrong step");
            }
            Err(StoreError::Append { step: failed, .. }) => {
                assert_eq!(decision, IoDecision::Fail, "{schedule}: unexpected error");
                assert_eq!(
                    failed,
                    step.name(),
                    "{schedule}: error names the wrong step"
                );
                // A failed append cleans up after itself: nothing of the
                // frame stays behind.
                assert_eq!(std::fs::read(&target).unwrap(), old, "{schedule}");
            }
            Err(other) => panic!("{schedule}: unexpected error kind {other:?}"),
        }

        // The image is never touched, whatever happened to the tail.
        let on_disk = std::fs::read(&target).unwrap();
        assert_eq!(
            &on_disk[..old.len()],
            &old[..],
            "{schedule}: old bytes intact"
        );
        let survivor = IndexStore::open(&target)
            .unwrap_or_else(|e| panic!("{schedule}: survivor failed to open: {e}"));
        assert!(has(&survivor, acked), "{schedule}: acknowledged delta lost");
        let pending = survivor.journal().unwrap().len();
        assert_eq!(
            pending,
            1 + usize::from(has(&survivor, in_flight)),
            "{schedule}: the batch in flight is wholly there or wholly not"
        );
        // Durable but never acknowledged is allowed only once the whole
        // frame reached the file.
        if has(&survivor, in_flight) {
            assert_eq!(on_disk.len(), old.len() + frame_len, "{schedule}");
        } else {
            assert_eq!(
                survivor.tail().torn_bytes,
                (on_disk.len() - old.len()) as u64,
                "{schedule}: what the fault left is a torn remainder"
            );
        }

        // Recovery: the next writer removes the remainder and appends.
        let mut writer = JournalWriter::new(&survivor, Some(target.clone()));
        writer
            .append(&[after])
            .unwrap_or_else(|e| panic!("{schedule}: recovery append: {e}"));
        let recovered = IndexStore::open(&target).unwrap();
        assert_eq!(recovered.tail().torn_bytes, 0, "{schedule}");
        assert_eq!(
            recovered.journal().unwrap().len(),
            pending + 1,
            "{schedule}"
        );
        assert!(
            has(&recovered, acked) && has(&recovered, after),
            "{schedule}"
        );
    }
}

/// The compacting persist rides the durable publish: under every schedule
/// the file is the old journalled container or the new compacted one, and
/// both hold every acknowledged delta.
#[test]
fn compaction_fault_schedules_keep_every_acknowledged_delta() {
    let [acked, also_acked, _] = sample_inserts();
    let scratch = Scratch::new("compact");
    let target = scratch.target();
    publish_slices_with(&target, &[&container(4)], &SystemIo).unwrap();
    let opened = IndexStore::open(&target).unwrap();
    let mut writer = JournalWriter::new(&opened, Some(target.clone()));
    writer.append(&[acked]).unwrap();
    writer.append(&[also_acked]).unwrap();
    drop((writer, opened));
    let old = std::fs::read(&target).unwrap();

    let mut schedules: Vec<(PublishStep, IoDecision)> = Vec::new();
    for step in PublishStep::ALL {
        for decision in [
            IoDecision::Fail,
            IoDecision::CrashBefore,
            IoDecision::CrashAfter,
        ] {
            schedules.push((step, decision));
        }
    }
    schedules.extend(
        [0, 1, 24, 97, old.len() / 2, old.len() - 1]
            .map(|n| (PublishStep::WriteTemp, IoDecision::CrashDuring(n))),
    );

    for (step, decision) in schedules {
        let schedule = format!("compact {decision:?}@{}", step.name());
        std::fs::write(&target, &old).unwrap();
        let before = IndexStore::open(&target).unwrap();
        let (graph, index) = (
            before.graph().to_owned_graph(),
            before.index().to_owned_index(),
        );
        let mut writer = JournalWriter::new(&before, Some(target.clone()));
        let outcome = writer.compact_with(
            graph.as_view(),
            index.as_view(),
            &FaultAt { step, decision },
        );
        match outcome {
            Ok(Some(_)) => panic!("{schedule}: compaction committed despite the fault"),
            Ok(None) => assert_ne!(decision, IoDecision::Fail, "{schedule}"),
            Err(StoreError::Publish { step: failed, .. }) => {
                assert_eq!(decision, IoDecision::Fail, "{schedule}");
                assert_eq!(failed, step.name(), "{schedule}");
            }
            Err(other) => panic!("{schedule}: unexpected error kind {other:?}"),
        }
        drop((writer, before));

        let on_disk = std::fs::read(&target).unwrap();
        let survivor = IndexStore::open(&target)
            .unwrap_or_else(|e| panic!("{schedule}: survivor failed to open: {e}"));
        assert!(
            has(&survivor, acked) && has(&survivor, also_acked),
            "{schedule}: acknowledged delta lost"
        );
        let journal = survivor.journal().unwrap();
        if on_disk == old {
            assert_eq!((journal.len(), journal.compactions), (2, 0), "{schedule}");
            assert_eq!(survivor.tail().frames, 2, "{schedule}");
        } else {
            // The rename landed: a whole compacted container, no tail.
            assert_eq!((journal.len(), journal.compactions), (0, 1), "{schedule}");
            assert_eq!(on_disk.len() as u64, survivor.meta().file_len, "{schedule}");
            assert!(
                survivor.base_graph().has_edge(acked.u, acked.v),
                "{schedule}"
            );
        }

        // Recovery: a clean compaction of the survivor commits and sweeps
        // whatever temp the power cut stranded.
        let (graph, index) = (
            survivor.graph().to_owned_graph(),
            survivor.index().to_owned_index(),
        );
        let mut writer = JournalWriter::new(&survivor, Some(target.clone()));
        let compacted = writer.compact(graph.as_view(), index.as_view()).unwrap();
        assert_eq!(temps(&target), Vec::<PathBuf>::new(), "{schedule}");
        assert!(
            has(&compacted, acked) && has(&compacted, also_acked),
            "{schedule}"
        );
        assert!(compacted.journal().unwrap().is_empty(), "{schedule}");
    }
}
