//! Round-trip property tests: `save → load → query` must equal the
//! in-memory index on every testkit graph family, for both the mmap and
//! heap backings.

use hcl_core::{testkit, Graph};
use hcl_index::{BuildOptions, HighwayCoverIndex, IndexConfig, QueryContext};
use hcl_store::IndexStore;
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcl_store_test_{}_{tag}.hcl", std::process::id()));
    p
}

/// All-pairs equality between the in-memory index and a loaded store.
fn assert_store_matches_owned(name: &str, g: &Graph, idx: &HighwayCoverIndex, store: &IndexStore) {
    let n = g.num_vertices() as u32;
    let (gv, iv) = (store.graph(), store.index());
    assert_eq!(gv.num_vertices(), g.num_vertices(), "{name}: vertex count");
    assert_eq!(gv.num_edges(), g.num_edges(), "{name}: edge count");
    assert_eq!(iv.num_landmarks(), idx.num_landmarks(), "{name}: landmarks");
    let mut ctx = QueryContext::new();
    let mut ctx_store = QueryContext::new();
    for u in 0..n {
        for v in 0..n {
            let owned = idx.query_with(g, &mut ctx, u, v);
            let stored = iv.query_with(gv, &mut ctx_store, u, v);
            assert_eq!(
                stored, owned,
                "{name}: query({u}, {v}) differs between owned index and loaded store"
            );
        }
    }
}

#[test]
fn save_load_query_equals_in_memory_on_all_families() {
    for (name, g) in testkit::families() {
        for k in [0usize, 1, 4, 16] {
            let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: k });

            // Heap backing via in-memory bytes.
            let bytes = hcl_store::serialize(&g, &idx).expect("serialize");
            let store = IndexStore::from_bytes(&bytes).expect("load from bytes");
            assert_eq!(store.backing_kind(), "heap");
            assert_store_matches_owned(&format!("{name} k={k} heap"), &g, &idx, &store);

            // File + default open (mmap where supported).
            let path = temp_path(&format!(
                "rt_{}_{k}",
                name.replace(['(', ')', ',', '.', '⊎', '+'], "_")
            ));
            hcl_store::save(&path, &g, &idx).expect("save");
            // The durable publish must consume its temp file: nothing
            // named `<path>.tmp.*` may survive a successful save.
            let dir = path.parent().expect("temp dir");
            let tmp_prefix = format!(
                "{}.tmp.",
                path.file_name().expect("file name").to_string_lossy()
            );
            let leftovers: Vec<_> = std::fs::read_dir(dir)
                .expect("read temp dir")
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(&tmp_prefix))
                .collect();
            assert!(
                leftovers.is_empty(),
                "{name} k={k}: save left temp files: {leftovers:?}"
            );
            let store = IndexStore::open(&path).expect("open saved file");
            assert_store_matches_owned(&format!("{name} k={k} file"), &g, &idx, &store);
            drop(store);
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn mmap_backing_is_used_on_supported_platforms() {
    let g = testkit::barabasi_albert(200, 3, 2);
    let idx = HighwayCoverIndex::build(&g, IndexConfig::default());
    let path = temp_path("backing");
    hcl_store::save(&path, &g, &idx).expect("save");
    let store = IndexStore::open(&path).expect("open");
    if cfg!(all(
        unix,
        not(miri),
        target_pointer_width = "64",
        target_endian = "little"
    )) {
        assert_eq!(store.backing_kind(), "mmap");
    }
    // A heap copy of the same bytes must agree with the mapped open.
    let pre = IndexStore::from_bytes(&std::fs::read(&path).expect("read")).expect("from_bytes");
    assert_eq!(pre.backing_kind(), "heap");
    let mut ctx = QueryContext::new();
    for (u, v) in [(0, 1), (7, 133), (42, 42), (199, 3)] {
        assert_eq!(
            store.index().query_with(store.graph(), &mut ctx, u, v),
            pre.index().query_with(pre.graph(), &mut ctx, u, v),
        );
    }
    drop((store, pre));
    std::fs::remove_file(&path).ok();
}

#[test]
fn serialization_is_deterministic_and_meta_is_accurate() {
    let g = testkit::barabasi_albert(150, 4, 9);
    let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 8 });
    let a = hcl_store::serialize(&g, &idx).unwrap();
    let b = hcl_store::serialize(&g, &idx).unwrap();
    assert_eq!(a, b, "same inputs must produce byte-identical files");

    let store = IndexStore::from_bytes(&a).unwrap();
    let meta = store.meta();
    assert_eq!(meta.version, hcl_store::FORMAT_VERSION);
    assert_eq!(meta.file_len, a.len() as u64);
    assert_eq!(meta.num_vertices, 150);
    assert_eq!(meta.num_edges, g.num_edges() as u64);
    assert_eq!(meta.num_landmarks, 8);
    assert_eq!(meta.label_entries, idx.stats().total_label_entries as u64);
    // Plain serialize leaves the build metadata unrecorded.
    assert_eq!(meta.build, hcl_store::BuildInfo::default());
    assert_eq!(store.len_bytes(), a.len() as u64);

    // Sections cover the advertised element counts (7 in format v3:
    // label hubs and distances are one packed section).
    let sections = store.sections();
    assert_eq!(sections.len(), 7);
    assert!(sections.iter().any(|s| s.name == "label_entries"));
    let offsets = sections.iter().find(|s| s.name == "graph_offsets").unwrap();
    assert_eq!(offsets.len_bytes, (150 + 1) * 8);
    assert!(sections.iter().all(|s| s.offset % 8 == 0));
}

/// The checksum kernel's tables are generated, so a wrong table would
/// write and verify its own files happily. Pin the header checksum of one
/// fixed container to the value the bytewise CRC-64 writes for it: files
/// from before the slicing kernel must keep verifying, bit for bit. (The
/// pin moves whenever the builder's labelling or the layout does — last
/// with format version 7's 4-byte label entries — and is then re-derived
/// with a bytewise CRC-64 outside this crate, never read back from the
/// kernel under test.)
#[test]
fn header_checksum_of_a_fixed_container_is_pinned() {
    let g = testkit::barabasi_albert(300, 3, 19);
    // Every knob explicit: the ambient HCL_BUILD_* defaults must not move
    // the bytes under the pin.
    let idx = HighwayCoverIndex::build_with(
        &g,
        &BuildOptions {
            num_landmarks: 8,
            threads: 1,
            ..BuildOptions::default()
        },
    );
    let bytes = hcl_store::serialize(&g, &idx).unwrap();
    assert_eq!(bytes.len(), 16_848);
    let store = IndexStore::from_bytes(&bytes).expect("the checksum verifies");
    assert_eq!(store.meta().checksum, 0xEB9E_E0E1_4E0F_B4C2);
    assert_eq!(hcl_store::crc64(&bytes), 0xD8DC_C83C_2F64_EFA1);
}

/// The same pin over a graph whose labelling sweep closes both wide levels
/// (the BA head, where a level reaches most of the graph) and one-vertex
/// levels (the 1 500-vertex handle), at 65 landmarks — two sweep groups.
/// The order a level is closed and expanded in must never reach the bytes:
/// the pin predates the sweep ordering its levels by vertex id, and its
/// CRC was re-derived bytewise outside this crate.
#[test]
fn checksum_of_a_two_group_broom_container_is_pinned() {
    let g = testkit::broom(1_000, 3, 1_500, 23);
    let idx = HighwayCoverIndex::build_with(
        &g,
        &BuildOptions {
            num_landmarks: 65,
            threads: 1,
            ..BuildOptions::default()
        },
    );
    let bytes = hcl_store::serialize(&g, &idx).unwrap();
    assert_eq!(bytes.len(), 153_404);
    let store = IndexStore::from_bytes(&bytes).expect("the checksum verifies");
    assert_eq!(store.meta().checksum, 0x233A_A7F4_3E42_9712);
    assert_eq!(hcl_store::crc64(&bytes), 0x145F_6447_1181_1E64);
}

#[test]
fn build_metadata_round_trips_through_the_header() {
    let g = testkit::barabasi_albert(120, 3, 21);
    let info = hcl_store::BuildInfo {
        threads: 4,
        batch_size: 8,
        ..hcl_store::BuildInfo::default()
    };
    // Build with the recorded parameters so the header tells the truth.
    let idx = HighwayCoverIndex::build_with(
        &g,
        &BuildOptions {
            num_landmarks: 8,
            threads: info.threads as usize,
            batch_size: info.batch_size as usize,
            ..BuildOptions::default()
        },
    );

    let path = temp_path("buildinfo");
    hcl_store::save_with(&path, &g, &idx, info).expect("save_with");
    let store = IndexStore::open(&path).expect("open");
    assert_eq!(store.meta().build, info);
    assert_store_matches_owned("buildinfo", &g, &idx, &store);
    drop(store);
    std::fs::remove_file(&path).ok();

    // The build metadata is covered by the checksum but must not affect
    // the served sections: two files differing only in build info serve
    // identical section bytes.
    let a = hcl_store::serialize_with(&g, &idx, info).unwrap();
    let b = hcl_store::serialize(&g, &idx).unwrap();
    assert_ne!(a, b, "build metadata must be recorded in the header");
    assert_eq!(a[hcl_store::HEADER_LEN..], b[hcl_store::HEADER_LEN..]);
}

#[test]
fn to_owned_parts_fully_deserialises() {
    let g = testkit::grid(6, 7);
    let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 5 });
    let bytes = hcl_store::serialize(&g, &idx).unwrap();
    let store = IndexStore::from_bytes(&bytes).unwrap();
    let (g2, idx2) = store.to_owned_parts();
    drop(store);
    assert_eq!(g2, g);
    let mut ctx = QueryContext::new();
    for u in 0..42 {
        for v in 0..42 {
            assert_eq!(
                idx2.query_with(&g2, &mut ctx, u, v),
                idx.query_with(&g, &mut ctx, u, v)
            );
        }
    }
}

/// Header bytes 72..96 are reserved: whatever a writer left there —
/// older binaries stored a landmark-selection tag and seed at 72..76 and
/// 80..88 — a reader ignores, so such files open and serve unchanged.
#[test]
fn reserved_header_bytes_are_ignored_on_read() {
    let g = testkit::barabasi_albert(120, 3, 13);
    let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 6 });
    let plain = hcl_store::serialize(&g, &idx).expect("serialize");
    assert!(plain[72..96].iter().all(|&b| b == 0), "written as zero");

    let mut stamped = plain.clone();
    stamped[72..76].copy_from_slice(&9u32.to_le_bytes());
    stamped[80..88].copy_from_slice(&0xFEED_F00D_DEAD_BEEFu64.to_le_bytes());
    hcl_store::rewrite_checksum(&mut stamped);
    let store = IndexStore::from_bytes(&stamped).expect("reserved bytes are not validated");
    let reference = IndexStore::from_bytes(&plain).expect("plain loads");
    assert_eq!(store.meta().build, reference.meta().build);
    assert_store_matches_owned("stamped header", &g, &idx, &store);
}

#[test]
fn serialize_rejects_mismatched_graph() {
    let g = testkit::path(10);
    let other = testkit::path(11);
    let idx = HighwayCoverIndex::build(&g, IndexConfig::default());
    assert!(matches!(
        hcl_store::serialize(&other, &idx),
        Err(hcl_store::StoreError::GraphIndexMismatch { .. })
    ));
}

/// The v5 `build_stats` section must round-trip the build counters through
/// bytes and a saved file — while leaving the served
/// answers untouched — and files written *without* stats must report
/// `None` rather than failing.
#[test]
fn v5_build_stats_round_trip_and_optionality() {
    let g = testkit::barabasi_albert(120, 3, 11);
    let (idx, stats) = HighwayCoverIndex::build_with_stats(
        &g,
        &BuildOptions {
            num_landmarks: 6,
            threads: 1,
            ..BuildOptions::default()
        },
        None,
    );
    let stored = hcl_store::StoredBuildStats::from_build(&stats);
    assert_eq!(stored.landmark_labels.len(), 6);
    assert_eq!(
        stored.label_insertions,
        idx.stats().total_label_entries as u64
    );

    let with = hcl_store::serialize_with_stats(&g, &idx, hcl_store::BuildInfo::default(), &stored)
        .expect("serialize with stats");
    let without = hcl_store::serialize(&g, &idx).expect("serialize without stats");
    assert!(with.len() > without.len(), "stats section adds bytes");

    let store = IndexStore::from_bytes(&with).expect("v5+stats loads");
    assert_eq!(store.meta().version, hcl_store::FORMAT_VERSION);
    assert_eq!(store.build_stats().as_ref(), Some(&stored));
    assert_eq!(store.sections().len(), 8);
    assert!(store.sections().iter().any(|s| s.name == "build_stats"));
    assert_store_matches_owned("v5 stats heap", &g, &idx, &store);

    let plain = IndexStore::from_bytes(&without).expect("v5 no stats loads");
    assert_eq!(plain.meta().version, hcl_store::FORMAT_VERSION);
    assert_eq!(plain.build_stats(), None, "stats section is optional");
    assert_eq!(plain.sections().len(), 7);

    // File path.
    let path = temp_path("v5_stats");
    hcl_store::durable::publish_with(&path, &with, &hcl_store::durable::SystemIo)
        .expect("publish stats container");
    let opened = IndexStore::open(&path).expect("open v5");
    assert_eq!(opened.build_stats().as_ref(), Some(&stored));
    assert_store_matches_owned("v5 stats file", &g, &idx, &opened);
    drop(opened);
    std::fs::remove_file(&path).ok();
}

/// The layout the writers publish slice by slice is the in-memory image:
/// on every family, with and without landmarks and with each optional
/// section, the slices concatenate to exactly the `serialize_*` bytes,
/// and the CRC streamed over them is the CRC-64 of the image with its
/// checksum field zeroed — the one in the header.
#[test]
fn image_slices_concatenate_to_the_serialised_image() {
    let journal = hcl_store::StoredJournal {
        deltas: vec![hcl_core::EdgeDelta::insert(0, 1)],
        compactions: 3,
    };
    for (name, g) in testkit::families() {
        for k in [0usize, 3, 16] {
            let (idx, stats) = HighwayCoverIndex::build_with_stats(
                &g,
                &BuildOptions {
                    num_landmarks: k,
                    ..BuildOptions::default()
                },
                None,
            );
            let stats = hcl_store::StoredBuildStats::from_build(&stats);
            let info = hcl_store::BuildInfo {
                batch_size: 64,
                ..hcl_store::BuildInfo::default()
            };
            let cases = [
                (
                    "stats",
                    hcl_store::image_parts(g.as_view(), idx.as_view(), info, Some(&stats), None),
                    hcl_store::serialize_with_stats(&g, &idx, info, &stats),
                ),
                (
                    "journal",
                    hcl_store::image_parts(g.as_view(), idx.as_view(), info, None, Some(&journal)),
                    hcl_store::serialize_with_journal(&g, &idx, info, &journal),
                ),
                (
                    "plain",
                    hcl_store::image_parts(g.as_view(), idx.as_view(), info, None, None),
                    hcl_store::serialize_with(&g, &idx, info),
                ),
            ];
            for (what, image, bytes) in cases {
                let tag = format!("{name} k={k} {what}");
                let (image, bytes) = (image.expect("lay out"), bytes.expect("serialise"));
                assert_eq!(image.slices().concat(), bytes, "{tag}");
                assert_eq!(image.to_vec(), bytes, "{tag}");
                assert_eq!(image.len_bytes(), bytes.len() as u64, "{tag}");
                let mut zeroed = bytes.clone();
                zeroed[24..32].fill(0);
                assert_eq!(image.checksum(), hcl_store::crc64(&zeroed), "{tag}");
                assert_eq!(bytes[24..32], image.checksum().to_le_bytes(), "{tag}");
            }
        }
    }
}
