//! Corruption handling: every malformed container must produce a typed
//! [`StoreError`] — never a panic, never undefined behaviour.

use hcl_core::{testkit, CsrError, Graph};
use hcl_index::{HighwayCoverIndex, IndexDataError};

/// The top `k` by degree, labelled with the auto-mode contexts.
fn build_top_k(g: &Graph, k: usize) -> HighwayCoverIndex {
    let landmarks = g.top_k_by_degree(k);
    HighwayCoverIndex::build(g, &landmarks, &mut [], None)
        .unwrap()
        .0
}
use hcl_store::{IndexStore, StoreError, HEADER_LEN};

fn sample_bytes() -> Vec<u8> {
    let g = testkit::barabasi_albert(80, 3, 4);
    let idx = build_top_k(&g, 6);
    hcl_store::serialize(&g, &idx).expect("serialize")
}

#[test]
fn pristine_sample_loads() {
    assert!(IndexStore::from_bytes(&sample_bytes()).is_ok());
}

#[test]
fn truncation_at_any_length_is_a_typed_error() {
    let bytes = sample_bytes();
    // Every strict prefix must fail cleanly. Step through densely at the
    // start (header/table) and more coarsely through the payload.
    let mut cut = 0usize;
    while cut < bytes.len() {
        let err = IndexStore::from_bytes(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes unexpectedly loaded"));
        assert!(
            matches!(err, StoreError::Truncated { .. }),
            "prefix of {cut} bytes: expected Truncated, got {err:?}"
        );
        cut += if cut < 300 { 7 } else { 997 };
    }
}

#[test]
fn bad_magic_is_detected() {
    let mut bytes = sample_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
    // A file that is not a container at all.
    assert!(matches!(
        IndexStore::from_bytes(b"#!/bin/sh\necho not an index file, sorry\n" as &[u8]).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
}

/// There is one format version. Every other version word — stamped into
/// an otherwise valid, re-checksummed image — is refused by every entry
/// point with the typed error, never mis-read; so are the other marks of
/// the retired layouts (section kinds 6/7, the 80-byte header).
#[test]
fn wrong_version_is_detected() {
    let clean = sample_bytes();
    let mut path = std::env::temp_dir();
    path.push(format!("hcl_store_version_{}.hcl", std::process::id()));
    // A plain (journal-less) image stamped 5 is byte-for-byte what the
    // last v5 writer produced; 6 is the retired `u64`-label-entry version.
    for version in [0u32, 1, 2, 3, 4, 5, 6, 8, 99] {
        let mut bytes = clean.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        hcl_store::rewrite_checksum(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let errors = [
            IndexStore::from_bytes(&bytes).unwrap_err(),
            IndexStore::open(&path).unwrap_err(),
            hcl_store::verify_file(&path).unwrap_err(),
        ];
        for err in errors {
            assert!(
                matches!(
                    err,
                    StoreError::UnsupportedVersion { found, supported: 7 } if found == version
                ),
                "version {version}: expected UnsupportedVersion, got {err:?}"
            );
        }
    }
    std::fs::remove_file(&path).ok();

    // Section kinds 6, 7 and 9 are reserved, not readable.
    for kind in [6u32, 7, 9] {
        let mut bytes = clean.clone();
        bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&kind.to_le_bytes());
        hcl_store::rewrite_checksum(&mut bytes);
        match IndexStore::from_bytes(&bytes).unwrap_err() {
            StoreError::Corrupt { what } => {
                assert!(what.contains("unknown section kind"), "kind {kind}: {what}")
            }
            other => panic!("kind {kind}: expected Corrupt, got {other:?}"),
        }
    }

    // The old legacy-header minimum is not enough of a header.
    assert!(matches!(
        IndexStore::from_bytes(&clean[..80]).unwrap_err(),
        StoreError::Truncated {
            expected: 96,
            actual: 80
        }
    ));
}

#[test]
fn bit_flips_anywhere_in_the_payload_fail_the_checksum() {
    let clean = sample_bytes();
    for at in [64usize, 100, 256, clean.len() / 2, clean.len() - 1] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x04;
        assert!(
            matches!(
                IndexStore::from_bytes(&bytes).unwrap_err(),
                StoreError::ChecksumMismatch { .. }
            ),
            "flip at byte {at} was not caught"
        );
    }
}

/// Bytes after the declared end of the image are the journal tail; only
/// frames may live there. Anything else is rejected, never ignored. (The
/// frame-level cases are in `journal.rs`.)
#[test]
fn trailing_garbage_is_detected() {
    let clean = sample_bytes();
    let garbage: [&[u8]; 4] = [
        b"padding",
        b"\0",
        &[0u8; 64],
        b"sixteen bytes that are no frame",
    ];
    for extra in garbage {
        let mut bytes = clean.clone();
        bytes.extend_from_slice(extra);
        assert!(
            matches!(
                IndexStore::from_bytes(&bytes),
                Err(StoreError::Corrupt { .. })
            ),
            "{} trailing non-frame bytes were accepted",
            extra.len()
        );
    }
}

#[test]
fn checksum_fixed_but_sections_broken_is_corrupt() {
    // Tampering that *also* repairs the checksum must still be rejected by
    // the structural validators.
    let clean = sample_bytes();

    // Misalign a section offset.
    let mut bytes = clean.clone();
    let entry = HEADER_LEN + 8; // first section's offset field
    let off = u64::from_le_bytes(bytes[entry..entry + 8].try_into().unwrap());
    bytes[entry..entry + 8].copy_from_slice(&(off + 4).to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));

    // Point a section past the end of the file.
    let mut bytes = clean.clone();
    bytes[entry..entry + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));

    // Duplicate section kind.
    let mut bytes = clean.clone();
    bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&2u32.to_le_bytes()); // kind 1 -> 2
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));

    // Nonsense section count.
    let mut bytes = clean.clone();
    bytes[12..16].copy_from_slice(&3u32.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));

    // Lie about the vertex count in the metadata.
    let mut bytes = clean.clone();
    bytes[32..40].copy_from_slice(&123456u64.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::Corrupt { .. }
    ));
}

#[test]
fn semantically_invalid_graph_arrays_are_rejected() {
    // Build a container whose bytes are internally consistent (checksum
    // repaired) but whose neighbour array violates CSR invariants.
    let g = testkit::path(6);
    let idx = build_top_k(&g, 2);
    let clean = hcl_store::serialize(&g, &idx).expect("serialize");
    let store = IndexStore::from_bytes(&clean).expect("clean loads");
    let neighbors = store
        .sections()
        .into_iter()
        .find(|s| s.name == "graph_neighbors")
        .expect("section present");
    drop(store);

    // Out-of-range neighbour id.
    let mut bytes = clean.clone();
    let at = neighbors.offset as usize;
    bytes[at..at + 4].copy_from_slice(&777u32.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::InvalidGraph(CsrError::NeighborOutOfRange { .. })
    ));

    // Break symmetry: rewrite vertex 0's single neighbour (1 -> 5).
    let mut bytes = clean.clone();
    bytes[at..at + 4].copy_from_slice(&5u32.to_le_bytes());
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::InvalidGraph(_)
    ));
}

#[test]
fn semantically_invalid_index_arrays_are_rejected() {
    let g = testkit::star(8);
    let idx = build_top_k(&g, 3);
    let clean = hcl_store::serialize(&g, &idx).expect("serialize");
    let store = IndexStore::from_bytes(&clean).expect("clean loads");
    let entries = store
        .sections()
        .into_iter()
        .find(|s| s.name == "label_entries")
        .expect("section present");
    drop(store);

    let mut bytes = clean.clone();
    // Entries are packed u32s with the hub in the high 8 bits; a hub rank
    // >= k in the first entry must be caught by semantic validation.
    let at = entries.offset as usize + 3;
    bytes[at] = 250;
    hcl_store::rewrite_checksum(&mut bytes);
    assert!(matches!(
        IndexStore::from_bytes(&bytes).unwrap_err(),
        StoreError::InvalidIndex(_)
    ));
}

/// A container whose landmark count a label entry cannot hold — here 257
/// landmarks, every one a vertex, over empty labels and a zero highway,
/// consistent in every other respect — is refused by the open, like more
/// landmarks than vertices; 256 of them open.
#[test]
fn more_landmarks_than_a_label_entry_holds_are_refused() {
    let g = testkit::star(300);
    for k in [256usize, 257] {
        let landmarks: Vec<u32> = (0..k as u32).collect();
        let rank: Vec<u32> = (0..300)
            .map(|v| if v < k as u32 { v } else { u32::MAX })
            .collect();
        let offsets = vec![0u64; 301];
        let highway = vec![0u32; k * k];
        let view =
            hcl_index::IndexView::from_parts_unchecked(&landmarks, &rank, &offsets, &[], &highway);
        let parts = hcl_store::image_parts(g.as_view(), view, Default::default(), None, None);
        let bytes = parts.expect("lays out").to_vec();
        match IndexStore::from_bytes(&bytes) {
            Ok(store) => {
                assert_eq!(k, 256);
                assert_eq!(store.meta().num_landmarks, 256);
            }
            Err(err) => assert!(
                matches!(
                    err,
                    StoreError::InvalidIndex(IndexDataError::LandmarkLimit { landmarks: 257 })
                ) && k == 257,
                "k = {k}: {err:?}"
            ),
        }
    }
}

/// Payload bit rot that stays structurally plausible — here a flipped bit
/// in a label *distance* — is caught by the CRC, and every entry point
/// runs it: there is one open. `from_slices` (the edge-list `query` /
/// `serve` path) gets the image in three slices cut inside the header and
/// the payload.
#[test]
fn payload_rot_is_rejected_by_every_entry_point() {
    let clean = sample_bytes();
    let store = IndexStore::from_bytes(&clean).expect("clean loads");
    let entries = store
        .sections()
        .into_iter()
        .find(|s| s.name == "label_entries")
        .expect("section present");
    drop(store);
    let mut bytes = clean.clone();
    bytes[entries.offset as usize] ^= 0x01;

    let mut path = std::env::temp_dir();
    path.push(format!("hcl_store_rot_{}.hcl", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
    let errors = [
        ("from_bytes", IndexStore::from_bytes(&bytes).unwrap_err()),
        ("open", IndexStore::open(&path).unwrap_err()),
        ("verify_file", hcl_store::verify_file(&path).unwrap_err()),
        (
            "from_slices",
            IndexStore::from_slices(&[
                &bytes[..HEADER_LEN / 2],
                &bytes[HEADER_LEN / 2..mid],
                &bytes[mid..],
            ])
            .unwrap_err(),
        ),
    ];
    std::fs::remove_file(&path).ok();
    for (entry, err) in errors {
        assert!(
            matches!(err, StoreError::ChecksumMismatch { .. }),
            "{entry}: expected ChecksumMismatch, got {err:?}"
        );
    }
}

#[test]
fn open_errors_are_typed_io() {
    let err = IndexStore::open("/definitely/not/a/real/path.hcl").unwrap_err();
    assert!(matches!(err, StoreError::Io(_)));
}

#[test]
fn corrupted_file_on_disk_fails_via_open_too() {
    let mut bytes = sample_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    let mut path = std::env::temp_dir();
    path.push(format!("hcl_store_corrupt_{}.hcl", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let err = IndexStore::open(&path).unwrap_err();
    assert!(matches!(err, StoreError::ChecksumMismatch { .. }));
    std::fs::remove_file(&path).ok();
}
