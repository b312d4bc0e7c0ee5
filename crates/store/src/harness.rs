//! Names only the benchmark harness (`bench/`) still uses, kept as thin
//! wrappers over the real API so it compiles unedited: one write path
//! ([`image_parts`] → [`publish_slices_with`]), three opens
//! ([`IndexStore::open`], [`IndexStore::from_bytes`],
//! [`IndexStore::from_slices`]) and one compaction
//! ([`UpdateEngine::publish`]). Nothing in the workspace may name them
//! outside this file (`cargo xtask lint`, rule `harness-fence`); ROADMAP
//! 1(c) deletes the file whole.

use crate::durable::{publish_slices_with, PublishOutcome, StoreIo};
use crate::{
    image_parts, BuildInfo, IndexStore, StoreError, StoredBuildStats, StoredJournal, UpdateEngine,
    UpdateError,
};
use hcl_core::Graph;
use hcl_index::HighwayCoverIndex;
use std::path::Path;

impl IndexStore {
    /// [`open`](Self::open) under its old name.
    pub fn open_trusted(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open(path)
    }

    /// [`from_bytes`](Self::from_bytes) under its old name.
    pub fn from_bytes_trusted(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::from_bytes(bytes)
    }
}

/// The [`image_parts`] image with a journal section, joined.
pub fn serialize_with_journal(
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
    journal: &StoredJournal,
) -> Result<Vec<u8>, StoreError> {
    Ok(image_parts(graph.as_view(), index.as_view(), build, None, Some(journal))?.to_vec())
}

/// The [`image_parts`] image with a `build_stats` section, joined.
pub fn serialize_with_stats(
    graph: &Graph,
    index: &HighwayCoverIndex,
    build: BuildInfo,
    stats: &StoredBuildStats,
) -> Result<Vec<u8>, StoreError> {
    Ok(image_parts(graph.as_view(), index.as_view(), build, Some(stats), None)?.to_vec())
}

/// Compacts the container at `path` as `hcl update --compact` does: opens
/// it, and if its journal holds anything, publishes the replayed state as
/// a whole new container through [`UpdateEngine::publish`]`(true)`.
pub fn compact_file(path: impl AsRef<Path>) -> Result<(), UpdateError> {
    let path = path.as_ref();
    let store = IndexStore::open(path).map_err(UpdateError::Compact)?;
    let mut engine = UpdateEngine::from_store(&store, Some(path.to_path_buf()), 0);
    if engine.pending() > 0 {
        engine.publish(true)?;
    }
    Ok(())
}

/// What `hcl_store::durable` re-exports.
pub mod in_durable {
    use super::*;

    /// [`publish_slices_with`] with one slice.
    pub fn publish_with<Io: StoreIo>(
        path: &Path,
        bytes: &[u8],
        io: &Io,
    ) -> Result<PublishOutcome, StoreError> {
        publish_slices_with(path, &[bytes], io)
    }
}

#[cfg(test)]
mod tests {
    use super::in_durable::publish_with;
    use super::*;
    use hcl_core::{testkit, EdgeDelta};

    fn build_top_k(graph: &Graph, k: usize) -> HighwayCoverIndex {
        let landmarks = graph.top_k_by_degree(k);
        HighwayCoverIndex::build(graph, &landmarks, &mut [], None)
            .unwrap()
            .0
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hcl_harness_{tag}_{}.hcl", std::process::id()))
    }

    /// The aliases are the validated open: a rotted label distance is a
    /// checksum mismatch through both.
    #[test]
    fn the_trusted_aliases_reject_payload_rot() {
        let graph = testkit::barabasi_albert(60, 3, 5);
        let mut bytes = crate::serialize(&graph, &build_top_k(&graph, 4)).unwrap();
        let store = IndexStore::from_bytes(&bytes).unwrap();
        let entries = store
            .sections()
            .into_iter()
            .find(|s| s.name == "label_entries");
        bytes[entries.unwrap().offset as usize] ^= 0x01;
        let path = temp_path("rot");
        std::fs::write(&path, &bytes).unwrap();
        let errors = [
            (
                "from_bytes_trusted",
                IndexStore::from_bytes_trusted(&bytes).unwrap_err(),
            ),
            ("open_trusted", IndexStore::open_trusted(&path).unwrap_err()),
        ];
        std::fs::remove_file(&path).ok();
        for (entry, err) in errors {
            assert!(
                matches!(err, StoreError::ChecksumMismatch { .. }),
                "{entry}: expected ChecksumMismatch, got {err:?}"
            );
        }
    }

    /// `compact_file` writes the bytes a forced engine publish writes, and
    /// leaves a clean file as it is.
    #[test]
    fn compact_file_writes_what_the_engine_writes() {
        let graph = testkit::barabasi_albert(80, 3, 13);
        let journal = StoredJournal {
            deltas: vec![EdgeDelta::insert(70, 71), EdgeDelta::delete(0, 1)],
            compactions: 1,
        };
        let info = BuildInfo::default();
        let bytes = serialize_with_journal(&graph, &build_top_k(&graph, 6), info, &journal);
        let (shim, engine) = (temp_path("shim"), temp_path("engine"));
        for path in [&shim, &engine] {
            publish_with(path, bytes.as_ref().unwrap(), &crate::durable::SystemIo).unwrap();
        }
        compact_file(&shim).unwrap();
        let store = IndexStore::open(&engine).unwrap();
        let published = UpdateEngine::from_store(&store, Some(engine.clone()), 0)
            .publish(true)
            .unwrap();
        assert!(published.compacted);
        drop((store, published));
        let compacted = std::fs::read(&engine).unwrap();
        assert_eq!(std::fs::read(&shim).unwrap(), compacted);
        compact_file(&shim).unwrap();
        assert_eq!(std::fs::read(&shim).unwrap(), compacted);
        std::fs::remove_file(&shim).ok();
        std::fs::remove_file(&engine).ok();
    }
}
