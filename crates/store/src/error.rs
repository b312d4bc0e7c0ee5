//! Typed load/store errors.
//!
//! Every way a `.hcl` file can be wrong maps to a distinct variant, so
//! callers (and tests) can tell truncation from tampering from version
//! skew. Corrupt input must *never* panic or cause UB — it surfaces here.

use hcl_core::CsrError;
use hcl_index::IndexDataError;
use std::fmt;
use std::io;

/// Failure to serialise, write, open, or validate a `.hcl` index container.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying filesystem / mmap error.
    Io(io::Error),
    /// The file does not start with the `HCLSTOR1` magic.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The format version is not the one this build reads and writes.
    UnsupportedVersion {
        /// Version number in the file.
        found: u32,
        /// The one version this build reads (the one it writes).
        supported: u32,
    },
    /// The file is shorter than its header claims (or than the header
    /// itself).
    Truncated {
        /// Bytes the file should hold.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The stored checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum computed over the file.
        computed: u64,
    },
    /// Structurally invalid container (bad section table, overlapping or
    /// out-of-bounds sections, inconsistent counts, trailing bytes that are
    /// not journal frames, a damaged or out-of-sequence frame).
    Corrupt {
        /// Human-readable description of the inconsistency.
        what: String,
    },
    /// The graph arrays decoded but violate CSR invariants.
    InvalidGraph(CsrError),
    /// The index arrays decoded but violate labelling invariants.
    InvalidIndex(IndexDataError),
    /// Graph and index in the file disagree about the vertex count, or an
    /// index passed to [`serialize`](crate::serialize) was built for a
    /// different graph.
    GraphIndexMismatch {
        /// Vertex count of the graph arrays.
        graph_vertices: usize,
        /// Vertex count the index arrays imply.
        index_vertices: usize,
    },
    /// A patched graph or label view was handed to the image writer,
    /// which lays out flat arrays only: fold the edited state first.
    Patched,
    /// This build cannot serve the format on the current platform (the
    /// zero-copy path requires a little-endian host).
    UnsupportedPlatform {
        /// Why the platform is unsupported.
        why: &'static str,
    },
    /// The durable publish sequence failed at a named step (create-temp,
    /// write-temp, sync-temp, rename, sync-dir). The attempt's temp file
    /// was removed; the target path still holds whatever complete
    /// container it held before.
    Publish {
        /// Name of the [`PublishStep`](crate::durable::PublishStep) that
        /// failed.
        step: &'static str,
        /// The underlying I/O error (real or injected).
        source: io::Error,
    },
    /// Appending a frame to the journal tail failed at a named step
    /// (open-tail, write-frame, sync-tail). Nothing was acknowledged; a
    /// partial frame, if any reached the file, is a torn tail that opens
    /// as the state before the append.
    Append {
        /// Name of the [`AppendStep`](crate::durable::AppendStep) that
        /// failed.
        step: &'static str,
        /// The underlying I/O error (real or injected).
        source: io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "not an hcl index file (magic {:02x?})", found)
            }
            StoreError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "format version {found} unsupported (this build reads only {supported})"
                )
            }
            StoreError::Truncated { expected, actual } => {
                write!(
                    f,
                    "file truncated: expected {expected} bytes, found {actual}"
                )
            }
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header says {stored:#018x}, file hashes to {computed:#018x}"
            ),
            StoreError::Corrupt { what } => write!(f, "corrupt container: {what}"),
            StoreError::InvalidGraph(e) => write!(f, "invalid graph arrays: {e}"),
            StoreError::InvalidIndex(e) => write!(f, "invalid index arrays: {e}"),
            StoreError::GraphIndexMismatch {
                graph_vertices,
                index_vertices,
            } => write!(
                f,
                "graph has {graph_vertices} vertices but index was built for {index_vertices}"
            ),
            StoreError::Patched => write!(f, "a patched view cannot be laid out: fold it first"),
            StoreError::UnsupportedPlatform { why } => write!(f, "unsupported platform: {why}"),
            StoreError::Publish { step, source } => {
                write!(f, "durable publish failed at {step}: {source}")
            }
            StoreError::Append { step, source } => {
                write!(f, "journal append failed at {step}: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::InvalidGraph(e) => Some(e),
            StoreError::InvalidIndex(e) => Some(e),
            StoreError::Publish { source, .. } | StoreError::Append { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CsrError> for StoreError {
    fn from(e: CsrError) -> Self {
        StoreError::InvalidGraph(e)
    }
}

impl From<IndexDataError> for StoreError {
    fn from(e: IndexDataError) -> Self {
        StoreError::InvalidIndex(e)
    }
}
