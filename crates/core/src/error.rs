//! Errors raised while building, loading or querying a SILC index.

use silc_network::VertexId;
use std::io;

/// Why an index could not be built or loaded.
#[derive(Debug)]
pub enum BuildError {
    /// Some vertex cannot be reached from `source`; SILC precomputation
    /// requires a strongly connected network (extract the largest component
    /// first — see `silc_network::analysis::largest_component`).
    Unreachable { source: VertexId, missing: usize },
    /// Two vertices share the same world position, so no `[λ−, λ+]` ratio
    /// interval can bound their network distance.
    CoincidentVertices(VertexId, VertexId),
    /// An edge has zero weight between distinct vertices; path retrieval by
    /// repeated next hops requires strictly positive weights to terminate.
    ZeroWeightEdge(VertexId, VertexId),
    /// The network is empty.
    EmptyNetwork,
    /// An I/O error while writing or reading a disk-resident index.
    Io(std::io::Error),
    /// A disk-resident index file is malformed.
    Corrupt(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Unreachable { source, missing } => write!(
                f,
                "{missing} vertices unreachable from {source}; the network must be strongly connected"
            ),
            BuildError::CoincidentVertices(a, b) => {
                write!(f, "vertices {a} and {b} share the same position")
            }
            BuildError::ZeroWeightEdge(a, b) => {
                write!(f, "zero-weight edge between {a} and {b}")
            }
            BuildError::EmptyNetwork => write!(f, "the network has no vertices"),
            BuildError::Io(e) => write!(f, "I/O error: {e}"),
            BuildError::Corrupt(msg) => write!(f, "corrupt index file: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BuildError {
    fn from(e: std::io::Error) -> Self {
        BuildError::Io(e)
    }
}

impl From<QueryError> for BuildError {
    /// Lowers a failed lookup for the whole-path walks of [`crate::path`],
    /// which report through `BuildError`: corruption stays corruption
    /// (naming its page when known), anything else is I/O.
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Io(e) => BuildError::Io(e),
            QueryError::Corrupt { page: Some(p), detail } => {
                BuildError::Corrupt(format!("page {p}: {detail}"))
            }
            QueryError::Corrupt { page: None, detail } => BuildError::Corrupt(detail),
        }
    }
}

/// Why a query against a disk-resident index could not complete.
///
/// Raised by the fallible (`try_*`) lookup path: transient store faults
/// that survived the pool's retries, and corruption the page checksums
/// caught. The infallible lookup methods panic with this error's message
/// at the API boundary instead.
#[derive(Debug)]
pub enum QueryError {
    /// An I/O error reading index pages (retries already exhausted).
    Io(io::Error),
    /// The index data is corrupt: a page failed checksum verification
    /// (`page` names it) or decoded bytes violated a structural invariant.
    Corrupt {
        /// The page that failed verification, when known.
        page: Option<u64>,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Io(e) => write!(f, "index I/O error: {e}"),
            QueryError::Corrupt { page: Some(p), detail } => {
                write!(f, "corrupt index: page {p}: {detail}")
            }
            QueryError::Corrupt { page: None, detail } => write!(f, "corrupt index: {detail}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Io(e) => Some(e),
            QueryError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for QueryError {
    /// Lifts an I/O error, recognizing the typed page-corruption payload
    /// of `silc_storage::corrupt_page` so checksum failures keep naming
    /// their page across the layer boundary. Any other `InvalidData` error
    /// — a record decoder rejecting malformed bytes (bad varint,
    /// structural invariant violated) — is corruption too, just without a
    /// page to name.
    fn from(e: io::Error) -> Self {
        match silc_storage::as_page_corrupt(&e) {
            Some(pc) => QueryError::Corrupt { page: Some(pc.page), detail: pc.detail.clone() },
            None if e.kind() == io::ErrorKind::InvalidData => {
                QueryError::Corrupt { page: None, detail: e.to_string() }
            }
            None => QueryError::Io(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = BuildError::Unreachable { source: VertexId(3), missing: 7 };
        assert!(e.to_string().contains("7 vertices unreachable from v3"));
        let e = BuildError::CoincidentVertices(VertexId(1), VertexId(2));
        assert!(e.to_string().contains("v1"));
        assert!(e.to_string().contains("v2"));
        let e = BuildError::Io(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn io_source_is_exposed() {
        use std::error::Error;
        let e = BuildError::Io(std::io::Error::other("x"));
        assert!(e.source().is_some());
        assert!(BuildError::EmptyNetwork.source().is_none());
    }

    #[test]
    fn query_error_recovers_the_corrupt_page() {
        let e = QueryError::from(silc_storage::corrupt_page(7, "checksum mismatch"));
        match &e {
            QueryError::Corrupt { page: Some(7), detail } => {
                assert!(detail.contains("checksum mismatch"))
            }
            other => panic!("expected typed corruption, got {other:?}"),
        }
        assert!(e.to_string().contains("page 7"));
        let e = QueryError::from(std::io::Error::other("disk gone"));
        assert!(matches!(e, QueryError::Io(_)));
        assert!(e.to_string().contains("disk gone"));
    }

    #[test]
    fn invalid_data_lifts_to_pageless_corruption() {
        let e = QueryError::from(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "vertex 3: non-canonical varint",
        ));
        match &e {
            QueryError::Corrupt { page: None, detail } => {
                assert!(detail.contains("non-canonical varint"))
            }
            other => panic!("expected pageless corruption, got {other:?}"),
        }
    }
}
