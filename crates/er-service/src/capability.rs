//! Query shapes.
//!
//! [`BackendChoice::answers`](crate::BackendChoice::answers) says which
//! shapes each backend can answer; the [`planner`](crate::planner) only
//! routes a query to a backend that answers its shape, and an explicit
//! backend override is rejected up front when it does not.

use std::fmt;

/// The shape of a [`Query`](crate::Query) — what kind of answer is requested,
/// independent of the accuracy target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryShape {
    /// One `(s, t)` resistance value.
    Pair,
    /// Many `(s, t)` resistance values, answered as one unit of work.
    Batch,
    /// `r(s, v)` for a fixed source `s` and every node `v`.
    SingleSource,
    /// The diagonal of the Laplacian pseudo-inverse, `L†(v, v)` for every `v`.
    Diagonal,
    /// Resistance of pairs that are *edges* of the graph (`(s, t) ∈ E`).
    EdgeSet,
    /// The `k` nodes closest to a source in resistance distance.
    TopK,
}

impl QueryShape {
    /// Whether this is a pair-shaped query (`Pair`, `Batch`, `EdgeSet`) —
    /// the shapes that flow through the cache/dedup tier and that the
    /// server may coalesce across requests.
    pub const fn is_pairwise(self) -> bool {
        matches!(
            self,
            QueryShape::Pair | QueryShape::Batch | QueryShape::EdgeSet
        )
    }
}

impl fmt::Display for QueryShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            QueryShape::Pair => "pair",
            QueryShape::Batch => "batch",
            QueryShape::SingleSource => "single-source",
            QueryShape::Diagonal => "diagonal",
            QueryShape::EdgeSet => "edge-set",
            QueryShape::TopK => "top-k",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_stable() {
        assert_eq!(QueryShape::SingleSource.to_string(), "single-source");
        assert_eq!(QueryShape::EdgeSet.to_string(), "edge-set");
    }

    #[test]
    fn pairwise_predicate_matches_the_pairwise_set() {
        for shape in [QueryShape::Pair, QueryShape::Batch, QueryShape::EdgeSet] {
            assert!(shape.is_pairwise(), "{shape}");
        }
        for shape in [
            QueryShape::SingleSource,
            QueryShape::Diagonal,
            QueryShape::TopK,
        ] {
            assert!(!shape.is_pairwise(), "{shape}");
        }
    }
}
