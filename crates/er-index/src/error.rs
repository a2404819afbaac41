//! Error type shared by the indexing layer.

use er_graph::GraphError;
use std::fmt;

/// Errors produced while building or querying an index.
#[derive(Debug)]
pub enum IndexError {
    /// The underlying graph is invalid for the requested operation
    /// (out-of-range node, disconnected, bipartite, …).
    Graph(GraphError),
    /// The requested index configuration is invalid.
    InvalidConfiguration {
        /// Parameter at fault.
        name: &'static str,
        /// Human-readable description of the problem.
        message: String,
    },
    /// The index would exceed its configured size budget.
    BudgetExceeded {
        /// Resource at fault ("memory", "landmarks", …).
        resource: &'static str,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Graph(e) => write!(f, "graph error: {e}"),
            IndexError::InvalidConfiguration { name, message } => {
                write!(f, "invalid index configuration `{name}`: {message}")
            }
            IndexError::BudgetExceeded { resource, message } => {
                write!(f, "index budget exceeded ({resource}): {message}")
            }
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for IndexError {
    fn from(e: GraphError) -> Self {
        IndexError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let g: IndexError = GraphError::NotConnected.into();
        assert!(g.to_string().contains("connected"));
        let c = IndexError::InvalidConfiguration {
            name: "landmarks",
            message: "must be positive".into(),
        };
        assert!(c.to_string().contains("landmarks"));
        let b = IndexError::BudgetExceeded {
            resource: "memory",
            message: "too many nodes".into(),
        };
        assert!(b.to_string().contains("memory"));
    }

    #[test]
    fn source_is_preserved_for_wrapped_errors() {
        use std::error::Error;
        let g: IndexError = GraphError::Empty.into();
        assert!(g.source().is_some());
        let c = IndexError::InvalidConfiguration {
            name: "k",
            message: String::new(),
        };
        assert!(c.source().is_none());
    }
}
