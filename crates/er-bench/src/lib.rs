//! Experiment harness reproducing the evaluation of
//! *"Efficient Estimation of Pairwise Effective Resistance"* (SIGMOD 2023).
//!
//! Section 5 of the paper evaluates the proposed AMC/GEER against seven
//! baselines on six SNAP datasets, reporting:
//!
//! * Table 3 — dataset statistics,
//! * Fig. 2  — the running example (#paths vs AMC's η\*),
//! * Fig. 4/5 — running time vs ε for random / edge queries,
//! * Fig. 6/7 — average absolute error vs ε for random / edge queries,
//! * Fig. 8/9 — effect of the batch count τ,
//! * Fig. 10 — effect of GEER's switch point ℓ_b,
//! * Fig. 11 — the refined walk length (Eq. 6) vs Peng et al.'s (Eq. 5) in SMM.
//!
//! Each figure/table has a dedicated binary in `src/bin/` that prints the
//! same rows/series the paper plots and writes a CSV under
//! `target/experiments/`. The raw SNAP datasets are not shipped; the
//! [`datasets`] module builds synthetic graphs whose average degree matches
//! each original (see DESIGN.md for the substitution argument), and will load
//! a real edge list from `data/<name>.txt` instead when one is present.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod datasets;
pub mod harness;
pub mod methods;
pub mod report;
pub mod sweeps;

pub use args::{BenchArgs, Scale};
pub use datasets::{DatasetSpec, PreparedDataset};
pub use harness::{run_estimator_on_workload, run_method_on_workload, MethodRun, Workload};
pub use methods::MethodKind;
pub use report::{print_table, write_csv};
