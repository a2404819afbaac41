//! Minimal command-line argument handling shared by the figure binaries.
//!
//! No external CLI crate is used; every binary accepts the same small set of
//! `--key value` flags:
//!
//! * `--scale small|paper` — dataset sizes (default `small`, which finishes in
//!   minutes on a laptop; `paper` approaches the original node counts where
//!   that is tractable).
//! * `--queries N` — queries per dataset (paper: 100; small default: 20).
//! * `--budget-secs S` — per-method, per-point time budget replacing the
//!   paper's one-day timeout (default 10 s at small scale).
//! * `--epsilons a,b,c` — the ε sweep (default depends on the figure).
//! * `--datasets a,b,c` — restrict to named datasets.
//! * `--seed N` — global seed.
//! * `--threads N` — worker threads for the parallel sampling layer
//!   (default 0 = all cores; results are identical at any thread count).
//! * `--quick` — flag (no value): shrink repetitions/measurement windows to
//!   smoke-test size while keeping the workload shape.

use std::time::Duration;

/// Dataset size profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale graphs (thousands of nodes); the default.
    Small,
    /// Graph sizes close to the paper's datasets where tractable.
    Paper,
}

/// Parsed benchmark arguments.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Dataset size profile.
    pub scale: Scale,
    /// Number of queries per dataset.
    pub queries: usize,
    /// Per-method, per-point time budget.
    pub budget: Duration,
    /// ε values to sweep (None = figure default).
    pub epsilons: Option<Vec<f64>>,
    /// Restrict to these dataset names (None = figure default).
    pub datasets: Option<Vec<String>>,
    /// Global seed.
    pub seed: u64,
    /// Worker threads for the parallel sampling layer (0 = all cores).
    pub threads: usize,
    /// Smoke-test mode: fewer repetitions, same workload shape.
    pub quick: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: Scale::Small,
            queries: 20,
            budget: Duration::from_secs(10),
            epsilons: None,
            datasets: None,
            seed: 42,
            threads: 0,
            quick: false,
        }
    }
}

impl BenchArgs {
    /// Parses `--key value` pairs from an iterator of arguments (typically
    /// `std::env::args().skip(1)`). Unknown keys are reported as errors so
    /// typos do not silently change an experiment.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut iter = args.into_iter();
        while let Some(key) = iter.next() {
            let mut value = || {
                iter.next()
                    .ok_or_else(|| format!("missing value for {key}"))
            };
            match key.as_str() {
                "--scale" => {
                    out.scale = match value()?.as_str() {
                        "small" => Scale::Small,
                        "paper" => Scale::Paper,
                        other => return Err(format!("unknown scale '{other}'")),
                    }
                }
                "--queries" => {
                    out.queries = value()?
                        .parse()
                        .map_err(|e| format!("bad --queries: {e}"))?
                }
                "--budget-secs" => {
                    let secs: f64 = value()?
                        .parse()
                        .map_err(|e| format!("bad --budget-secs: {e}"))?;
                    out.budget = Duration::from_secs_f64(secs);
                }
                "--epsilons" => {
                    let list = value()?;
                    let eps: Result<Vec<f64>, _> =
                        list.split(',').map(|s| s.trim().parse::<f64>()).collect();
                    out.epsilons = Some(eps.map_err(|e| format!("bad --epsilons: {e}"))?);
                }
                "--datasets" => {
                    out.datasets =
                        Some(value()?.split(',').map(|s| s.trim().to_string()).collect());
                }
                "--seed" => out.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
                "--threads" => {
                    out.threads = value()?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?
                }
                "--quick" => out.quick = true,
                "--help" | "-h" => {
                    return Err("usage: --scale small|paper --queries N --budget-secs S \
                         --epsilons 0.5,0.2 --datasets facebook-like,dblp-like --seed N \
                         --threads N --quick"
                        .to_string())
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with the error message on failure.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

    /// The ε sweep to use, falling back to `default_eps` if none was given.
    pub fn epsilons_or(&self, default_eps: &[f64]) -> Vec<f64> {
        self.epsilons
            .clone()
            .unwrap_or_else(|| default_eps.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sane() {
        let a = BenchArgs::default();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.queries, 20);
        assert_eq!(a.epsilons_or(&[0.5, 0.1]), vec![0.5, 0.1]);
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--scale",
            "paper",
            "--queries",
            "100",
            "--budget-secs",
            "2.5",
            "--epsilons",
            "0.5, 0.1,0.02",
            "--datasets",
            "facebook-like, orkut-like",
            "--seed",
            "7",
            "--threads",
            "3",
            "--quick",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.queries, 100);
        assert_eq!(a.budget, Duration::from_secs_f64(2.5));
        assert_eq!(a.epsilons_or(&[]), vec![0.5, 0.1, 0.02]);
        assert_eq!(
            a.datasets.unwrap(),
            vec!["facebook-like".to_string(), "orkut-like".to_string()]
        );
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 3);
        assert!(a.quick);
        assert!(!BenchArgs::default().quick);
    }

    #[test]
    fn rejects_unknown_or_malformed_flags() {
        assert!(parse(&["--bogus", "1"]).is_err());
        assert!(parse(&["--queries"]).is_err());
        assert!(parse(&["--queries", "many"]).is_err());
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
