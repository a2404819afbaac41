//! End-to-end and per-layer benchmark of the effective-resistance serving
//! stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload zipf_http --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate run that times the benchmark's own calls into each layer.
//! The last line of standard output is the JSON result; the exit code is
//! non-zero when any answer was wrong. README.md records why each workload
//! and setting was chosen.

mod client;
mod measure;
mod mutation;
mod reads;
mod seq;
mod trace;

use er_core::ApproxConfig;
use er_graph::{generators, Graph};
use er_service::ServerConfig;

/// How often each run sets its stack up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// The shipped defaults, except one sampling thread: at the default thread
/// count GEER spawns scoped threads on every SMM round (see README.md).
pub fn approx_config() -> ApproxConfig {
    ApproxConfig {
        threads: 1,
        ..ApproxConfig::default()
    }
}

/// The shipped defaults, except one worker (see README.md).
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// A workload's fixed graph.
#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    Social {
        n: usize,
        avg_degree: f64,
        seed: u64,
    },
    BarabasiAlbert {
        n: usize,
        m: usize,
        seed: u64,
    },
}

impl GraphSpec {
    pub fn nodes(self) -> usize {
        match self {
            GraphSpec::Social { n, .. } | GraphSpec::BarabasiAlbert { n, .. } => n,
        }
    }

    pub fn generate(self) -> Result<Graph, String> {
        match self {
            GraphSpec::Social {
                n,
                avg_degree,
                seed,
            } => generators::social_network_like(n, avg_degree, seed),
            GraphSpec::BarabasiAlbert { n, m, seed } => generators::barabasi_albert(n, m, seed),
        }
        .map_err(|e| format!("graph generation: {e}"))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<measure::Report, String> {
    let reads = match args.workload.as_str() {
        "zipf_http" => Some(&reads::ZIPF_HTTP),
        "cold_pairs" => Some(&reads::COLD_PAIRS),
        "mutation_stream" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    match (reads, args.trace) {
        (Some(w), false) => reads::run(w, args.seed, args.seconds),
        (Some(w), true) => reads::run_traced(w, args.seed),
        (None, false) => mutation::run(&mutation::MUTATION_STREAM, args.seed, args.seconds),
        (None, true) => mutation::run_traced(&mutation::MUTATION_STREAM, args.seed),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let list = if args.trace {
                measure::PER_LAYER
            } else {
                measure::END_TO_END
            };
            report.print(list);
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
