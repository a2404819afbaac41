//! `er` — command-line interface to the effective-resistance workspace.
//!
//! The binary wires three pieces together: flag parsing ([`args`]), graph
//! acquisition ([`input`], SNAP edge lists or synthetic benchmark graphs) and
//! the subcommand implementations ([`commands`]), which are plain functions
//! over `&Graph` so they are unit-tested without process spawning.
//!
//! ```text
//! er query 17 905 --graph data/facebook.txt --epsilon 0.05 --check
//! er critical --graph community:2000:12 --top 20
//! er sparsify --graph social:3000:20 --scores geer --quality-epsilon 0.3
//! er cluster --graph community:1000:10 --k 4 --stability
//! ```

mod args;
mod commands;
mod input;

use args::ParsedArgs;
use input::GraphSource;
use std::process::ExitCode;

fn main() -> ExitCode {
    let parsed = match ParsedArgs::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", commands::usage());
            return ExitCode::FAILURE;
        }
    };
    let command = parsed.command.clone().unwrap_or_else(|| "help".to_string());
    if command == "help" || parsed.is_set("help") {
        println!("{}", commands::usage());
        return ExitCode::SUCCESS;
    }
    if let Err(message) = commands::check_flags(&parsed) {
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }

    let source = GraphSource::from_flag(&parsed.flag_str("graph", "social:2000"));
    let (graph, description) = match source.load() {
        Ok(loaded) => loaded,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{description}");

    let result = match command.as_str() {
        "stats" => commands::stats(&graph, &parsed),
        "query" => commands::query(&graph, &parsed),
        "profile" => commands::profile(&graph, &parsed),
        "critical" => commands::critical(&graph, &parsed),
        "sparsify" => commands::sparsify(&graph, &parsed),
        "cluster" => commands::cluster(&graph, &parsed),
        "serve" => commands::serve(graph, &parsed),
        other => unreachable!("check_flags refused the command '{other}'"),
    };
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
