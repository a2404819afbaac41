//! Process counters, percentiles and the result line.

use std::collections::BTreeMap;

/// The end-to-end metrics a `--trace 0` run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a `--trace 1` run reports, with their units. A
/// layer a workload never enters reads 0 there (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.self_us", "us"),
    ("http.parse_us", "us"),
    ("http.render_us", "us"),
    ("http.bytes_per_req", "B"),
    ("server.self_us", "us"),
    ("server.executed_per_submitted", "ratio"),
    ("server.deduplicated", "count"),
    ("server.attached_running", "count"),
    ("server.coalesced_requests", "count"),
    ("server.rejected_overloaded", "count"),
    ("server.expired", "count"),
    ("service.hit_us", "us"),
    ("service.miss_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_entries", "count"),
    ("service.backend.GEER", "share"),
    ("service.backend.EXACT-CG", "share"),
    ("service.backend.INDEX", "share"),
    ("service.backend.other", "share"),
    ("geer.pair_us", "us"),
    ("geer.smm_us", "us"),
    ("geer.amc_us", "us"),
    ("geer.matvec_ops", "count"),
    ("geer.walk_steps", "count"),
    ("geer.random_walks", "count"),
    ("geer.switch_point", "hops"),
    ("geer.ell", "hops"),
    ("geer.ns_per_op", "ns"),
    ("walks.steps_per_s", "1/s"),
    ("linalg.preprocess_s", "s"),
    ("linalg.warm_lanczos_ms", "ms"),
    ("graph.generate_s", "s"),
    ("graph.collapse_ms", "ms"),
    ("graph.validate_ms", "ms"),
    ("dynamic.mutation_us", "us"),
    ("dynamic.refresh_ms", "ms"),
    ("dynamic.service_build_ms", "ms"),
    ("dynamic.steady_read_ms", "ms"),
    ("dynamic.full_rebuilds", "count"),
    ("dynamic.incremental_refreshes", "count"),
    ("dynamic.service_refreshes", "count"),
    ("dynamic.sm_updates", "count"),
    ("dynamic.cg_fallbacks", "count"),
    ("trace.overhead_pct", "%"),
];

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, fixed at
/// 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process (every thread, live or
/// joined), in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric CPU field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank quantile `q` of `values` (sorted internally).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of `values`, or 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What one run prints: notes and a metric table for people, then the
/// one-line JSON result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `count` wrong answers (or failed operations) found by a check.
    pub fn fail(&mut self, count: u64, what: &str) {
        if count > 0 {
            self.failed += count;
            self.note(format!("FAILED: {count} {what}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints the notes, every metric of `list` with its unit, and the JSON
    /// result line carrying exactly those metrics. A metric of `list` the
    /// run did not set reads 0: its layer is absent from the workload.
    pub fn print(&self, list: &[(&'static str, &'static str)]) {
        for line in &self.notes {
            println!("# {line}");
        }
        let attempted = self.attempted.max(1);
        println!(
            "# error_rate {} (failed {} of {attempted} attempted)",
            self.failed as f64 / attempted as f64,
            self.failed
        );
        let mut json = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = self.metrics.get(name).copied();
            let shown = value.map_or_else(|| "0 (layer absent)".to_string(), |v| v.to_string());
            println!("# {name:<32} {shown} {unit}");
            // JSON has no NaN or infinity; a ratio over an empty base reads 0.
            let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            attempted,
            self.failed,
            json.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    /// BENCHMARK.json and this file list the same metrics with the same
    /// units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = er_http::json::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list");
            let named: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(|v| v.as_str()).expect("string field");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(named, list.to_vec(), "{key} differs from BENCHMARK.json");
        }
    }
}
