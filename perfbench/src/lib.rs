//! # perfbench — the repository benchmark
//!
//! Three workloads, each a closed loop (the next cell or run starts only
//! when the previous one finished) on at most two threads:
//!
//! * `fig3` — the Fig. 3 sweep grid, run serially;
//! * `registry` — every built-in workload, run on two sweep threads;
//! * `fleet` — the 120k-session fluid fleet headline.
//!
//! `--trace 0` runs the untraced pass and prints the end-to-end metrics;
//! `--trace 1` runs the traced pass and prints the per-layer metrics. See
//! `README.md` beside this crate for what each metric means.

#![forbid(unsafe_code)]

pub mod digest;
pub mod fleet;
pub mod replay;
pub mod sessions;
pub mod stats;

use std::fmt::Write;

/// The workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["fig3", "registry", "fleet"];

/// End-to-end metrics (untraced pass): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sessions_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("session_us_p50", "us"),
    ("session_us_p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("startup_sim_s_mean", "s"),
];

/// Per-layer metrics (traced pass): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sweep.busy_frac", "frac"),
    ("sweep.cells", "count"),
    ("sim.host_new_us", "us"),
    ("sim.events_per_session", "count"),
    ("sim.chunks_per_session", "count"),
    ("sim.other_us_per_session", "us"),
    ("player.stalls_per_session", "count"),
    ("player.failovers_per_session", "count"),
    ("player.refills_per_session", "count"),
    ("player.abr_decisions_per_session", "count"),
    ("player.startup_sim_s_p50", "s"),
    ("player.startup_sim_s_p95", "s"),
    ("player.refill_sim_s_mean", "s"),
    ("net.build_us_per_session", "us"),
    ("net.transfer_us_per_session", "us"),
    ("net.request_ns", "ns"),
    ("net.rounds_per_request", "count"),
    ("net.ns_per_round", "ns"),
    ("net.losses_per_request", "count"),
    ("net.rate_at_ns", "ns"),
    ("net.rate_at_per_session", "count"),
    ("scheduler.decision_ns", "ns"),
    ("scheduler.decisions_per_session", "count"),
    ("event.op_ns", "ns"),
    ("event.ops_per_session", "count"),
    ("youtube.bootstrap_us", "us"),
    ("fleet.host_new_s", "s"),
    ("fleet.ns_per_event", "ns"),
    ("fleet.events_per_session", "count"),
    ("fleet.peak_concurrent", "count"),
    ("trace.sps_ratio", "ratio"),
    ("trace.executor_sps_ratio", "ratio"),
];

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the traced pass writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.ndjson"))
}

/// Correctness bookkeeping: sessions attempted and failed, and what went
/// wrong.
#[derive(Debug, Default)]
pub struct Check {
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that failed.
    pub failed: u64,
    problems: Vec<String>,
}

impl Check {
    /// Records a problem (kept to the first few; all count).
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            eprintln!("perfbench: {what}");
            self.problems.push(what);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// The metrics of one run, keyed by the names in [`END_TO_END`] /
/// [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets a metric; the name must be one of the declared ones.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed, XORed into the workload's own seeds.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {value}: want a number in (0, 600]"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: want one of {}",
            parsed.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// Runs one benchmark invocation; returns the result line.
pub fn run(args: &Args) -> String {
    let mut check = Check::default();
    let mut metrics = Metrics::default();
    let grid = match args.workload.as_str() {
        "fig3" => Some(sessions::Grid::Fig3),
        "registry" => Some(sessions::Grid::Registry),
        _ => None,
    };
    match (grid, args.trace) {
        (Some(g), false) => {
            sessions::end_to_end(g, args.seed, args.seconds, &mut check, &mut metrics)
        }
        (Some(g), true) => {
            sessions::per_layer(g, args.seed, args.seconds, &mut check, &mut metrics)
        }
        (None, false) => fleet::end_to_end(args.seed, args.seconds, &mut check, &mut metrics),
        (None, true) => fleet::per_layer(args.seed, args.seconds, &mut check, &mut metrics),
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let error_rate = check.failed as f64 / check.attempted.max(1) as f64;
    println!(
        "{}: {} attempted, {} failed (error_rate {error_rate})",
        args.workload, check.attempted, check.failed
    );
    result_line(&check, &metrics, declared)
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and every
/// declared metric with its unit.
pub fn result_line(check: &Check, metrics: &Metrics, declared: &[(&str, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        check.correct(),
        check.attempted,
        check.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .chain(WORKLOADS)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "{a} declared twice");
        }
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name("x/y"));
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json beside the benchmark");
        let json = msim_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f);
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, declared.to_vec(), "{key}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let check = Check {
            attempted: 4,
            ..Check::default()
        };
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = result_line(&check, &m, END_TO_END);
        let json = msim_json::from_str(&line).expect("result line is JSON");
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        let metrics = json
            .get("metrics")
            .and_then(|v| v.as_object())
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(|v| v.as_str()),
            Some("s")
        );
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload fig3 --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fig3".into(),
                seed: 7,
                seconds: 2.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fig3 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fig3 --seconds")).is_err());
    }
}
