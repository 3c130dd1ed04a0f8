//! `bench_report` — merges the committed `bench_results/BENCH_*.json`
//! artifacts into one markdown trend table, so each PR's recorded perf
//! trajectory is readable at a glance (and diffs of `TREND.md` show
//! regressions in review).
//!
//! ```sh
//! cargo run --release -p msplayer-bench --bin bench_report            # print
//! cargo run --release -p msplayer-bench --bin bench_report -- --write # update bench_results/TREND.md
//! cargo run --release -p msplayer-bench --bin bench_report -- some/dir
//! ```
//!
//! Two artifact shapes are understood:
//!
//! * sweep-style reports (`sessions_per_sec` / `events_per_sec`, optional
//!   `speedup` over a serial reference);
//! * pattern-comparison reports (a `patterns` array of
//!   `{pattern, *_ns_per_op|*_ns_per_round, speedup}` rows, as written by
//!   `rng_bench`);
//! * fleet reports (a `headline` object plus a `frontier` array, as
//!   written by `fleet_bench`): the headline population, the
//!   Pareto-frontier cells of the cost-vs-QoE grid, and the exact anchor;
//! * distributed-sweep artifacts (`schema: "cluster-sweep"` /
//!   `"cluster-provenance"`, as written by `msplayer-sweepd`): the
//!   deterministic fingerprints, and the shard/fault provenance.
//!
//! Partial artifacts — a bench killed mid-write, a truncated upload, or
//! a run flushed by Ctrl-C (`interrupted: true`) — degrade to marker
//! rows instead of sinking the report.

use msim_json::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Renders one artifact as markdown table rows; returns `None` for files
/// this report does not understand.
fn rows_for(name: &str, v: &Value) -> Option<Vec<String>> {
    let mut rows = Vec::new();
    // An artifact flushed by an interrupted run is still rendered, but
    // marked so the trend diff can't silently pass off partial numbers
    // as a full run.
    if v.get("interrupted").and_then(Value::as_bool) == Some(true) {
        rows.push(format!(
            "| {name} | (partial — run interrupted before completion) | — | |"
        ));
    }
    // An artifact recorded against a superseded deviate-stream definition
    // (or predating the epoch stamp entirely) measured *different
    // sessions* than today's engine runs — its numbers are a valid record
    // of that epoch but not a baseline for this one, so the row is marked
    // rather than left to read as a regression or a win.
    let current = msim_core::rng::STREAM_EPOCH as u64;
    match v.get("stream_epoch").and_then(Value::as_u64) {
        Some(epoch) if epoch == current => {}
        Some(epoch) => rows.push(format!(
            "| {name} | (STALE baseline — stream epoch {epoch}, current {current}; re-record) | — | |"
        )),
        None => rows.push(format!(
            "| {name} | (STALE baseline — predates stream-epoch stamping, current {current}; re-record) | — | |"
        )),
    }
    match v.get("schema").and_then(Value::as_str) {
        // The distributed sweep's deterministic artifact: identity is
        // the whole point, so the fingerprints are the trend row.
        Some("cluster-sweep") => {
            let sessions = v.get("sessions").and_then(Value::as_u64).unwrap_or(0);
            let sweep_fp = v
                .get("sweep_fingerprint")
                .and_then(Value::as_str)
                .unwrap_or("?");
            let manifest_fp = v
                .get("manifest_fingerprint")
                .and_then(Value::as_str)
                .unwrap_or("?");
            rows.push(format!(
                "| {name} | cluster sweep: {sessions} cells | — | sweep fp \
                 `{sweep_fp}`, manifest fp `{manifest_fp}` |"
            ));
            return Some(rows);
        }
        // The nondeterministic side: who ran what, and how much fault
        // handling the run needed.
        Some("cluster-provenance") => {
            let shards = v
                .get("shards")
                .and_then(Value::as_array)
                .map(|s| s.len())
                .unwrap_or(0);
            let resumed = v.get("resumed_shards").and_then(Value::as_u64).unwrap_or(0);
            let counter = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
            let completed = v.get("completed").and_then(Value::as_bool) == Some(true);
            let violations = v
                .get("violations")
                .and_then(Value::as_array)
                .map(|a| a.len())
                .unwrap_or(0);
            rows.push(format!(
                "| {name} | cluster provenance: {shards} shards ({} workers{}) | — | \
                 {} reassigned, {} duplicate, {} inline, {resumed} resumed, \
                 {violations} violation(s) |",
                counter("workers"),
                if completed { "" } else { ", INCOMPLETE" },
                counter("reassignments"),
                counter("duplicates"),
                counter("inline_runs"),
            ));
            return Some(rows);
        }
        _ => {}
    }
    if let Some(patterns) = v.get("patterns").and_then(Value::as_array) {
        for p in patterns {
            let pattern = p.get("pattern").and_then(Value::as_str).unwrap_or("?");
            let speedup = p.get("speedup").and_then(Value::as_f64).unwrap_or(0.0);
            // The per-op keys differ per bench; surface whichever pair is
            // present, fastest implementation first.
            let mut nums: Vec<(String, f64)> = p
                .as_object()?
                .iter()
                .filter(|(k, _)| k.ends_with("_ns_per_op") || k.ends_with("_ns_per_round"))
                .filter_map(|(k, val)| Some((k.clone(), val.as_f64()?)))
                .collect();
            nums.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite timings"));
            let detail = nums
                .iter()
                .map(|(k, v)| format!("{k} {v:.1}"))
                .collect::<Vec<_>>()
                .join(", ");
            rows.push(format!("| {name} | {pattern} | {speedup:.2}x | {detail} |"));
        }
        return Some(rows);
    }
    if let Some(h) = v.get("headline") {
        let sessions = h.get("sessions").and_then(Value::as_u64).unwrap_or(0);
        let peak = h
            .get("peak_concurrent")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let mode = h.get("mode").and_then(Value::as_str).unwrap_or("?");
        let policy = h.get("policy").and_then(Value::as_str).unwrap_or("?");
        let eps = h
            .get("events_per_sec")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let p95 = h
            .get("startup_p95_secs")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let stalled = h
            .get("stalled_sessions")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let rejected = h.get("rejected").and_then(Value::as_u64).unwrap_or(0);
        rows.push(format!(
            "| {name} | {} {mode} sessions (peak {} concurrent, {policy}) | — | \
             {} events/s, p95 startup {p95:.1}s, {stalled} stalled, {rejected} rejected |",
            fmt_rate(sessions as f64),
            fmt_rate(peak as f64),
            fmt_rate(eps),
        ));
        // Only the Pareto-frontier cells: those are the operating points
        // an operator could actually pick, and the rows whose movement
        // in a TREND.md diff means a policy changed behaviour.
        if let Some(frontier) = v.get("frontier").and_then(Value::as_array) {
            for cell in frontier {
                if cell.get("on_frontier").and_then(Value::as_bool) != Some(true) {
                    continue;
                }
                let label = cell.get("label").and_then(Value::as_str).unwrap_or("?");
                let cost = cell.get("cost").and_then(Value::as_f64).unwrap_or(0.0);
                let qoe = cell.get("qoe").and_then(Value::as_f64).unwrap_or(0.0);
                let stalled = cell
                    .get("stalled_sessions")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                rows.push(format!(
                    "| {name} | frontier {label} | — | cost {cost:.1}, qoe {qoe:.2}, \
                     {stalled} stalled |"
                ));
            }
        }
        if let Some(e) = v.get("exact") {
            let sessions = e.get("sessions").and_then(Value::as_u64).unwrap_or(0);
            let completed = e.get("completed").and_then(Value::as_u64).unwrap_or(0);
            let peak = e
                .get("peak_concurrent")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            rows.push(format!(
                "| {name} | exact anchor: {sessions} per-chunk sessions | — | \
                 {completed} completed, peak {peak} concurrent |"
            ));
        }
        return Some(rows);
    }
    if let Some(sps) = v.get("sessions_per_sec").and_then(Value::as_f64) {
        let eps = v
            .get("events_per_sec")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let threads = v.get("threads").and_then(Value::as_u64).unwrap_or(1);
        let speedup = v
            .get("speedup")
            .and_then(Value::as_f64)
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "—".into());
        rows.push(format!(
            "| {name} | {} sessions/s, {} events/s ({} thread{}) | {speedup} | |",
            fmt_rate(sps),
            fmt_rate(eps),
            threads,
            if threads == 1 { "" } else { "s" },
        ));
        // Per-cell-kind wall-time percentiles (single-threaded sweeps
        // record them): one row per kind so kind-level regressions are
        // visible in the TREND.md diff, not just the aggregate rate.
        if let Some(kinds) = v.get("cell_kinds").and_then(Value::as_array) {
            for k in kinds {
                let kind = k.get("kind").and_then(Value::as_str).unwrap_or("?");
                let p50 = k.get("p50_ms").and_then(Value::as_f64).unwrap_or(0.0);
                let p95 = k.get("p95_ms").and_then(Value::as_f64).unwrap_or(0.0);
                let cells = k.get("cells").and_then(Value::as_u64).unwrap_or(0);
                rows.push(format!(
                    "| {name} | {kind} | — | p95 {p95:.3} ms (p50 {p50:.3} ms, n={cells}) |"
                ));
            }
        }
        // Phase hotspots from the profiled pass: where the wall time went,
        // hottest span first, with each phase's share of the profiled
        // total so a TREND.md diff shows attribution shifts directly.
        if let Some(phases) = v.get("phase_profile").and_then(Value::as_array) {
            let total_nanos: f64 = phases
                .iter()
                .filter_map(|p| p.get("nanos").and_then(Value::as_u64))
                .sum::<u64>() as f64;
            for p in phases {
                let phase = p.get("phase").and_then(Value::as_str).unwrap_or("?");
                let nanos = p.get("nanos").and_then(Value::as_u64).unwrap_or(0);
                let calls = p.get("calls").and_then(Value::as_u64).unwrap_or(0);
                let share = 100.0 * nanos as f64 / total_nanos.max(1.0);
                rows.push(format!(
                    "| {name} | hotspot {phase} | — | {:.1} ms ({share:.0}% of profiled, \
                     {calls} calls) |",
                    nanos as f64 / 1e6,
                ));
            }
        }
        return Some(rows);
    }
    // A partial artifact whose sections were all cut off still renders
    // its marker row rather than "unrecognised schema".
    if rows.is_empty() {
        None
    } else {
        Some(rows)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = args.iter().any(|a| a == "--write");
    let dir: PathBuf = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("bench_results").to_path_buf());

    // A missing or unreadable artifact directory is not fatal: the trend
    // report degrades to an empty table (CI runs this against directories
    // that may not have produced every artifact).
    let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("[bench_report] cannot read {}: {e}", dir.display());
            Vec::new()
        }
    };
    files.sort();

    let mut out = String::new();
    let _ = writeln!(out, "# Bench trend\n");
    let _ = writeln!(
        out,
        "Merged from `{}/BENCH_*.json` by `bench_report`; re-record with the\n\
         corresponding bench bins and re-run `bench_report -- --write` when a\n\
         PR moves a number.\n",
        dir.display()
    );
    let _ = writeln!(out, "| bench | metric / pattern | speedup | detail (ns) |");
    let _ = writeln!(out, "|---|---|---|---|");
    let mut parsed = 0;
    for f in &files {
        let name = f
            .file_stem()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .trim_start_matches("BENCH_")
            .to_string();
        // Partial or truncated artifacts (a bench killed mid-write, a
        // missing file raced by upload) degrade to a marker row instead
        // of sinking the whole report.
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                let _ = writeln!(out, "| {name} | (unreadable: {e}) | — | |");
                continue;
            }
        };
        let v = match msim_json::from_str(&text) {
            Ok(v) => v,
            Err(_) => {
                let _ = writeln!(out, "| {name} | (malformed JSON) | — | |");
                continue;
            }
        };
        match rows_for(&name, &v) {
            Some(rows) => {
                parsed += 1;
                for r in rows {
                    let _ = writeln!(out, "{r}");
                }
            }
            None => {
                let _ = writeln!(out, "| {name} | (unrecognised schema) | — | |");
            }
        }
    }
    if parsed == 0 {
        eprintln!(
            "[bench_report] warning: no recognisable BENCH_*.json in {}",
            dir.display()
        );
    }

    print!("{out}");
    if write {
        if parsed == 0 {
            // Never replace a committed trend table with an empty one
            // because the artifact directory happened to be empty or
            // corrupt — degrade to print-only.
            eprintln!("[bench_report] refusing to overwrite TREND.md with an empty report");
            return;
        }
        let path = dir.join("TREND.md");
        std::fs::write(&path, &out).expect("write TREND.md");
        eprintln!("[bench_report] wrote {}", path.display());
    }
}
