//! `batch_bench` — measures what the `SessionHost` batch API buys on
//! short sessions: the same cells are run once as a per-session loop (a
//! fresh one-shot host per cell) and once over shared warmed hosts (`run_serial`, the batch
//! path). Outputs are asserted bit-identical and the speedup is recorded
//! in `BENCH_batch_api.json` (the batch run's `speedup` field is
//! loop-wall / batch-wall).
//!
//! ```sh
//! MSP_RUNS=200 cargo run --release -p msplayer-bench --bin batch_bench
//! ```

use msplayer_bench::runs;
use msplayer_bench::sweep::{run_serial, write_bench_json, BenchReport, Cell};
use msplayer_bench::workload::{PlayerKind, WorkloadSpec};
use msplayer_core::config::SchedulerKind;
use msplayer_core::sim::{youtube_paths, ServiceSpec};
use std::sync::Arc;

fn main() {
    // Short sessions are where per-session bootstrap dominates: a
    // startup-latency-sized pre-buffer over the YouTube profile (heaviest
    // control plane — signature cipher, copyrighted bootstrap, 3
    // replicas/network). `MSP_BB_PREBUFFER` overrides the target.
    let prebuffer_secs = std::env::var("MSP_BB_PREBUFFER")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let workload = Arc::new(WorkloadSpec {
        schedulers: vec![SchedulerKind::Harmonic],
        prebuffer_secs,
        ..WorkloadSpec::new(
            "batch-api/youtube-short",
            ServiceSpec::youtube(),
            youtube_paths().into(),
            PlayerKind::MsPlayer,
            runs(),
        )
    });
    let cells = msplayer_bench::sweep::expand_workload(&workload);
    println!(
        "batch_bench: {} short sessions ({}), loop-vs-batch on identical cells",
        cells.len(),
        workload.name
    );

    // Warm up both paths (allocator arenas, page faults).
    let _ = cells.iter().map(Cell::run).count();
    let _ = run_serial(&cells);

    // Per-session loop: a fresh one-shot host per cell.
    let (loop_report, loop_results) = BenchReport::measure("batch_api_loop", 1, || {
        cells.iter().map(Cell::run).collect()
    });
    // Batch path: cells share one warmed host per workload.
    let (mut batch_report, batch_results) =
        BenchReport::measure("batch_api", 1, || run_serial(&cells));
    batch_report.serial_wall_secs = Some(loop_report.wall_secs);

    assert_eq!(
        loop_results, batch_results,
        "batch output must be bit-identical to the per-session loop"
    );
    println!("equivalence: batch output bit-identical to the loop ✓");

    for report in [&loop_report, &batch_report] {
        println!(
            "{:<16} wall {:>8.3}s  {:>8.1} sessions/s{}",
            report.name,
            report.wall_secs,
            report.sessions_per_sec(),
            report
                .speedup()
                .map(|s| format!("  speedup {s:.2}x"))
                .unwrap_or_default(),
        );
    }
    let path = write_bench_json(&batch_report).expect("write bench json");
    println!("[bench] {}", path.display());

    let speedup = batch_report.speedup().unwrap_or(1.0);
    if speedup < 1.3 {
        eprintln!("WARNING: batch speedup {speedup:.2}x below the 1.3x target");
    }
}
