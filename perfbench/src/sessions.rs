//! The session workloads, `fig3` and `registry`: sweep cells run through
//! `msplayer_bench::sweep` in repeated, identical batches.
//!
//! Every batch runs the same cells, so every batch must produce the same
//! digest; batches are folded into digests and statistics as they finish
//! and then dropped, so the benchmark's own memory does not grow with the
//! run length.

use crate::digest;
use crate::replay::{Bootstrapper, LayerTotals, Replayer, SpanId, SpanLog};
use crate::stats::{median, nearest_rank, LogHist};
use crate::{Check, Metrics};
use msplayer_bench::sweep::{self, Cell, CellResult, SweepSpec};
use msplayer_bench::workload::{WorkloadRegistry, WorkloadSpec};
use msplayer_core::chaos::check_invariants;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::sim::SessionHost;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seeded repetitions per grid point: the paper's 20 runs.
pub const RUNS: u64 = 20;
/// Set-up is timed this many times, half before the timed loop and half
/// after it; `setup_s` is the median.
const SETUP_REPEATS: usize = 60;
/// A session whose host time exceeds this counts as timed out.
const CELL_BUDGET_SECS: f64 = 2.0;
/// Cells re-run on a fresh host to check bit-identical replay.
const SAMPLE_CELLS: usize = 16;
/// Spans kept in memory by the traced pass.
const SPAN_CAP: usize = 50_000;
/// `SessionHost::new` timings per workload in the traced pass.
const HOST_NEW_REPEATS: usize = 100;

/// Which grid of cells a session workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grid {
    /// `SweepSpec::fig3`: testbed WiFi+LTE, 3 schedulers × 4 chunk sizes,
    /// 40 s pre-buffer, run serially.
    Fig3,
    /// `WorkloadRegistry::builtin`: all 15 built-in workloads, run in
    /// parallel.
    Registry,
}

impl Grid {
    /// The workload name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Grid::Fig3 => "fig3",
            Grid::Registry => "registry",
        }
    }

    /// Executor threads: `fig3` is serial; `registry` runs on two threads,
    /// capped at the machine's parallelism.
    pub fn threads(self) -> usize {
        match self {
            Grid::Fig3 => 1,
            Grid::Registry => crate::nproc().min(2),
        }
    }

    fn specs(self) -> Vec<Arc<WorkloadSpec>> {
        match self {
            Grid::Fig3 => SweepSpec::fig3(RUNS).workloads(),
            Grid::Registry => WorkloadRegistry::builtin(RUNS).specs().to_vec(),
        }
    }
}

/// The grid's workloads with the benchmark seed XORed into every
/// `seed_salt` (seed 0 keeps today's session seeds), registered so each
/// is validated.
pub fn salted(grid: Grid, seed: u64) -> WorkloadRegistry {
    let mut reg = WorkloadRegistry::new();
    for spec in grid.specs() {
        let mut w = (*spec).clone();
        w.seed_salt ^= seed;
        reg.register(w);
    }
    reg
}

fn execute(cells: &[Cell], threads: usize) -> Vec<CellResult> {
    if threads <= 1 {
        sweep::run_serial(cells)
    } else {
        sweep::run_parallel(cells, threads)
    }
}

/// What one batch folds down to.
struct BatchFold {
    digest: u64,
    sessions: u64,
    events: u64,
    failed: u64,
    /// Σ `CellResult::wall_secs`.
    busy_secs: f64,
}

/// Folds a batch: digest, counts, and the per-session failure checks
/// (watchdog rows, host-time budget, session invariants).
fn fold(results: &[CellResult], check: &mut Check) -> BatchFold {
    let mut f = BatchFold {
        digest: digest::batch(results),
        sessions: results.len() as u64,
        events: 0,
        failed: 0,
        busy_secs: 0.0,
    };
    for r in results {
        f.busy_secs += r.wall_secs;
        let Some(m) = r.metrics() else {
            f.failed += 1;
            check.problem(format!("{}: watchdog row", r.cell.repro()));
            continue;
        };
        f.events += m.events;
        let violations = check_invariants(m);
        if let Some(v) = violations.first() {
            f.failed += 1;
            check.problem(format!("{}: invariant {v}", r.cell.repro()));
        } else if r.wall_secs > CELL_BUDGET_SECS {
            f.failed += 1;
            check.problem(format!(
                "{}: took {:.2} s of host time",
                r.cell.repro(),
                r.wall_secs
            ));
        }
    }
    check.attempted += f.sessions;
    check.failed += f.failed;
    f
}

/// Simulated-time outcomes of one batch (deterministic per seed).
struct SimStats {
    startup_mean: f64,
    startup_p50: f64,
    startup_p95: f64,
    stall_mean: f64,
    refill_mean: f64,
}

fn sim_stats(results: &[CellResult]) -> SimStats {
    let sessions: Vec<&SessionMetrics> = results.iter().filter_map(CellResult::metrics).collect();
    let mut startup: Vec<f64> = sessions
        .iter()
        .filter_map(|m| m.prebuffer_time())
        .map(|d| d.as_secs_f64())
        .collect();
    let n = sessions.len().max(1) as f64;
    let stall: f64 = sessions
        .iter()
        .map(|m| m.total_stall_time().as_secs_f64())
        .sum();
    let refills: Vec<f64> = sessions
        .iter()
        .flat_map(|m| m.refills.iter().map(|r| r.duration().as_secs_f64()))
        .collect();
    SimStats {
        startup_mean: startup.iter().fold(0.0, |a, b| a + b) / startup.len().max(1) as f64,
        startup_p50: nearest_rank(&mut startup, 0.50).map_or(0.0, |p| p.value),
        startup_p95: nearest_rank(&mut startup, 0.95).map_or(0.0, |p| p.value),
        stall_mean: stall / n,
        refill_mean: refills.iter().fold(0.0, |a, b| a + b) / refills.len().max(1) as f64,
    }
}

/// A set-up workload: validated cells plus what the warm-up batch gave.
struct Prepared {
    cells: Vec<Cell>,
    digest: u64,
    sim: SimStats,
    /// (cell index, metrics) of the cells re-run on a fresh host.
    sample: Vec<(usize, SessionMetrics)>,
}

/// Set-up: registry expansion, spec validation, and one warm-up batch
/// (whose executor builds every `SessionHost`).
fn prepare(grid: Grid, seed: u64, threads: usize, check: &mut Check) -> Prepared {
    let reg = salted(grid, seed);
    let mut cells = reg.cells();
    cells.retain(|c| {
        let spec = c.workload.session_spec(c.scheduler, c.chunk_kb, c.seed);
        match spec.validate() {
            Ok(()) => true,
            Err(e) => {
                check.attempted += 1;
                check.failed += 1;
                check.problem(format!("{}: {e}", c.repro()));
                false
            }
        }
    });
    let results = execute(&cells, threads);
    let folded = fold(&results, check);
    let stride = (cells.len() / SAMPLE_CELLS).max(1);
    let sample = (0..cells.len())
        .step_by(stride)
        .filter_map(|i| results[i].metrics().map(|m| (i, m.clone())))
        .collect();
    Prepared {
        sim: sim_stats(&results),
        digest: folded.digest,
        sample,
        cells,
    }
}

/// Host-time measurements of a series of batches.
#[derive(Default)]
struct Timed {
    batches: u64,
    sessions: u64,
    /// Σ batch wall seconds.
    wall: f64,
    busy: f64,
    batch_sessions_per_s: LogHist,
    batch_events_per_s: LogHist,
    session_us: LogHist,
}

impl Timed {
    fn sessions_per_s(&self) -> f64 {
        self.sessions as f64 / self.wall
    }

    /// Runs one batch and folds it in; returns its results and the
    /// instants it started and ended, for the traced pass.
    fn batch(
        &mut self,
        p: &Prepared,
        threads: usize,
        check: &mut Check,
    ) -> (Vec<CellResult>, Instant, Instant) {
        let t0 = Instant::now();
        let results = execute(&p.cells, threads);
        let t1 = Instant::now();
        let wall = t1.duration_since(t0).as_secs_f64();
        let f = fold(&results, check);
        if f.digest != p.digest {
            check.failed += f.sessions - f.failed;
            check.problem(format!(
                "batch digest {:#018x} differs from the warm-up's {:#018x}",
                f.digest, p.digest
            ));
        }
        for r in &results {
            self.session_us.add(r.wall_secs * 1e6);
        }
        self.batches += 1;
        self.sessions += f.sessions;
        self.wall += wall;
        self.busy += f.busy_secs;
        self.batch_sessions_per_s.add(f.sessions as f64 / wall);
        self.batch_events_per_s.add(f.events as f64 / wall);
        (results, t0, t1)
    }

    /// Runs batches until `budget` has passed (at least one).
    fn run(p: &Prepared, threads: usize, budget: Duration, check: &mut Check) -> Timed {
        let mut timed = Timed::default();
        let start = Instant::now();
        while timed.batches == 0 || start.elapsed() < budget {
            timed.batch(p, threads, check);
        }
        timed
    }
}

/// Checks that need extra runs: the committed digest (default seed), the
/// serial digest of a parallel workload, and bit-identical re-runs of a
/// sample of cells on fresh hosts.
fn verify(grid: Grid, seed: u64, threads: usize, p: &Prepared, check: &mut Check) {
    let n = p.cells.len() as u64;
    if seed == 0 {
        match digest::committed(grid.name()) {
            Some(want) if want == p.digest => {}
            want => {
                check.failed += n;
                check.problem(format!(
                    "digest {:#018x} does not match the committed {want:#018x?}",
                    p.digest
                ));
            }
        }
    }
    if threads > 1 {
        let serial = sweep::run_serial(&p.cells);
        let f = fold(&serial, check);
        if f.digest != p.digest {
            check.failed += f.sessions - f.failed;
            check.problem(format!(
                "serial digest {:#018x} differs from the {threads}-thread digest {:#018x}",
                f.digest, p.digest
            ));
        }
    }
    for (i, want) in &p.sample {
        let cell = &p.cells[*i];
        check.attempted += 1;
        if cell.run().metrics() != Some(want) {
            check.failed += 1;
            check.problem(format!("{}: fresh-host re-run differs", cell.repro()));
        }
    }
}

/// One timed set-up.
fn setup(grid: Grid, seed: u64, check: &mut Check) -> (Prepared, f64) {
    let t0 = Instant::now();
    let p = prepare(grid, seed, grid.threads(), check);
    (p, t0.elapsed().as_secs_f64())
}

/// Times set-up again until `secs` holds `upto` samples; every set-up must
/// give `p`'s warm-up digest.
fn repeat_setup(
    grid: Grid,
    seed: u64,
    p: &Prepared,
    upto: usize,
    secs: &mut Vec<f64>,
    check: &mut Check,
) {
    while secs.len() < upto {
        let (again, t) = setup(grid, seed, check);
        secs.push(t);
        if again.digest != p.digest {
            check.problem(format!(
                "warm-up digests differ between set-ups: {:#018x} vs {:#018x}",
                p.digest, again.digest
            ));
        }
    }
}

/// The untraced pass: every end-to-end metric.
pub fn end_to_end(grid: Grid, seed: u64, seconds: f64, check: &mut Check, out: &mut Metrics) {
    let threads = grid.threads();
    let (p, first) = setup(grid, seed, check);
    let mut setup_secs = vec![first];
    repeat_setup(grid, seed, &p, SETUP_REPEATS / 2, &mut setup_secs, check);
    let timed = Timed::run(&p, threads, Duration::from_secs_f64(seconds), check);
    // Read before the set-ups after the loop and `verify`'s extra serial
    // pass, which are not the workload.
    out.set("peak_rss_mb", crate::peak_rss_mb());
    repeat_setup(grid, seed, &p, SETUP_REPEATS, &mut setup_secs, check);
    verify(grid, seed, threads, &p, check);

    let p50 = timed.session_us.quantile(0.50).expect("at least one batch");
    let p99 = timed.session_us.quantile(0.99).expect("at least one batch");
    println!(
        "{} seed={seed} threads={threads}: {} cells/batch, {} batches, {} sessions \
         (session_us p50/p99 over {} samples), {} set-ups, digest {:#018x}, \
         startup_sim_s p50/p95 {:.4}/{:.4}, stall_sim_s_mean {:.4}, refill_sim_s_mean {:.4}",
        grid.name(),
        p.cells.len(),
        timed.batches,
        timed.sessions,
        p50.samples,
        setup_secs.len(),
        p.digest,
        p.sim.startup_p50,
        p.sim.startup_p95,
        p.sim.stall_mean,
        p.sim.refill_mean,
    );
    let median_of = |h: &LogHist| h.quantile(0.5).expect("at least one batch").value;
    out.set("sessions_per_s", median_of(&timed.batch_sessions_per_s));
    out.set("events_per_s", median_of(&timed.batch_events_per_s));
    out.set("session_us_p50", p50.value);
    out.set("session_us_p99", p99.value);
    out.set("setup_s", median(&mut setup_secs));
    out.set("startup_sim_s_mean", p.sim.startup_mean);
}

/// The traced pass: an untraced reference slice, then batches whose
/// sessions are replayed layer by layer.
pub fn per_layer(grid: Grid, seed: u64, seconds: f64, check: &mut Check, out: &mut Metrics) {
    let threads = grid.threads();
    let (p, _) = setup(grid, seed, check);
    let reference = Timed::run(&p, threads, Duration::from_secs_f64(seconds * 0.3), check);
    verify(grid, seed, threads, &p, check);

    let mut log = SpanLog::new(SPAN_CAP);
    let pass_start = Instant::now();
    let deadline = pass_start + Duration::from_secs_f64(seconds * 0.7);

    // Per workload: time `SessionHost::new`, and build the service its
    // sessions bootstrap against in the replays.
    let mut services: Vec<(Arc<WorkloadSpec>, Bootstrapper)> = Vec::new();
    let mut host_new_ns = 0.0;
    for cell in &p.cells {
        if services.iter().any(|(w, _)| Arc::ptr_eq(w, &cell.workload)) {
            continue;
        }
        for _ in 0..HOST_NEW_REPEATS {
            let spec = cell.workload.service.clone();
            let t0 = Instant::now();
            let host = std::hint::black_box(SessionHost::new(spec));
            let t1 = Instant::now();
            drop(host);
            host_new_ns += t1.duration_since(t0).as_nanos() as f64;
            log.record("sim.host_new", t0, t1, SpanId::NONE, None);
        }
        let boot = Bootstrapper::new(&cell.workload.service);
        services.push((Arc::clone(&cell.workload), boot));
    }
    let host_new_us = host_new_ns / (services.len() * HOST_NEW_REPEATS) as f64 / 1e3;

    let mut traced = Timed::default();
    let mut totals = LayerTotals::default();
    let mut replayer = Replayer::new();
    while traced.batches == 0 || Instant::now() < deadline {
        let (results, t0, t1) = traced.batch(&p, threads, check);
        let batch = log.record("sweep.batch", t0, t1, SpanId::NONE, None);
        for r in &results {
            let Some(m) = r.metrics() else { continue };
            let cell = &r.cell;
            let spec = cell
                .workload
                .session_spec(cell.scheduler, cell.chunk_kb, cell.seed);
            let (_, boot) = services
                .iter_mut()
                .find(|(w, _)| Arc::ptr_eq(w, &cell.workload))
                .expect("every workload has a service");
            let id = totals.sessions;
            replayer.session(
                &spec,
                &cell.workload.service,
                boot,
                m,
                r.wall_secs * 1e9,
                id,
                batch,
                &mut totals,
                &mut log,
            );
        }
    }
    let pass_secs = pass_start.elapsed().as_secs_f64();

    let path = crate::trace_path(grid.name(), seed);
    match log.write_ndjson(&path) {
        Ok(()) => println!(
            "{}: {} spans ({} over the cap) written to {}",
            grid.name(),
            log.stored(),
            log.dropped(),
            path.display()
        ),
        Err(e) => check.problem(format!("writing {}: {e}", path.display())),
    }

    let t = &totals;
    let n = t.sessions.max(1) as f64;
    let per = |x: u64| x as f64 / n;
    let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    out.set(
        "sweep.busy_frac",
        traced.busy / (traced.wall * threads as f64),
    );
    out.set("sweep.cells", p.cells.len() as f64);
    out.set("sim.host_new_us", host_new_us);
    out.set("sim.events_per_session", per(t.events));
    out.set("sim.chunks_per_session", per(t.chunks));
    let replayed = t.build_ns + t.transfer_ns + t.sched_ns + t.event_ns;
    out.set(
        "sim.other_us_per_session",
        (t.session_ns - replayed) / n / 1e3,
    );
    out.set("player.stalls_per_session", per(t.stalls));
    out.set("player.failovers_per_session", per(t.failovers));
    out.set("player.refills_per_session", per(t.refills));
    out.set("player.abr_decisions_per_session", per(t.abr_decisions));
    out.set("player.startup_sim_s_p50", p.sim.startup_p50);
    out.set("player.startup_sim_s_p95", p.sim.startup_p95);
    out.set("player.refill_sim_s_mean", p.sim.refill_mean);
    out.set("net.build_us_per_session", t.build_ns / n / 1e3);
    out.set("net.transfer_us_per_session", t.transfer_ns / n / 1e3);
    out.set("net.request_ns", ratio(t.transfer_ns, t.requests));
    out.set("net.rounds_per_request", ratio(t.rounds as f64, t.requests));
    out.set("net.ns_per_round", ratio(t.transfer_ns, t.rounds));
    out.set("net.losses_per_request", ratio(t.losses as f64, t.requests));
    out.set("net.rate_at_ns", ratio(t.rate_at_ns, t.rate_at_calls));
    out.set("net.rate_at_per_session", per(t.rate_at_calls));
    out.set("scheduler.decision_ns", ratio(t.sched_ns, t.decisions));
    out.set("scheduler.decisions_per_session", per(t.decisions));
    out.set("event.op_ns", ratio(t.event_ns, t.event_ops));
    out.set("event.ops_per_session", per(t.event_ops));
    out.set("youtube.bootstrap_us", ratio(t.boot_ns, t.boots) / 1e3);
    for name in [
        "fleet.host_new_s",
        "fleet.ns_per_event",
        "fleet.events_per_session",
        "fleet.peak_concurrent",
    ] {
        out.set(name, 0.0);
    }
    let untraced = reference.sessions_per_s();
    out.set(
        "trace.sps_ratio",
        traced.sessions as f64 / pass_secs / untraced,
    );
    out.set(
        "trace.executor_sps_ratio",
        traced.sessions_per_s() / untraced,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_workload_seeds() {
        for grid in [Grid::Fig3, Grid::Registry] {
            let plain: Vec<u64> = grid
                .specs()
                .iter()
                .flat_map(sweep::expand_workload)
                .map(|c| c.seed)
                .collect();
            let salted0: Vec<u64> = salted(grid, 0).cells().iter().map(|c| c.seed).collect();
            assert_eq!(plain, salted0, "{}", grid.name());
            let salted7: Vec<u64> = salted(grid, 7).cells().iter().map(|c| c.seed).collect();
            assert_eq!(plain.len(), salted7.len());
            assert!(plain.iter().zip(&salted7).all(|(a, b)| a != b));
        }
    }

    #[test]
    fn seed_zero_matches_workload_spec_seed() {
        let spec = &SweepSpec::fig3(RUNS).workloads()[0];
        let reg = salted(Grid::Fig3, 0);
        let w = &reg.specs()[0];
        for run in 0..RUNS {
            assert_eq!(w.seed(run), spec.seed(run));
        }
    }
}
