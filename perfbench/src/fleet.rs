//! The `fleet` workload: the 120k-session fluid headline population, run
//! once per `FleetHost::run`. It goes only through the fleet layer.

use crate::digest;
use crate::replay::{SpanId, SpanLog};
use crate::stats::{median, nearest_rank};
use crate::{Check, Metrics};
use msplayer_bench::fleet::headline_spec;
use msplayer_core::fleet::{FleetHost, FleetMetrics, FleetSpec};
use std::time::{Duration, Instant};

/// The headline population.
pub const POPULATION: u64 = 120_000;
/// Set-up (spec, `FleetHost::new`, warm-up run on a fresh host) is timed
/// this many times, half before the timed loop and half after it;
/// `setup_s` is the median.
const SETUP_REPEATS: usize = 6;

/// The headline spec with the benchmark seed XORed into its seed (seed 0
/// keeps today's population) and its workers capped at the machine's
/// parallelism.
pub fn spec(seed: u64) -> FleetSpec {
    let mut spec = headline_spec(POPULATION);
    spec.seed ^= seed;
    spec.workers = spec.workers.min(crate::nproc());
    spec
}

/// One timed set-up on a fresh host.
fn setup(seed: u64, check: &mut Check) -> (FleetHost, FleetMetrics, f64) {
    let t0 = Instant::now();
    let mut h = FleetHost::new(spec(seed)).expect("the headline spec validates");
    let m = h.run();
    let secs = t0.elapsed().as_secs_f64();
    check.attempted += m.sessions;
    (h, m, secs)
}

/// The first set-up, whose run every later run must repeat; at seed 0 it
/// must give the committed digest.
fn first_setup(seed: u64, check: &mut Check) -> (FleetHost, FleetMetrics, f64) {
    let (h, m, secs) = setup(seed, check);
    if seed == 0 {
        let got = digest::fleet(&m);
        let want = digest::committed("fleet");
        if want != Some(got) {
            check.failed += m.sessions;
            check.problem(format!(
                "fleet digest {got:#018x} does not match the committed {want:#018x?}"
            ));
        }
    }
    (h, m, secs)
}

/// Times set-up again on fresh hosts until `secs` holds `upto` samples;
/// every fresh host's run must have digest `want`.
fn repeat_setup(seed: u64, want: u64, upto: usize, secs: &mut Vec<f64>, check: &mut Check) {
    while secs.len() < upto {
        let (_, m, t) = setup(seed, check);
        secs.push(t);
        if digest::fleet(&m) != want {
            check.failed += m.sessions;
            check.problem("fresh-host fleet runs differ".into());
        }
    }
}

/// Timed runs of one host. A run takes seconds, so the per-run values are
/// few and kept exactly.
#[derive(Default)]
struct Timed {
    runs: u64,
    sessions: u64,
    wall: f64,
    sessions_per_s: Vec<f64>,
    events_per_s: Vec<f64>,
    session_us: Vec<f64>,
}

impl Timed {
    fn run(host: &mut FleetHost, want: u64, budget: Duration, check: &mut Check) -> Timed {
        let mut t = Timed::default();
        let start = Instant::now();
        while t.runs == 0 || start.elapsed() < budget {
            let t0 = Instant::now();
            let m = host.run();
            let wall = t0.elapsed().as_secs_f64();
            check.attempted += m.sessions;
            if digest::fleet(&m) != want {
                check.failed += m.sessions;
                check.problem("a repeated fleet run differs from the warm-up".into());
            }
            t.runs += 1;
            t.sessions += m.sessions;
            t.wall += wall;
            t.sessions_per_s.push(m.sessions as f64 / wall);
            t.events_per_s.push(m.events as f64 / wall);
            t.session_us.push(wall * 1e6 / m.sessions as f64);
        }
        t
    }
}

/// The untraced pass: every end-to-end metric.
pub fn end_to_end(seed: u64, seconds: f64, check: &mut Check, out: &mut Metrics) {
    let (mut host, warm, first) = first_setup(seed, check);
    let want = digest::fleet(&warm);
    let mut setup_secs = vec![first];
    repeat_setup(seed, want, SETUP_REPEATS / 2, &mut setup_secs, check);
    let mut t = Timed::run(&mut host, want, Duration::from_secs_f64(seconds), check);
    // Read before the set-ups after the loop, which are not the workload.
    out.set("peak_rss_mb", crate::peak_rss_mb());
    repeat_setup(seed, want, SETUP_REPEATS, &mut setup_secs, check);
    let p50 = nearest_rank(&mut t.session_us, 0.50).expect("at least one run");
    let p99 = nearest_rank(&mut t.session_us, 0.99).expect("at least one run");
    println!(
        "fleet seed={seed} workers={}: {} sessions x {} runs (session_us over {} runs), \
         {} set-ups, digest {want:#018x}, startup_sim_s p50/p95 {:.4}/{:.4}, stall_sim_s_mean {:.4}",
        host.spec().workers,
        warm.sessions,
        t.runs,
        p50.samples,
        setup_secs.len(),
        warm.startup_p50_secs,
        warm.startup_p95_secs,
        warm.total_stall_secs / warm.sessions as f64,
    );
    out.set("sessions_per_s", median(&mut t.sessions_per_s));
    out.set("events_per_s", median(&mut t.events_per_s));
    out.set("session_us_p50", p50.value);
    out.set("session_us_p99", p99.value);
    out.set("setup_s", median(&mut setup_secs));
    out.set("startup_sim_s_mean", warm.startup_mean_secs);
}

/// The traced pass: `FleetHost::new` and `run` timed from here, after an
/// untraced reference slice.
pub fn per_layer(seed: u64, seconds: f64, check: &mut Check, out: &mut Metrics) {
    let (mut host, warm, _) = first_setup(seed, check);
    let want = digest::fleet(&warm);
    let reference = Timed::run(
        &mut host,
        want,
        Duration::from_secs_f64(seconds * 0.3),
        check,
    );

    let mut log = SpanLog::new(1024);
    let pass_start = Instant::now();
    let deadline = pass_start + Duration::from_secs_f64(seconds * 0.7);
    let mut new_secs = Vec::new();
    let (mut runs, mut run_ns, mut events, mut sessions) = (0u64, 0.0, 0u64, 0u64);
    let mut peak = 0u64;
    while runs == 0 || Instant::now() < deadline {
        let s = spec(seed);
        let t0 = Instant::now();
        let mut h = FleetHost::new(s).expect("the headline spec validates");
        let t1 = Instant::now();
        let m = h.run();
        let t2 = Instant::now();
        let root = log.record("fleet.session_set", t0, t2, SpanId::NONE, Some(runs));
        log.record("fleet.host_new", t0, t1, root, Some(runs));
        log.record("fleet.run", t1, t2, root, Some(runs));
        check.attempted += m.sessions;
        if digest::fleet(&m) != want {
            check.failed += m.sessions;
            check.problem("a traced fleet run differs from the warm-up".into());
        }
        new_secs.push(t1.duration_since(t0).as_secs_f64());
        run_ns += t2.duration_since(t1).as_nanos() as f64;
        events += m.events;
        sessions += m.sessions;
        peak = peak.max(m.peak_concurrent);
        runs += 1;
    }
    let pass_secs = pass_start.elapsed().as_secs_f64();
    let path = crate::trace_path("fleet", seed);
    match log.write_ndjson(&path) {
        Ok(()) => println!(
            "fleet: {} spans written to {}",
            log.stored(),
            path.display()
        ),
        Err(e) => check.problem(format!("writing {}: {e}", path.display())),
    }

    for name in crate::PER_LAYER.iter().map(|(n, _)| *n) {
        if !name.starts_with("fleet.") && !name.starts_with("trace.") {
            out.set(name, 0.0);
        }
    }
    out.set("player.startup_sim_s_p50", warm.startup_p50_secs);
    out.set("player.startup_sim_s_p95", warm.startup_p95_secs);
    out.set("fleet.host_new_s", median(&mut new_secs));
    out.set("fleet.ns_per_event", run_ns / events.max(1) as f64);
    out.set(
        "fleet.events_per_session",
        events as f64 / sessions.max(1) as f64,
    );
    out.set("fleet.peak_concurrent", peak as f64);
    let untraced = reference.sessions as f64 / reference.wall;
    out.set("trace.sps_ratio", sessions as f64 / pass_secs / untraced);
    out.set(
        "trace.executor_sps_ratio",
        sessions as f64 / (run_ns / 1e9) / untraced,
    );
}
