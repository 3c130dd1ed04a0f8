//! # msplayer-bench — experiment harness
//!
//! Shared workload generators and sweep runners behind the per-figure bench
//! targets. Each bench binary (`benches/figN_*.rs`) calls into this crate,
//! prints the paper-style table/series, and writes CSV under
//! `target/figures/`.
//!
//! Run counts default to the paper's 20 repetitions; set `MSP_RUNS` to
//! override (smoke tests use 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod fleet;
pub mod sampling;
pub mod sweep;
pub mod workload;

use msim_core::stats::BoxStats;
use msplayer_core::config::{PlayerConfig, SchedulerKind};
use msplayer_core::metrics::{SessionMetrics, TrafficPhase};
use msplayer_core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec, StopCondition};

/// Number of seeded repetitions per configuration (paper: "repeat this 20
/// times"). Override with `MSP_RUNS`.
///
/// The env var is read **once** and cached in a `OnceLock` — sweep inner
/// loops call this per cell, and re-parsing the environment on every call
/// was measurable noise. Consequently `MSP_RUNS` must be set before the
/// first call (process start does this naturally).
pub fn runs() -> u64 {
    static RUNS: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *RUNS.get_or_init(|| {
        std::env::var("MSP_RUNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20)
    })
}

/// Base seed; combined with run index so each repetition is independent but
/// reproducible.
pub const BASE_SEED: u64 = 0x4d53_506c_6179_6572; // "MSPlayer"

/// A session of `player` over `paths` for the experiment helpers below,
/// which replace its seed with their own repetition seeds. Pass a paper
/// preset ([`testbed_paths`](msplayer_core::sim::testbed_paths) or
/// [`youtube_paths`](msplayer_core::sim::youtube_paths)) whole for MSPlayer,
/// or one of its two paths for a single-path player.
pub fn session(paths: &[PathSetup], player: PlayerConfig) -> SessionSpec {
    SessionSpec::new(0, paths.to_vec(), player)
}

/// Runs one experiment shape over `runs()` seeds on a single warmed
/// [`SessionHost`]: salts the per-repetition seeds with `seed_salt` and
/// returns the batch metrics. Every repeated-session helper below goes
/// through this — the batch API amortizes the control-plane bootstrap
/// without changing any session's outcome.
pub fn run_experiment(
    service: &ServiceSpec,
    session: &SessionSpec,
    seed_salt: u64,
) -> Vec<SessionMetrics> {
    let mut host = SessionHost::new(service.clone());
    let seeds: Vec<u64> = (0..runs())
        .map(|run| BASE_SEED ^ seed_salt ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    host.run_batch(&seeds, session).expect("valid experiment")
}

/// Runs a pre-buffering experiment: download time (seconds) to accumulate
/// `prebuffer_secs` of video, across `runs()` seeds.
pub fn prebuffer_times(
    service: &ServiceSpec,
    session: &SessionSpec,
    prebuffer_secs: f64,
) -> Vec<f64> {
    let mut session = session.clone().with_stop(StopCondition::PrebufferDone);
    session.player = session.player.with_prebuffer_secs(prebuffer_secs);
    run_experiment(service, &session, 0)
        .iter()
        .map(|m| {
            m.prebuffer_time()
                .expect("prebuffer completes")
                .as_secs_f64()
        })
        .collect()
}

/// Runs a re-buffering experiment: each completed refill cycle's duration
/// (seconds), pooled across `runs()` seeds × `cycles` cycles.
pub fn rebuffer_times(
    service: &ServiceSpec,
    session: &SessionSpec,
    refill_secs: f64,
    cycles: usize,
) -> Vec<f64> {
    let mut session = session
        .clone()
        .with_stop(StopCondition::AfterRefills(cycles));
    session.player = session
        .player
        .with_prebuffer_secs(40.0)
        .with_rebuffer_secs(refill_secs);
    // Long enough for the requested cycles.
    let service = service
        .clone()
        .with_video_secs(40.0 + (refill_secs + 60.0) * (cycles as f64 + 1.0));
    run_experiment(&service, &session, 0xBEEF)
        .iter()
        .flat_map(|m| m.refills.iter().map(|r| r.duration().as_secs_f64()))
        .collect()
}

/// Runs the Table-1 experiment: the traffic fraction (percent) of path 0
/// (WiFi in the paper presets) per phase, one sample per seed.
pub fn wifi_fractions(
    service: &ServiceSpec,
    session: &SessionSpec,
    prebuffer_secs: f64,
    cycles: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut session = session
        .clone()
        .with_stop(StopCondition::AfterRefills(cycles));
    session.player = session.player.with_prebuffer_secs(prebuffer_secs);
    let service = service
        .clone()
        .with_video_secs(prebuffer_secs + 90.0 * (cycles as f64 + 1.0));
    let mut pre = Vec::new();
    let mut re = Vec::new();
    for m in run_experiment(&service, &session, 0x7AB1) {
        if let Some(f) = m.traffic_fraction(0, TrafficPhase::PreBuffering) {
            pre.push(f * 100.0);
        }
        if let Some(f) = m.traffic_fraction(0, TrafficPhase::ReBuffering) {
            re.push(f * 100.0);
        }
    }
    (pre, re)
}

/// The commercial single-path baseline used in Figs. 2/4/5.
pub fn commercial(chunk_kb: u64) -> PlayerConfig {
    PlayerConfig::commercial_single_path(msim_core::units::ByteSize::kb(chunk_kb))
}

/// The MSPlayer config used in the sweeps, with scheduler and initial
/// chunk size.
pub fn msplayer(kind: SchedulerKind, chunk_kb: u64) -> PlayerConfig {
    PlayerConfig::msplayer()
        .with_scheduler(kind)
        .with_initial_chunk(msim_core::units::ByteSize::kb(chunk_kb))
}

/// Convenience: boxplot stats of a sample.
pub fn boxstats(samples: &[f64]) -> BoxStats {
    BoxStats::from_sample(samples)
}
