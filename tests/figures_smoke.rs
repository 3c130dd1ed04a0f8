//! Figure-shape smoke tests: small-N versions of every figure/table
//! experiment asserting the *qualitative* claims of the paper hold for the
//! default seeds. The full-N versions live in `crates/bench/benches/`.

use msplayer::core::config::{PlayerConfig, SchedulerKind};
use msplayer::core::metrics::SessionMetrics;
use msplayer::core::metrics::TrafficPhase;
use msplayer::core::sim::{
    testbed_paths, youtube_paths, PathSetup, ServiceSpec, SessionHost, SessionSpec, StopCondition,
};
use msplayer::http::tls::TlsTimingModel;
use msplayer::simcore::stats::median;
use msplayer::simcore::time::SimDuration;
use msplayer::simcore::units::ByteSize;

const RUNS: u64 = 8;

/// Runs `player` over `paths` on `service` until `stop`, once per smoke
/// seed. Pass a paper path preset whole for MSPlayer, or one of its two
/// paths (`[..1]` WiFi, `[1..]` LTE) for a single-path player.
fn run_seeds(
    service: ServiceSpec,
    paths: &[PathSetup],
    player: PlayerConfig,
    stop: StopCondition,
) -> Vec<SessionMetrics> {
    let seeds: Vec<u64> = (0..RUNS)
        .map(|r| 0x5eed ^ (r.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    let session = SessionSpec::new(0, paths.to_vec(), player).with_stop(stop);
    SessionHost::new(service)
        .run_batch(&seeds, &session)
        .expect("valid spec")
}

fn prebuffer_median(service: ServiceSpec, paths: &[PathSetup], player: PlayerConfig) -> f64 {
    let times: Vec<f64> = run_seeds(service, paths, player, StopCondition::PrebufferDone)
        .iter()
        .map(|m| m.prebuffer_time().expect("completes").as_secs_f64())
        .collect();
    median(&times)
}

/// MSPlayer's median pre-buffer time over the testbed's WiFi + LTE paths.
fn testbed_median(player: PlayerConfig) -> f64 {
    prebuffer_median(ServiceSpec::testbed(), &testbed_paths(), player)
}

fn msplayer_cfg(kind: SchedulerKind, chunk_kb: u64, pb: f64) -> PlayerConfig {
    PlayerConfig::msplayer()
        .with_scheduler(kind)
        .with_initial_chunk(ByteSize::kb(chunk_kb))
        .with_prebuffer_secs(pb)
}

fn commercial(chunk_kb: u64, pb: f64) -> PlayerConfig {
    PlayerConfig::commercial_single_path(ByteSize::kb(chunk_kb)).with_prebuffer_secs(pb)
}

// --- Fig. 1 ----------------------------------------------------------------

#[test]
fn fig1_formulas_hold() {
    let m = TlsTimingModel::default();
    let r1 = SimDuration::from_millis(25);
    let r2 = SimDuration::from_millis(65);
    assert_eq!(m.pi(r1), m.psi(r1) + m.eta(r1));
    // Head start = 10(θ−1)R1, independent of Δs.
    assert_eq!(
        m.head_start(r1, r2),
        SimDuration::from_micros(10 * (r2.as_micros() - r1.as_micros()))
    );
}

// --- Fig. 2 ----------------------------------------------------------------

#[test]
fn fig2_msplayer_beats_both_single_paths() {
    let paths = testbed_paths();
    let ms = testbed_median(msplayer_cfg(SchedulerKind::Ratio, 1024, 40.0));
    let wifi = prebuffer_median(ServiceSpec::testbed(), &paths[..1], commercial(1024, 40.0));
    let lte = prebuffer_median(ServiceSpec::testbed(), &paths[1..], commercial(1024, 40.0));
    assert!(wifi < lte, "WiFi is the best single path: {wifi} vs {lte}");
    let reduction = 1.0 - ms / wifi;
    assert!(
        reduction > 0.15,
        "MSPlayer cuts start-up delay materially: ms={ms:.2} wifi={wifi:.2} ({:.0} %)",
        reduction * 100.0
    );
}

// --- Fig. 3 ----------------------------------------------------------------

#[test]
fn fig3_larger_initial_chunks_download_faster() {
    let t16 = testbed_median(msplayer_cfg(SchedulerKind::Harmonic, 16, 40.0));
    let t1m = testbed_median(msplayer_cfg(SchedulerKind::Harmonic, 1024, 40.0));
    assert!(t1m < t16, "1 MB beats 16 KB: {t1m} vs {t16}");
}

#[test]
fn fig3_ratio_baseline_is_much_worse_at_small_chunks() {
    let harmonic = testbed_median(msplayer_cfg(SchedulerKind::Harmonic, 16, 40.0));
    let ratio = testbed_median(msplayer_cfg(SchedulerKind::Ratio, 16, 40.0));
    assert!(
        ratio > harmonic * 1.3,
        "Ratio cannot grow the slow path's chunks: ratio={ratio:.2} harmonic={harmonic:.2}"
    );
}

#[test]
fn fig3_harmonic_default_chunk_choice_is_justified() {
    // §5.2: Harmonic(256 KB) ≈ Harmonic(1 MB), so 256 KB is preferred for
    // smaller bursts.
    let t256 = testbed_median(msplayer_cfg(SchedulerKind::Harmonic, 256, 40.0));
    let t1m = testbed_median(msplayer_cfg(SchedulerKind::Harmonic, 1024, 40.0));
    assert!(
        (t256 - t1m).abs() / t1m < 0.25,
        "256 KB within 25 % of 1 MB: {t256:.2} vs {t1m:.2}"
    );
}

// --- Fig. 4 ----------------------------------------------------------------

#[test]
fn fig4_youtube_msplayer_beats_best_single_path_at_all_prebuffers() {
    let paths = youtube_paths();
    for pb in [20.0, 40.0, 60.0] {
        let ms = prebuffer_median(
            ServiceSpec::youtube(),
            &paths,
            msplayer_cfg(SchedulerKind::Harmonic, 256, pb),
        );
        let wifi = prebuffer_median(ServiceSpec::youtube(), &paths[..1], commercial(256, pb));
        assert!(
            ms < wifi,
            "pb={pb}: MSPlayer {ms:.2} must beat WiFi {wifi:.2}"
        );
    }
}

// --- Fig. 5 ----------------------------------------------------------------

/// Median refill time over the YouTube-profile `paths`, two cycles per
/// seed.
fn refill_median(paths: &[PathSetup], cfg: PlayerConfig) -> f64 {
    let stop = StopCondition::AfterRefills(2);
    let samples: Vec<f64> = run_seeds(ServiceSpec::youtube(), paths, cfg, stop)
        .iter()
        .flat_map(|m| m.refills.iter().map(|r| r.duration().as_secs_f64()))
        .collect();
    median(&samples)
}

#[test]
fn fig5_bigger_chunks_refill_faster_and_msplayer_is_fastest() {
    let paths = youtube_paths();
    let wifi64 = refill_median(&paths[..1], commercial(64, 40.0).with_rebuffer_secs(20.0));
    let wifi256 = refill_median(&paths[..1], commercial(256, 40.0).with_rebuffer_secs(20.0));
    let ms = refill_median(
        &paths,
        msplayer_cfg(SchedulerKind::Harmonic, 256, 40.0).with_rebuffer_secs(20.0),
    );
    assert!(
        wifi256 < wifi64,
        "256 KB < 64 KB: {wifi256:.2} vs {wifi64:.2}"
    );
    assert!(ms < wifi256, "MSPlayer fastest: {ms:.2} vs {wifi256:.2}");
}

// --- Table 1 ---------------------------------------------------------------

#[test]
fn table1_wifi_carries_majority_of_prebuffer_traffic() {
    let fractions: Vec<f64> = run_seeds(
        ServiceSpec::youtube(),
        &youtube_paths(),
        msplayer_cfg(SchedulerKind::Harmonic, 256, 40.0),
        StopCondition::AfterRefills(1),
    )
    .iter()
    .filter_map(|m| m.traffic_fraction(0, TrafficPhase::PreBuffering))
    .map(|f| f * 100.0)
    .collect();
    let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
    assert!(
        (50.0..80.0).contains(&avg),
        "WiFi pre-buffer share ≈ 60 % band, got {avg:.1} % ({fractions:?})"
    );
}
