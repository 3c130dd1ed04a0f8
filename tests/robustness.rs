//! Robustness integration tests: outages, server failures, and the
//! middlebox motivation — the §2 claims that do not have figures in the
//! paper ("Due to space constraint, we do not report the results on how
//! MSPlayer provides robustness for video delivery in mobile scenarios").

use msplayer::core::config::PlayerConfig;
use msplayer::core::metrics::SessionMetrics;
use msplayer::core::sim::{
    testbed_paths, ServerFailure, ServiceSpec, SessionHost, SessionSpec, StopCondition,
};
use msplayer::net::middlebox::{negotiate_mptcp, us_carrier_survey, MptcpNegotiation};
use msplayer::net::OutageSchedule;
use msplayer::simcore::rng::Prng;
use msplayer::simcore::time::{SimDuration, SimTime};

fn quick() -> PlayerConfig {
    PlayerConfig::msplayer().with_prebuffer_secs(15.0)
}

/// MSPlayer over the testbed's WiFi + LTE paths.
fn testbed(seed: u64, player: PlayerConfig) -> SessionSpec {
    SessionSpec::new(seed, testbed_paths().into(), player)
}

/// Runs `session` on a fresh testbed host.
fn run(session: &SessionSpec) -> SessionMetrics {
    SessionHost::new(ServiceSpec::testbed())
        .run(session)
        .expect("valid spec")
}

#[test]
fn wifi_outage_does_not_stall_playback() {
    // WiFi dies shortly after playback starts; LTE must carry the stream.
    let mut s = testbed(101, quick());
    s.paths[0].outages = Some(OutageSchedule::from_windows(vec![(
        SimTime::from_secs(6),
        SimTime::from_secs(30),
    )]));
    s.stop = StopCondition::AfterRefills(2);
    let m = run(&s);
    assert!(m.prebuffer_done_at.is_some());
    assert!(m.refills.len() >= 2);
    assert_eq!(
        m.total_stall_time(),
        SimDuration::ZERO,
        "the second path hides the outage: {:?}",
        m.stalls
    );
}

#[test]
fn single_path_suffers_where_msplayer_does_not() {
    // The same outage applied to a single-path player: the viewer stalls.
    let outage =
        OutageSchedule::from_windows(vec![(SimTime::from_secs(6), SimTime::from_secs(40))]);
    let [mut wifi, _] = testbed_paths();
    wifi.outages = Some(outage);
    let player = PlayerConfig::commercial_single_path(msplayer::simcore::units::ByteSize::kb(256))
        .with_prebuffer_secs(15.0);
    let single =
        SessionSpec::new(101, vec![wifi], player).with_stop(StopCondition::AfterRefills(2));
    let m = run(&single);
    assert!(
        !m.stalls.is_empty(),
        "a 34 s outage must stall a single-path player"
    );
}

#[test]
fn repeated_outages_random_schedule() {
    // A flaky WiFi link with random outages: sessions still finish.
    for seed in 0..5u64 {
        let mut rng = Prng::new(seed);
        let schedule = OutageSchedule::generate(
            SimTime::from_secs(300),
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
            &mut rng,
        );
        let mut s = testbed(seed, quick());
        s.paths[0].outages = Some(schedule);
        s.stop = StopCondition::AfterRefills(1);
        let m = run(&s);
        assert!(
            m.prebuffer_done_at.is_some(),
            "seed {seed}: flaky WiFi must not kill the session"
        );
    }
}

#[test]
fn server_failure_failover_to_replica_in_same_network() {
    let mut s = testbed(55, quick());
    s.server_failures.push(ServerFailure {
        path: 0,
        from: SimTime::from_secs(1),
        until: SimTime::from_secs(600),
    });
    s.stop = StopCondition::AfterRefills(1);
    let m = run(&s);
    assert!(m.failovers[0] >= 1, "failover executed");
    assert!(m.prebuffer_done_at.is_some(), "replica carried the stream");
    // The WiFi path keeps contributing after the switch.
    assert!(m.chunk_count(0) > 1, "wifi path resumed after failover");
}

#[test]
fn failure_before_any_traffic_is_survivable() {
    let mut s = testbed(66, quick());
    s.server_failures.push(ServerFailure {
        path: 1,
        from: SimTime::ZERO,
        until: SimTime::from_secs(600),
    });
    s.stop = StopCondition::PrebufferDone;
    let m = run(&s);
    assert!(m.prebuffer_done_at.is_some());
}

#[test]
fn both_paths_with_disjoint_outages_still_complete() {
    let mut s = testbed(77, quick());
    s.paths[0].outages = Some(OutageSchedule::from_windows(vec![(
        SimTime::from_secs(4),
        SimTime::from_secs(12),
    )]));
    s.paths[1].outages = Some(OutageSchedule::from_windows(vec![(
        SimTime::from_secs(14),
        SimTime::from_secs(22),
    )]));
    s.stop = StopCondition::AfterRefills(1);
    let m = run(&s);
    assert!(m.prebuffer_done_at.is_some());
    assert!(!m.refills.is_empty());
}

#[test]
fn middlebox_survey_matches_paper() {
    let broken = us_carrier_survey()
        .iter()
        .filter(|(_, r)| *r != MptcpNegotiation::MultipathOk)
        .count();
    assert_eq!(broken, 2, "two of three carriers break MPTCP (§2)");
    // And a clean path is genuinely clean.
    assert_eq!(negotiate_mptcp(&[]), MptcpNegotiation::MultipathOk);
}

#[test]
fn energy_extension_reports_lte_cost() {
    use msplayer::core::energy::{joules_per_mb, InterfaceEnergyModel};
    let mut s = testbed(88, quick());
    s.stop = StopCondition::AfterRefills(1);
    let m = run(&s);
    let wifi_jpm = joules_per_mb(&m, 0, InterfaceEnergyModel::wifi()).expect("wifi active");
    let lte_jpm = joules_per_mb(&m, 1, InterfaceEnergyModel::lte()).expect("lte active");
    assert!(
        lte_jpm > wifi_jpm,
        "LTE joules/MB ({lte_jpm:.2}) exceed WiFi's ({wifi_jpm:.2}) — the §7 energy concern"
    );
}
