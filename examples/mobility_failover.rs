//! Robustness scenarios (§2 "Robust Data Transport" / "Content Source
//! Diversity"): a WiFi outage mid-stream and a video-server failure, both of
//! which MSPlayer rides out without stalling playback.
//!
//! ```sh
//! cargo run --release --example mobility_failover
//! ```

use msplayer::core::config::PlayerConfig;
use msplayer::core::metrics::SessionMetrics;
use msplayer::core::sim::{
    testbed_paths, ServerFailure, ServiceSpec, SessionHost, SessionSpec, StopCondition,
};
use msplayer::net::OutageSchedule;
use msplayer::simcore::time::SimTime;

/// Runs `session` on the emulated testbed.
fn run(session: &SessionSpec) -> SessionMetrics {
    SessionHost::new(ServiceSpec::testbed())
        .run(session)
        .expect("valid session")
}

fn main() {
    let player = PlayerConfig::msplayer();
    let wifi_outage =
        OutageSchedule::from_windows(vec![(SimTime::from_secs(8), SimTime::from_secs(23))]);

    // --- Case A: the WiFi link dies for 15 s during playback -------------
    println!("== A) WiFi outage from t=8 s to t=23 s ==");
    let mut session = SessionSpec::new(77, testbed_paths().into(), player.clone())
        .with_stop(StopCondition::AfterRefills(3));
    session.paths[0].outages = Some(wifi_outage.clone());
    let m = run(&session);
    println!(
        "   pre-buffer: {}   refills completed: {}   stalls: {} ({} total)",
        m.prebuffer_time().expect("completed"),
        m.refills.len(),
        m.stalls.len(),
        m.total_stall_time(),
    );
    println!(
        "   LTE carried {} chunks while WiFi was dark; WiFi resumed with {} chunks total\n",
        m.chunk_count(1),
        m.chunk_count(0),
    );

    // --- Case B: WiFi's primary video server fails at t=2 s --------------
    println!("== B) WiFi-side video server fails at t=2 s (source diversity) ==");
    let mut session = SessionSpec::new(78, testbed_paths().into(), player.clone())
        .with_stop(StopCondition::AfterRefills(2));
    session.server_failures.push(ServerFailure {
        path: 0,
        from: SimTime::from_secs(2),
        until: SimTime::from_secs(300),
    });
    let m = run(&session);
    println!(
        "   pre-buffer: {}   failovers on WiFi path: {}   refills: {}",
        m.prebuffer_time().expect("completed"),
        m.failovers[0],
        m.refills.len(),
    );
    println!(
        "   MSPlayer switched to the backup replica in the same network and kept streaming.\n"
    );

    // --- Baseline: a single-path player facing the same WiFi outage ------
    println!("== C) The same outage with a single-path WiFi player ==");
    let [mut wifi, _] = testbed_paths();
    wifi.outages = Some(wifi_outage);
    let commercial =
        PlayerConfig::commercial_single_path(msplayer::simcore::units::ByteSize::kb(256));
    let session =
        SessionSpec::new(77, vec![wifi], commercial).with_stop(StopCondition::AfterRefills(3));
    let m = run(&session);
    println!(
        "   refills completed: {}   stalls: {} ({} of frozen playback)",
        m.refills.len(),
        m.stalls.len(),
        m.total_stall_time(),
    );
    println!("   Without a second path, the viewer watches a spinner until WiFi returns.");
}
