//! Fleet-level integration pins (tier 1):
//!
//! * fluid-mode populations are bit-identical for any worker count —
//!   workers only shard the index-keyed attribute precomputation, so
//!   parallelism can never change a result;
//! * an exact-mode fleet of one is bit-identical to the same session
//!   run standalone through `SessionHost::run` — the fleet's load
//!   injection is exactly inert when there is no other load to inject.

use msplayer::core::config::PlayerConfig;
use msplayer::core::fleet::{FleetHost, FleetSpec, SelectionPolicy};
use msplayer::core::sim::{testbed_paths, ServiceSpec, SessionHost, SessionSpec};

#[test]
fn fluid_fleet_is_bit_identical_across_worker_counts() {
    let run = |workers: usize| {
        let mut spec = FleetSpec::fluid(0xF1EE_2014, 600).with_policy(SelectionPolicy::QoeFirst);
        spec.workers = workers;
        FleetHost::new(spec).expect("spec validates").run()
    };
    let serial = run(0);
    for workers in [1, 2, 3, 8] {
        assert_eq!(
            serial,
            run(workers),
            "fluid fleet must be bit-identical with {workers} workers"
        );
    }
    // The population actually did something worth pinning.
    assert_eq!(serial.sessions, 600);
    assert!(serial.completed > 0);
    assert!(serial.events > 0);
}

#[test]
fn exact_fleet_of_one_matches_a_standalone_session() {
    let session = SessionSpec::new(2014, testbed_paths().into(), PlayerConfig::msplayer());
    let fleet_spec = FleetSpec::exact(ServiceSpec::testbed(), session.clone(), 1);
    let seed = fleet_spec.session_seed(0);
    let fleet = FleetHost::new(fleet_spec).expect("spec validates").run();
    assert_eq!(fleet.sessions, 1);
    assert_eq!(fleet.completed, 1);
    assert_eq!(fleet.exact_sessions.len(), 1);

    let standalone = SessionHost::new(ServiceSpec::testbed())
        .run(&session.with_seed(seed))
        .expect("base spec validates");

    assert_eq!(
        fleet.exact_sessions[0], standalone,
        "an exact fleet of one must reproduce SessionHost::run bit for bit"
    );
}
