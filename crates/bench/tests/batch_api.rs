//! Batch-API equivalence and N-path determinism.
//!
//! The contract the whole sweep engine rides on: running sessions over a
//! warmed [`SessionHost`] — one at a time, in a batch, or interleaved — is
//! bit-identical to running each session on a fresh one-shot host. Host
//! reuse amortizes bootstrap, never behaviour.

use msplayer_bench::sweep::{expand_workload, run_parallel, run_serial};
use msplayer_bench::workload::{PlayerKind, WorkloadRegistry, WorkloadSpec};
use msplayer_core::sim::SessionHost;
use proptest::prelude::*;
use std::sync::Arc;

/// `run_batch` over N seeds is bit-identical to N sessions on fresh
/// one-shot hosts, for **every** built-in workload (both services, all
/// three paper players, the storms, the 3/4-path grids, and the
/// same-network dual-WiFi scenario).
#[test]
fn batch_equals_run_session_loop_for_every_builtin_workload() {
    let registry = WorkloadRegistry::builtin(1);
    let mut covered = 0;
    for w in registry.specs() {
        let spec = w.session_spec(w.schedulers[0], w.chunk_kb[0], 0);
        let seeds: Vec<u64> = (0..3).map(|r| w.seed(r)).collect();
        let mut host = SessionHost::new(w.service.clone());
        let batch = host
            .run_batch(&seeds, &spec)
            .expect("builtin specs validate");
        assert_eq!(batch.len(), seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            let mut fresh = SessionHost::new(w.service.clone());
            let single = fresh
                .run(&spec.clone().with_seed(seed))
                .expect("builtin specs validate");
            assert_eq!(batch[i], single, "{}: seed {seed:#x} diverged", w.name);
        }
        covered += 1;
    }
    assert!(
        covered >= 15,
        "expected every builtin workload (incl. abr/closed-loop, abr/mobility-handoff, \
         and mobility/mixed-trace), got {covered}"
    );
}

/// Interleaving different session shapes on one host leaves each session
/// unchanged: host state never leaks across runs.
#[test]
fn interleaved_sessions_do_not_leak_host_state() {
    let storm = WorkloadSpec::server_failure_storm(1);
    let registry = WorkloadRegistry::builtin(1);
    let plain = WorkloadSpec {
        prebuffer_secs: 10.0,
        ..(**registry.by_name("testbed/MSPlayer").unwrap()).clone()
    };
    assert_eq!(storm.service.service.servers_per_network, 2);
    let storm_spec = storm.session_spec(storm.schedulers[0], 256, storm.seed(0));
    let plain_spec = plain.session_spec(plain.schedulers[0], 256, plain.seed(0));

    let mut fresh = SessionHost::new(plain.service.clone());
    let plain_alone = fresh.run(&plain_spec).expect("valid");
    let mut fresh = SessionHost::new(storm.service.clone());
    let storm_alone = fresh.run(&storm_spec).expect("valid");

    // Same service profile → one shared host, alternating shapes.
    let mut shared = SessionHost::new(plain.service.clone());
    let storm_first = shared.run(&storm_spec).expect("valid");
    let plain_after_storm = shared.run(&plain_spec).expect("valid");
    let storm_again = shared.run(&storm_spec).expect("valid");

    assert_eq!(storm_first, storm_alone, "storm diverged on shared host");
    assert_eq!(
        plain_after_storm, plain_alone,
        "failure plan leaked into the next session"
    );
    assert_eq!(storm_again, storm_alone, "host drifted after reuse");
}

/// A 3-path scenario runs end-to-end through `SessionHost` and the
/// parallel sweep with bit-identical serial/parallel output.
#[test]
fn three_path_workload_runs_through_the_sweep_engine() {
    let w = Arc::new(WorkloadSpec::three_path_testbed(2));
    assert_eq!(w.paths.len(), 3);
    assert_eq!(w.player, PlayerKind::MsPlayer);
    let cells = expand_workload(&w);
    // 2 schedulers × 1 chunk × 2 seeds.
    assert_eq!(cells.len(), 4);
    let serial = run_serial(&cells);
    for r in &serial {
        assert!(
            r.expect_metrics().prebuffer_done_at.is_some(),
            "{:?}",
            r.cell
        );
        assert_eq!(r.expect_metrics().num_paths(), 3);
        assert!(
            (0..3).all(|p| r.expect_metrics().chunk_count(p) > 0),
            "all three paths carried traffic: {:?}",
            r.cell
        );
    }
    for threads in [2, 3, 8] {
        let parallel = run_parallel(&cells, threads);
        assert_eq!(
            serial, parallel,
            "3-path sweep diverged at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// 3-path determinism property: whatever the seed count and thread
    /// count, the parallel sweep over the 3-path workload is bit-identical
    /// to the serial one.
    #[test]
    fn three_path_sweep_is_schedule_independent(
        runs in 1u64..3,
        threads in 2usize..6,
    ) {
        let w = Arc::new(WorkloadSpec::three_path_testbed(runs));
        let cells = expand_workload(&w);
        prop_assert!(!cells.is_empty());
        let serial = run_serial(&cells);
        let parallel = run_parallel(&cells, threads);
        prop_assert_eq!(&serial, &parallel);
    }
}
