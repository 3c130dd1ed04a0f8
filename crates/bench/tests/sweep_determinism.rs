//! Determinism at scale: the parallel sweep engine must be an exact
//! drop-in for the serial runner, and the simulator itself must replay
//! bit-identically from a seed.

use msplayer_bench::sweep::{expand_workload, run_parallel, run_serial, Cell};
use msplayer_bench::workload::{WorkloadRegistry, WorkloadSpec};
use msplayer_core::config::SchedulerKind;
use msplayer_core::sim::{SessionHost, SessionSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// The cells of the registry's paper workloads named in `names`, with
/// the MSPlayer schedulers narrowed to `schedulers` and every grid set to
/// one chunk size, `prebuffer_secs` and `runs` seeds.
fn paper_cells(
    names: &[&str],
    schedulers: &[SchedulerKind],
    chunk_kb: u64,
    prebuffer_secs: f64,
    runs: u64,
) -> Vec<Cell> {
    let registry = WorkloadRegistry::builtin(runs);
    names
        .iter()
        .flat_map(|name| {
            let mut w: WorkloadSpec = (**registry.by_name(name).unwrap()).clone();
            if w.schedulers != [SchedulerKind::Fixed] {
                w.schedulers = schedulers.to_vec();
            }
            w.chunk_kb = vec![chunk_kb];
            w.prebuffer_secs = prebuffer_secs;
            expand_workload(&Arc::new(w))
        })
        .collect()
}

/// Every (service, player, scheduler) cell — both services, all three
/// paper players, all paper schedulers — produces bit-identical per-cell
/// metrics whether run serially or across the thread pool.
#[test]
fn parallel_sweep_matches_serial_for_every_cell_kind() {
    let names = [
        "testbed/MSPlayer",
        "testbed/WiFi",
        "testbed/LTE",
        "youtube/MSPlayer",
        "youtube/WiFi",
        "youtube/LTE",
    ];
    let schedulers = [
        SchedulerKind::Harmonic,
        SchedulerKind::Ewma,
        SchedulerKind::Ratio,
    ];
    let cells = paper_cells(&names, &schedulers, 256, 10.0, 2);
    // (2 services) × (MsPlayer × 3 sched + 2 single-path × 1) × 1 chunk × 2 seeds
    assert_eq!(cells.len(), 2 * (3 + 2) * 2);
    let serial = run_serial(&cells);
    for threads in [2, 3, 8] {
        let parallel = run_parallel(&cells, threads);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p, "cell diverged with {threads} threads: {:?}", s.cell);
        }
    }
}

/// A session with equal seeds is bit-identical across 3 runs on fresh
/// hosts — including chunk-level f64 goodputs and the event count.
#[test]
fn run_session_is_bit_identical_across_three_runs() {
    let registry = WorkloadRegistry::builtin(1);
    for name in ["testbed/MSPlayer", "youtube/MSPlayer", "testbed/WiFi"] {
        let w = registry.by_name(name).unwrap();
        let player =
            msplayer_bench::msplayer(SchedulerKind::Harmonic, 256).with_prebuffer_secs(10.0);
        let spec = SessionSpec::new(0xD5EED, w.paths.clone(), player);
        let make = || {
            SessionHost::new(w.service.clone())
                .run(&spec)
                .expect("valid spec")
        };
        let a = make();
        let b = make();
        let c = make();
        assert_eq!(a, b, "{name} run 2 diverged");
        assert_eq!(b, c, "{name} run 3 diverged");
        assert!(a.events > 0, "event count recorded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random sweep shapes (dims, seeds, thread counts) keep the
    /// parallel == serial invariant.
    #[test]
    fn random_sweeps_are_schedule_independent(
        runs in 1u64..3,
        chunk_kb in prop::sample::select(vec![64u64, 256]),
        threads in 2usize..6,
        sched in prop::sample::select(vec![
            SchedulerKind::Harmonic,
            SchedulerKind::Ratio,
        ]),
    ) {
        let cells = paper_cells(&["testbed/MSPlayer", "testbed/LTE"], &[sched], chunk_kb, 8.0, runs);
        prop_assert!(!cells.is_empty());
        let serial = run_serial(&cells);
        let parallel = run_parallel(&cells, threads);
        prop_assert_eq!(&serial, &parallel);
    }
}

/// The engine handles degenerate inputs: empty cell lists and more threads
/// than cells.
#[test]
fn degenerate_sweeps() {
    let empty: Vec<Cell> = Vec::new();
    assert!(run_parallel(&empty, 8).is_empty());
    let cells = paper_cells(
        &["testbed/MSPlayer"],
        &[SchedulerKind::Harmonic],
        256,
        8.0,
        1,
    );
    assert_eq!(run_parallel(&cells, 64), run_serial(&cells));
}
