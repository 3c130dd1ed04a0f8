//! Output digests: what the correctness check compares.
//!
//! A session digest covers the *behaviour* of a session — timestamps,
//! chunk records, refills, stalls, failovers and ABR decisions. It leaves
//! out execution telemetry (the `transfer_*` engine counters) and the
//! simulator's event count, so deleting a transfer engine or coalescing
//! events does not read as a behaviour change. The fields are picked by a
//! `..` pattern, so the digest keeps compiling when telemetry fields are
//! removed.

use crate::stats::Fnv;
use msim_core::time::{SimDuration, SimTime};
use msplayer_bench::sweep::CellResult;
use msplayer_core::fleet::FleetMetrics;
use msplayer_core::metrics::{SessionMetrics, TrafficPhase};
use std::fmt::Write;

/// Digests committed for the default seed (`0`), one `<workload> <hex>`
/// line each.
const COMMITTED: &str = include_str!("../digests.txt");

/// The committed default-seed digest of `workload`, if there is one.
pub fn committed(workload: &str) -> Option<u64> {
    COMMITTED.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        if parts.next()? != workload {
            return None;
        }
        u64::from_str_radix(parts.next()?.trim_start_matches("0x"), 16).ok()
    })
}

fn time(h: &mut Fnv, t: SimTime) {
    h.u64(t.as_micros());
}

fn opt_time(h: &mut Fnv, t: Option<SimTime>) {
    match t {
        Some(t) => {
            h.u64(1);
            time(h, t);
        }
        None => h.u64(0),
    }
}

fn duration(h: &mut Fnv, d: SimDuration) {
    h.u64(d.as_micros());
}

/// Folds the behaviour fields of one session into `h`.
pub fn session(h: &mut Fnv, m: &SessionMetrics) {
    let SessionMetrics {
        started_at,
        first_byte_at,
        prebuffer_done_at,
        refills,
        stalls,
        chunks,
        failovers,
        ended_at,
        abr_switches,
        abr_decisions,
        abr_qoe,
        ..
    } = m;
    time(h, *started_at);
    h.u64(first_byte_at.len() as u64);
    for &t in first_byte_at {
        opt_time(h, t);
    }
    opt_time(h, *prebuffer_done_at);
    h.u64(refills.len() as u64);
    for r in refills {
        time(h, r.started_at);
        time(h, r.completed_at);
        h.u64(r.bytes);
    }
    h.u64(stalls.len() as u64);
    for &(from, to) in stalls {
        time(h, from);
        opt_time(h, to);
    }
    h.u64(chunks.len() as u64);
    for c in chunks {
        h.u64(c.path as u64);
        h.u64(c.bytes);
        time(h, c.requested_at);
        time(h, c.completed_at);
        h.f64(c.goodput_bps);
        h.u64(match c.phase {
            TrafficPhase::PreBuffering => 0,
            TrafficPhase::ReBuffering => 1,
        });
    }
    h.u64(failovers.len() as u64);
    for &f in failovers {
        h.u64(f as u64);
    }
    opt_time(h, *ended_at);
    h.u64(abr_switches.len() as u64);
    for s in abr_switches {
        time(h, s.at);
        h.u64(s.itag as u64);
        write!(h, "{:?}", s.reason).expect("hashing never fails");
    }
    h.u64(abr_decisions.len() as u64);
    for d in abr_decisions {
        time(h, d.at);
        h.u64(d.itag as u64);
        h.f64(d.estimate_bps);
        h.f64(d.buffer_secs);
        write!(h, "{:?}", d.reason).expect("hashing never fails");
        h.u64(d.switched as u64);
    }
    match abr_qoe {
        Some(q) => {
            h.u64(1);
            h.f64(q.time_weighted_bitrate_bps);
            h.u64(q.switches as u64);
            h.f64(q.switch_magnitude_bps);
            duration(h, q.switch_rebuffer);
        }
        None => h.u64(0),
    }
}

/// Digest of one executor batch: every cell's identity and behaviour, in
/// cell order. Watchdog rows hash as a marker.
pub fn batch(results: &[CellResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.bytes(r.cell.kind().as_bytes());
        h.u64(r.cell.chunk_kb);
        h.u64(r.cell.seed);
        match r.metrics() {
            Some(m) => session(&mut h, m),
            None => h.u64(u64::MAX),
        }
    }
    h.finish()
}

/// Digest of one fleet run: its whole metrics record (fluid fleets carry
/// no per-session records, so no engine telemetry is included).
pub fn fleet(m: &FleetMetrics) -> u64 {
    let mut h = Fnv::new();
    write!(h, "{m:?}").expect("hashing never fails");
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplayer_core::metrics::ChunkRecord;

    fn sample() -> SessionMetrics {
        let mut m = SessionMetrics::for_paths(2, SimTime::ZERO);
        m.chunks.push(ChunkRecord {
            path: 1,
            bytes: 262_144,
            requested_at: SimTime::from_millis(300),
            completed_at: SimTime::from_millis(700),
            goodput_bps: 5.2e6,
            phase: TrafficPhase::PreBuffering,
        });
        m.prebuffer_done_at = Some(SimTime::from_millis(700));
        m.ended_at = Some(SimTime::from_millis(700));
        m
    }

    fn digest(m: &SessionMetrics) -> u64 {
        let mut h = Fnv::new();
        session(&mut h, m);
        h.finish()
    }

    // Names the engine-telemetry fields on purpose: when they are deleted
    // from `SessionMetrics`, this test goes with them.
    #[test]
    fn transfer_telemetry_does_not_change_the_digest() {
        let a = sample();
        let mut b = a.clone();
        b.transfer_epochs = 7;
        b.transfer_fast_rounds = 120;
        b.transfer_solved_rounds = 31;
        b.events = a.events + 5;
        assert_ne!(a, b);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn behaviour_changes_the_digest() {
        let a = sample();
        let mut b = a.clone();
        b.chunks[0].goodput_bps = 5.2e6 + 1.0;
        assert_ne!(digest(&a), digest(&b));
        let mut c = a.clone();
        c.failovers[0] = 1;
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn every_workload_has_a_committed_digest() {
        for w in crate::WORKLOADS {
            assert!(committed(w).is_some(), "no committed digest for {w}");
        }
        assert_eq!(committed("nope"), None);
    }
}
