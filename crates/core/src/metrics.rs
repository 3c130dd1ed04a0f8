//! Session metrics: everything the paper's tables and figures report.

use crate::adaptation::SwitchReason;
use crate::buffer::RefillRecord;
use crate::chunk::PathId;
use msim_core::time::{SimDuration, SimTime};

/// One ABR quality decision that selected a (new) ladder rung (see
/// [`crate::config::AbrLadderConfig`]). The trace records the `Initial`
/// pick and every rung change; `Hold` decisions are not recorded (the
/// full per-decision trace, holds included, is
/// [`SessionMetrics::abr_decisions`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbrSwitch {
    /// When the decision was taken.
    pub at: SimTime,
    /// The selected format (itag).
    pub itag: u32,
    /// Why the adapter moved.
    pub reason: SwitchReason,
}

/// One entry of the full ABR decision trace: every decision the policy
/// took, `Hold`s included, with the inputs it saw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbrDecision {
    /// When the decision was taken.
    pub at: SimTime,
    /// The selected format (itag) after the decision.
    pub itag: u32,
    /// The aggregate bandwidth estimate the policy consumed (bits/s; 0
    /// before any path has a measurement).
    pub estimate_bps: f64,
    /// The playout-buffer level the policy consumed (seconds).
    pub buffer_secs: f64,
    /// Why the policy chose this rung.
    pub reason: SwitchReason,
    /// Whether the decision actually switched the streamed itag (always
    /// `false` in shadow mode).
    pub switched: bool,
}

/// First-class QoE accounting for a closed-loop ABR session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbrQoe {
    /// Time-weighted average streamed bitrate (bits/s) over the session:
    /// each rung weighted by how long it was the streaming target. Equals
    /// the fixed format's bitrate when no switch fired.
    pub time_weighted_bitrate_bps: f64,
    /// Number of mid-session itag switches performed.
    pub switches: u32,
    /// Σ |Δ bitrate| over the switches (bits/s) — the oscillation
    /// magnitude penalised by standard QoE models.
    pub switch_magnitude_bps: f64,
    /// Stall time attributable to a switch (episodes beginning within
    /// [`crate::abr::SWITCH_REBUFFER_ATTRIBUTION`] of a switch).
    pub switch_rebuffer: SimDuration,
}

/// Phase tag for per-path traffic accounting (Table 1 splits traffic by
/// pre-buffering vs re-buffering phase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficPhase {
    /// Before the pre-buffer target was reached.
    PreBuffering,
    /// After (steady-state ON/OFF cycles).
    ReBuffering,
}

/// One completed chunk transfer, for traces and traffic accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkRecord {
    /// Path that carried the chunk.
    pub path: PathId,
    /// Bytes delivered.
    pub bytes: u64,
    /// Request issue time.
    pub requested_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
    /// Measured goodput (bits/s).
    pub goodput_bps: f64,
    /// Which phase the chunk completed in.
    pub phase: TrafficPhase,
}

/// Metrics of one streaming session.
///
/// Derives `PartialEq` so determinism tests can assert bit-identical
/// replays (every field, including the `f64` goodputs, must match
/// exactly).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionMetrics {
    /// When the player was started.
    pub started_at: SimTime,
    /// When each path delivered its first video byte (one slot per path;
    /// sized by the player at construction).
    pub first_byte_at: Vec<Option<SimTime>>,
    /// When the pre-buffer target was reached (Figs. 2–4 endpoint).
    pub prebuffer_done_at: Option<SimTime>,
    /// Completed refill cycles (Fig. 5).
    pub refills: Vec<RefillRecord>,
    /// Stall episodes.
    pub stalls: Vec<(SimTime, Option<SimTime>)>,
    /// Every completed chunk.
    pub chunks: Vec<ChunkRecord>,
    /// Failovers performed per path.
    pub failovers: Vec<u32>,
    /// When the session ended.
    pub ended_at: Option<SimTime>,
    /// Simulator events processed while producing this session (drivers
    /// fill this in; 0 outside the simulator). Feeds the bench harness's
    /// events/sec figure.
    pub events: u64,
    /// ABR switch trace: the initial pick and every rung change (empty
    /// unless the player ran with an
    /// [`AbrLadderConfig`](crate::config::AbrLadderConfig)).
    pub abr_switches: Vec<AbrSwitch>,
    /// Full ABR decision trace: one entry per decision interval, `Hold`s
    /// included, with the estimate/buffer inputs each decision consumed.
    pub abr_decisions: Vec<AbrDecision>,
    /// QoE accounting for closed-loop ABR sessions (`None` for fixed-rate
    /// and shadow sessions).
    pub abr_qoe: Option<AbrQoe>,
}

impl SessionMetrics {
    /// An empty metrics record with per-path slots for `n_paths` paths.
    pub fn for_paths(n_paths: usize, started_at: SimTime) -> SessionMetrics {
        SessionMetrics {
            started_at,
            first_byte_at: vec![None; n_paths],
            failovers: vec![0; n_paths],
            ..SessionMetrics::default()
        }
    }

    /// Number of per-path slots this record was sized for.
    pub fn num_paths(&self) -> usize {
        self.first_byte_at.len()
    }

    /// Pre-sizes the growable event traces for an expected session shape.
    ///
    /// The chunk and ABR-decision traces grow one push at a time through
    /// the hot event loop; reserving the expected counts up front turns
    /// the repeated doubling reallocations (and their memcpy of every
    /// record so far) into a single allocation per trace. Purely a
    /// capacity hint — contents and push order are unchanged.
    pub fn reserve_events(&mut self, chunks: usize, abr_decisions: usize) {
        self.chunks.reserve(chunks);
        self.abr_decisions.reserve(abr_decisions);
        self.abr_switches.reserve(abr_decisions.min(64));
    }

    /// Pre-buffering download time (session start → target reached).
    pub fn prebuffer_time(&self) -> Option<SimDuration> {
        self.prebuffer_done_at
            .map(|t| t.saturating_since(self.started_at))
    }

    /// Mean refill duration, if any cycles completed.
    pub fn mean_refill_time(&self) -> Option<SimDuration> {
        if self.refills.is_empty() {
            return None;
        }
        let total: f64 = self
            .refills
            .iter()
            .map(|r| r.duration().as_secs_f64())
            .sum();
        Some(SimDuration::from_secs_f64(
            total / self.refills.len() as f64,
        ))
    }

    /// Total bytes delivered over `path` during `phase`.
    pub fn bytes_on(&self, path: PathId, phase: TrafficPhase) -> u64 {
        self.chunks
            .iter()
            .filter(|c| c.path == path && c.phase == phase)
            .map(|c| c.bytes)
            .sum()
    }

    /// Fraction of `phase` traffic carried by `path` (Table 1's statistic,
    /// with path 0 = WiFi). `None` when the phase saw no traffic.
    pub fn traffic_fraction(&self, path: PathId, phase: TrafficPhase) -> Option<f64> {
        let on_path = self.bytes_on(path, phase) as f64;
        let total: u64 = self
            .chunks
            .iter()
            .filter(|c| c.phase == phase)
            .map(|c| c.bytes)
            .sum();
        (total > 0).then(|| on_path / total as f64)
    }

    /// The head start observed: difference between the first two paths'
    /// first video bytes (§3.2's π₂ − π₁).
    pub fn observed_head_start(&self) -> Option<SimDuration> {
        let first = self.first_byte_at.first().copied().flatten();
        let second = self.first_byte_at.get(1).copied().flatten();
        match (first, second) {
            (Some(a), Some(b)) => Some(if a <= b {
                b.saturating_since(a)
            } else {
                a.saturating_since(b)
            }),
            _ => None,
        }
    }

    /// Total stall time (rebuffering outages visible to the viewer).
    pub fn total_stall_time(&self) -> SimDuration {
        self.stalls
            .iter()
            .filter_map(|(s, e)| e.map(|e| e.saturating_since(*s)))
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }

    /// Number of chunks fetched per path.
    pub fn chunk_count(&self, path: PathId) -> usize {
        self.chunks.iter().filter(|c| c.path == path).count()
    }

    /// The session's scalar QoE under [`qoe_score`], given the encoding
    /// rate it streamed at. Startup is the pre-buffer time (the full
    /// session length when the pre-buffer target was never reached).
    pub fn qoe(&self, bitrate: msim_core::units::BitRate) -> f64 {
        let startup = self
            .prebuffer_time()
            .or_else(|| self.ended_at.map(|e| e.saturating_since(self.started_at)))
            .unwrap_or(SimDuration::ZERO)
            .as_secs_f64();
        qoe_score(
            bitrate.as_mbps(),
            startup,
            self.total_stall_time().as_secs_f64(),
        )
    }
}

/// The linear QoE model used by the fleet layer's cost-vs-QoE frontier:
/// reward the encoding rate, charge startup delay at 0.5 points/s and
/// stalls at 2 points/s (the standard Yin/Jiang-style weighting — stalls
/// hurt far more than resolution). Pure and unit-free so both the exact
/// per-chunk backend and the fluid backend score sessions identically.
pub fn qoe_score(bitrate_mbps: f64, startup_secs: f64, stall_secs: f64) -> f64 {
    bitrate_mbps - 0.5 * startup_secs - 2.0 * stall_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(path: PathId, bytes: u64, phase: TrafficPhase) -> ChunkRecord {
        ChunkRecord {
            path,
            bytes,
            requested_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(1),
            goodput_bps: bytes as f64 * 8.0,
            phase,
        }
    }

    #[test]
    fn traffic_fractions() {
        let mut m = SessionMetrics::default();
        m.chunks.push(record(0, 600, TrafficPhase::PreBuffering));
        m.chunks.push(record(1, 400, TrafficPhase::PreBuffering));
        m.chunks.push(record(0, 100, TrafficPhase::ReBuffering));
        m.chunks.push(record(1, 300, TrafficPhase::ReBuffering));
        assert_eq!(m.traffic_fraction(0, TrafficPhase::PreBuffering), Some(0.6));
        assert_eq!(m.traffic_fraction(0, TrafficPhase::ReBuffering), Some(0.25));
        assert_eq!(m.bytes_on(1, TrafficPhase::ReBuffering), 300);
        assert_eq!(m.chunk_count(0), 2);
    }

    #[test]
    fn empty_phase_has_no_fraction() {
        let m = SessionMetrics::default();
        assert_eq!(m.traffic_fraction(0, TrafficPhase::PreBuffering), None);
    }

    #[test]
    fn prebuffer_time_subtracts_start() {
        let m = SessionMetrics {
            started_at: SimTime::from_secs(5),
            prebuffer_done_at: Some(SimTime::from_secs(12)),
            ..SessionMetrics::default()
        };
        assert_eq!(m.prebuffer_time(), Some(SimDuration::from_secs(7)));
    }

    #[test]
    fn head_start_is_symmetric() {
        let mut m = SessionMetrics {
            first_byte_at: vec![
                Some(SimTime::from_millis(500)),
                Some(SimTime::from_millis(900)),
            ],
            ..SessionMetrics::default()
        };
        assert_eq!(m.observed_head_start(), Some(SimDuration::from_millis(400)));
        m.first_byte_at.swap(0, 1);
        assert_eq!(m.observed_head_start(), Some(SimDuration::from_millis(400)));
        m.first_byte_at[1] = None;
        assert_eq!(m.observed_head_start(), None);
    }

    #[test]
    fn stall_time_ignores_open_episodes() {
        let mut m = SessionMetrics::default();
        m.stalls
            .push((SimTime::from_secs(10), Some(SimTime::from_secs(13))));
        m.stalls.push((SimTime::from_secs(20), None));
        assert_eq!(m.total_stall_time(), SimDuration::from_secs(3));
    }

    #[test]
    fn mean_refill() {
        let mut m = SessionMetrics::default();
        assert!(m.mean_refill_time().is_none());
        m.refills.push(RefillRecord {
            started_at: SimTime::from_secs(10),
            completed_at: SimTime::from_secs(14),
            bytes: 1,
        });
        m.refills.push(RefillRecord {
            started_at: SimTime::from_secs(30),
            completed_at: SimTime::from_secs(36),
            bytes: 1,
        });
        assert_eq!(m.mean_refill_time(), Some(SimDuration::from_secs(5)));
    }
}
