//! Player configuration.
//!
//! Defaults follow the paper: pre-buffer 40 s, low watermark 10 s, refill
//! 20 s (§4); δ = 5 %, α = 0.9, initial chunk 256 KB, Harmonic estimator
//! (§5.2); two paths, at most one out-of-order chunk (§2).

use crate::abr::{AbrMode, AbrPolicyKind};
use crate::adaptation::AdaptationConfig;
use msim_core::time::SimDuration;
use msim_core::units::ByteSize;

/// The default quality ladder: every progressive itag the catalog's format
/// table maintains, ascending by bitrate.
pub const DEFAULT_ABR_LADDER: &[u32] = &[17, 36, 18, 43, 22, 37];

/// Configuration of the ABR ladder (see [`crate::abr`]): the player
/// periodically decides which rung of the itag ladder to stream at, from
/// the aggregate bandwidth estimate and the buffer level, and records the
/// decision trace in the session metrics. In [`AbrMode::Shadow`] (the
/// default, and the historical behaviour) the simulated stream stays at
/// the session's fixed itag; in [`AbrMode::ClosedLoop`] decisions actually
/// switch the streamed itag mid-session — the remaining chunk map is
/// re-planned at the new rung while in-flight requests complete at the old
/// one.
#[derive(Clone, Debug)]
pub struct AbrLadderConfig {
    /// The adapter's rate/buffer rules.
    pub adaptation: AdaptationConfig,
    /// Interval between quality decisions (each one is a timer wakeup).
    pub decision_interval: SimDuration,
    /// The quality ladder: itags in strictly ascending bitrate order, each
    /// present in the catalog's format table. A closed-loop session's
    /// starting itag must be a rung of the ladder (validated by the
    /// session host).
    pub ladder: Vec<u32>,
    /// Which policy drives the decisions.
    pub policy: AbrPolicyKind,
    /// Shadow (observe-only) or closed-loop (switches the stream).
    pub mode: AbrMode,
}

impl Default for AbrLadderConfig {
    fn default() -> Self {
        AbrLadderConfig {
            adaptation: AdaptationConfig::default(),
            decision_interval: SimDuration::from_millis(250),
            ladder: DEFAULT_ABR_LADDER.to_vec(),
            policy: AbrPolicyKind::DampedRate,
            mode: AbrMode::Shadow,
        }
    }
}

impl AbrLadderConfig {
    /// A closed-loop configuration with the default ladder and policy.
    pub fn closed_loop() -> AbrLadderConfig {
        AbrLadderConfig {
            mode: AbrMode::ClosedLoop,
            ..AbrLadderConfig::default()
        }
    }

    /// Builder-style policy override.
    pub fn with_policy(mut self, policy: AbrPolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style ladder override.
    pub fn with_ladder(mut self, ladder: Vec<u32>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Builder-style mode override (e.g. force shadow mode to trace what a
    /// policy *would* do without changing the stream).
    pub fn with_mode(mut self, mode: AbrMode) -> Self {
        self.mode = mode;
        self
    }

    /// Validates the ladder: non-empty, every itag in the catalog's format
    /// table, bitrates strictly ascending. This is what surfaces as
    /// [`SessionSpecError::InvalidLadder`](crate::sim::SessionSpecError)
    /// for session specs instead of the historical construction-time
    /// assert.
    pub fn validate_ladder(&self) -> Result<(), String> {
        if self.ladder.is_empty() {
            return Err("empty ladder".into());
        }
        let mut prev: Option<(u32, f64)> = None;
        for &itag in &self.ladder {
            let Some(format) = msim_youtube::format::by_itag(itag) else {
                return Err(format!(
                    "itag {itag} absent from the catalog's format table"
                ));
            };
            let bps = format.bitrate.as_bps();
            if let Some((prev_itag, prev_bps)) = prev {
                if bps <= prev_bps {
                    return Err(format!(
                        "ladder bitrates not strictly ascending: itag {itag} \
                         ({bps} b/s) follows itag {prev_itag} ({prev_bps} b/s)"
                    ));
                }
            }
            prev = Some((itag, bps));
        }
        Ok(())
    }
}

/// How the DCSA fast path rounds the chunk-size multiplier γ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GammaRounding {
    /// Literal Alg. 1: `γ = ⌈ŵ_fast/ŵ_slow⌉`. With bandwidth ratios just
    /// above an integer this is fine; just *below* the next integer it
    /// oversizes the fast chunk by up to ~2× and idles the slow path at the
    /// out-of-order gate.
    Ceil,
    /// Exact proportional sizing `S_fast = (ŵ_fast/ŵ_slow)·S_slow`, the
    /// paper's stated *goal* ("complete the transfer of a chunk over each
    /// path at the same time", §3.3). Default; see DESIGN.md for the
    /// deviation note and the `ablations` bench comparing both.
    Exact,
}

/// Which chunk scheduler drives the player.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// §3.3 baseline: slow path pinned at B, fast path at the throughput
    /// ratio — no smoothing, reacts only to the last samples.
    Ratio,
    /// Alg. 1 DCSA with the EWMA estimator (Eq. 1).
    Ewma,
    /// Alg. 1 DCSA with the incremental harmonic-mean estimator (Eq. 2) —
    /// the paper's default.
    Harmonic,
    /// Alg. 1 DCSA with a sliding-window harmonic mean (the windowed
    /// variant of the paper's \[19\]; ablation comparator for Eq. 2's
    /// full-history incremental form).
    HarmonicWindowed,
    /// Fixed chunk size on every path (models the commercial single-path
    /// players: 64 KB Flash, 256 KB HTML5).
    Fixed,
}

impl SchedulerKind {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Ratio => "Ratio",
            SchedulerKind::Ewma => "EWMA",
            SchedulerKind::Harmonic => "Harmonic",
            SchedulerKind::HarmonicWindowed => "HarmonicWin",
            SchedulerKind::Fixed => "Fixed",
        }
    }
}

/// Complete player configuration.
#[derive(Clone, Debug)]
pub struct PlayerConfig {
    /// Scheduler choice.
    pub scheduler: SchedulerKind,
    /// Initial/base chunk size B.
    pub initial_chunk: ByteSize,
    /// Lower bound for halving (Alg. 1 line 8: 16 KB).
    pub min_chunk: ByteSize,
    /// Upper bound on any single chunk (keeps bursts bounded, §5.2's
    /// preference for smaller chunks).
    pub max_chunk: ByteSize,
    /// Throughput variation parameter δ (Alg. 1).
    pub delta: f64,
    /// EWMA weight α (Eq. 1).
    pub alpha: f64,
    /// Pre-buffering target, seconds of video (§4: 40 s).
    pub prebuffer_secs: f64,
    /// Re-buffering low watermark, seconds (§4: 10 s).
    pub low_watermark_secs: f64,
    /// Amount of video data fetched per refill cycle, seconds (§4: 20 s).
    pub rebuffer_secs: f64,
    /// Playback resumes after a stall once this much video is buffered
    /// (the paper does not specify; commercial players use a few seconds).
    pub stall_resume_secs: f64,
    /// Maximum completed-but-unplayable chunks held ("at most one
    /// out-of-order chunk", §2).
    pub ooo_cap: usize,
    /// Whether the fast path starts streaming as soon as its own bootstrap
    /// finishes (§3.2) instead of waiting for all paths.
    pub head_start: bool,
    /// Commercial-player emulation: fetch the whole pre-buffer amount as
    /// one range request (Fig. 4: "commercial players accumulate video data
    /// of a specified amount as one large chunk").
    pub single_request_prebuffer: bool,
    /// Give up on a path after this many consecutive failures (then
    /// failover to the next server in that network).
    pub failures_before_switch: u32,
    /// Fast-path γ rounding mode (see [`GammaRounding`]).
    pub gamma_rounding: GammaRounding,
    /// Optional shadow ABR ladder (`None` = the paper's fixed-rate player).
    pub abr_ladder: Option<AbrLadderConfig>,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig {
            scheduler: SchedulerKind::Harmonic,
            initial_chunk: ByteSize::kb(256),
            min_chunk: ByteSize::kb(16),
            max_chunk: ByteSize::mb(4),
            delta: 0.05,
            alpha: 0.9,
            prebuffer_secs: 40.0,
            low_watermark_secs: 10.0,
            rebuffer_secs: 20.0,
            stall_resume_secs: 5.0,
            ooo_cap: 1,
            head_start: true,
            single_request_prebuffer: false,
            failures_before_switch: 1,
            gamma_rounding: GammaRounding::Exact,
            abr_ladder: None,
        }
    }
}

impl PlayerConfig {
    /// The paper's default MSPlayer configuration (Harmonic, 256 KB).
    pub fn msplayer() -> PlayerConfig {
        PlayerConfig::default()
    }

    /// A commercial single-path player profile with the given fixed chunk
    /// size (64 KB ≈ Adobe Flash, 256 KB ≈ HTML5, §3.3/\[23\]).
    pub fn commercial_single_path(chunk: ByteSize) -> PlayerConfig {
        PlayerConfig {
            scheduler: SchedulerKind::Fixed,
            initial_chunk: chunk,
            single_request_prebuffer: true,
            head_start: false,
            ..PlayerConfig::default()
        }
    }

    /// Builder-style scheduler override.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Builder-style initial chunk size override.
    pub fn with_initial_chunk(mut self, b: ByteSize) -> Self {
        self.initial_chunk = b;
        self
    }

    /// Builder-style pre-buffer duration override.
    pub fn with_prebuffer_secs(mut self, s: f64) -> Self {
        self.prebuffer_secs = s;
        self
    }

    /// Builder-style refill amount override.
    pub fn with_rebuffer_secs(mut self, s: f64) -> Self {
        self.rebuffer_secs = s;
        self
    }

    /// Builder-style shadow-ABR-ladder override.
    pub fn with_abr_ladder(mut self, abr: AbrLadderConfig) -> Self {
        self.abr_ladder = Some(abr);
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_chunk.as_u64() == 0 {
            return Err("min_chunk must be positive".into());
        }
        if self.min_chunk > self.max_chunk {
            return Err("min_chunk exceeds max_chunk".into());
        }
        if self.initial_chunk < self.min_chunk || self.initial_chunk > self.max_chunk {
            return Err("initial_chunk outside [min_chunk, max_chunk]".into());
        }
        if !(0.0..1.0).contains(&self.delta) {
            return Err("delta must be in [0, 1)".into());
        }
        if !(0.0..1.0).contains(&self.alpha) {
            return Err("alpha must be in [0, 1)".into());
        }
        let thresholds = [
            self.prebuffer_secs,
            self.low_watermark_secs,
            self.rebuffer_secs,
        ];
        if thresholds.iter().any(|t| !t.is_finite())
            || self.prebuffer_secs <= 0.0
            || self.low_watermark_secs < 0.0
            || self.rebuffer_secs <= 0.0
        {
            return Err("buffer thresholds must be positive".into());
        }
        if let Some(abr) = &self.abr_ladder {
            if abr.decision_interval.is_zero() {
                return Err("abr decision interval must be positive".into());
            }
            abr.validate_ladder()
                .map_err(|e| format!("invalid abr ladder: {e}"))?;
        }
        Ok(())
    }

    /// A conservative timeout for one chunk transfer, used by drivers to
    /// detect dead paths.
    pub fn chunk_timeout(&self) -> SimDuration {
        SimDuration::from_secs(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PlayerConfig::default();
        assert_eq!(c.scheduler, SchedulerKind::Harmonic);
        assert_eq!(c.initial_chunk, ByteSize::kb(256));
        assert_eq!(c.min_chunk, ByteSize::kb(16));
        assert_eq!(c.delta, 0.05);
        assert_eq!(c.alpha, 0.9);
        assert_eq!(c.prebuffer_secs, 40.0);
        assert_eq!(c.low_watermark_secs, 10.0);
        assert_eq!(c.rebuffer_secs, 20.0);
        assert_eq!(c.ooo_cap, 1);
        assert!(c.head_start);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn commercial_profile() {
        let c = PlayerConfig::commercial_single_path(ByteSize::kb(64));
        assert_eq!(c.scheduler, SchedulerKind::Fixed);
        assert_eq!(c.initial_chunk, ByteSize::kb(64));
        assert!(c.single_request_prebuffer);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = PlayerConfig::msplayer()
            .with_scheduler(SchedulerKind::Ewma)
            .with_initial_chunk(ByteSize::mb(1))
            .with_prebuffer_secs(60.0)
            .with_rebuffer_secs(40.0);
        assert_eq!(c.scheduler, SchedulerKind::Ewma);
        assert_eq!(c.initial_chunk, ByteSize::mb(1));
        assert_eq!(c.prebuffer_secs, 60.0);
        assert_eq!(c.rebuffer_secs, 40.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = PlayerConfig {
            initial_chunk: ByteSize::kb(8), // below min
            ..PlayerConfig::default()
        };
        assert!(c.validate().is_err());

        let c = PlayerConfig {
            delta: 1.5,
            ..PlayerConfig::default()
        };
        assert!(c.validate().is_err());

        let c = PlayerConfig {
            min_chunk: ByteSize::mb(8),
            ..PlayerConfig::default()
        };
        assert!(c.validate().is_err());

        let c = PlayerConfig {
            prebuffer_secs: 0.0,
            ..PlayerConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_buffer_thresholds() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for c in [
                PlayerConfig::default().with_prebuffer_secs(bad),
                PlayerConfig {
                    low_watermark_secs: bad,
                    ..PlayerConfig::default()
                },
                PlayerConfig::default().with_rebuffer_secs(bad),
            ] {
                assert_eq!(
                    c.validate(),
                    Err("buffer thresholds must be positive".to_string()),
                    "{bad}"
                );
            }
        }
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(SchedulerKind::Harmonic.name(), "Harmonic");
        assert_eq!(SchedulerKind::Ewma.name(), "EWMA");
        assert_eq!(SchedulerKind::Ratio.name(), "Ratio");
        assert_eq!(SchedulerKind::Fixed.name(), "Fixed");
    }
}
