//! # msplayer-core — the paper's contribution
//!
//! A from-scratch implementation of **MSPlayer** (Chen, Towsley, Khalili —
//! CoNEXT 2014): client-side video streaming that aggregates two network
//! paths (WiFi + LTE) fetching from two CDN sources with plain HTTP range
//! requests over legacy TCP.
//!
//! * [`abr`] — closed-loop adaptive bitrate: pluggable policies that
//!   switch the streamed itag mid-session (shadow mode as the baseline);
//! * [`estimator`] — EWMA (Eq. 1) and incremental harmonic mean (Eq. 2)
//!   bandwidth estimators;
//! * [`scheduler`] — the Ratio baseline and Alg. 1 DCSA chunk schedulers;
//! * [`chunk`] — the chunk ledger with the ≤1 out-of-order chunk rule;
//! * [`buffer`] — pre-buffering / ON-OFF re-buffering playout state machine
//!   (40 s / 10 s / 20 s defaults, §4);
//! * [`player`] — the sans-I/O player state machine shared by the simulator
//!   and the real-socket testbed;
//! * [`sim`] — the deterministic session driver behind every figure:
//!   [`sim::SessionHost`] runs batches of N-path sessions over one warmed
//!   [`sim::ServiceSpec`];
//! * [`metrics`] — startup delay, refills, stalls, per-path traffic splits
//!   (Table 1);
//! * [`chaos`] — composable seed-deterministic fault injectors
//!   ([`chaos::ChaosPlan`]) and the session invariant oracle
//!   ([`chaos::check_invariants`]);
//! * [`energy`] — the §7 future-work energy-accounting extension.
//!
//! ## Quick start
//!
//! ```
//! use msplayer_core::config::PlayerConfig;
//! use msplayer_core::sim::{testbed_paths, ServiceSpec, SessionHost, SessionSpec};
//!
//! // MSPlayer over the testbed's WiFi + LTE paths.
//! let cfg = PlayerConfig::msplayer().with_prebuffer_secs(10.0);
//! let session = SessionSpec::new(42, testbed_paths().into(), cfg);
//! let mut host = SessionHost::new(ServiceSpec::testbed());
//! let metrics = host.run(&session).expect("valid session");
//! println!("pre-buffer download time: {}", metrics.prebuffer_time().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abr;
pub mod adaptation;
pub mod buffer;
pub mod chaos;
pub mod chunk;
pub mod config;
pub mod energy;
pub mod estimator;
pub mod fleet;
pub mod metrics;
pub mod player;
pub mod scheduler;
pub mod sim;
pub mod trace;

pub use abr::{AbrMode, AbrPolicyImpl, AbrPolicyKind, RungMap};
pub use adaptation::{AdaptationConfig, RateAdapter, SwitchReason};
pub use buffer::{BufferPhase, PlayoutBuffer, RefillRecord};
pub use chaos::{check_invariants, ChaosInjector, ChaosPlan, ChaosState, Violation};
pub use chunk::{ChunkAssignment, ChunkLedger, PathId};
pub use config::{GammaRounding, PlayerConfig, SchedulerKind};
pub use estimator::{
    BandwidthEstimator, EstimatorImpl, Ewma, HarmonicInc, HarmonicWindow, LastSample,
};
pub use fleet::{
    pareto_frontier, AccessClass, FleetHost, FleetLoad, FleetLoadEntry, FleetMetrics, FleetMode,
    FleetServerSpec, FleetSpec, LoadBin, SelectionPolicy, ServerUsage,
};
pub use metrics::{AbrDecision, AbrQoe, AbrSwitch, ChunkRecord, SessionMetrics, TrafficPhase};
pub use player::{ChunkFailReason, Player, PlayerAction, PlayerEvent};
pub use scheduler::{
    build_scheduler, ChunkScheduler, DcsaScheduler, FixedScheduler, RatioScheduler, SchedulerImpl,
    NUM_PATHS,
};
pub use sim::{
    testbed_paths, youtube_paths, PathSetup, ServerFailure, ServiceSpec, SessionHost, SessionSpec,
    SessionSpecError, StopCondition,
};
