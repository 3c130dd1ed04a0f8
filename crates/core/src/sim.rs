//! Deterministic simulation driver: runs complete MSPlayer (or single-path
//! baseline) sessions against the simulated links and the emulated YouTube
//! service.
//!
//! # The session API
//!
//! The experiment-facing API is split in two:
//!
//! * [`ServiceSpec`] describes the *service side* of an experiment — the
//!   emulated YouTube topology, the video, its format. Building this state
//!   (DNS zone, signature cipher, server/proxy fleet, catalog) used to
//!   dominate short sessions because it was redone per session.
//! * [`SessionSpec`] describes one *client session* — seed, paths, player
//!   configuration, stop condition, and server-failure injections.
//!
//! A [`SessionHost`] is built **once** from a `ServiceSpec` and then runs
//! any number of sessions over the warmed service via [`SessionHost::run`]
//! and [`SessionHost::run_batch`], resetting only the cheap per-session
//! server state in between. A batch over N seeds is bit-identical to N
//! sessions on N fresh one-shot hosts (asserted by
//! `crates/bench/tests/batch_api.rs` and the in-crate
//! `host_batch_matches_individual_runs` test) —
//! the only thing amortized is the control-plane construction, never
//! simulated behaviour.
//!
//! Sessions may use **any number of paths** (the mHTTP lineage's "more than
//! two" sources): all per-path state (scheduler, out-of-order gate, failure
//! injection) is indexed by path. Invalid specs (no paths, out-of-range
//! failure injection, bad player config) surface as [`SessionSpecError`]
//! instead of panics.
//!
//! The paper's two environments are [`ServiceSpec::testbed`] (§5) and
//! [`ServiceSpec::youtube`] (§6); their WiFi + LTE path pairs are
//! [`testbed_paths`] and [`youtube_paths`]. Every figure runs one of them:
//! MSPlayer over both paths, or a single-path player over one.

use crate::chaos::{ChaosPlan, ChaosState};
use crate::chunk::ChunkAssignment;
use crate::config::PlayerConfig;
use crate::metrics::SessionMetrics;
use crate::player::{ChunkFailReason, Player, PlayerAction, PlayerEvent};
use msim_core::event::EventQueue;
use msim_core::rng::Prng;
use msim_core::telemetry::{self, TraceVal};
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::ByteSize;
use msim_http::tls::TlsTimingModel;
use msim_http::StatusCode;
use msim_net::mobility::OutageSchedule;
use msim_net::profile::PathProfile;
use msim_net::tcp::{TcpConfig, TcpConnection, TransferOutcome};
use msim_net::Link;
use msim_youtube::dns::{DnsResolver, Network};
use msim_youtube::proxy::{parse_video_info, VideoInfo};
use msim_youtube::service::{ServiceConfig, YoutubeService, PROXY_DOMAIN};
use msim_youtube::video::{Video, VideoId};
use msim_youtube::Catalog;
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// One path of a session.
#[derive(Clone)]
pub struct PathSetup {
    /// Link recipe.
    pub profile: PathProfile,
    /// Access network (decides DNS view, proxy, servers, client IP).
    pub network: Network,
    /// Optional mobility outages on this path.
    pub outages: Option<OutageSchedule>,
}

impl PathSetup {
    /// A path with no outages.
    pub fn new(profile: PathProfile, network: Network) -> PathSetup {
        PathSetup {
            profile,
            network,
            outages: None,
        }
    }
}

/// When the session ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopCondition {
    /// Stop the moment the pre-buffer target is reached (Figs. 2–4).
    PrebufferDone,
    /// Stop after `n` completed refill cycles (Fig. 5, Table 1).
    AfterRefills(usize),
    /// Stop when the whole video has been fetched.
    DownloadComplete,
    /// Stop at an absolute time.
    AtTime(SimTime),
}

/// Scheduled failure of a path's primary video server (robustness tests).
/// `path` indexes the session's path set — any path of an N-path session
/// can be targeted, and a session may carry several failures (storms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerFailure {
    /// Which path's primary server fails.
    pub path: usize,
    /// Failure window start.
    pub from: SimTime,
    /// Failure window end.
    pub until: SimTime,
}

/// Why a [`SessionSpec`] was rejected by the host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionSpecError {
    /// The spec has no paths at all.
    NoPaths,
    /// A [`ServerFailure`] targets a path index the spec does not have.
    FailurePathOutOfRange {
        /// The offending failure's path index.
        path: usize,
        /// How many paths the spec has.
        n_paths: usize,
    },
    /// A failure window is empty or inverted (`from >= until`).
    InvalidFailureWindow {
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// The player configuration failed [`PlayerConfig::validate`].
    InvalidPlayer(String),
    /// The ABR quality ladder is malformed: empty, bitrates not strictly
    /// ascending, an itag the catalog's format table does not maintain, or
    /// (closed loop only, checked by the host) a ladder that does not
    /// contain the session's starting itag.
    InvalidLadder {
        /// What is wrong with the ladder.
        reason: String,
    },
    /// The attached [`ChaosPlan`] failed validation (e.g. an injector
    /// targets a path index the spec does not have).
    InvalidChaos {
        /// What is wrong with the plan.
        reason: String,
    },
}

impl fmt::Display for SessionSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionSpecError::NoPaths => write!(f, "session spec has no paths"),
            SessionSpecError::FailurePathOutOfRange { path, n_paths } => write!(
                f,
                "server failure targets path {path} but the spec has only {n_paths} path(s)"
            ),
            SessionSpecError::InvalidFailureWindow { from, until } => {
                write!(f, "empty or inverted failure window [{from}, {until})")
            }
            SessionSpecError::InvalidPlayer(why) => write!(f, "invalid player config: {why}"),
            SessionSpecError::InvalidLadder { reason } => {
                write!(f, "invalid abr ladder: {reason}")
            }
            SessionSpecError::InvalidChaos { reason } => {
                write!(f, "invalid chaos plan: {reason}")
            }
        }
    }
}

impl std::error::Error for SessionSpecError {}

/// The service side of an experiment: everything a [`SessionHost`] builds
/// once and shares across every session it runs.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Service topology (replicas per network, pacing).
    pub service: ServiceConfig,
    /// Video length in seconds.
    pub video_secs: f64,
    /// Whether the video requires the signature-decipher bootstrap step.
    pub copyrighted: bool,
    /// Video format (itag 22 = the paper's HD 720p).
    pub itag: u32,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec::testbed()
    }
}

impl ServiceSpec {
    /// The §5 emulated-testbed service: two unpaced replicas per network,
    /// 10-minute non-copyrighted 720p video.
    pub fn testbed() -> ServiceSpec {
        ServiceSpec {
            service: ServiceConfig::default(),
            video_secs: 600.0,
            copyrighted: false,
            itag: 22,
        }
    }

    /// The §6 YouTube-service profile: paced servers, heavier control
    /// plane, copyrighted video (signature decipher step).
    pub fn youtube() -> ServiceSpec {
        ServiceSpec {
            service: youtube_service_config(),
            video_secs: 600.0,
            copyrighted: true,
            itag: 22,
        }
    }

    /// Builder-style video length override.
    pub fn with_video_secs(mut self, secs: f64) -> Self {
        self.video_secs = secs;
        self
    }
}

/// The §5 testbed's WiFi + LTE paths, in scheduler index order (WiFi
/// first). The single-path players of the paper's figures use one of the
/// two.
pub fn testbed_paths() -> [PathSetup; 2] {
    [
        PathSetup::new(PathProfile::wifi_testbed(), Network::Wifi),
        PathSetup::new(PathProfile::lte_testbed(), Network::Cellular),
    ]
}

/// The §6 YouTube measurement's WiFi + LTE paths (WiFi first).
pub fn youtube_paths() -> [PathSetup; 2] {
    [
        PathSetup::new(PathProfile::wifi_youtube(), Network::Wifi),
        PathSetup::new(PathProfile::lte_youtube(), Network::Cellular),
    ]
}

/// One client session to run against a [`SessionHost`]: seed, paths,
/// player, stop condition, and failure injections.
#[derive(Clone)]
pub struct SessionSpec {
    /// Master seed; every stochastic component forks from it.
    pub seed: u64,
    /// The session's paths, in scheduler index order (index 0 is WiFi by
    /// convention; any number of paths is allowed).
    pub paths: Vec<PathSetup>,
    /// Player configuration.
    pub player: PlayerConfig,
    /// Stop condition.
    pub stop: StopCondition,
    /// Server-failure injections (empty = healthy servers; several entries
    /// model failure storms). Each entry must target a valid path index.
    pub server_failures: Vec<ServerFailure>,
    /// Optional chaos plan layered onto the session: composable
    /// seed-deterministic fault injectors (clock skew, middlebox option
    /// strip, asymmetric outages, DNS flaps, token cuts, replica overload)
    /// that act purely in the data plane — the workload definition itself is
    /// untouched.
    pub chaos: Option<ChaosPlan>,
}

impl SessionSpec {
    /// A spec over `paths` with no failure injections.
    pub fn new(seed: u64, paths: Vec<PathSetup>, player: PlayerConfig) -> SessionSpec {
        SessionSpec {
            seed,
            paths,
            player,
            stop: StopCondition::PrebufferDone,
            server_failures: Vec::new(),
            chaos: None,
        }
    }

    /// Builder-style stop-condition override.
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Builder-style seed override (used by batch drivers).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style chaos-plan attachment.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Validates the spec: at least one path, in-range failure targets,
    /// well-formed windows, well-formed ABR ladder, valid player config.
    pub fn validate(&self) -> Result<(), SessionSpecError> {
        if self.paths.is_empty() {
            return Err(SessionSpecError::NoPaths);
        }
        if let Some(abr) = &self.player.abr_ladder {
            abr.validate_ladder()
                .map_err(|reason| SessionSpecError::InvalidLadder { reason })?;
        }
        for failure in &self.server_failures {
            if failure.path >= self.paths.len() {
                return Err(SessionSpecError::FailurePathOutOfRange {
                    path: failure.path,
                    n_paths: self.paths.len(),
                });
            }
            if failure.from >= failure.until {
                return Err(SessionSpecError::InvalidFailureWindow {
                    from: failure.from,
                    until: failure.until,
                });
            }
        }
        if let Some(plan) = &self.chaos {
            plan.validate(self.paths.len())
                .map_err(|reason| SessionSpecError::InvalidChaos { reason })?;
        }
        self.player
            .validate()
            .map_err(SessionSpecError::InvalidPlayer)?;
        Ok(())
    }
}

/// The YouTube-service topology: generous Trickle-style pacing (the
/// production servers burst the pre-buffer then pace well above the
/// encoding rate; cf. the paper's \[12\]).
pub fn youtube_service_config() -> ServiceConfig {
    ServiceConfig {
        servers_per_network: 3,
        pacing: Some(msim_youtube::server::PacePolicy {
            burst: ByteSize::mb(6),
            rate: msim_core::units::BitRate::mbps(5.0),
        }),
    }
}

/// Hard ceiling on simulated session length (guards against pathological
/// configurations looping forever).
const MAX_SESSION: SimDuration = SimDuration::from_secs(4 * 3600);

/// Seed for the host-level service. The service's own randomness only
/// shapes *strings* (token wire form, signature content, cipher program) —
/// never timing — so a host-level constant reproduces the per-session
/// metrics exactly; `crates/bench/tests/batch_api.rs` and the in-crate
/// `host_batch_matches_individual_runs` test lock this equivalence in.
const HOST_SERVICE_SEED: u64 = 0x5e21_11ce;

#[derive(Debug)]
enum Ev {
    PathReady(usize),
    /// Several paths ready at the same instant, coalesced into one event
    /// at push time (pop once per instant instead of once per path).
    PathsReady(Vec<usize>),
    ChunkDone {
        path: usize,
        index: u64,
        bytes: u64,
        requested_at: SimTime,
        first_byte_at: SimTime,
    },
    ChunkError {
        path: usize,
        reason: ChunkFailReason,
        /// The link itself is in an outage: the player should treat the
        /// whole path as down rather than retrying on it.
        link_down: bool,
    },
    PathRecover(usize),
    Tick,
}

/// The content half of one path's bootstrap: the decoded JSON and, for
/// copyrighted videos, the deciphered signature. For an idle service this
/// is a pure function of `(network, json_done)` — `json_done` derives from
/// the *base* RTT, never the jittered one — so hosts cache and share it
/// across sessions (see [`SessionHost`]).
struct PathBootstrap {
    info: VideoInfo,
    /// Pre-validated admission for this path's range requests: the token /
    /// signature checks (including the deciphered signature, for
    /// copyrighted videos) are time-independent per session, so they are
    /// performed once here instead of on every chunk (the per-request
    /// failure-window / overload / expiry checks remain per request; the
    /// service asserts verdict equivalence).
    grant: msim_youtube::service::StreamGrant,
}

struct PathRt {
    tcp_config: TcpConfig,
    resolver: DnsResolver,
    boot: std::sync::Arc<PathBootstrap>,
    current_server: usize,
    server_addr: Ipv4Addr,
    /// Set while the path is down; the instant it may come back.
    down: bool,
}

fn client_ip_for(network: Network) -> &'static str {
    match network {
        Network::Wifi => "203.0.113.7",
        Network::Cellular => "198.51.100.23",
        Network::Ethernet => "192.0.2.41",
    }
}

fn map_status(status: StatusCode) -> ChunkFailReason {
    if status == StatusCode::FORBIDDEN {
        ChunkFailReason::Forbidden
    } else {
        ChunkFailReason::ServerError
    }
}

/// A warmed session runner: owns the emulated service, catalog, and video
/// format derived from one [`ServiceSpec`], and executes any number of
/// [`SessionSpec`]s against them.
///
/// Construction is the expensive part (DNS zone strings, signature cipher,
/// proxy/server fleet); [`SessionHost::run`] only resets per-session server
/// state (load counters, failure plans), so batching sessions over one host
/// amortizes the bootstrap without changing any session's outcome.
pub struct SessionHost {
    spec: ServiceSpec,
    service: YoutubeService,
    video_id: VideoId,
    bytes_per_sec: f64,
    total_bytes: u64,
    tls: TlsTimingModel,
    /// Action scratch buffer reused across sessions (and across events
    /// within a session): the hot loop never allocates for actions.
    actions: Vec<PlayerAction>,
    /// The event queue, owned by the host so batched sessions reuse its
    /// heap and slab storage. [`EventQueue::reset`] between sessions
    /// restores pristine semantics.
    queue: EventQueue<Ev>,
    /// Cached per-`(network, json_done, granted ladder)` bootstrap
    /// content. Valid only when the network is idle at watch time (always
    /// true for bootstraps on distinct networks; same-network multi-path
    /// sessions bypass the cache so load-aware server ordering is
    /// preserved exactly). The granted ladder is part of the key because
    /// the bootstrap's [`StreamGrant`] covers exactly the session's
    /// ladder: sessions with different ladders must not share grants.
    ///
    /// [`StreamGrant`]: msim_youtube::service::StreamGrant
    boot_cache: BTreeMap<(Network, SimTime, Vec<u32>), std::sync::Arc<PathBootstrap>>,
    /// Per-path hot-state arenas reused across sessions (see
    /// [`SessionScratch`]).
    scratch: SessionScratch,
}

/// Struct-of-arrays per-path session state, owned by the host and reused
/// across batched sessions.
///
/// Each array is indexed by path id, so the event loop's per-path walks
/// (link sampling, connection dispatch, readiness scans) touch dense,
/// cache-line-friendly storage instead of freshly allocated vectors. The
/// arrays are cleared — not dropped — between sessions, so a
/// [`SessionHost::run_batch`] over N seeds pays the allocation once.
/// Contents are rebuilt from scratch each session; only capacity carries
/// over, so reuse is bit-transparent.
#[derive(Default)]
struct SessionScratch {
    links: Vec<Link>,
    conns: Vec<Option<TcpConnection>>,
    paths: Vec<PathRt>,
    ready_times: Vec<SimTime>,
}

impl SessionHost {
    /// Builds the host: assembles the service topology and resolves the
    /// video format once.
    pub fn new(spec: ServiceSpec) -> SessionHost {
        let video_id = VideoId::new("qjT4T2gU9sM").expect("static id");
        let mut catalog = Catalog::new();
        catalog.add(Video::new(
            video_id,
            "Experiment Stream",
            "umass-nets",
            SimDuration::from_secs_f64(spec.video_secs),
            spec.copyrighted,
        ));
        let service = YoutubeService::new(HOST_SERVICE_SEED, catalog, spec.service.clone());
        let format = msim_youtube::by_itag(spec.itag).expect("known itag");
        let bytes_per_sec = format.bytes_per_sec();
        let total_bytes = format
            .size_for(SimDuration::from_secs_f64(spec.video_secs))
            .as_u64();
        SessionHost {
            spec,
            service,
            video_id,
            bytes_per_sec,
            total_bytes,
            tls: TlsTimingModel::default(),
            actions: Vec::with_capacity(8),
            queue: EventQueue::with_capacity(16),
            boot_cache: BTreeMap::new(),
            scratch: SessionScratch::default(),
        }
    }

    /// The service spec this host was built from.
    pub fn service_spec(&self) -> &ServiceSpec {
        &self.spec
    }

    /// Runs one session to completion over the warmed service.
    pub fn run(&mut self, spec: &SessionSpec) -> Result<SessionMetrics, SessionSpecError> {
        spec.validate()?;
        self.validate_against_service(spec)?;
        Ok(self.run_validated(spec.seed, spec))
    }

    /// Runs one session against a service carrying fleet-injected shared
    /// load: per-replica session counts, capacity-share pacing, and
    /// admission thresholds are installed before bootstrap, so load-aware
    /// server selection, 503 admission, and pacing all see the rest of the
    /// fleet. An [empty](crate::fleet::FleetLoad::is_empty) load is
    /// bit-identical to [`SessionHost::run`] — the fleet's N=1 anchor.
    pub fn run_with_load(
        &mut self,
        spec: &SessionSpec,
        load: &crate::fleet::FleetLoad,
    ) -> Result<SessionMetrics, SessionSpecError> {
        spec.validate()?;
        self.validate_against_service(spec)?;
        Ok(self.run_validated_with(spec.seed, spec, Some(load)))
    }

    /// Runs the same session shape over many seeds, validating once.
    /// The result at position `i` is bit-identical to
    /// `self.run(&spec.with_seed(seeds[i]))`.
    ///
    /// Beyond one-time validation, batching keeps every session on the
    /// host's warm storage: the event queue's heap and slab, the
    /// bootstrap cache, and the [`SessionScratch`] per-path arenas
    /// (links, connections, path runtimes, ready times) are all reused
    /// across seeds, so consecutive sessions run over the same hot cache
    /// lines instead of a fresh heap layout per seed.
    pub fn run_batch(
        &mut self,
        seeds: &[u64],
        spec: &SessionSpec,
    ) -> Result<Vec<SessionMetrics>, SessionSpecError> {
        spec.validate()?;
        self.validate_against_service(spec)?;
        Ok(seeds
            .iter()
            .map(|&seed| self.run_validated(seed, spec))
            .collect())
    }

    /// Service-aware spec checks: a closed-loop ABR ladder must contain
    /// the session's starting itag (the rung the stream begins on).
    fn validate_against_service(&self, spec: &SessionSpec) -> Result<(), SessionSpecError> {
        if let Some(abr) = &spec.player.abr_ladder {
            if abr.mode == crate::abr::AbrMode::ClosedLoop && !abr.ladder.contains(&self.spec.itag)
            {
                return Err(SessionSpecError::InvalidLadder {
                    reason: format!(
                        "closed-loop ladder {:?} does not contain the session's starting itag {}",
                        abr.ladder, self.spec.itag
                    ),
                });
            }
        }
        Ok(())
    }

    /// The session body. `spec` must already be validated.
    fn run_validated(&mut self, seed: u64, spec: &SessionSpec) -> SessionMetrics {
        self.run_validated_with(seed, spec, None)
    }

    /// The session body, optionally under fleet-injected shared load.
    fn run_validated_with(
        &mut self,
        seed: u64,
        spec: &SessionSpec,
        fleet: Option<&crate::fleet::FleetLoad>,
    ) -> SessionMetrics {
        // Detach the scratch arenas so the body can borrow the host's
        // service/queue/caches freely, then funnel them back whichever
        // exit the session takes.
        let mut scratch = std::mem::take(&mut self.scratch);
        let metrics = self.session_body(seed, spec, fleet, &mut scratch);
        self.scratch = scratch;
        metrics
    }

    /// One full session over the host's warmed service, with per-path hot
    /// state carved out of `scratch` (cleared here, capacity reused).
    fn session_body(
        &mut self,
        seed: u64,
        spec: &SessionSpec,
        fleet: Option<&crate::fleet::FleetLoad>,
        scratch: &mut SessionScratch,
    ) -> SessionMetrics {
        // Per-session mutable service state back to pristine: load counts
        // and failure plans. Everything else on the service is immutable
        // topology or timing-neutral strings.
        self.service.reset_sessions();
        // Fleet coupling: install the rest of the fleet's state on the
        // replicas *before* bootstrap. Non-zero load makes
        // `network_is_idle` false, which also bypasses the bootstrap
        // cache — loaded networks are never cache-eligible.
        if let Some(load) = fleet {
            load.apply(&mut self.service);
        }
        self.actions.clear();

        // Observability (never perturbs the session: counters/spans/trace
        // only — no RNG, no simulated time, no metrics mutation). The
        // trace flag is latched once per session so the hot loop pays a
        // plain bool test instead of an atomic load per event.
        let tracing = telemetry::trace_enabled();
        let boot_span = telemetry::span("session.bootstrap");

        let mut rng = Prng::new(seed);
        let n_paths = spec.paths.len();
        if tracing {
            telemetry::trace(
                "session.start",
                0,
                &[
                    ("seed", TraceVal::U64(seed)),
                    ("paths", TraceVal::U64(n_paths as u64)),
                ],
            );
        }
        // The formats the session's grant must cover: closed-loop ABR
        // sessions are granted their whole quality ladder once (they may
        // switch the streamed itag mid-session); everything else streams
        // exactly the service's fixed itag.
        let session_itag = self.spec.itag;
        let grant_itags: Vec<u32> = match &spec.player.abr_ladder {
            Some(abr) if abr.mode == crate::abr::AbrMode::ClosedLoop => abr.ladder.clone(),
            _ => vec![session_itag],
        };

        // --- Links & connections -------------------------------------------
        let SessionScratch {
            links,
            conns,
            paths,
            ready_times,
        } = scratch;
        links.clear();
        conns.clear();
        paths.clear();
        ready_times.clear();
        links.reserve(n_paths);
        paths.reserve(n_paths);
        ready_times.reserve(n_paths);
        for setup in &spec.paths {
            let mut link = setup.profile.build(&mut rng);
            if let Some(outages) = &setup.outages {
                link = link.with_outages(outages.clone());
            }
            links.push(link);
        }
        conns.resize_with(n_paths, || None);

        // --- Bootstrap each path (§3.2 + Fig. 1 + footnote 1) --------------
        for (i, setup) in spec.paths.iter().enumerate() {
            let network = setup.network;
            let client_ip = client_ip_for(network);
            let mut resolver = DnsResolver::new(network);
            let rtt = links[i].base_rtt();
            let t0 = SimTime::ZERO;

            // DNS for the proxy.
            let (_proxy_ans, dns_done) = resolver
                .resolve(self.service.zone(), PROXY_DOMAIN, t0, rtt)
                .expect("proxy resolvable");
            // HTTPS + OAuth + JSON (ψ + OAuth).
            let proxy_latency = self.service.proxy(network).json_ready_after(rtt);
            let json_done = dns_done + proxy_latency;
            // The bootstrap *content* (decoded JSON + deciphered signature)
            // is a pure function of (network, json_done) while the network
            // is idle — serve it from the host cache when possible. The
            // bootstrap *timing* below is charged per session regardless.
            let cache_key = (network, json_done, grant_itags.clone());
            let idle = self.service.network_is_idle(network);
            let boot = match self.boot_cache.get(&cache_key) {
                Some(cached) if idle => std::sync::Arc::clone(cached),
                _ => {
                    let json = self
                        .service
                        .watch_request(network, self.video_id, client_ip, json_done)
                        .expect("watch request succeeds");
                    let info = parse_video_info(&json).expect("well-formed JSON");
                    let signature = info
                        .enciphered_sig
                        .as_ref()
                        .map(|enc| self.service.decoder_page().decipher(enc));
                    // Pre-validate the per-session admission checks once;
                    // every range request then pays only the per-request
                    // (failure-window / overload / expiry) half.
                    let grant = self.service.grant_stream(
                        self.video_id,
                        client_ip,
                        &info.token,
                        signature.as_deref(),
                        &grant_itags,
                    );
                    let boot = std::sync::Arc::new(PathBootstrap { info, grant });
                    if idle {
                        self.boot_cache
                            .insert(cache_key, std::sync::Arc::clone(&boot));
                    }
                    boot
                }
            };
            // JSON decode on the client.
            let mut t = json_done + SimDuration::from_millis(2);
            // Copyrighted: fetch the video web page carrying the decoder
            // (footnote 1) — a real ~300 KB transfer on a fresh connection to
            // the proxy, expensive on the high-RTT path — then decipher.
            if boot.info.enciphered_sig.is_some() {
                let mut page_conn = TcpConnection::new(setup.profile.tcp_config());
                let page_start =
                    page_conn.connect(&mut links[i], t + self.tls.eta(rtt).saturating_sub(rtt));
                let page = page_conn.request(&mut links[i], page_start, ByteSize::kb(300));
                t = page.completed_at + SimDuration::from_millis(3);
            }
            // DNS for the chosen video server.
            let (ans, dns2_done) = resolver
                .resolve(self.service.zone(), &boot.info.server_domains[0], t, rtt)
                .expect("server resolvable");
            let server_addr = ans.addrs[0];
            // HTTPS to the video server: η minus the TCP round the connection
            // model charges itself.
            let tls_extra = self.tls.eta(rtt).saturating_sub(rtt);
            let connect_start = dns2_done + tls_extra;
            let mut conn = TcpConnection::new(setup.profile.tcp_config());
            if let Some(pace) = self.service.server(server_addr).and_then(|s| s.pace()) {
                conn = conn.with_server_pacing(pace.burst, pace.rate);
            }
            let ready = conn.connect(&mut links[i], connect_start);
            conns[i] = Some(conn);
            if let Some(s) = self.service.server_mut(server_addr) {
                s.begin_session();
            }
            ready_times.push(ready);
            paths.push(PathRt {
                tcp_config: setup.profile.tcp_config(),
                resolver,
                boot,
                current_server: 0,
                server_addr,
                down: false,
            });
        }

        // Server-failure injections, grouped per target server so storms
        // may stack several windows on one address.
        if !spec.server_failures.is_empty() {
            let mut windows: BTreeMap<Ipv4Addr, Vec<(SimTime, SimTime)>> = BTreeMap::new();
            for failure in &spec.server_failures {
                windows
                    .entry(paths[failure.path].server_addr)
                    .or_default()
                    .push((failure.from, failure.until));
            }
            for (addr, w) in windows {
                self.service.fail_server_windows(addr, w);
            }
        }

        // Resolve the chaos plan against this session's seed. Chaos acts
        // strictly in the data plane (fetch / failover dispatch) — never in
        // the bootstrap above — so the boot cache and the batch-vs-loop
        // bit-equivalence stay intact. Overload windows are installed on the
        // backing replicas like server failures; reset_sessions() clears
        // them before the next session.
        let mut chaos: Option<ChaosState> = spec.chaos.as_ref().map(|p| p.resolve(seed, n_paths));
        if let Some(cs) = &chaos {
            let mut windows: BTreeMap<Ipv4Addr, Vec<(SimTime, SimTime)>> = BTreeMap::new();
            for (path, from, until) in cs.overload_windows() {
                windows
                    .entry(paths[path].server_addr)
                    .or_default()
                    .push((from, until));
            }
            for (addr, w) in windows {
                self.service.overload_server_windows(addr, w);
            }
        }

        drop(boot_span);
        let stream_span = telemetry::span("session.stream");

        // --- Player & event loop -------------------------------------------
        let mut player = Player::multi(
            spec.player.clone(),
            n_paths,
            self.total_bytes,
            self.bytes_per_sec,
            SimTime::ZERO,
        );
        // Stop-aware trace pre-sizing: a prebuffer-only session downloads
        // roughly the prebuffer target (2x slack for stall re-buffering);
        // everything else can plausibly fetch the whole video.
        let expected_bytes = match spec.stop {
            StopCondition::PrebufferDone => {
                ((spec.player.prebuffer_secs * self.bytes_per_sec * 2.0) as u64)
                    .min(self.total_bytes)
            }
            _ => self.total_bytes,
        };
        player.reserve_event_capacity(expected_bytes);
        // Pending events stay small: at most one chunk completion or error
        // per path, plus a tick and recovery timers. The queue's storage is
        // reused across the host's sessions.
        self.queue.reset();
        self.queue.reserve(16.max(2 * n_paths));
        let queue = &mut self.queue;
        // Same-instant readiness wakeups coalesce into one event: group the
        // ready times (ascending, stable in path order) and push one event
        // per distinct instant.
        let push_ready_group = |queue: &mut EventQueue<Ev>, at: SimTime, group: &[usize]| {
            if group.len() == 1 {
                queue.push(at, Ev::PathReady(group[0]));
            } else {
                queue.push(at, Ev::PathsReady(group.to_vec()));
            }
        };
        if spec.player.head_start {
            let mut order: Vec<usize> = (0..n_paths).collect();
            order.sort_by_key(|&i| (ready_times[i], i));
            let mut i = 0;
            while i < n_paths {
                let at = ready_times[order[i]];
                let mut j = i + 1;
                while j < n_paths && ready_times[order[j]] == at {
                    j += 1;
                }
                push_ready_group(queue, at, &order[i..j]);
                i = j;
            }
        } else {
            // All paths wait for the slowest bootstrap (ablation mode):
            // one coalesced wakeup for the whole path set.
            let latest = ready_times
                .iter()
                .copied()
                .fold(SimTime::ZERO, SimTime::max);
            let all: Vec<usize> = (0..n_paths).collect();
            push_ready_group(queue, latest, &all);
        }

        let deadline = SimTime::ZERO + MAX_SESSION;
        let actions = &mut self.actions;
        let mut events: u64 = 0;
        // The single outstanding tick (ScheduleTick coalescing contract:
        // the latest request supersedes any undelivered earlier one).
        let mut pending_tick: Option<(SimTime, msim_core::event::EventId)> = None;
        while let Some((now, ev)) = queue.pop() {
            if now > deadline {
                break;
            }
            events += 1;
            let player_event = match ev {
                Ev::PathReady(p) => PlayerEvent::PathReady { path: p },
                Ev::PathsReady(paths) => PlayerEvent::PathsReady { paths },
                Ev::ChunkDone {
                    path,
                    index,
                    bytes,
                    requested_at,
                    first_byte_at,
                } => {
                    telemetry::observe(
                        "msp_chunk_fetch_us",
                        now.as_micros().saturating_sub(requested_at.as_micros()),
                    );
                    if tracing {
                        telemetry::trace(
                            "chunk.done",
                            now.as_micros(),
                            &[
                                ("path", TraceVal::U64(path as u64)),
                                ("index", TraceVal::U64(index)),
                                ("bytes", TraceVal::U64(bytes)),
                                ("requested_us", TraceVal::U64(requested_at.as_micros())),
                            ],
                        );
                    }
                    PlayerEvent::ChunkComplete {
                        path,
                        index,
                        bytes,
                        requested_at,
                        first_byte_at,
                    }
                }
                Ev::ChunkError {
                    path,
                    reason,
                    link_down,
                } => {
                    telemetry::count("msp_chunk_errors_total", 1);
                    if tracing {
                        telemetry::trace(
                            "chunk.error",
                            now.as_micros(),
                            &[
                                ("path", TraceVal::U64(path as u64)),
                                ("reason", TraceVal::Str(format!("{reason:?}"))),
                                ("link_down", TraceVal::U64(link_down as u64)),
                            ],
                        );
                    }
                    if link_down {
                        PlayerEvent::PathDown { path }
                    } else {
                        PlayerEvent::ChunkFailed { path, reason }
                    }
                }
                Ev::PathRecover(p) => {
                    paths[p].down = false;
                    if tracing {
                        telemetry::trace(
                            "path.recover",
                            now.as_micros(),
                            &[("path", TraceVal::U64(p as u64))],
                        );
                    }
                    PlayerEvent::PathRestored { path: p }
                }
                Ev::Tick => {
                    pending_tick = None;
                    PlayerEvent::Tick
                }
            };
            player.handle_into(now, player_event, actions);
            for action in actions.drain(..) {
                match action {
                    PlayerAction::Fetch { assignment } => {
                        // The format this range request streams: the rung
                        // its byte region was planned at (closed-loop ABR
                        // sessions carry a rung map; everything else is the
                        // session's fixed itag).
                        let itag = player
                            .itag_for_byte(assignment.range.start)
                            .unwrap_or(session_itag);
                        dispatch_fetch(
                            &mut self.service,
                            links,
                            conns,
                            paths,
                            queue,
                            now,
                            assignment,
                            itag,
                            chaos.as_mut(),
                        );
                    }
                    PlayerAction::Failover { path } => {
                        telemetry::count("msp_failovers_total", 1);
                        if tracing {
                            telemetry::trace(
                                "path.failover",
                                now.as_micros(),
                                &[("path", TraceVal::U64(path as u64))],
                            );
                        }
                        dispatch_failover(
                            &mut self.service,
                            links,
                            conns,
                            paths,
                            queue,
                            &self.tls,
                            now,
                            path,
                            chaos.as_ref(),
                        );
                    }
                    PlayerAction::ScheduleTick { at } => {
                        // Tick coalescing: keep exactly one pending tick —
                        // the latest request supersedes the previous one.
                        let at = at.max(now);
                        if pending_tick.is_none_or(|(t, _)| t != at) {
                            if let Some((_, id)) = pending_tick.take() {
                                queue.cancel(id);
                            }
                            pending_tick = Some((at, queue.push(at, Ev::Tick)));
                        }
                    }
                }
            }
            // Stop conditions.
            let stop = match spec.stop {
                StopCondition::PrebufferDone => player.prebuffer_done(),
                StopCondition::AfterRefills(n) => player.refill_count() >= n,
                StopCondition::DownloadComplete => player.download_complete(),
                StopCondition::AtTime(t) => now >= t,
            };
            if stop {
                let mut m = player.into_metrics(now);
                m.events = events;
                drop(stream_span);
                publish_session_telemetry(&m, queue.op_counts(), now, tracing);
                return m;
            }
        }
        let end = queue.now();
        let mut m = player.into_metrics(end);
        m.events = events;
        drop(stream_span);
        publish_session_telemetry(&m, self.queue.op_counts(), end, tracing);
        m
    }
}

/// Publishes one finished session's observability rollup: session and
/// event-queue op counters, the stall counter, the per-session event
/// histogram, and (when tracing) the `session.end` trace record. Reads
/// only finished state — provably non-perturbing.
fn publish_session_telemetry(
    m: &SessionMetrics,
    ops: msim_core::event::QueueOps,
    ended_at: SimTime,
    tracing: bool,
) {
    if telemetry::enabled() {
        telemetry::count("msp_sessions_total", 1);
        telemetry::count("msp_event_pushes_total", ops.pushes);
        telemetry::count("msp_event_pops_total", ops.pops);
        telemetry::count("msp_event_cancels_total", ops.cancels);
        telemetry::count("msp_stalls_total", m.stalls.len() as u64);
        telemetry::observe("msp_session_events", m.events);
    }
    if tracing {
        telemetry::trace(
            "session.end",
            ended_at.as_micros(),
            &[
                ("events", TraceVal::U64(m.events)),
                ("stalls", TraceVal::U64(m.stalls.len() as u64)),
            ],
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_fetch(
    service: &mut YoutubeService,
    links: &mut [Link],
    conns: &mut [Option<TcpConnection>],
    paths: &mut [PathRt],
    queue: &mut EventQueue<Ev>,
    now: SimTime,
    assignment: ChunkAssignment,
    itag: u32,
    mut chaos: Option<&mut ChaosState>,
) {
    let p = assignment.path;
    let rt = &mut paths[p];
    if let Some(cs) = chaos.as_deref_mut() {
        let rtt = links[p].base_rtt();
        // Middlebox started stripping MPTCP options on this path: the
        // established connection falls back per RFC 6824 — one reset, a
        // fresh plain-TCP handshake, and the request is lost. One-shot.
        if let Some(penalty_rtts) = cs.take_strip(p, now) {
            let mut conn = TcpConnection::new(rt.tcp_config.clone());
            if let Some(pace) = service.server(rt.server_addr).and_then(|s| s.pace()) {
                conn = conn.with_server_pacing(pace.burst, pace.rate);
            }
            // The reconnect handshake itself charges one RTT; the rest of
            // the penalty (detecting the reset, SYN retries for the
            // option-dropping case) is charged up front.
            let reset_done = conn.connect(&mut links[p], now + rtt * (penalty_rtts - 1));
            conns[p] = Some(conn);
            queue.push(
                reset_done,
                Ev::ChunkError {
                    path: p,
                    reason: ChunkFailReason::ServerError,
                    link_down: false,
                },
            );
            return;
        }
        // Up-direction outage: the request never reaches the server; the
        // client gives up after a deterministic RTO.
        if cs.request_lost(p, now) {
            queue.push(
                now + rtt * 4,
                Ev::ChunkError {
                    path: p,
                    reason: ChunkFailReason::Timeout,
                    link_down: false,
                },
            );
            return;
        }
        // Token cut: the CDN invalidated the session token; the first
        // request at/after the cut on each path is refused 403 (the retry
        // models a control-plane token refresh).
        if cs.token_cut_fires(p, now) {
            queue.push(
                now + rtt,
                Ev::ChunkError {
                    path: p,
                    reason: ChunkFailReason::Forbidden,
                    link_down: false,
                },
            );
            return;
        }
    }
    // Server-side admission over the bootstrap's pre-validated grant:
    // failure windows, overload, token expiry, and ladder membership of
    // the requested format (the token / signature halves were checked once
    // at bootstrap — same verdicts, no per-chunk re-parse). Under clock
    // skew the servers see the skewed instant.
    let admit_now = match chaos.as_deref() {
        Some(cs) => cs.skewed(now),
        None => now,
    };
    let admission =
        service.check_range_request_granted(rt.server_addr, admit_now, &rt.boot.grant, itag);
    if let Err(status) = admission {
        // The error response costs one round trip.
        let rtt = links[p].base_rtt();
        queue.push(
            now + rtt,
            Ev::ChunkError {
                path: p,
                reason: map_status(status),
                link_down: false,
            },
        );
        return;
    }
    let conn = conns[p].as_mut().expect("connection established");
    let result = conn.request(&mut links[p], now, ByteSize::bytes(assignment.range.len()));
    match result.outcome {
        TransferOutcome::Complete => {
            // Down-direction outage: the transfer ran on the wire (the
            // server sent every byte, connection state advanced) but the
            // response never reached the client, which times out when the
            // transfer would have completed.
            if chaos.as_deref().is_some_and(|cs| cs.response_lost(p, now)) {
                queue.push(
                    result.completed_at,
                    Ev::ChunkError {
                        path: p,
                        reason: ChunkFailReason::Timeout,
                        link_down: false,
                    },
                );
                return;
            }
            queue.push(
                result.completed_at,
                Ev::ChunkDone {
                    path: p,
                    index: assignment.index,
                    bytes: result.delivered.as_u64(),
                    requested_at: now,
                    first_byte_at: result.first_byte_at,
                },
            );
        }
        TransferOutcome::TimedOut => {
            // Link trouble. If the link is in an outage the whole path goes
            // down (the player reassigns the hole to the surviving path)
            // and recovers only after the outage ends plus a reconnect
            // handshake; a transient timeout is just a failed chunk.
            let down_until = links[p].next_up_after(result.completed_at);
            queue.push(
                result.completed_at,
                Ev::ChunkError {
                    path: p,
                    reason: ChunkFailReason::Timeout,
                    link_down: down_until.is_some(),
                },
            );
            if let Some(up_at) = down_until {
                rt.down = true;
                let rtt = links[p].base_rtt();
                let reconnect = TlsTimingModel::default().eta(rtt);
                queue.push(up_at + reconnect, Ev::PathRecover(p));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_failover(
    service: &mut YoutubeService,
    links: &mut [Link],
    conns: &mut [Option<TcpConnection>],
    paths: &mut [PathRt],
    queue: &mut EventQueue<Ev>,
    tls: &TlsTimingModel,
    now: SimTime,
    path: usize,
    chaos: Option<&ChaosState>,
) {
    let rt = &mut paths[path];
    // DNS flap: the resolver keeps returning the stale record, so the
    // failover cannot rotate replicas — the client reconnects to the same
    // server after burning one extra RTT on the failed re-resolution.
    if chaos.is_some_and(|cs| cs.dns_flapping(path, now)) {
        let rtt = links[path].base_rtt();
        let tls_extra = tls.eta(rtt).saturating_sub(rtt);
        let mut conn = TcpConnection::new(rt.tcp_config.clone());
        if let Some(pace) = service.server(rt.server_addr).and_then(|s| s.pace()) {
            conn = conn.with_server_pacing(pace.burst, pace.rate);
        }
        let ready = conn.connect(&mut links[path], now + rtt + tls_extra);
        conns[path] = Some(conn);
        queue.push(ready, Ev::PathRecover(path));
        return;
    }
    if let Some(s) = service.server_mut(rt.server_addr) {
        s.end_session();
    }
    // Next replica in this network's list (§2: "If a server in a network
    // fails or is overloaded, MSPlayer switches to another server in that
    // network and resumes video streaming").
    rt.current_server = (rt.current_server + 1) % rt.boot.info.server_domains.len();
    let domain = rt.boot.info.server_domains[rt.current_server].clone();
    let rtt = links[path].base_rtt();
    let (ans, dns_done) = rt
        .resolver
        .resolve(service.zone(), &domain, now, rtt)
        .expect("replica resolvable");
    rt.server_addr = ans.addrs[0];
    if let Some(s) = service.server_mut(rt.server_addr) {
        s.begin_session();
    }
    // Fresh HTTPS connection to the new replica.
    let tls_extra = tls.eta(rtt).saturating_sub(rtt);
    let mut conn = TcpConnection::new(rt.tcp_config.clone());
    if let Some(pace) = service.server(rt.server_addr).and_then(|s| s.pace()) {
        conn = conn.with_server_pacing(pace.burst, pace.rate);
    }
    let ready = conn.connect(&mut links[path], dns_done + tls_extra);
    conns[path] = Some(conn);
    queue.push(ready, Ev::PathRecover(path));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;

    fn quick_player() -> PlayerConfig {
        PlayerConfig::msplayer().with_prebuffer_secs(10.0)
    }

    /// MSPlayer over the testbed's WiFi + LTE paths.
    fn testbed(seed: u64, player: PlayerConfig) -> SessionSpec {
        SessionSpec::new(seed, testbed_paths().into(), player)
    }

    /// Runs `spec` on a fresh testbed host.
    fn run(spec: &SessionSpec) -> SessionMetrics {
        SessionHost::new(ServiceSpec::testbed())
            .run(spec)
            .expect("valid spec")
    }

    #[test]
    fn msplayer_prebuffer_session_completes() {
        let m = run(&testbed(1, quick_player()));
        let t = m.prebuffer_time().expect("prebuffer reached");
        assert!(t.as_secs_f64() > 0.5, "takes real time: {t}");
        assert!(t.as_secs_f64() < 30.0, "finishes promptly: {t}");
        // Both paths carried traffic.
        assert!(m.chunk_count(0) > 0, "wifi chunks");
        assert!(m.chunk_count(1) > 0, "lte chunks");
    }

    #[test]
    fn sessions_are_deterministic() {
        let a = run(&testbed(42, quick_player()));
        let b = run(&testbed(42, quick_player()));
        assert_eq!(a.prebuffer_done_at, b.prebuffer_done_at);
        assert_eq!(a.chunks.len(), b.chunks.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&testbed(1, quick_player()));
        let b = run(&testbed(2, quick_player()));
        assert_ne!(a.prebuffer_done_at, b.prebuffer_done_at);
    }

    #[test]
    fn msplayer_beats_single_path_on_average() {
        let runs = 8;
        let mut ms = 0.0;
        let mut wifi = 0.0;
        for seed in 0..runs {
            ms += run(&testbed(seed, quick_player()))
                .prebuffer_time()
                .unwrap()
                .as_secs_f64();
            let [wifi_path, _] = testbed_paths();
            wifi += run(&SessionSpec::new(seed, vec![wifi_path], quick_player()))
                .prebuffer_time()
                .unwrap()
                .as_secs_f64();
        }
        assert!(
            ms < wifi,
            "MSPlayer mean {:.2}s should beat WiFi-only {:.2}s",
            ms / runs as f64,
            wifi / runs as f64
        );
    }

    #[test]
    fn wifi_head_start_is_positive() {
        let m = run(&testbed(5, quick_player()));
        let hs = m.observed_head_start().expect("both paths delivered");
        assert!(hs.as_secs_f64() > 0.05, "LTE starts later than WiFi: {hs}");
        // WiFi delivered its first byte first.
        assert!(m.first_byte_at[0].unwrap() < m.first_byte_at[1].unwrap());
    }

    #[test]
    fn steady_state_reaches_refills() {
        let cfg = quick_player();
        let mut spec = testbed(3, cfg);
        spec.stop = StopCondition::AfterRefills(2);
        let m = run(&spec);
        assert!(m.refills.len() >= 2, "refills: {}", m.refills.len());
        for r in &m.refills {
            assert!(r.duration().as_secs_f64() > 0.0);
            assert!(r.bytes > 0);
        }
    }

    #[test]
    fn server_failure_triggers_failover_and_session_survives() {
        let mut spec = testbed(9, quick_player());
        spec.stop = StopCondition::AfterRefills(1);
        spec.server_failures.push(ServerFailure {
            path: 0,
            from: SimTime::from_secs(2),
            until: SimTime::from_secs(60),
        });
        let m = run(&spec);
        assert!(m.failovers[0] >= 1, "failover happened");
        assert!(!m.refills.is_empty(), "streaming continued after failover");
    }

    #[test]
    fn wifi_outage_mid_stream_recovers_on_lte() {
        let mut spec = testbed(11, quick_player());
        // WiFi dies from t=3s to t=20s.
        spec.paths[0].outages = Some(OutageSchedule::from_windows(vec![(
            SimTime::from_secs(3),
            SimTime::from_secs(20),
        )]));
        spec.stop = StopCondition::AfterRefills(1);
        let m = run(&spec);
        // The session still made progress (LTE carried it).
        assert!(m.prebuffer_done_at.is_some(), "prebuffer still completed");
        assert!(m.chunk_count(1) > 0);
    }

    #[test]
    fn copyrighted_video_still_streams() {
        let service = ServiceSpec {
            copyrighted: true,
            ..ServiceSpec::testbed()
        };
        let m = SessionHost::new(service)
            .run(&testbed(13, quick_player()))
            .expect("valid spec");
        assert!(m.prebuffer_done_at.is_some());
    }

    #[test]
    fn single_path_fixed_chunks_works() {
        let [wifi, _] = testbed_paths();
        let player =
            PlayerConfig::commercial_single_path(ByteSize::kb(256)).with_prebuffer_secs(10.0);
        let m = run(&SessionSpec::new(17, vec![wifi], player));
        assert!(m.prebuffer_done_at.is_some());
        assert_eq!(m.num_paths(), 1, "one per-path slot");
    }

    #[test]
    fn ratio_vs_harmonic_schedulers_both_run() {
        for kind in [
            SchedulerKind::Ratio,
            SchedulerKind::Ewma,
            SchedulerKind::Harmonic,
        ] {
            let cfg = quick_player().with_scheduler(kind);
            let m = run(&testbed(21, cfg));
            assert!(m.prebuffer_done_at.is_some(), "{kind:?}");
        }
    }

    #[test]
    fn youtube_profile_sessions_run() {
        let spec = SessionSpec::new(23, youtube_paths().into(), quick_player());
        let m = SessionHost::new(ServiceSpec::youtube())
            .run(&spec)
            .expect("valid spec");
        assert!(m.prebuffer_done_at.is_some());
        let wifi_frac = m
            .traffic_fraction(0, crate::metrics::TrafficPhase::PreBuffering)
            .unwrap();
        assert!(
            wifi_frac > 0.3,
            "wifi carries substantial traffic: {wifi_frac}"
        );
    }

    #[test]
    fn three_path_session_uses_all_paths() {
        let mut spec = testbed(31, quick_player());
        spec.paths.push(PathSetup::new(
            PathProfile::ethernet_testbed(),
            Network::Ethernet,
        ));
        let m = run(&spec);
        assert!(m.prebuffer_done_at.is_some(), "prebuffer completes");
        assert_eq!(m.num_paths(), 3);
        for path in 0..3 {
            assert!(m.chunk_count(path) > 0, "path {path} carried chunks");
        }
        // All three phases' traffic fractions sum to 1.
        let total: f64 = (0..3)
            .filter_map(|p| m.traffic_fraction(p, crate::metrics::TrafficPhase::PreBuffering))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to 1: {total}");
    }

    #[test]
    fn host_batch_matches_individual_runs() {
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let spec = testbed(0, quick_player());
        let seeds = [3u64, 14, 15, 92];
        let batch = host.run_batch(&seeds, &spec).expect("valid spec");
        for (i, &seed) in seeds.iter().enumerate() {
            let single = run(&testbed(seed, quick_player()));
            assert_eq!(batch[i], single, "seed {seed} diverged in batch");
        }
    }

    #[test]
    fn spec_validation_catches_bad_specs() {
        let base = testbed(1, quick_player());
        let mut host = SessionHost::new(ServiceSpec::testbed());

        let mut spec = base.clone();
        spec.paths.clear();
        assert_eq!(host.run(&spec), Err(SessionSpecError::NoPaths));

        let mut spec = base.clone();
        spec.server_failures.push(ServerFailure {
            path: 5,
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
        });
        assert_eq!(
            host.run(&spec),
            Err(SessionSpecError::FailurePathOutOfRange {
                path: 5,
                n_paths: 2
            })
        );

        let mut spec = base.clone();
        spec.server_failures.push(ServerFailure {
            path: 0,
            from: SimTime::from_secs(2),
            until: SimTime::from_secs(2),
        });
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidFailureWindow { .. })
        ));

        let mut spec = base.clone();
        spec.player.delta = 2.0;
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidPlayer(_))
        ));
    }

    #[test]
    fn closed_loop_abr_switches_the_streamed_itag_mid_session() {
        use crate::config::AbrLadderConfig;
        // WiFi (10.5 Mb/s) + LTE (8.2 Mb/s) afford far more than itag 22's
        // 2.5 Mb/s: the damped rate policy must climb to 1080p mid-stream.
        let cfg = quick_player().with_abr_ladder(AbrLadderConfig::closed_loop());
        let mut spec = testbed(5, cfg);
        spec.stop = StopCondition::AfterRefills(2);
        let m = run(&spec);
        let qoe = m.abr_qoe.expect("closed-loop sessions carry QoE");
        assert!(qoe.switches > 0, "no switch fired: {qoe:?}");
        assert!(
            m.abr_decisions.iter().any(|d| d.switched && d.itag != 22),
            "streamed itag never changed: {:?}",
            m.abr_switches
        );
        // Time-weighted bitrate sits between the ladder endpoints and
        // above the starting rung (the session only switched up).
        assert!(
            qoe.time_weighted_bitrate_bps > 2.5e6 && qoe.time_weighted_bitrate_bps <= 4.3e6,
            "time-weighted bitrate {} outside (2.5M, 4.3M]",
            qoe.time_weighted_bitrate_bps
        );
        assert!(qoe.switch_magnitude_bps > 0.0);
        // Deterministic replay.
        let again = run(&spec);
        assert_eq!(m, again);
    }

    #[test]
    fn closed_loop_policies_all_run_and_differ_from_shadow() {
        use crate::abr::{AbrMode, AbrPolicyKind};
        use crate::config::AbrLadderConfig;
        for policy in [
            AbrPolicyKind::DampedRate,
            AbrPolicyKind::BufferOccupancy,
            AbrPolicyKind::Hybrid,
        ] {
            let abr = AbrLadderConfig::closed_loop().with_policy(policy);
            let cfg = quick_player().with_abr_ladder(abr.clone());
            let mut spec = testbed(7, cfg);
            spec.stop = StopCondition::AfterRefills(1);
            let m = run(&spec);
            assert!(
                m.abr_qoe.is_some() && !m.abr_decisions.is_empty(),
                "{policy:?} produced no decisions"
            );
            // The shadow twin of the same policy traces decisions but
            // never switches and carries no QoE record.
            let shadow = abr.with_mode(AbrMode::Shadow);
            let mut shadow_spec = spec.clone();
            shadow_spec.player = quick_player().with_abr_ladder(shadow);
            let sh = run(&shadow_spec);
            assert!(sh.abr_qoe.is_none(), "{policy:?} shadow grew QoE");
            assert!(
                sh.abr_decisions.iter().all(|d| !d.switched),
                "{policy:?} shadow switched"
            );
        }
    }

    #[test]
    fn ladder_validation_rejects_malformed_ladders() {
        use crate::config::AbrLadderConfig;
        let base = testbed(1, quick_player());
        let mut host = SessionHost::new(ServiceSpec::testbed());

        // Empty ladder.
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::closed_loop().with_ladder(vec![]));
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidLadder { .. })
        ));

        // Unknown itag.
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::closed_loop().with_ladder(vec![18, 999]));
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidLadder { .. })
        ));

        // Non-monotone bitrates (43 is 650 kb/s, 18 is 600 kb/s).
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::closed_loop().with_ladder(vec![43, 18, 22]));
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidLadder { .. })
        ));

        // Closed-loop ladder missing the session's starting itag (22).
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::closed_loop().with_ladder(vec![18, 37]));
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidLadder { .. })
        ));

        // The same ladder is fine in shadow mode (nothing streams off 22).
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::default().with_ladder(vec![18, 37]));
        assert!(host.run(&spec).is_ok());
    }

    #[test]
    fn chaos_sessions_are_deterministic_and_pass_the_oracle() {
        use crate::chaos::{check_invariants, ChaosPlan};
        let plan = ChaosPlan::parse(
            "skew:+250ms;token-expiry:2s;outage:path=0,dir=down,from=3s,until=5s;\
             mptcp-strip:path=1,at=2s;overload:path=0,from=1s,until=8s;\
             dns-flap:path=0,from=1s,until=20s",
        )
        .unwrap();
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let clean_spec = testbed(33, quick_player());
        let spec = clean_spec.clone().with_chaos(plan);
        let a = host.run(&spec).expect("valid chaotic spec");
        let b = host.run(&spec).expect("valid chaotic spec");
        assert_eq!(a, b, "chaos must be seed-deterministic");
        let violations = check_invariants(&a);
        assert!(violations.is_empty(), "oracle violated: {violations:?}");
        // The plan actually bit: the outcome differs from the clean run.
        let clean = host.run(&clean_spec).expect("valid spec");
        assert_ne!(a, clean, "chaos plan had no observable effect");
    }

    #[test]
    fn chaos_overload_triggers_failover_and_session_survives() {
        use crate::chaos::ChaosPlan;
        let plan = ChaosPlan::parse("overload:path=0,from=1s,until=60s").unwrap();
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let spec = testbed(9, quick_player()).with_chaos(plan);
        let m = host.run(&spec).expect("valid spec");
        assert!(m.failovers[0] >= 1, "503s force a replica switch");
        assert!(m.prebuffer_done_at.is_some(), "session survives overload");
    }

    #[test]
    fn chaos_batch_matches_individual_runs() {
        use crate::chaos::ChaosPlan;
        let plan =
            ChaosPlan::parse("token-expiry:2s;outage:path=1,dir=up,from=1s,until=3s;jitter:500ms")
                .unwrap();
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let spec = testbed(0, quick_player()).with_chaos(plan);
        let seeds = [3u64, 14, 15, 92];
        let batch = host.run_batch(&seeds, &spec).expect("valid spec");
        for (i, &seed) in seeds.iter().enumerate() {
            let mut fresh = SessionHost::new(ServiceSpec::testbed());
            let single = fresh.run(&spec.clone().with_seed(seed)).expect("valid");
            assert_eq!(batch[i], single, "seed {seed} diverged under chaos");
        }
    }

    #[test]
    fn chaos_validation_rejects_out_of_range_paths() {
        use crate::chaos::ChaosPlan;
        let plan = ChaosPlan::parse("overload:path=7,from=1s,until=2s").unwrap();
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let spec = testbed(1, quick_player()).with_chaos(plan);
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidChaos { .. })
        ));
    }

    #[test]
    fn failure_storm_on_two_paths_survives() {
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let mut spec = testbed(7, quick_player()).with_stop(StopCondition::AfterRefills(1));
        spec.server_failures = vec![
            ServerFailure {
                path: 0,
                from: SimTime::from_secs(2),
                until: SimTime::from_secs(40),
            },
            ServerFailure {
                path: 1,
                from: SimTime::from_secs(5),
                until: SimTime::from_secs(45),
            },
        ];
        let m = host.run(&spec).expect("valid spec");
        let total_failovers: u32 = m.failovers.iter().sum();
        assert!(total_failovers >= 1, "storm triggered failovers");
        assert!(m.prebuffer_done_at.is_some(), "session survived the storm");
    }
}
