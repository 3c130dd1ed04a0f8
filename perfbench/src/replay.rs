//! The traced pass's per-layer replays.
//!
//! Nothing inside the program is instrumented. Instead, after a session has
//! run, the benchmark replays its recorded inputs through each layer's
//! public functions and times the calls from here:
//!
//! * `net`: `PathProfile::build` for the session's paths and seed, then the
//!   session's chunk records (path, bytes, `requested_at`) through
//!   `TcpConnection::connect`/`request` on the freshly built links, and
//!   `Link::rate_at` stepped at each path's base RTT across the session.
//! * `scheduler`: `SchedulerImpl::for_paths`, then `on_sample` +
//!   `chunk_size` per chunk record.
//! * `event`: `EventQueue` push/pop of the chunk request and completion
//!   times.
//! * `youtube`: per path, the cold DNS → watch JSON → parse → decipher →
//!   grant bootstrap on a service built from the workload's `ServiceSpec`.
//!
//! Spans (name, start, end, parent, session id) are kept in memory and
//! written out as NDJSON when the benchmark ends.

use msim_core::event::EventQueue;
use msim_core::rng::Prng;
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::ByteSize;
use msim_net::tcp::TcpConnection;
use msim_net::Link;
use msim_youtube::dns::{DnsResolver, Network};
use msim_youtube::proxy::parse_video_info;
use msim_youtube::service::{YoutubeService, PROXY_DOMAIN};
use msim_youtube::video::{Video, VideoId};
use msim_youtube::Catalog;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::scheduler::SchedulerImpl;
use msplayer_core::sim::{ServiceSpec, SessionSpec};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    session: Option<u64>,
}

/// An in-memory span log with a fixed capacity; spans past the cap are
/// counted, not stored.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

/// Handle to a span opened with [`SpanLog::open`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

impl SpanId {
    /// No parent: a top-level span.
    pub const NONE: SpanId = SpanId(None);
}

impl SpanLog {
    /// An empty log holding at most `cap` spans.
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        session: Option<u64>,
    ) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return SpanId(None);
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.0,
            session,
        };
        self.spans.push(span);
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    /// Opens a span that children can name as their parent; close it with
    /// [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, session: Option<u64>) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, session)
    }

    /// Closes a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            let end = self.ns(Instant::now());
            self.spans[i as usize].end_ns = end;
        }
    }

    /// Number of stored spans.
    pub fn stored(&self) -> usize {
        self.spans.len()
    }

    /// Spans that did not fit under the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every stored span as one NDJSON line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let session = s.session.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"session\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, session
            )?;
        }
        out.flush()
    }
}

/// Work counts and replay times summed over the traced sessions.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Sessions folded in.
    pub sessions: u64,
    /// Σ executor wall time of those sessions, ns.
    pub session_ns: f64,
    /// Σ `SessionMetrics::events`.
    pub events: u64,
    /// Σ chunk records.
    pub chunks: u64,
    /// Σ stall episodes.
    pub stalls: u64,
    /// Σ failovers over all paths.
    pub failovers: u64,
    /// Σ completed refill cycles.
    pub refills: u64,
    /// Σ ABR decisions.
    pub abr_decisions: u64,
    /// `PathProfile::build` time, ns.
    pub build_ns: f64,
    /// Chunk-record transfer replay time, ns.
    pub transfer_ns: f64,
    /// Requests replayed.
    pub requests: u64,
    /// TCP rounds those requests took.
    pub rounds: u64,
    /// Congestion events those requests saw.
    pub losses: u64,
    /// `Link::rate_at` stepping time, ns.
    pub rate_at_ns: f64,
    /// `Link::rate_at` calls.
    pub rate_at_calls: u64,
    /// Scheduler replay time, ns.
    pub sched_ns: f64,
    /// Scheduler decisions (`on_sample` + `chunk_size` pairs).
    pub decisions: u64,
    /// Event-queue replay time, ns.
    pub event_ns: f64,
    /// Event-queue pushes + pops.
    pub event_ops: u64,
    /// Cold bootstrap time, ns.
    pub boot_ns: f64,
    /// Cold bootstraps (one per path).
    pub boots: u64,
}

/// The id the emulated service's catalog serves; any valid id works since
/// the service is private to the replay.
const VIDEO_ID: &str = "qjT4T2gU9sM";

fn client_ip(network: Network) -> &'static str {
    match network {
        Network::Wifi => "203.0.113.7",
        Network::Cellular => "198.51.100.23",
        Network::Ethernet => "192.0.2.41",
    }
}

/// The control plane a workload's sessions bootstrap against, built from
/// its [`ServiceSpec`].
pub struct Bootstrapper {
    service: YoutubeService,
    video_id: VideoId,
    itag: u32,
}

impl Bootstrapper {
    /// Builds the service for `spec`.
    pub fn new(spec: &ServiceSpec) -> Bootstrapper {
        let video_id = VideoId::new(VIDEO_ID).expect("static id");
        let mut catalog = Catalog::new();
        catalog.add(Video::new(
            video_id,
            "Benchmark Stream",
            "perfbench",
            SimDuration::from_secs_f64(spec.video_secs),
            spec.copyrighted,
        ));
        Bootstrapper {
            service: YoutubeService::new(0x5e21_11ce, catalog, spec.service.clone()),
            video_id,
            itag: spec.itag,
        }
    }

    /// One cold bootstrap of a path on `network` with base RTT `rtt`.
    fn bootstrap(&mut self, network: Network, rtt: SimDuration) {
        let ip = client_ip(network);
        let mut resolver = DnsResolver::new(network);
        let (_, dns_done) = resolver
            .resolve(self.service.zone(), PROXY_DOMAIN, SimTime::ZERO, rtt)
            .expect("proxy resolvable");
        let json_done = dns_done + self.service.proxy(network).json_ready_after(rtt);
        let json = self
            .service
            .watch_request(network, self.video_id, ip, json_done)
            .expect("watch request succeeds");
        let info = parse_video_info(&json).expect("well-formed watch JSON");
        let signature = info
            .enciphered_sig
            .as_ref()
            .map(|enc| self.service.decoder_page().decipher(enc));
        let grant = self.service.grant_stream(
            self.video_id,
            ip,
            &info.token,
            signature.as_deref(),
            &[self.itag],
        );
        black_box(grant);
    }
}

fn build_links(spec: &SessionSpec) -> Vec<Link> {
    let mut rng = Prng::new(spec.seed);
    spec.paths
        .iter()
        .map(|setup| {
            let link = setup.profile.build(&mut rng);
            match &setup.outages {
                Some(outages) => link.with_outages(outages.clone()),
                None => link,
            }
        })
        .collect()
}

fn elapsed_ns(t0: Instant, t1: Instant) -> f64 {
    t1.duration_since(t0).as_nanos() as f64
}

/// Reusable per-pass replay state.
pub struct Replayer {
    queue: EventQueue<u32>,
    /// Chunk-record indices, reused across sessions.
    order: Vec<usize>,
}

impl Default for Replayer {
    fn default() -> Self {
        Replayer::new()
    }
}

impl Replayer {
    /// Fresh replay state.
    pub fn new() -> Replayer {
        Replayer {
            queue: EventQueue::new(),
            order: Vec::new(),
        }
    }

    /// Replays one finished session through every layer, adding its counts
    /// and times to `totals` and its spans to `log`.
    #[allow(clippy::too_many_arguments)]
    pub fn session(
        &mut self,
        spec: &SessionSpec,
        service: &ServiceSpec,
        boot: &mut Bootstrapper,
        m: &SessionMetrics,
        session_ns: f64,
        id: u64,
        parent: SpanId,
        totals: &mut LayerTotals,
        log: &mut SpanLog,
    ) {
        let sid = Some(id);
        let root = log.open("replay.session", parent, sid);
        totals.sessions += 1;
        totals.session_ns += session_ns;
        totals.events += m.events;
        totals.chunks += m.chunks.len() as u64;
        totals.stalls += m.stalls.len() as u64;
        totals.failovers += m.failovers.iter().map(|&f| f as u64).sum::<u64>();
        totals.refills += m.refills.len() as u64;
        totals.abr_decisions += m.abr_decisions.len() as u64;

        // net: link construction.
        let t0 = Instant::now();
        let mut links = black_box(build_links(spec));
        let t1 = Instant::now();
        totals.build_ns += elapsed_ns(t0, t1);
        log.record("net.build", t0, t1, root, sid);

        // net: the session's requests, per path in request order.
        self.order.clear();
        self.order.extend(0..m.chunks.len());
        self.order
            .sort_by_key(|&i| (m.chunks[i].path, m.chunks[i].requested_at));
        let pacing = service.service.pacing;
        let t0 = Instant::now();
        let mut k = 0;
        for (p, link) in links.iter_mut().enumerate() {
            let mut conn = TcpConnection::new(spec.paths[p].profile.tcp_config());
            if let Some(pace) = pacing {
                conn = conn.with_server_pacing(pace.burst, pace.rate);
            }
            let mut free_at = conn.connect(link, SimTime::ZERO);
            while k < self.order.len() && m.chunks[self.order[k]].path == p {
                let c = &m.chunks[self.order[k]];
                let r = conn.request(link, c.requested_at.max(free_at), ByteSize::bytes(c.bytes));
                free_at = r.completed_at;
                totals.requests += 1;
                totals.rounds += r.rounds as u64;
                totals.losses += r.losses as u64;
                k += 1;
            }
        }
        let t1 = Instant::now();
        totals.transfer_ns += elapsed_ns(t0, t1);
        log.record("net.transfer", t0, t1, root, sid);

        // net: rate processes stepped at the base RTT on fresh links.
        let end = m.ended_at.unwrap_or(SimTime::ZERO);
        let mut links = build_links(spec);
        let t0 = Instant::now();
        for link in &mut links {
            let step = link.base_rtt();
            if step.is_zero() {
                continue;
            }
            let mut t = SimTime::ZERO;
            while t <= end {
                black_box(link.rate_at(t));
                totals.rate_at_calls += 1;
                t += step;
            }
        }
        let t1 = Instant::now();
        totals.rate_at_ns += elapsed_ns(t0, t1);
        log.record("net.rate_at", t0, t1, root, sid);

        // scheduler + estimator: one decision per chunk record.
        let t0 = Instant::now();
        let mut sched = SchedulerImpl::for_paths(&spec.player, spec.paths.len());
        for c in &m.chunks {
            sched.on_sample(c.path, c.goodput_bps);
            black_box(sched.chunk_size(c.path));
        }
        let t1 = Instant::now();
        totals.sched_ns += elapsed_ns(t0, t1);
        totals.decisions += m.chunks.len() as u64;
        log.record("scheduler.replay", t0, t1, root, sid);

        // event: request instants drive pops, completions are pushed.
        self.order
            .sort_by_key(|&i| (m.chunks[i].requested_at, m.chunks[i].path));
        let queue = &mut self.queue;
        let t0 = Instant::now();
        queue.reset();
        for &i in &self.order {
            let c = &m.chunks[i];
            while queue.peek_time().is_some_and(|t| t <= c.requested_at) {
                black_box(queue.pop());
            }
            queue.push(c.completed_at, i as u32);
        }
        while let Some(ev) = queue.pop() {
            black_box(ev);
        }
        let t1 = Instant::now();
        let ops = queue.op_counts();
        totals.event_ns += elapsed_ns(t0, t1);
        totals.event_ops += ops.pushes + ops.pops;
        log.record("event.replay", t0, t1, root, sid);

        // youtube: a cold bootstrap per path.
        for (setup, link) in spec.paths.iter().zip(&links) {
            let t0 = Instant::now();
            boot.bootstrap(setup.network, link.base_rtt());
            let t1 = Instant::now();
            totals.boot_ns += elapsed_ns(t0, t1);
            totals.boots += 1;
            log.record("youtube.bootstrap", t0, t1, root, sid);
        }
        log.close(root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_log_keeps_parents_and_caps_its_size() {
        let mut log = SpanLog::new(2);
        let root = log.open("root", SpanId::NONE, Some(3));
        let t = Instant::now();
        log.record("child", t, t, root, Some(3));
        log.record("dropped", t, t, root, Some(3));
        log.close(root);
        assert_eq!(log.stored(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.spans[0].end_ns >= log.spans[0].start_ns);
    }
}
