//! Cross-crate property-based tests: invariants that must hold for *any*
//! configuration, seed, or message content.

use msplayer::core::config::{GammaRounding, PlayerConfig, SchedulerKind};
use msplayer::core::metrics::SessionMetrics;
use msplayer::core::metrics::TrafficPhase;
use msplayer::core::sim::{testbed_paths, ServiceSpec, SessionHost, SessionSpec, StopCondition};
use msplayer::simcore::units::ByteSize;
use proptest::prelude::*;

/// Runs `player` over the testbed's WiFi + LTE paths on a fresh host.
fn run_testbed(seed: u64, player: PlayerConfig, stop: StopCondition) -> SessionMetrics {
    let session = SessionSpec::new(seed, testbed_paths().into(), player).with_stop(stop);
    SessionHost::new(ServiceSpec::testbed())
        .run(&session)
        .expect("valid spec")
}

fn scheduler_strategy() -> impl Strategy<Value = SchedulerKind> {
    prop::sample::select(vec![
        SchedulerKind::Harmonic,
        SchedulerKind::Ewma,
        SchedulerKind::Ratio,
        SchedulerKind::HarmonicWindowed,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // full sessions are not free; two dozen random configs
        ..ProptestConfig::default()
    })]

    /// Any (seed, scheduler, chunk size, watermark, γ-mode) combination
    /// yields a session that terminates, reaches its pre-buffer target, and
    /// reports self-consistent metrics.
    #[test]
    fn random_configs_stream_successfully(
        seed in 0u64..1_000_000,
        kind in scheduler_strategy(),
        chunk_kb in prop::sample::select(vec![16u64, 64, 128, 256, 512, 1024]),
        prebuffer in 5.0f64..30.0,
        ooo_cap in 0usize..4,
        gamma_ceil in any::<bool>(),
    ) {
        let mut cfg = PlayerConfig::msplayer()
            .with_scheduler(kind)
            .with_initial_chunk(ByteSize::kb(chunk_kb))
            .with_prebuffer_secs(prebuffer);
        cfg.ooo_cap = ooo_cap;
        cfg.gamma_rounding = if gamma_ceil { GammaRounding::Ceil } else { GammaRounding::Exact };
        let m = run_testbed(seed, cfg, StopCondition::PrebufferDone);

        // Terminates with the target reached.
        let t = m.prebuffer_time().expect("prebuffer reached");
        prop_assert!(t.as_secs_f64() > 0.0);
        prop_assert!(t.as_secs_f64() < 600.0, "absurd time {t}");

        // Chunk accounting is self-consistent.
        let total: u64 = m.chunks.iter().map(|c| c.bytes).sum();
        let target = prebuffer * 312_500.0;
        prop_assert!(total as f64 >= target * 0.98, "fetched {total} of {target}");
        for c in &m.chunks {
            prop_assert!(c.bytes > 0);
            prop_assert!(c.completed_at >= c.requested_at);
            prop_assert!(c.goodput_bps > 0.0);
            prop_assert!(c.path < 2);
        }

        // First bytes happen before completions.
        for path in 0..2 {
            if let Some(fb) = m.first_byte_at[path] {
                let first_completion = m
                    .chunks
                    .iter()
                    .filter(|c| c.path == path)
                    .map(|c| c.completed_at)
                    .min()
                    .expect("path with first byte has chunks");
                prop_assert!(fb <= first_completion);
            }
        }
    }

    /// Traffic fractions are probabilities summing to 1 whenever a phase
    /// saw traffic, for random steady-state sessions.
    #[test]
    fn traffic_split_is_consistent(
        seed in 0u64..100_000,
        kind in scheduler_strategy(),
    ) {
        let cfg = PlayerConfig::msplayer()
            .with_scheduler(kind)
            .with_prebuffer_secs(10.0);
        let m = run_testbed(seed, cfg, StopCondition::AfterRefills(1));
        for phase in [TrafficPhase::PreBuffering, TrafficPhase::ReBuffering] {
            if let (Some(f0), Some(f1)) =
                (m.traffic_fraction(0, phase), m.traffic_fraction(1, phase))
            {
                prop_assert!((0.0..=1.0).contains(&f0));
                prop_assert!((f0 + f1 - 1.0).abs() < 1e-9);
            }
        }
    }

    /// The emulated YouTube JSON round-trips through text for arbitrary
    /// catalog content.
    #[test]
    fn video_info_json_roundtrips(
        seed in any::<u64>(),
        title in "[a-zA-Z0-9 \\-_.]{1,40}",
        author in "[a-z0-9\\-]{1,20}",
        duration_secs in 30.0f64..3600.0,
        copyrighted in any::<bool>(),
    ) {
        use msplayer::youtube::*;
        use msplayer::simcore::time::{SimDuration, SimTime};

        let mut rng = msplayer::simcore::rng::Prng::new(seed);
        let id = VideoId::generate(&mut rng);
        let mut catalog = Catalog::new();
        catalog.add(Video::new(id, title.clone(), author.clone(),
            SimDuration::from_secs_f64(duration_secs), copyrighted));
        let mut service = YoutubeService::new(seed, catalog, ServiceConfig::default());
        let json = service
            .watch_request(Network::Wifi, id, "203.0.113.7", SimTime::from_secs(1))
            .expect("watch ok");
        // Value → text → Value → VideoInfo
        let text = msplayer::json::to_string(&json);
        let back = msplayer::json::from_str(&text).expect("parses");
        let info = parse_video_info(&back).expect("decodes");
        prop_assert_eq!(info.video_id, id.as_str());
        prop_assert_eq!(info.title, title);
        prop_assert_eq!(info.author, author);
        prop_assert_eq!(info.copyrighted, copyrighted);
        prop_assert_eq!(info.enciphered_sig.is_some(), copyrighted);
        prop_assert!(!info.server_domains.is_empty());

        // The signature flow authorises exactly when deciphered.
        if copyrighted {
            let enc = info.enciphered_sig.clone().unwrap();
            let sig = service.decoder_page().decipher(&enc);
            let addr = service.server_by_domain(&info.server_domains[0]).unwrap().addr;
            prop_assert!(service
                .check_range_request(addr, SimTime::from_secs(1), id, "203.0.113.7", &info.token, Some(&sig), 22)
                .is_ok());
            prop_assert!(service
                .check_range_request(addr, SimTime::from_secs(1), id, "203.0.113.7", &info.token, Some(&enc), 22)
                .is_err());
        }
    }

    /// HTTP request/response wire roundtrip for arbitrary ranges and bodies.
    #[test]
    fn http_wire_roundtrips(
        start in 0u64..10_000_000,
        len in 1u64..100_000,
        body_len in 0usize..10_000,
        status in prop::sample::select(vec![200u16, 206, 403, 404, 500, 503]),
    ) {
        use msplayer::http::*;
        let range = ByteRange::from_offset_len(start, len);
        let req = Request::get("/videoplayback?id=x").with_range(range);
        let wire = encode_request(&req);
        match decode_request(&wire).unwrap() {
            Decoded::Complete { message, consumed } => {
                prop_assert_eq!(consumed, wire.len());
                prop_assert_eq!(message.range().unwrap().unwrap(), range);
            }
            Decoded::NeedMore => prop_assert!(false, "complete request not decoded"),
        }
        let body: Vec<u8> = (0..body_len).map(|i| (i % 251) as u8).collect();
        let resp = Response::new(StatusCode(status), body.clone());
        let wire = encode_response(&resp);
        match decode_response(&wire).unwrap() {
            Decoded::Complete { message, consumed } => {
                prop_assert_eq!(consumed, wire.len());
                prop_assert_eq!(message.status.0, status);
                prop_assert_eq!(&message.body[..], &body[..]);
            }
            Decoded::NeedMore => prop_assert!(false, "complete response not decoded"),
        }
    }
}
