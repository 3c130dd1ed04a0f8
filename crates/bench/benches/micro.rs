//! Criterion micro-benchmarks: performance guardrails on the hot paths of
//! the library (estimator updates, scheduler decisions, event queue,
//! JSON, HTTP codec, TCP transfer model, full sessions).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use msim_core::event::EventQueue;
use msim_core::rng::Prng;
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::ByteSize;
use msplayer_core::config::{PlayerConfig, SchedulerKind};
use msplayer_core::estimator::{BandwidthEstimator, Ewma, HarmonicInc};
use msplayer_core::scheduler::{build_scheduler, SchedulerImpl};
use msplayer_core::sim::{testbed_paths, ServiceSpec, SessionHost, SessionSpec};

fn bench_estimators(c: &mut Criterion) {
    c.bench_function("estimator/harmonic_inc_update", |b| {
        let mut est = HarmonicInc::new();
        let mut x = 1.0e6;
        b.iter(|| {
            x = x * 1.000001 + 13.0;
            est.update(black_box(x));
            black_box(est.estimate_bps())
        });
    });
    c.bench_function("estimator/ewma_update", |b| {
        let mut est = Ewma::new(0.9);
        let mut x = 1.0e6;
        b.iter(|| {
            x = x * 1.000001 + 13.0;
            est.update(black_box(x));
            black_box(est.estimate_bps())
        });
    });
}

fn bench_scheduler(c: &mut Criterion) {
    // Enum dispatch (what the player uses): on_sample + chunk_size are
    // direct, inlinable calls.
    c.bench_function("scheduler/dcsa_harmonic_on_sample", |b| {
        let cfg = PlayerConfig::default();
        let mut s = SchedulerImpl::from_config(&cfg);
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(1);
            s.on_sample(i & 1, black_box(8.0e6 + (i % 100) as f64 * 1e4));
            black_box(s.chunk_size(i & 1))
        });
    });
    // Boxed trait-object dispatch, kept as the before/after comparator for
    // the enum refactor.
    c.bench_function("scheduler/dcsa_harmonic_on_sample_boxed", |b| {
        let cfg = PlayerConfig::default();
        let mut s = build_scheduler(&cfg);
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(1);
            s.on_sample(i & 1, black_box(8.0e6 + (i % 100) as f64 * 1e4));
            black_box(s.chunk_size(i & 1))
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter_batched(
            EventQueue::<u32>::new,
            |mut q| {
                for i in 0..1000u32 {
                    q.push(
                        SimTime::from_micros(((i * 7919) % 10_000) as u64 + 10_000),
                        i,
                    );
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        );
    });
    // Cancellation-heavy schedule: the simulator cancels timers (ticks,
    // timeouts) constantly; this is the path the slab queue makes O(1).
    c.bench_function("event_queue/push_cancel_pop_1k", |b| {
        b.iter_batched(
            EventQueue::<u32>::new,
            |mut q| {
                let mut ids = Vec::with_capacity(1000);
                for i in 0..1000u32 {
                    ids.push(q.push(
                        SimTime::from_micros(((i * 7919) % 10_000) as u64 + 10_000),
                        i,
                    ));
                }
                // Cancel two of every three events, newest first.
                for (k, id) in ids.into_iter().enumerate().rev() {
                    if k % 3 != 0 {
                        black_box(q.cancel(id));
                    }
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        );
    });
    // Steady-state interleave: the simulator's actual access pattern is a
    // rolling horizon of pushes/pops, not bulk fill-drain.
    c.bench_function("event_queue/interleaved_steady_state", |b| {
        let mut q = EventQueue::<u32>::new();
        for i in 0..64u32 {
            q.push(SimTime::from_micros(i as u64 * 13 + 1_000_000), i);
        }
        let mut i = 64u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let (t, e) = q.pop().expect("queue never drains");
            q.push(
                t + SimDuration::from_micros(((e as u64 * 7919) % 997) + 1),
                i,
            );
            black_box(t)
        });
    });
    // The near-horizon timer pattern at scale: thousands of pending timers
    // (many multiplexed sessions), every reschedule within the rolling
    // horizon.
    c.bench_function("event_queue/near_horizon_steady_state_4k", |b| {
        let mut q = EventQueue::<u32>::new();
        for i in 0..4096u32 {
            q.push(SimTime::from_micros(i as u64 * 211 + 1_000_000), i);
        }
        let mut i = 4096u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let (t, e) = q.pop().expect("queue never drains");
            q.push(
                t + SimDuration::from_micros(((e as u64 * 7919) % 863_557) + 1),
                i,
            );
            black_box(t)
        });
    });
}

fn bench_json(c: &mut Criterion) {
    let doc = {
        let mut v = msim_json::Value::object();
        for i in 0..50u64 {
            v = v.with(
                &format!("key{i:02}"),
                msim_json::Value::object()
                    .with("itag", i)
                    .with("quality", "720p")
                    .with("size", i * 1_000_003),
            );
        }
        msim_json::to_string(&v)
    };
    c.bench_function("json/parse_5kB_doc", |b| {
        b.iter(|| black_box(msim_json::from_str(black_box(&doc)).unwrap()));
    });
}

fn bench_http_codec(c: &mut Criterion) {
    let resp = msim_http::Response::partial_content(
        vec![7u8; 256 * 1024],
        msim_http::ByteRange::from_offset_len(0, 256 * 1024),
        10_000_000,
    );
    let wire = msim_http::encode_response(&resp);
    c.bench_function("http/decode_256kB_response", |b| {
        b.iter(
            || match msim_http::decode_response(black_box(&wire)).unwrap() {
                msim_http::Decoded::Complete { message, .. } => black_box(message.body.len()),
                msim_http::Decoded::NeedMore => unreachable!(),
            },
        );
    });
}

fn bench_tcp_model(c: &mut Criterion) {
    c.bench_function("tcp/1MB_transfer_simulation", |b| {
        b.iter(|| {
            let mut link = msim_net::Link::new(
                "bench",
                msim_core::process::Constant(10.0),
                SimDuration::from_millis(30),
                0.1,
                0.001,
                Prng::new(7),
            );
            let mut conn = msim_net::TcpConnection::new(msim_net::TcpConfig::default());
            let ready = conn.connect(&mut link, SimTime::ZERO);
            black_box(conn.request(&mut link, ready, ByteSize::mb(1)))
        });
    });
    // A long transfer on a stable (jitter-free, loss-free) link: every
    // round runs the same slow-start/CUBIC arithmetic with no draws.
    c.bench_function("tcp/stable_4MB_transfer", |b| {
        b.iter(|| {
            let mut link = msim_net::Link::new(
                "bench",
                msim_core::process::Constant(10.0),
                SimDuration::from_millis(20),
                0.0,
                0.0,
                Prng::new(7),
            );
            let mut conn = msim_net::TcpConnection::new(msim_net::TcpConfig::default());
            let ready = conn.connect(&mut link, SimTime::ZERO);
            black_box(conn.request(&mut link, ready, ByteSize::mb(4)))
        });
    });
}

fn bench_full_session(c: &mut Criterion) {
    c.bench_function("session/testbed_prebuffer_10s", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let cfg = PlayerConfig::msplayer()
                .with_scheduler(SchedulerKind::Harmonic)
                .with_prebuffer_secs(10.0);
            // A one-shot host per session: bootstrap cost included.
            let spec = SessionSpec::new(seed, testbed_paths().into(), cfg);
            black_box(SessionHost::new(ServiceSpec::testbed()).run(&spec))
        });
    });
}

criterion_group!(
    benches,
    bench_estimators,
    bench_scheduler,
    bench_event_queue,
    bench_json,
    bench_http_codec,
    bench_tcp_model,
    bench_full_session,
);
criterion_main!(benches);
