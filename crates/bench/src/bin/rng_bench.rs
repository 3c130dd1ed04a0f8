//! `rng_bench` — micro benchmarks of the vectorized sampling engine.
//!
//! Two families of patterns, each measured on the production block-fill
//! path *and* the scalar-reference path (the differential comparator the
//! frozen corpus replays against):
//!
//! * **deviate draws** — ns per [`DrawTable::next`] for each
//!   [`DrawKind`], i.e. the raw cost of a normal / log-normal /
//!   exponential / Pareto deviate with the transcendentals amortised
//!   across a block versus paid per scalar draw;
//! * **jittered link rounds** — ns per simulated TCP round against a
//!   testbed-profile [`Link`] (log-normal RTT jitter draw + OU/Markov/
//!   burst rate sample + loss draw per round), the composite the sampling
//!   engine was built to accelerate.
//!
//! Every pattern asserts block/scalar bit-identity over its draw stream
//! before timing — a divergence makes the bench unusable as a comparison,
//! so it aborts rather than reporting apples-to-oranges numbers.
//!
//! Writes `BENCH_rng.json` (pattern-comparison schema plus
//! `stream_epoch`) into [`bench_dir`] for `bench_report`.

use msim_core::rng::{DeviateMode, DrawKind, DrawTable, Prng, STREAM_EPOCH};
use msim_core::time::SimTime;
use msim_net::profile::PathProfile;
use msplayer_bench::sweep::bench_dir;
use std::time::Instant;

/// Draws per timing repetition — large enough to amortise table refills
/// at every ramp stage (the steady-state block is 64 deviates).
const DRAWS: u64 = 200_000;

/// Simulated rounds per timing repetition for the link pattern.
const ROUNDS: u64 = 100_000;

/// Best-of-7 ns/op (minimum over repeats suppresses scheduler noise —
/// same guardrail measure as the other micro benches).
fn best_ns_per_op<F: FnMut() -> u64>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        let ops = f();
        let ns = t0.elapsed().as_nanos() as f64 / ops.max(1) as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Sums `DRAWS` deviates from a fresh table in `mode`. The sum is both
/// the optimizer sink and the cross-mode identity check: equal sums of
/// equal-length streams of identical bits.
fn draw_sum(kind: DrawKind, mode: DeviateMode) -> f64 {
    let mut table = DrawTable::new(Prng::new(0xD5AA), kind, mode);
    let mut sum = 0.0;
    for _ in 0..DRAWS {
        sum += table.draw();
    }
    sum
}

/// One deviate-draw pattern: assert identity, then time both modes.
fn deviate_pattern(name: &'static str, kind: DrawKind) -> (String, f64, f64) {
    let block_sum = draw_sum(kind, DeviateMode::Block);
    let scalar_sum = draw_sum(kind, DeviateMode::ScalarRef);
    assert!(
        block_sum.to_bits() == scalar_sum.to_bits(),
        "{name}: block/scalar streams diverge — fix the engine before benchmarking it"
    );
    let block = best_ns_per_op(|| {
        std::hint::black_box(draw_sum(kind, DeviateMode::Block));
        DRAWS
    });
    let scalar = best_ns_per_op(|| {
        std::hint::black_box(draw_sum(kind, DeviateMode::ScalarRef));
        DRAWS
    });
    (format!("deviate_{name}"), scalar, block)
}

/// Runs `ROUNDS` jittered link rounds (RTT jitter draw, rate sample, loss
/// draw — the per-round sampling of the TCP round loop) and folds the
/// samples into a checksum.
fn link_rounds(mode: DeviateMode) -> f64 {
    let profile = PathProfile::wifi_testbed().with_deviate_mode(mode);
    let mut rng = Prng::new(0x11A7);
    let mut link = profile.build(&mut rng);
    let mut sum = 0.0;
    let mut t = SimTime::ZERO;
    for _ in 0..ROUNDS {
        let rtt = link.rtt_at(t);
        sum += rtt.as_secs_f64();
        sum += link.rate_at(t).as_mbps();
        sum += link.random_loss() as u64 as f64;
        t += rtt;
    }
    sum
}

fn main() {
    println!("rng_bench: block-fill sampling engine vs scalar-reference path");

    let mut rows: Vec<(String, f64, f64)> = vec![
        deviate_pattern("normal", DrawKind::Normal),
        deviate_pattern(
            "lognormal",
            DrawKind::LognormalMult {
                mu: -0.02,
                sigma: 0.2,
            },
        ),
        deviate_pattern("exponential", DrawKind::ExpUnit),
        deviate_pattern("pareto", DrawKind::ParetoUnit { alpha: 1.2 }),
    ];

    let block_sum = link_rounds(DeviateMode::Block);
    let scalar_sum = link_rounds(DeviateMode::ScalarRef);
    assert!(
        block_sum.to_bits() == scalar_sum.to_bits(),
        "link rounds: block/scalar sessions diverge"
    );
    let block = best_ns_per_op(|| {
        std::hint::black_box(link_rounds(DeviateMode::Block));
        ROUNDS
    });
    let scalar = best_ns_per_op(|| {
        std::hint::black_box(link_rounds(DeviateMode::ScalarRef));
        ROUNDS
    });
    rows.push(("jittered_link_rounds".to_string(), scalar, block));

    let mut patterns_json = Vec::new();
    for (name, scalar_ns, block_ns) in &rows {
        let speedup = scalar_ns / block_ns.max(1e-12);
        println!(
            "{name:<28} block {block_ns:>7.1} ns/op   scalar {scalar_ns:>7.1} ns/op   speedup {speedup:>5.2}x"
        );
        patterns_json.push(
            msim_json::Value::object()
                .with("pattern", name.as_str())
                .with("block_ns_per_op", *block_ns)
                .with("scalar_ns_per_op", *scalar_ns)
                .with("speedup", speedup),
        );
    }

    let json = msim_json::Value::object()
        .with("name", "rng")
        .with("stream_epoch", STREAM_EPOCH as u64)
        .with("patterns", msim_json::Value::Array(patterns_json));
    let path = bench_dir().join("BENCH_rng.json");
    std::fs::write(&path, msim_json::to_string_pretty(&json)).expect("write bench json");
    println!("[bench] {}", path.display());
}
