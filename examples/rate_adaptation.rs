//! The §7 future-work extension in action: DASH-style bitrate adaptation
//! driven by MSPlayer's aggregate (two-path) harmonic bandwidth estimates.
//!
//! A session is simulated on the YouTube profile; the chunk-level goodput
//! samples from both paths feed per-path harmonic estimators, and the
//! adapter re-decides the itag at every refill boundary.
//!
//! ```sh
//! cargo run --release --example rate_adaptation
//! ```

use msplayer::core::adaptation::{AdaptationConfig, RateAdapter, SwitchReason};
use msplayer::core::config::PlayerConfig;
use msplayer::core::estimator::{BandwidthEstimator, HarmonicInc};
use msplayer::core::sim::{youtube_paths, ServiceSpec, SessionHost, SessionSpec, StopCondition};
use msplayer::simcore::units::BitRate;
use msplayer::youtube::ITAGS;

fn main() {
    // Stream a long session to collect realistic per-chunk samples.
    let session = SessionSpec::new(31, youtube_paths().into(), PlayerConfig::msplayer())
        .with_stop(StopCondition::AfterRefills(6));
    let metrics = SessionHost::new(ServiceSpec::youtube())
        .run(&session)
        .expect("valid session");

    let mut estimators = [HarmonicInc::new(), HarmonicInc::new()];
    let mut adapter = RateAdapter::new(AdaptationConfig::default(), ITAGS.to_vec());

    println!(
        "itag ladder: {:?}\n",
        ITAGS.iter().map(|f| f.quality_label).collect::<Vec<_>>()
    );
    println!("time     aggregate est.   buffer   decision");
    println!("-------  ---------------  -------  -----------------------------");

    // Re-decide after every 8 completed chunks (≈ once per refill window).
    let mut since_last = 0;
    for (i, chunk) in metrics.chunks.iter().enumerate() {
        estimators[chunk.path].update(chunk.goodput_bps);
        since_last += 1;
        if since_last < 8 {
            continue;
        }
        since_last = 0;
        let aggregate = BitRate::bps(
            estimators[0].estimate_bps().unwrap_or(0.0)
                + estimators[1].estimate_bps().unwrap_or(0.0),
        );
        // Proxy for the buffer level at this instant: seconds of video
        // fetched minus seconds elapsed.
        let fetched_secs = metrics.chunks[..=i]
            .iter()
            .map(|c| c.bytes as f64)
            .sum::<f64>()
            / 312_500.0;
        let elapsed = chunk.completed_at.as_secs_f64();
        let buffer = (fetched_secs - elapsed).max(0.0);
        let (format, reason) = adapter.decide(aggregate, buffer);
        let marker = match reason {
            SwitchReason::RateUp => "▲",
            SwitchReason::RateDown | SwitchReason::BufferPanic => "▼",
            _ => " ",
        };
        println!(
            "{:>6.2}s  {:>13}  {:>6.1}s  {} {:>5} ({:?})",
            elapsed,
            format!("{aggregate}"),
            buffer,
            marker,
            format.quality_label,
            reason,
        );
    }
    println!(
        "\nfinal quality: {} at {} — chosen from two-path aggregate bandwidth\n\
         (the paper streams fixed 720p; this module is its §7 'rate adaption' future work)",
        adapter.current().quality_label,
        adapter.current().bitrate,
    );
}
