//! Compare the three chunk schedulers of §3.3 (Ratio baseline, DCSA+EWMA,
//! DCSA+Harmonic) head-to-head on identical seeded link conditions.
//!
//! Showcases the batch API: one [`SessionHost`] is built per service
//! profile and every (scheduler × chunk × seed) cell runs over it via
//! [`SessionHost::run_batch`] — the control-plane bootstrap is paid once,
//! not `schedulers × chunks × seeds` times, and results are bit-identical
//! to sessions on independent one-shot hosts.
//!
//! ```sh
//! cargo run --release --example scheduler_comparison
//! ```

use msplayer::core::config::{PlayerConfig, SchedulerKind};
use msplayer::core::sim::{testbed_paths, ServiceSpec, SessionHost, SessionSpec};
use msplayer::simcore::report::Table;
use msplayer::simcore::stats::{median, Running};
use msplayer::simcore::units::ByteSize;

fn main() {
    let runs = 15;
    let prebuffer = 40.0;
    println!(
        "Scheduler comparison: {prebuffer:.0} s pre-buffer on the emulated testbed, {runs} seeds\n"
    );

    // One warmed host for the whole grid — every cell below shares the
    // same emulated service.
    let mut host = SessionHost::new(ServiceSpec::testbed());
    let seeds: Vec<u64> = (0..runs).collect();

    let mut table = Table::new(&[
        "scheduler",
        "initial chunk",
        "median (s)",
        "mean ± std (s)",
        "worst (s)",
    ]);
    for kind in [
        SchedulerKind::Harmonic,
        SchedulerKind::Ewma,
        SchedulerKind::Ratio,
    ] {
        for chunk_kb in [64u64, 256, 1024] {
            let cfg = PlayerConfig::msplayer()
                .with_scheduler(kind)
                .with_initial_chunk(ByteSize::kb(chunk_kb))
                .with_prebuffer_secs(prebuffer);
            // Stops when the pre-buffer is done (the `SessionSpec` default).
            let spec = SessionSpec::new(0, testbed_paths().into(), cfg);
            let batch = host.run_batch(&seeds, &spec).expect("valid spec");

            let mut stats = Running::new();
            let mut samples = Vec::new();
            for m in &batch {
                let t = m.prebuffer_time().expect("completes").as_secs_f64();
                stats.push(t);
                samples.push(t);
            }
            table.row(&[
                kind.name(),
                &ByteSize::kb(chunk_kb).to_string(),
                &format!("{:.2}", median(&samples)),
                &stats.mean_pm_std(),
                &format!("{:.2}", stats.max()),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "\nExpected shape (paper Fig. 3): larger initial chunks are faster;\n\
         the Ratio baseline trails the dynamic schedulers and is the most variable;\n\
         Harmonic edges out EWMA because outlier samples barely move its estimate."
    );
}
