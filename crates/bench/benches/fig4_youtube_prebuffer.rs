//! Fig. 4 — pre-buffering 20/40/60 s of video over the YouTube service
//! profile: single-path WiFi, single-path LTE (commercial players, one
//! large range request) vs MSPlayer (Harmonic, 256 KB initial chunks).
//!
//! Paper: MSPlayer reduces start-up delay by 12 %, 21 %, 28 % for 20, 40,
//! 60 s pre-buffering vs the best single-path technology; the reduction
//! *grows* with the pre-buffer amount because fixed control-plane latency
//! amortises while bandwidth aggregation keeps paying.

use msim_core::report::{figures_dir, BoxPanel, Table};
use msim_core::stats::median;
use msplayer_bench::*;
use msplayer_core::config::SchedulerKind;
use msplayer_core::sim::{youtube_paths, ServiceSpec};

fn main() {
    println!(
        "Fig. 4 — pre-buffering over the YouTube service profile ({} runs)\n",
        runs()
    );
    let mut table = Table::new(&[
        "prebuffer (s)",
        "player",
        "median (s)",
        "q1",
        "q3",
        "reduction vs best single",
    ]);

    // MSPlayer streams over both paths, the single-path players over one.
    let (service, paths) = (ServiceSpec::youtube(), youtube_paths());
    for pb in [20.0, 40.0, 60.0] {
        let wifi = prebuffer_times(&service, &session(&paths[..1], commercial(256)), pb);
        let lte = prebuffer_times(&service, &session(&paths[1..], commercial(256)), pb);
        let ms = prebuffer_times(
            &service,
            &session(&paths, msplayer(SchedulerKind::Harmonic, 256)),
            pb,
        );

        let mut panel = BoxPanel::new(
            &format!("{pb:.0} s pre-buffering"),
            "Download Time (sec)",
            56,
        );
        panel.add("WiFi", boxstats(&wifi));
        panel.add("LTE", boxstats(&lte));
        panel.add("MSPlayer", boxstats(&ms));
        println!("{}", panel.render());

        let best = median(&wifi).min(median(&lte));
        for (label, sample) in [("WiFi", &wifi), ("LTE", &lte), ("MSPlayer", &ms)] {
            let b = boxstats(sample);
            let reduction = if label == "MSPlayer" {
                format!("{:.0} %", 100.0 * (1.0 - b.median / best))
            } else {
                "-".to_string()
            };
            table.row(&[
                &format!("{pb:.0}"),
                label,
                &format!("{:.2}", b.median),
                &format!("{:.2}", b.q1),
                &format!("{:.2}", b.q3),
                &reduction,
            ]);
        }
    }
    println!("{}", table.render());
    println!("\n(paper reductions: 12 % / 21 % / 28 % for 20 / 40 / 60 s)");

    let csv_path = figures_dir().join("fig4_youtube_prebuffer.csv");
    table.write_csv(&csv_path).expect("write CSV");
    println!("[csv] {}", csv_path.display());
}
