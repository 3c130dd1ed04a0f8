//! Calibration scratchpad: prints the key medians the paper reports.
use msim_core::stats::median;
use msplayer_bench::*;
use msplayer_core::config::SchedulerKind;
use msplayer_core::sim::{testbed_paths, youtube_paths, ServiceSpec};

fn main() {
    std::env::set_var("MSP_RUNS", std::env::var("MSP_RUNS").unwrap_or("10".into()));
    // Paths [..1] are WiFi alone, [1..] LTE alone, the whole pair MSPlayer.
    let (testbed, tb_paths) = (ServiceSpec::testbed(), testbed_paths());
    let (youtube, yt_paths) = (ServiceSpec::youtube(), youtube_paths());

    // Fig 2: testbed, 40 s prebuffer, Ratio 1MB for msplayer; single paths commercial one-shot.
    let ms = prebuffer_times(
        &testbed,
        &session(&tb_paths, msplayer(SchedulerKind::Ratio, 1024)),
        40.0,
    );
    let wifi = prebuffer_times(&testbed, &session(&tb_paths[..1], commercial(1024)), 40.0);
    let lte = prebuffer_times(&testbed, &session(&tb_paths[1..], commercial(1024)), 40.0);
    println!(
        "FIG2 medians: msplayer={:.2} wifi={:.2} lte={:.2} (paper: 6.9 / 10.9 / ~13)",
        median(&ms),
        median(&wifi),
        median(&lte)
    );
    println!(
        "  reduction vs best single path: {:.0}% (paper 37%)",
        100.0 * (1.0 - median(&ms) / median(&wifi).min(median(&lte)))
    );

    // Fig 4: youtube, prebuffer 20/40/60, harmonic 256KB.
    for pb in [20.0, 40.0, 60.0] {
        let ms = prebuffer_times(
            &youtube,
            &session(&yt_paths, msplayer(SchedulerKind::Harmonic, 256)),
            pb,
        );
        let wifi = prebuffer_times(&youtube, &session(&yt_paths[..1], commercial(256)), pb);
        let lte = prebuffer_times(&youtube, &session(&yt_paths[1..], commercial(256)), pb);
        let best = median(&wifi).min(median(&lte));
        println!(
            "FIG4 pb={pb}: ms={:.2} wifi={:.2} lte={:.2} reduction={:.0}% (paper 12/21/28%)",
            median(&ms),
            median(&wifi),
            median(&lte),
            100.0 * (1.0 - median(&ms) / best)
        );
    }

    // Fig 3 snapshot: 40s prebuffer across chunk sizes / schedulers.
    for kind in [
        SchedulerKind::Harmonic,
        SchedulerKind::Ewma,
        SchedulerKind::Ratio,
    ] {
        let mut row = format!("FIG3 {:>8} pb=40:", kind.name());
        for kb in [16, 64, 256, 1024] {
            let t = prebuffer_times(&testbed, &session(&tb_paths, msplayer(kind, kb)), 40.0);
            let b = boxstats(&t);
            row += &format!("  {}KB={:.1}(iqr {:.1})", kb, b.median, b.iqr());
        }
        println!("{row}");
    }

    // Table 1 snapshot.
    let ms_youtube = session(&yt_paths, msplayer(SchedulerKind::Harmonic, 256));
    let (pre, re) = wifi_fractions(&youtube, &ms_youtube, 40.0, 2);
    println!(
        "TABLE1 wifi% pre: mean={:.1} re: mean={:.1} (paper ~60-64 / ~56-62)",
        pre.iter().sum::<f64>() / pre.len().max(1) as f64,
        re.iter().sum::<f64>() / re.len().max(1) as f64
    );

    // Fig 5 snapshot: refill 20s.
    for (label, paths, cfg) in [
        ("wifi-64K", &yt_paths[..1], commercial(64)),
        ("wifi-256K", &yt_paths[..1], commercial(256)),
        ("lte-64K", &yt_paths[1..], commercial(64)),
        ("lte-256K", &yt_paths[1..], commercial(256)),
        (
            "msplayer",
            &yt_paths[..],
            msplayer(SchedulerKind::Harmonic, 256),
        ),
    ] {
        let t = rebuffer_times(&youtube, &session(paths, cfg), 20.0, 2);
        println!("FIG5 refill=20s {label}: median={:.2}", median(&t));
    }
}
