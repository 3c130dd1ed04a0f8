//! Ablations — the design choices DESIGN.md calls out, each swept in
//! isolation on the emulated testbed (40 s pre-buffer, Harmonic/256 KB
//! unless the ablation says otherwise):
//!
//! 1. out-of-order chunk cap (§2: "at most one out-of-order chunk");
//! 2. throughput variation parameter δ (Alg. 1; paper uses 5 %);
//! 3. EWMA weight α (Eq. 1; paper uses 0.9);
//! 4. full-history incremental harmonic mean (Eq. 2) vs sliding window;
//! 5. fast-path head start on/off (§3.2);
//! 6. γ rounding: exact proportional vs Alg. 1's literal ⌈·⌉;
//! 7. source diversity: two real paths vs one fat path of the same total
//!    capacity;
//! 8. server failover on/off under an injected server failure.

use msim_core::report::{figures_dir, Table};
use msim_core::stats::{mean, median};
use msim_core::time::SimTime;
use msim_core::units::BitRate;
use msim_net::profile::PathProfile;
use msim_youtube::dns::Network;
use msplayer_bench::*;
use msplayer_core::config::{GammaRounding, PlayerConfig, SchedulerKind};
use msplayer_core::sim::{testbed_paths, PathSetup, ServerFailure, ServiceSpec, SessionSpec};

/// Runs `spec` on the testbed over `runs()` seeds and adds its
/// pre-buffer download-time summary as a table row.
fn sweep(label: &str, table: &mut Table, spec: SessionSpec) {
    let times: Vec<f64> = run_experiment(&ServiceSpec::testbed(), &spec, 0xAB1A)
        .iter()
        .map(|m| {
            m.prebuffer_time()
                .expect("prebuffer completes")
                .as_secs_f64()
        })
        .collect();
    table.row(&[
        label,
        &format!("{:.2}", median(&times)),
        &format!("{:.2}", mean(&times)),
        &format!("{:.2}", boxstats(&times).iqr()),
    ]);
}

fn base_player() -> PlayerConfig {
    msplayer(SchedulerKind::Harmonic, 256)
}

/// `player` over the testbed's WiFi + LTE paths.
fn two_path(player: PlayerConfig) -> SessionSpec {
    session(&testbed_paths(), player)
}

fn main() {
    println!(
        "Ablations — emulated testbed, 40 s pre-buffer ({} runs each)\n",
        runs()
    );

    // 1. Out-of-order cap.
    let mut t = Table::new(&["ooo cap", "median (s)", "mean", "iqr"]);
    for cap in [0usize, 1, 2, 4, 16] {
        let mut p = base_player();
        p.ooo_cap = cap;
        sweep(&format!("{cap}"), &mut t, two_path(p));
    }
    println!(
        "1) out-of-order chunk cap (paper design: 1)\n{}",
        t.render()
    );
    t.write_csv(&figures_dir().join("ablation_ooo_cap.csv"))
        .unwrap();

    // 2. δ sweep.
    let mut t = Table::new(&["delta", "median (s)", "mean", "iqr"]);
    for delta in [0.01, 0.05, 0.10, 0.20] {
        let mut p = base_player();
        p.delta = delta;
        sweep(&format!("{:.0} %", delta * 100.0), &mut t, two_path(p));
    }
    println!(
        "2) throughput variation parameter δ (paper: 5 %)\n{}",
        t.render()
    );
    t.write_csv(&figures_dir().join("ablation_delta.csv"))
        .unwrap();

    // 3. α sweep (EWMA scheduler).
    let mut t = Table::new(&["alpha", "median (s)", "mean", "iqr"]);
    for alpha in [0.5, 0.7, 0.9, 0.99] {
        let mut p = msplayer(SchedulerKind::Ewma, 256);
        p.alpha = alpha;
        sweep(&format!("{alpha}"), &mut t, two_path(p));
    }
    println!("3) EWMA weight α (paper: 0.9)\n{}", t.render());
    t.write_csv(&figures_dir().join("ablation_alpha.csv"))
        .unwrap();

    // 4. Harmonic estimator form.
    let mut t = Table::new(&["estimator", "median (s)", "mean", "iqr"]);
    for kind in [SchedulerKind::Harmonic, SchedulerKind::HarmonicWindowed] {
        sweep(kind.name(), &mut t, two_path(msplayer(kind, 256)));
    }
    println!(
        "4) full-history (Eq. 2) vs sliding-window harmonic mean\n{}",
        t.render()
    );
    t.write_csv(&figures_dir().join("ablation_harmonic_form.csv"))
        .unwrap();

    // 5. Head start.
    let mut t = Table::new(&["head start", "median (s)", "mean", "iqr"]);
    for (label, on) in [("on (paper)", true), ("off", false)] {
        let mut p = base_player();
        p.head_start = on;
        sweep(label, &mut t, two_path(p));
    }
    println!(
        "5) fast path starts before the slow path finishes bootstrap (§3.2)\n{}",
        t.render()
    );
    t.write_csv(&figures_dir().join("ablation_head_start.csv"))
        .unwrap();

    // 6. γ rounding.
    let mut t = Table::new(&["gamma", "median (s)", "mean", "iqr"]);
    for (label, mode) in [
        ("exact (default)", GammaRounding::Exact),
        ("ceil (Alg. 1 literal)", GammaRounding::Ceil),
    ] {
        let mut p = base_player();
        p.gamma_rounding = mode;
        sweep(label, &mut t, two_path(p));
    }
    println!(
        "6) fast-path γ rounding (see DESIGN.md deviation note)\n{}",
        t.render()
    );
    t.write_csv(&figures_dir().join("ablation_gamma.csv"))
        .unwrap();

    // 7. Source/path diversity: two real paths vs one fat pipe.
    let mut t = Table::new(&["topology", "median (s)", "mean", "iqr"]);
    sweep("two paths (MSPlayer)", &mut t, two_path(base_player()));
    let total = PathProfile::wifi_testbed().mean_rate.as_mbps()
        + PathProfile::lte_testbed().mean_rate.as_mbps();
    let fat = PathSetup::new(
        PathProfile::wifi_testbed().scaled_to(BitRate::mbps(total)),
        Network::Wifi,
    );
    sweep(
        "one fat path, same capacity",
        &mut t,
        session(&[fat], commercial(1024)),
    );
    println!(
        "7) two paths vs a single path of equal total capacity\n{}",
        t.render()
    );
    t.write_csv(&figures_dir().join("ablation_diversity.csv"))
        .unwrap();

    // 8. Failover under an injected failure of WiFi's primary server.
    let mut t = Table::new(&["failover", "median (s)", "mean", "iqr"]);
    for (label, enabled) in [("on (paper)", true), ("off", false)] {
        let mut p = base_player();
        p.failures_before_switch = if enabled { 1 } else { u32::MAX };
        let mut spec = two_path(p);
        spec.server_failures.push(ServerFailure {
            path: 0,
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(120),
        });
        sweep(label, &mut t, spec);
    }
    println!(
        "8) server failover when WiFi's primary server fails at t=1 s\n{}",
        t.render()
    );
    t.write_csv(&figures_dir().join("ablation_failover.csv"))
        .unwrap();

    println!("[csv] written under {}", figures_dir().display());
}
