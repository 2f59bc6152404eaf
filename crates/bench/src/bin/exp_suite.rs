//! The experiment suite: regenerates **all** tables and figures
//! (Table I–III, Fig. 4, 6, 7, 8) from the `cap_bench::specs` grid,
//! running every expensive stage at most once — pre-trained models are
//! cached on disk and shared across experiments, exactly the paper's
//! comparison protocol ("we used the pre-trained model weights ... and
//! applied the proposed pruning framework"). A single grid cell runs
//! through `capfleet init --specs FILE` instead.
//!
//! Usage: `cargo run -p cap-bench --release --bin exp_suite [--small|--smoke]`

use cap_bench::{
    render_fig4, render_fig6, render_fig7, render_fig8, render_table1, render_table2,
    render_table3, run_suite, ExperimentScale,
};
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = std::env::args()
        .filter_map(|a| a.strip_prefix("--").and_then(ExperimentScale::from_name))
        .next()
        .unwrap_or_else(ExperimentScale::full);
    let cache = std::env::var_os("CAP_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/cap-cache"));
    cap_bench::init_trace();
    cap_obs::emit(
        cap_obs::Event::new("experiment_start")
            .str("experiment", "exp_suite")
            .str("scale", format!("{scale:?}"))
            .str("cache", cache.display().to_string()),
    );
    let t0 = cap_obs::clock::now();
    let report = run_suite(&scale, &cache)?;
    println!("{}", render_table1(&report.table1));
    println!("{}", render_fig4(&report.fig4));
    println!("{}", render_fig7(&report.fig7));
    println!("{}", render_table2(&report.table2));
    println!("{}", render_table3(&report.table3));
    println!("{}", render_fig8(&report.fig8));
    println!("{}", render_fig6("VGG16-CIFAR10", &report.fig6));
    cap_obs::emit(
        cap_obs::Event::new("suite_done").f64("elapsed_secs", t0.elapsed().as_secs_f64()),
    );
    // With CAP_METRICS_ADDR set this self-scrapes /metrics (validating
    // the exposition) and honours CAP_FLIGHT_DUMP; CI fails the run on
    // a broken scrape or dump.
    cap_bench::finalize_telemetry().map_err(|e| format!("telemetry finalisation failed: {e}"))?;
    Ok(())
}
