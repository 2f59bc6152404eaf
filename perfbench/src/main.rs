//! Repository benchmark: three pruning and inference workloads driven
//! through the library crates' public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload vgg16_c10_prune --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the entry points
//! users call (`ClassAwarePruner::run_with_dir` / `run`,
//! `cap_nn::predict_all`). `--trace 1` replays the same loop phase by
//! phase through the crates' public functions, timing each call from
//! here, and reports the per-layer metrics. The last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it print every metric with its unit and sample count.
//!
//! Every workload is a closed loop with one caller, in one process, with
//! the `cap-par` pool at `nproc` threads. The run exits non-zero when the
//! FLOPs oracle, the replay agreement, a kernel reference or the
//! inference reference check fails.

mod e2e;
mod kernels;
mod ledger;
mod oracle;
mod probe;
mod traced;
mod workload;

use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Measurements the value summarises.
    pub samples: usize,
}

/// What a run hands back for printing.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but left out of the JSON line.
    pub info: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Every run does the same work: no GEMM autotune cache is read or
    // written, and no library tracing is switched on from the outside.
    std::env::set_var("CAP_AUTOTUNE", "off");
    std::env::remove_var("CAP_TRACE");
    std::env::remove_var("CAP_PROF_HZ");
    let nproc = probe::nproc();
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    cap_par::set_threads(nproc);
    let pool = cap_par::threads();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} available_parallelism={available} pool_threads={pool}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if pool > available { " ADVISORY: pool threads exceed available cores" } else { "" }
    );

    let report = match workload::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &report.metrics {
        println!(
            "metric {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &report.info {
        println!("info {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_escape(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
