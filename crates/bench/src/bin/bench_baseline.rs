//! Kernel and end-to-end benchmarks at `CAP_THREADS = 1` and `= N`,
//! writing `BENCH_kernels.json` so the perf trajectory of the parallel
//! execution layer is tracked from PR 2 onward.
//!
//! Usage:
//!
//! ```text
//! bench_baseline [--smoke] [--threads N] [--mm-dim N] [--out PATH] [--obs-out PATH]
//!                [--history PATH | --no-history]
//! ```
//!
//! `--smoke` shrinks every workload for CI; `--threads` picks the
//! multi-thread measurement point (default 4); `--mm-dim` overrides the
//! square matmul dimension (default 192, smoke 96); `--out` overrides
//! the JSON path (default `BENCH_kernels.json` in the current directory).
//! Thread counts are applied with `cap_par::set_threads`, so one process
//! measures both points; the determinism contract guarantees the outputs
//! are bit-identical either way, making the comparison pure timing. A
//! row whose thread count exceeds `available_parallelism` only measures
//! contention, so it carries `"advisory": true` in the JSON and says so
//! on its stdout line.
//!
//! After the kernel benches, an observability section writes
//! `BENCH_obs.json` (`--obs-out` overrides): span/counter overhead with
//! telemetry disabled, enabled, and with the flight recorder on, plus
//! `/metrics` scrape latency while a smoke training loop runs. Kernel
//! timings always run first, before any telemetry is switched on.
//!
//! Every run's kernel rows are also *appended* to the perf-trend
//! history at `results/bench_history.jsonl` (`--history` overrides,
//! `--no-history` opts out) so `capctl bench trend` / `bench compare`
//! can observe the trajectory across commits.

use cap_core::{evaluate_scores, find_prunable_sites, ClassAwarePruner, PruneConfig, ScoreConfig};
use cap_data::{DatasetSpec, SyntheticDataset};
use cap_models::{resnet56, vgg16, ModelConfig};
use cap_nn::layer::Conv2d;
use cap_nn::{Network, TrainConfig};
use cap_obs::json::{write_f64, write_str};
use cap_tensor::{matmul, SimdMode, Tensor};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Heap allocations observed by [`CountingAlloc`] since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over the system allocator so the obs section can
/// assert the telemetry-disabled span fast path allocates nothing.
struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller guarantees per `GlobalAlloc::alloc` are passed to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a matching `System` allocation.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: caller guarantees per `GlobalAlloc::realloc` are passed to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Options {
    smoke: bool,
    threads: usize,
    mm_dim: Option<usize>,
    out: String,
    obs_out: String,
    /// Bench-history sink (`None` under `--no-history`).
    history: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        threads: 4,
        mm_dim: None,
        out: "BENCH_kernels.json".to_string(),
        obs_out: "BENCH_obs.json".to_string(),
        history: Some(cap_obs::trend::DEFAULT_HISTORY_PATH.to_string()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--threads" => {
                let v = args.next().unwrap_or_default();
                opts.threads = v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads expects a positive integer, got {v:?}");
                    std::process::exit(2);
                });
                if opts.threads == 0 {
                    eprintln!("--threads must be >= 1");
                    std::process::exit(2);
                }
            }
            "--mm-dim" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(d) if d > 0 => opts.mm_dim = Some(d),
                    _ => {
                        eprintln!("--mm-dim expects a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
            }
            "--obs-out" => {
                opts.obs_out = args.next().unwrap_or_else(|| {
                    eprintln!("--obs-out expects a path");
                    std::process::exit(2);
                });
            }
            "--history" => {
                opts.history = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--history expects a path");
                    std::process::exit(2);
                }));
            }
            "--no-history" => opts.history = None,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: bench_baseline [--smoke] [--threads N] [--mm-dim N] [--out PATH] [--obs-out PATH] [--history PATH | --no-history]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// One timing measurement: `op` at `shape` with `threads`.
struct Record {
    op: &'static str,
    shape: String,
    threads: usize,
    ns_per_iter: f64,
}

impl Record {
    /// More threads than cores: the row times contention, not scaling.
    fn advisory(&self) -> bool {
        let cores = available_parallelism();
        cores > 0 && self.threads > cores
    }
}

/// Cores this process may run on (0 when the OS will not say).
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

/// Times `f`: one warmup call, then repeats until the budget elapses or
/// `max_iters` is hit, returning mean ns/iter.
fn measure<F: FnMut()>(mut f: F, budget: Duration, max_iters: usize) -> f64 {
    f();
    let start = cap_obs::clock::now();
    let mut iters = 0usize;
    loop {
        f();
        iters += 1;
        if iters >= max_iters || start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// One timed call, in ns. The kernel gates combine these as the
/// *minimum* across interleaved rounds: background load only ever
/// inflates a sample, so the smallest one is the closest to the true
/// cost, while a mean of 1-2 samples can be 3x off and flake the
/// gates on a shared host.
fn time_once<F: FnOnce()>(f: F) -> f64 {
    let t0 = cap_obs::clock::now();
    f();
    t0.elapsed().as_nanos() as f64
}

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0)
}

/// The old serial i-k-j matmul loop, kept here as the reference point
/// the blocked kernel is measured against (the serial win is the only
/// one observable on single-core hosts).
fn matmul_naive_ref(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(vec![m, n], out).expect("sized to shape")
}

/// The class-aware scoring workload at the shape where scoring costs
/// most: ResNet56 (width 0.25) over 100 classes, 3 images per class.
fn scoring_setup(smoke: bool) -> (Network, SyntheticDataset, ScoreConfig) {
    let image = if smoke { 8 } else { 16 };
    let cfg = ModelConfig::new(100)
        .with_width(0.25)
        .with_image_size(image);
    let net = resnet56(&cfg, &mut rng()).expect("resnet56");
    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar100_like()
            .with_image_size(image)
            .with_counts(3, 1),
    )
    .expect("synthetic data");
    let cfg = ScoreConfig {
        images_per_class: if smoke { 2 } else { 10 },
        ..ScoreConfig::default()
    };
    (net, data, cfg)
}

fn pruning_setup(smoke: bool) -> (Network, SyntheticDataset, ClassAwarePruner) {
    let image = if smoke { 8 } else { 16 };
    let cfg = ModelConfig::new(10)
        .with_width(0.125)
        .with_image_size(image);
    let net = vgg16(&cfg, &mut rng()).expect("vgg16");
    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(image)
            .with_counts(if smoke { 4 } else { 10 }, 2),
    )
    .expect("synthetic data");
    let prune_cfg = PruneConfig {
        score: ScoreConfig {
            images_per_class: if smoke { 2 } else { 4 },
            ..ScoreConfig::default()
        },
        finetune: TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..TrainConfig::default()
        },
        max_iterations: 1,
        // The net is untrained; a generous limit keeps the single
        // iteration from rolling back so the timing covers the full
        // score → surgery → finetune → evaluate cycle.
        accuracy_drop_limit: 1.0,
        ..PruneConfig::default()
    };
    let pruner = ClassAwarePruner::new(prune_cfg).expect("pruner config");
    (net, data, pruner)
}

fn run_benches(opts: &Options, thread_points: &[usize]) -> Vec<Record> {
    let mut records = Vec::new();
    let budget = if opts.smoke {
        Duration::from_millis(60)
    } else {
        Duration::from_millis(400)
    };
    let max_iters = if opts.smoke { 5 } else { 40 };

    // Two matmul sizes by default: one conv-layer-typical (operands fit
    // in L2, where the naive loop is already competitive) and one large
    // enough to spill cache, where blocking pays off serially.
    let mm_dims: Vec<usize> = match opts.mm_dim {
        Some(d) => vec![d],
        None if opts.smoke => vec![96],
        None => vec![192, 1024],
    };
    let mm_cases: Vec<(Tensor, Tensor, String)> = mm_dims
        .iter()
        .map(|&d| {
            (
                Tensor::from_fn(&[d, d], |i| (i as f32 * 0.013).sin()),
                Tensor::from_fn(&[d, d], |i| (i as f32 * 0.007).cos()),
                format!("{d}x{d}x{d}"),
            )
        })
        .collect();

    let (cn, cc, chw) = if opts.smoke { (4, 16, 8) } else { (8, 16, 16) };
    let conv_shape = format!("{cn}x{cc}x{chw}x{chw}->32c3");
    let x = cap_tensor::randn(&[cn, cc, chw, chw], 0.0, 1.0, &mut rng());

    for &threads in thread_points {
        cap_par::set_threads(threads);
        eprintln!("== threads = {threads} ==");

        for (a, b, mm_shape) in &mm_cases {
            records.push(Record {
                op: "matmul",
                shape: mm_shape.clone(),
                threads,
                ns_per_iter: measure(
                    || {
                        black_box(matmul(black_box(a), black_box(b)).expect("matmul"));
                    },
                    budget,
                    max_iters,
                ),
            });

            if threads == 1 {
                records.push(Record {
                    op: "matmul_naive_ref",
                    shape: mm_shape.clone(),
                    threads,
                    ns_per_iter: measure(
                        || {
                            black_box(matmul_naive_ref(black_box(a), black_box(b)));
                        },
                        budget,
                        max_iters,
                    ),
                });
            }
        }

        let mut conv = Conv2d::new(cc, 32, 3, 1, 1, false, &mut rng()).expect("conv");
        records.push(Record {
            op: "conv2d_forward",
            shape: conv_shape.clone(),
            threads,
            ns_per_iter: measure(
                || {
                    black_box(conv.forward(black_box(&x)).expect("forward"));
                },
                budget,
                max_iters,
            ),
        });
        let y = conv.forward(&x).expect("forward");
        let g = Tensor::ones(y.shape());
        records.push(Record {
            op: "conv2d_backward",
            shape: conv_shape.clone(),
            threads,
            ns_per_iter: measure(
                || {
                    conv.zero_grad();
                    black_box(conv.backward(black_box(&g)).expect("backward"));
                },
                budget,
                max_iters,
            ),
        });

        let (mut net, data, score_cfg) = scoring_setup(opts.smoke);
        let sites = find_prunable_sites(&net);
        records.push(Record {
            op: "taylor_scoring",
            shape: format!(
                "resnet56_w0.25_100classes_im{}_m{}",
                if opts.smoke { 8 } else { 16 },
                score_cfg.images_per_class
            ),
            threads,
            ns_per_iter: measure(
                || {
                    black_box(
                        evaluate_scores(&mut net, &sites, data.train(), &score_cfg)
                            .expect("scoring"),
                    );
                },
                budget,
                max_iters,
            ),
        });

        let (e2e_net, e2e_data, pruner) = pruning_setup(opts.smoke);
        records.push(Record {
            op: "prune_iteration_e2e",
            shape: format!("vgg16_w0.125_im{}", if opts.smoke { 8 } else { 16 }),
            threads,
            ns_per_iter: measure(
                || {
                    let mut fresh = e2e_net.clone();
                    black_box(
                        pruner
                            .run(&mut fresh, e2e_data.train(), e2e_data.test())
                            .expect("prune iteration"),
                    );
                },
                if opts.smoke {
                    Duration::from_millis(1)
                } else {
                    Duration::from_secs(2)
                },
                if opts.smoke { 1 } else { 3 },
            ),
        });
    }
    records
}

/// One per-kernel measurement from the SIMD A/B section.
struct KernelRecord {
    /// Pinned `CAP_SIMD` mode for this row (`none` for the naive
    /// reference loop, which has no kernel selection).
    mode: &'static str,
    op: &'static str,
    shape: String,
    /// The selector's verdict for this shape under this mode (a pure
    /// function of shape, layout and mode).
    selector: String,
    ns_per_iter: f64,
    gflops: f64,
}

/// A/B-times the GEMM kernel paths in one process via
/// `set_simd_mode`: scalar-blocked vs AVX2 (when available) at the
/// conv-typical 192³ and the cache-spilling 1024³, against the naive
/// triple loop. Serial (`threads = 1`): this isolates the kernels.
fn run_kernel_benches(opts: &Options) -> Vec<KernelRecord> {
    cap_par::set_threads(1);
    // The perf gates compare these numbers, so sampling must be robust
    // to a noisy shared host. Two defences (see `measure_min` for why
    // a mean of 1-2 samples flakes): every variant is timed once per
    // *round*, interleaved, so a background-load window inflates all
    // variants rather than whichever one happened to be running; and
    // each variant keeps the min across rounds, which any quiet window
    // anywhere in the schedule pins to the true cost.
    let rounds = if opts.smoke { 4 } else { 10 };
    let initial = cap_tensor::simd_mode();
    let mut recs = Vec::new();
    for &d in &[192usize, 1024] {
        let a = Tensor::from_fn(&[d, d], |i| (i as f32 * 0.013).sin());
        let b = Tensor::from_fn(&[d, d], |i| (i as f32 * 0.007).cos());
        let shape = format!("{d}x{d}x{d}");
        let flops = 2.0 * (d as f64).powi(3);
        let mut modes = vec![SimdMode::Scalar];
        if cap_tensor::avx2_available() {
            modes.push(SimdMode::Avx2);
        }
        // Warmup: touches the operands and the packing buffers so
        // round 0 measures steady state like every other round.
        black_box(matmul_naive_ref(black_box(&a), black_box(&b)));
        for &mode in &modes {
            cap_tensor::set_simd_mode(mode).expect("mode availability checked above");
            black_box(matmul(black_box(&a), black_box(&b)).expect("matmul"));
        }
        let mut best_naive = f64::INFINITY;
        let mut best = vec![f64::INFINITY; modes.len()];
        for _ in 0..rounds {
            best_naive = best_naive.min(time_once(|| {
                black_box(matmul_naive_ref(black_box(&a), black_box(&b)));
            }));
            for (mode_idx, &mode) in modes.iter().enumerate() {
                cap_tensor::set_simd_mode(mode).expect("mode availability checked above");
                best[mode_idx] = best[mode_idx].min(time_once(|| {
                    black_box(matmul(black_box(&a), black_box(&b)).expect("matmul"));
                }));
            }
        }
        recs.push(KernelRecord {
            mode: "none",
            op: "matmul_naive_ref",
            shape: shape.clone(),
            selector: "naive(i-p-j triple loop)".to_string(),
            ns_per_iter: best_naive,
            gflops: flops / best_naive,
        });
        for (mode_idx, &mode) in modes.iter().enumerate() {
            cap_tensor::set_simd_mode(mode).expect("mode availability checked above");
            let ns = best[mode_idx];
            recs.push(KernelRecord {
                mode: mode.name(),
                op: "matmul",
                shape: shape.clone(),
                selector: cap_tensor::gemm_plan_summary(d, d, d),
                ns_per_iter: ns,
                gflops: flops / ns,
            });
        }
    }
    cap_tensor::set_simd_mode(initial).expect("restoring the initial mode");
    recs
}

fn kernel_ns(recs: &[KernelRecord], mode: &str, op: &str, shape: &str) -> Option<f64> {
    recs.iter()
        .find(|r| r.mode == mode && r.op == op && r.shape == shape)
        .map(|r| r.ns_per_iter)
}

/// Perf regression gates on the kernel section. Returns every failed
/// bound (empty = pass).
fn kernel_regressions(recs: &[KernelRecord]) -> Vec<String> {
    let mut failures = Vec::new();
    // Gate 1: AVX2 must beat the scalar blocked kernel by >= 2.5x at
    // 1024^3 whenever both were measured.
    if let (Some(scalar), Some(avx2)) = (
        kernel_ns(recs, "scalar", "matmul", "1024x1024x1024"),
        kernel_ns(recs, "avx2", "matmul", "1024x1024x1024"),
    ) {
        let speedup = scalar / avx2;
        if speedup < 2.5 {
            failures.push(format!(
                "avx2 matmul at 1024^3 is only {speedup:.2}x scalar-blocked (need >= 2.5x)"
            ));
        }
    }
    // Gate 2: no measured shape may fall behind the naive loop. The
    // scalar direct path *is* the naive loop plus dispatch, so it gets
    // a noise margin; AVX2 must win outright.
    for r in recs.iter().filter(|r| r.op == "matmul") {
        let Some(naive) = kernel_ns(recs, "none", "matmul_naive_ref", &r.shape) else {
            continue;
        };
        let speedup = naive / r.ns_per_iter;
        let floor = if r.mode == "avx2" { 1.0 } else { 0.85 };
        if speedup < floor {
            failures.push(format!(
                "{} matmul at {} is {speedup:.2}x naive (floor {floor})",
                r.mode, r.shape
            ));
        }
    }
    failures
}

fn write_json(
    opts: &Options,
    thread_points: &[usize],
    records: &[Record],
    kernels: &[KernelRecord],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"machine\": {\"arch\": ");
    write_str(&mut out, std::env::consts::ARCH);
    out.push_str(", \"os\": ");
    write_str(&mut out, std::env::consts::OS);
    out.push_str(", \"available_parallelism\": ");
    out.push_str(&available_parallelism().to_string());
    out.push_str("},\n  \"smoke\": ");
    out.push_str(if opts.smoke { "true" } else { "false" });
    out.push_str(",\n  \"threads_tested\": [");
    for (i, t) in thread_points.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&t.to_string());
    }
    out.push_str("],\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let serial_ns = records
            .iter()
            .find(|s| s.op == r.op && s.shape == r.shape && s.threads == 1)
            .map(|s| s.ns_per_iter);
        out.push_str("    {\"op\": ");
        write_str(&mut out, r.op);
        out.push_str(", \"shape\": ");
        write_str(&mut out, &r.shape);
        out.push_str(", \"threads\": ");
        out.push_str(&r.threads.to_string());
        out.push_str(", \"ns_per_iter\": ");
        write_f64(&mut out, r.ns_per_iter);
        out.push_str(", \"speedup_vs_1t\": ");
        match serial_ns {
            Some(s) if r.ns_per_iter > 0.0 => write_f64(&mut out, s / r.ns_per_iter),
            _ => out.push_str("null"),
        }
        if r.advisory() {
            out.push_str(", \"advisory\": true");
        }
        out.push('}');
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"kernels\": {\n    \"simd_available\": ");
    out.push_str(if cap_tensor::avx2_available() {
        "\"avx2\""
    } else {
        "null"
    });
    out.push_str(",\n    \"results\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        out.push_str("      {\"mode\": ");
        write_str(&mut out, r.mode);
        out.push_str(", \"op\": ");
        write_str(&mut out, r.op);
        out.push_str(", \"shape\": ");
        write_str(&mut out, &r.shape);
        out.push_str(", \"selector\": ");
        write_str(&mut out, &r.selector);
        out.push_str(", \"ns_per_iter\": ");
        write_f64(&mut out, r.ns_per_iter);
        out.push_str(", \"gflops\": ");
        write_f64(&mut out, r.gflops);
        out.push('}');
        if i + 1 < kernels.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

/// One observability-overhead measurement.
struct ObsRecord {
    op: &'static str,
    mode: &'static str,
    ns_per_iter: f64,
}

/// Everything the observability benches produce for `BENCH_obs.json`.
struct ObsSummary {
    records: Vec<ObsRecord>,
    scrape_mean_ns: f64,
    scrape_max_ns: f64,
    scrape_bytes: usize,
    /// Server self-observation after the scrape loop.
    requests_metrics: f64,
    handle_us_count: f64,
    handle_us_mean: f64,
    /// History-recorder cost model: one full registry sample
    /// (snapshot + buffered tsdb append) vs one smoke training epoch.
    sample_ns: f64,
    epoch_ns: f64,
    overhead_fraction: f64,
    /// Heap allocations across 10k disabled-span iterations (min over
    /// rounds, so a concurrent allocation elsewhere cannot flake it).
    disabled_span_allocs: u64,
    /// Spans recorded during the smoke epoch (from the registry's
    /// `span.*.count` histogram deltas).
    spans_per_epoch: f64,
    /// The measured disabled-span cost net of the bench harness's own
    /// dispatch floor, reused as the per-span price in the
    /// telemetry-off overhead model.
    disabled_span_ns: f64,
    /// Telemetry-off overhead bound: charging every span of the epoch
    /// the full disabled-path cost (one relaxed load and a `None`
    /// drop), this fraction of the epoch is what span instrumentation
    /// costs a run that records nothing.
    prof_off_overhead_fraction: f64,
}

impl ObsSummary {
    /// Whether the recorder's steady-state cost stays under 1% of a
    /// smoke epoch at the default cadence (the acceptance bound).
    fn overhead_lt_1pct(&self) -> bool {
        self.overhead_fraction < 0.01
    }

    /// Whether the disabled-span overhead stays under 0.5% of a smoke
    /// epoch (the telemetry-off acceptance bound).
    fn off_overhead_lt_half_pct(&self) -> bool {
        self.prof_off_overhead_fraction < 0.005
    }
}

/// Times the telemetry layer itself: the disabled fast path the hot
/// loops always pay, the enabled path, and the enabled path with the
/// flight recorder on; the series-store append (buffered and fsync'd)
/// plus the recorder-vs-epoch overhead model; then `/metrics` scrape
/// latency while a smoke training loop runs. Toggles global obs state,
/// so it must run after every kernel measurement.
fn run_obs_benches(opts: &Options) -> ObsSummary {
    let budget = Duration::from_millis(if opts.smoke { 30 } else { 200 });
    let max_iters = 2_000_000;
    let mut records = Vec::new();
    let mut bench = |op: &'static str, mode: &'static str, f: &mut dyn FnMut()| {
        records.push(ObsRecord {
            op,
            mode,
            ns_per_iter: measure(f, budget, max_iters),
        });
    };

    // Empty closure first: the dispatch + loop floor of this harness,
    // to subtract from everything below.
    bench("empty", "harness_floor", &mut || {
        black_box(0u64);
    });

    cap_obs::disable();
    bench("span", "disabled", &mut || {
        let _s = cap_obs::span!("bench.obs.span");
        black_box(&_s);
    });
    bench("counter_add", "disabled", &mut || {
        cap_obs::counter_add("bench.obs.counter", 1);
    });

    // Zero-allocation check on the disabled span path: the fast path
    // every hot loop pays must never touch the heap. Min over rounds
    // so an unrelated allocation on another thread cannot flake it.
    let mut disabled_span_allocs = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            let _s = cap_obs::span!("bench.obs.span");
            black_box(&_s);
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        disabled_span_allocs = disabled_span_allocs.min(delta);
    }

    cap_obs::enable();
    bench("span", "enabled", &mut || {
        let _s = cap_obs::span!("bench.obs.span");
        black_box(&_s);
    });
    bench("counter_add", "enabled", &mut || {
        cap_obs::counter_add("bench.obs.counter", 1);
    });

    cap_obs::flight::enable();
    bench("span", "enabled+flight", &mut || {
        let _s = cap_obs::span!("bench.obs.span");
        black_box(&_s);
    });

    // Series-store appends: the cost of one recorder sample, with and
    // without the fsync that boundary samples pay. Uses the live
    // registry snapshot, so the point count matches a real recording.
    let tsdb_dir = std::env::temp_dir().join(format!("cap_bench_tsdb_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tsdb_dir);
    std::fs::create_dir_all(&tsdb_dir).expect("create tsdb bench dir");
    let mut writer =
        cap_obs::tsdb::SeriesWriter::open(&tsdb_dir.join("series.capts")).expect("open series");
    let mut tick = 0.0f64;
    bench("tsdb_sample", "buffered", &mut || {
        tick += 1.0;
        writer
            .append(tick, cap_obs::tsdb::snapshot_points(), false)
            .expect("buffered append");
    });
    bench("tsdb_sample", "fsync", &mut || {
        tick += 1.0;
        writer
            .append(tick, cap_obs::tsdb::snapshot_points(), true)
            .expect("durable append");
    });
    drop(writer);
    let _ = std::fs::remove_dir_all(&tsdb_dir);
    let sample_ns = records
        .iter()
        .find(|r| r.op == "tsdb_sample" && r.mode == "buffered")
        .map_or(0.0, |r| r.ns_per_iter);

    // Recorder overhead model: cadence samples per second × cost per
    // sample, relative to one smoke training epoch. The same epoch's
    // registry `span.*.count` deltas give spans-per-epoch for the
    // telemetry-off overhead bound.
    let span_count_total = || -> f64 {
        cap_obs::tsdb::snapshot_points()
            .iter()
            .filter(|(n, _)| n.starts_with("span.") && n.ends_with(".count"))
            .map(|(_, v)| *v)
            .sum()
    };
    let spans_before = span_count_total();
    let epoch_ns = {
        let (mut net, data, _) = scoring_setup(true);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let t = cap_obs::clock::now();
        cap_nn::fit(&mut net, data.train().images(), data.train().labels(), &cfg)
            .expect("epoch fit");
        t.elapsed().as_nanos() as f64
    };
    let spans_per_epoch = (span_count_total() - spans_before).max(0.0);
    let samples_per_sec = 1000.0 / cap_obs::recorder::DEFAULT_INTERVAL_MS as f64;
    let overhead_fraction = samples_per_sec * sample_ns / 1e9;
    // Net span cost: the raw bench figure includes the harness's own
    // dispatch + loop floor (measured by the "empty" record, 30-60 ns
    // on this host and noisy), which a real epoch never pays per span.
    let raw_of = |op: &str, mode: &str| {
        records
            .iter()
            .find(|r| r.op == op && r.mode == mode)
            .map_or(0.0, |r| r.ns_per_iter)
    };
    let disabled_span_ns = (raw_of("span", "disabled") - raw_of("empty", "harness_floor")).max(0.0);
    let prof_off_overhead_fraction = if epoch_ns > 0.0 {
        spans_per_epoch * disabled_span_ns / epoch_ns
    } else {
        0.0
    };

    // Scrape latency under load: serve on an ephemeral port while a
    // smoke-size training loop keeps the process busy, then time
    // repeated GET /metrics round-trips.
    let addr = cap_obs::serve::start_global("127.0.0.1:0").expect("bind metrics server");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let trainer = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut net, data, _) = scoring_setup(true);
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: 4,
                ..TrainConfig::default()
            };
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                cap_nn::fit(&mut net, data.train().images(), data.train().labels(), &cfg)
                    .expect("smoke fit");
            }
        })
    };
    let scrapes = if opts.smoke { 10 } else { 50 };
    let mut total_ns = 0.0f64;
    let mut max_ns = 0.0f64;
    let mut body_len = 0usize;
    for _ in 0..scrapes {
        let t = cap_obs::clock::now();
        let body = cap_obs::serve::http_get(addr, "/metrics").expect("scrape /metrics");
        let ns = t.elapsed().as_nanos() as f64;
        total_ns += ns;
        max_ns = max_ns.max(ns);
        body_len = body.len();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    trainer.join().expect("trainer thread");
    // Server self-observation: the per-route counters and handling
    // histogram the scrape loop just exercised.
    let self_points = cap_obs::tsdb::snapshot_points();
    let point = |name: &str| {
        self_points
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let requests_metrics = point("obs.http.requests.metrics");
    let handle_us_count = point("obs.http.handle_us.count");
    let handle_us_mean = point("obs.http.handle_us.mean");
    cap_obs::serve::stop_global();
    cap_obs::flight::disable();
    cap_obs::disable();
    ObsSummary {
        records,
        scrape_mean_ns: total_ns / scrapes as f64,
        scrape_max_ns: max_ns,
        scrape_bytes: body_len,
        requests_metrics,
        handle_us_count,
        handle_us_mean,
        sample_ns,
        epoch_ns,
        overhead_fraction,
        disabled_span_allocs,
        spans_per_epoch,
        disabled_span_ns,
        prof_off_overhead_fraction,
    }
}

fn write_obs_json(opts: &Options, s: &ObsSummary) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"smoke\": ");
    out.push_str(if opts.smoke { "true" } else { "false" });
    out.push_str(",\n  \"overhead\": [\n");
    for (i, r) in s.records.iter().enumerate() {
        out.push_str("    {\"op\": ");
        write_str(&mut out, r.op);
        out.push_str(", \"mode\": ");
        write_str(&mut out, r.mode);
        out.push_str(", \"ns_per_iter\": ");
        write_f64(&mut out, r.ns_per_iter);
        out.push('}');
        if i + 1 < s.records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"metrics_scrape\": {\"mean_ns\": ");
    write_f64(&mut out, s.scrape_mean_ns);
    out.push_str(", \"max_ns\": ");
    write_f64(&mut out, s.scrape_max_ns);
    out.push_str(", \"body_bytes\": ");
    out.push_str(&s.scrape_bytes.to_string());
    out.push_str("},\n  \"recorder\": {\"sample_ns\": ");
    write_f64(&mut out, s.sample_ns);
    out.push_str(", \"interval_ms\": ");
    out.push_str(&cap_obs::recorder::DEFAULT_INTERVAL_MS.to_string());
    out.push_str(", \"epoch_ns\": ");
    write_f64(&mut out, s.epoch_ns);
    out.push_str(", \"overhead_fraction\": ");
    write_f64(&mut out, s.overhead_fraction);
    out.push_str(", \"overhead_lt_1pct\": ");
    out.push_str(if s.overhead_lt_1pct() {
        "true"
    } else {
        "false"
    });
    out.push_str("},\n  \"profiler\": {\"disabled_span_allocs\": ");
    out.push_str(&s.disabled_span_allocs.to_string());
    out.push_str(", \"spans_per_epoch\": ");
    write_f64(&mut out, s.spans_per_epoch);
    out.push_str(", \"disabled_span_ns\": ");
    write_f64(&mut out, s.disabled_span_ns);
    out.push_str(", \"off_overhead_fraction\": ");
    write_f64(&mut out, s.prof_off_overhead_fraction);
    out.push_str(", \"off_overhead_lt_half_pct\": ");
    out.push_str(if s.off_overhead_lt_half_pct() {
        "true"
    } else {
        "false"
    });
    out.push_str("},\n  \"server\": {\"requests_metrics\": ");
    write_f64(&mut out, s.requests_metrics);
    out.push_str(", \"handle_us_count\": ");
    write_f64(&mut out, s.handle_us_count);
    out.push_str(", \"handle_us_mean\": ");
    write_f64(&mut out, s.handle_us_mean);
    out.push_str("}\n}\n");
    out
}

fn main() {
    cap_bench::init_trace_quiet();
    let opts = parse_args();
    let thread_points: Vec<usize> = if opts.threads == 1 {
        vec![1]
    } else {
        vec![1, opts.threads]
    };
    let records = run_benches(&opts, &thread_points);
    let kernels = run_kernel_benches(&opts);
    let json = write_json(&opts, &thread_points, &records, &kernels);
    cap_obs::fsx::atomic_write(std::path::Path::new(&opts.out), json.as_bytes()).unwrap_or_else(
        |e| {
            eprintln!("failed to write {}: {e}", opts.out);
            std::process::exit(1);
        },
    );
    for r in &records {
        println!(
            "{:<22} {:<24} threads={} {:>14.0} ns/iter{}",
            r.op,
            r.shape,
            r.threads,
            r.ns_per_iter,
            if r.advisory() {
                "  (advisory: more threads than cores)"
            } else {
                ""
            }
        );
    }
    for r in &kernels {
        println!(
            "kernel {:<7} {:<18} {:<16} {:>12.0} ns/iter {:>7.2} GFLOP/s  {}",
            r.mode, r.op, r.shape, r.ns_per_iter, r.gflops, r.selector
        );
    }
    println!("wrote {}", opts.out);
    // Record the run in the perf-trend history *before* the gates, so
    // a regressing run is still observable in `capctl bench trend`.
    if let Some(history) = &opts.history {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty());
        let simd = std::env::var("CAP_SIMD").unwrap_or_else(|_| "auto".to_string());
        let mut run = cap_obs::trend::BenchRun::now(simd, opts.threads as u64, opts.smoke, commit);
        run.kernels = kernels
            .iter()
            .map(|k| cap_obs::trend::KernelPoint {
                mode: k.mode.to_string(),
                op: k.op.to_string(),
                shape: k.shape.clone(),
                ns: k.ns_per_iter,
                gflops: k.gflops,
            })
            .collect();
        match cap_obs::trend::append_run(std::path::Path::new(history), &run) {
            Ok(()) => println!("appended kernel rows to {history}"),
            Err(e) => eprintln!("failed to append bench history {history}: {e}"),
        }
    }
    let failures = kernel_regressions(&kernels);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("kernel regression: {f}");
        }
        std::process::exit(1);
    }

    let obs = run_obs_benches(&opts);
    let obs_json = write_obs_json(&opts, &obs);
    cap_obs::fsx::atomic_write(std::path::Path::new(&opts.obs_out), obs_json.as_bytes())
        .unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", opts.obs_out);
            std::process::exit(1);
        });
    for r in &obs.records {
        println!(
            "obs {:<14} {:<16} {:>10.1} ns/iter",
            r.op, r.mode, r.ns_per_iter
        );
    }
    println!(
        "obs metrics_scrape mean {:.1} µs, max {:.1} µs, {} bytes",
        obs.scrape_mean_ns / 1e3,
        obs.scrape_max_ns / 1e3,
        obs.scrape_bytes
    );
    println!(
        "obs recorder sample {:.1} µs vs epoch {:.1} ms: overhead {:.4}% ({})",
        obs.sample_ns / 1e3,
        obs.epoch_ns / 1e6,
        obs.overhead_fraction * 100.0,
        if obs.overhead_lt_1pct() {
            "< 1%"
        } else {
            ">= 1%"
        }
    );
    println!(
        "obs profiler-off bound: {} spans/epoch x {:.1} ns net = {:.5}% of epoch ({}), \
         disabled-span allocs {}",
        obs.spans_per_epoch as u64,
        obs.disabled_span_ns,
        obs.prof_off_overhead_fraction * 100.0,
        if obs.off_overhead_lt_half_pct() {
            "< 0.5%"
        } else {
            ">= 0.5%"
        },
        obs.disabled_span_allocs
    );
    println!("wrote {}", opts.obs_out);
}
