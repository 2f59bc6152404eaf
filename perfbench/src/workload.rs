//! The three workloads and what their untraced and traced runs share:
//! set-up, the pruner call, the inference generations and the checks.

use crate::probe::Tracer;
use crate::{e2e, traced, Report};
use cap_bench::{build_dataset, build_model, pretrain, Arch, DataKind, ExperimentScale};
use cap_core::{
    apply_site_pruning, find_prunable_sites, ClassAwarePruner, FlopsReport, NetworkScores,
    PruneConfig, PruneOutcome, PruneStrategy, ScoreConfig,
};
use cap_data::SyntheticDataset;
use cap_nn::{
    checkpoint, evaluate, fit, gather_batch, Network, RegularizerConfig, RunDir, TrainConfig,
};
use cap_obs::clock;
use cap_tensor::Tensor;
use std::path::{Path, PathBuf};

pub const NAMES: [&str; 3] = ["vgg16_c10_prune", "resnet56_c100_prune", "vgg16_c10_infer"];

/// Pruning iterations per pruner call, and generations of the inference
/// workload (the `gen.<g>.*` rows).
pub const GENERATIONS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Eval batch of the inference workload.
pub const INFER_BATCH: usize = 64;
/// Samples of each generation checked against a per-sample forward.
const REFERENCE_SAMPLES: usize = 16;

#[derive(Clone, Copy)]
pub enum Task {
    /// A fixed-schedule pruner call; `persist` goes through a run dir.
    Prune { persist: bool },
    /// Forward-only inference over uniformly cut generations.
    Infer,
}

pub struct Workload {
    pub arch: Arch,
    pub kind: DataKind,
    pub task: Task,
    pub scale: ExperimentScale,
}

impl Workload {
    /// `ExperimentScale::full` shapes (16x16 images, width 0.25), with
    /// sample counts and epochs cut so a run fits the time budget.
    fn new(name: &str, seed: u64) -> Option<Workload> {
        let base = ExperimentScale {
            train_per_class: 10,
            test_per_class: 8,
            pretrain_epochs: 2,
            finetune_epochs: 4,
            images_per_class: 4,
            max_iterations: GENERATIONS,
            // Rollback disabled: every call runs all iterations.
            accuracy_drop_limit: 1.0,
            seed,
            ..ExperimentScale::full()
        };
        Some(match name {
            "vgg16_c10_prune" => Workload {
                arch: Arch::Vgg16,
                kind: DataKind::C10,
                task: Task::Prune { persist: true },
                scale: base,
            },
            "resnet56_c100_prune" => Workload {
                arch: Arch::ResNet56,
                kind: DataKind::C100,
                task: Task::Prune { persist: false },
                scale: ExperimentScale {
                    train_per_class_100: 3,
                    test_per_class_100: 2,
                    pretrain_epochs_100: 1,
                    finetune_epochs: 1,
                    images_per_class: 10,
                    ..base
                },
            },
            "vgg16_c10_infer" => Workload {
                arch: Arch::Vgg16,
                kind: DataKind::C10,
                task: Task::Infer,
                scale: ExperimentScale {
                    test_per_class: 64,
                    ..base
                },
            },
            _ => return None,
        })
    }

    pub fn pretrain_epochs(&self) -> usize {
        match self.kind {
            DataKind::C10 => self.scale.pretrain_epochs,
            DataKind::C100 => self.scale.pretrain_epochs_100,
        }
    }

    /// The pruner configuration: the suite's fine-tune schedule and a
    /// fixed 10% schedule.
    pub fn prune_config(&self) -> PruneConfig {
        let scale = &self.scale;
        PruneConfig {
            score: ScoreConfig {
                images_per_class: scale.images_per_class,
                tau: scale.tau,
                seed: scale.seed,
            },
            strategy: PruneStrategy::Percentage { fraction: 0.10 },
            finetune: train_config(scale.finetune_epochs, scale),
            max_iterations: scale.max_iterations,
            accuracy_drop_limit: scale.accuracy_drop_limit,
            eval_batch: scale.batch_size,
        }
    }
}

/// The suite's optimiser setting (SGD, lr 0.01, momentum 0.9, weight
/// decay 5e-4, decay 0.97 per epoch) with the paper's modified cost, as
/// the experiment harness configures pre-training and fine-tuning.
pub fn train_config(epochs: usize, scale: &ExperimentScale) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: scale.batch_size,
        lr: 0.01,
        momentum: 0.9,
        weight_decay: 5e-4,
        lr_decay: 0.97,
        regularizer: RegularizerConfig::paper(),
        shuffle_seed: scale.seed,
        fault_policy: cap_nn::FaultPolicy::Abort,
    }
}

pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub fn bytes_of(net: &Network) -> Result<Vec<u8>, String> {
    checkpoint::to_bytes(net).map_err(err("serialise network"))
}

/// Removes the run's scratch directory (under the current directory)
/// however the run ends.
pub struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(err("create scratch dir"))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let w = Workload::new(name, seed)
        .ok_or_else(|| format!("unknown workload {name:?} (one of {})", NAMES.join(", ")))?;
    let scratch = Scratch::create()?;
    match (w.task, trace) {
        (Task::Prune { persist }, false) => e2e::prune(&w, persist, seconds, &scratch),
        (Task::Prune { persist }, true) => traced::prune(&w, persist, &scratch),
        (Task::Infer, false) => e2e::infer(&w, seconds),
        (Task::Infer, true) => traced::infer(&w),
    }
}

// ---------------------------------------------------------------- set-up

pub struct Setup {
    pub data: SyntheticDataset,
    pub net: Network,
    pub baseline_accuracy: f64,
}

impl Setup {
    /// `[channels, height, width]` of one sample.
    pub fn dims(&self) -> (usize, usize, usize) {
        let s = self.data.train().images().shape();
        (s[1], s[2], s[3])
    }
}

/// Dataset generation, model build and the short pretrain through the
/// experiment harness, repeated `SETUP_REPS` times; every repetition
/// must produce the same network. Returns the set-up and its times.
pub fn setup_repeated(w: &Workload) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut first: Option<(Setup, Vec<u8>)> = None;
    for _ in 0..SETUP_REPS {
        let t0 = clock::now();
        let data = build_dataset(w.kind, &w.scale).map_err(err("dataset"))?;
        let net = build_model(w.arch, w.kind, &w.scale).map_err(err("model"))?;
        let prepared =
            pretrain(net, &data, &w.scale, RegularizerConfig::paper()).map_err(err("pretrain"))?;
        times.push(t0.elapsed().as_secs_f64());
        let bytes = bytes_of(&prepared.net)?;
        match &first {
            None => {
                let setup = Setup {
                    data,
                    net: prepared.net,
                    baseline_accuracy: prepared.baseline_accuracy,
                };
                first = Some((setup, bytes));
            }
            Some((_, b)) if *b != bytes => {
                return Err("set-up is not deterministic: a repeated pretrain differs".into())
            }
            Some(_) => {}
        }
    }
    let (setup, _) = first.expect("SETUP_REPS > 0");
    Ok((setup, times))
}

/// One set-up with its phases traced (the harness's `pretrain` is `fit`
/// then `evaluate`, called here one by one).
pub fn setup_traced(w: &Workload, tr: &mut Tracer) -> Result<Setup, String> {
    let data = tr
        .span("data.generate", 0, || build_dataset(w.kind, &w.scale))
        .map_err(err("dataset"))?;
    let mut net = build_model(w.arch, w.kind, &w.scale).map_err(err("model"))?;
    let (train, test) = (data.train(), data.test());
    let epochs = w.pretrain_epochs();
    let cfg = train_config(epochs, &w.scale);
    tr.span("nn.fit.pretrain", epochs * train.len(), || {
        fit(&mut net, train.images(), train.labels(), &cfg)
    })
    .map_err(err("pretrain"))?;
    let baseline_accuracy = tr
        .span("nn.evaluate", test.len(), || {
            evaluate(&mut net, test.images(), test.labels(), w.scale.batch_size)
        })
        .map_err(err("evaluate"))?;
    Ok(Setup {
        data,
        net,
        baseline_accuracy,
    })
}

// ------------------------------------------------------------- inference

/// Generation `g` of the inference workload: every prunable site of
/// `prev` keeps its first `f - f/10` filters (at least one), so shapes
/// and work depend on the architecture alone.
fn cut_generation(prev: &Network) -> Result<Network, String> {
    let mut net = prev.clone();
    for site in find_prunable_sites(&net) {
        let f = site.filters(&net).map_err(err("site"))?;
        let keep: Vec<usize> = (0..(f - f / 10).max(1)).collect();
        apply_site_pruning(&mut net, &site, &keep).map_err(err("surgery"))?;
    }
    Ok(net)
}

/// Generations `0..=GENERATIONS` of the inference workload.
pub fn generations(setup: &Setup, tr: &mut Tracer) -> Result<Vec<Network>, String> {
    let mut nets = vec![setup.net.clone()];
    for g in 1..=GENERATIONS {
        let next = tr.span("core.surgery", 0, || cut_generation(&nets[g - 1]))?;
        nets.push(next);
    }
    Ok(nets)
}

/// Checks `predict_all` output against a per-sample eval-mode forward
/// on the first `REFERENCE_SAMPLES` images.
pub fn per_sample_agrees(
    net: &mut Network,
    images: &Tensor,
    preds: &[usize],
) -> Result<bool, String> {
    for (s, &p) in preds.iter().enumerate().take(REFERENCE_SAMPLES) {
        let x = gather_batch(images, &[s]).map_err(err("gather sample"))?;
        let logits = net.forward(&x, false).map_err(err("per-sample forward"))?;
        let row = logits.data();
        let best = (0..row.len()).fold(0, |b, i| if row[i] > row[b] { i } else { b });
        if best != p {
            eprintln!(
                "inference reference mismatch at sample {s}: predict_all {p}, forward {best}"
            );
            return Ok(false);
        }
    }
    Ok(true)
}

pub fn accuracy(preds: &[usize], labels: &[usize]) -> f64 {
    preds.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / labels.len().max(1) as f64
}

pub fn reduction(now: u64, base: u64) -> f64 {
    1.0 - now as f64 / base.max(1) as f64
}

// --------------------------------------------------------------- pruning

/// What a pruning run reports per iteration, timings aside.
#[derive(Debug, PartialEq)]
pub struct IterFacts {
    pub removed: usize,
    pub remaining: usize,
    pub accuracy_after_prune: f64,
    pub accuracy_after_finetune: f64,
    pub mean_score: f64,
    pub flops: u64,
    pub params: u64,
}

/// What a pruning run reports, timings aside: the replay and every
/// repeated call must reproduce it exactly.
#[derive(PartialEq)]
pub struct Facts {
    pub baseline_accuracy: f64,
    pub final_accuracy: f64,
    pub baseline_cost: FlopsReport,
    pub final_cost: FlopsReport,
    pub scores_before: NetworkScores,
    pub scores_after: NetworkScores,
    pub iterations: Vec<IterFacts>,
}

impl Facts {
    pub fn of(o: &PruneOutcome) -> Facts {
        Facts {
            baseline_accuracy: o.baseline_accuracy,
            final_accuracy: o.final_accuracy,
            baseline_cost: o.baseline_cost.clone(),
            final_cost: o.final_cost.clone(),
            scores_before: o.scores_before.clone(),
            scores_after: o.scores_after.clone(),
            iterations: o
                .iterations
                .iter()
                .map(|r| IterFacts {
                    removed: r.removed_filters,
                    remaining: r.remaining_filters,
                    accuracy_after_prune: r.accuracy_after_prune,
                    accuracy_after_finetune: r.accuracy_after_finetune,
                    mean_score: r.mean_score,
                    flops: r.flops,
                    params: r.params,
                })
                .collect(),
        }
    }

    /// Pruning ops that failed: iterations missing from the schedule or
    /// reporting a non-finite number.
    pub fn failed_iterations(&self) -> u64 {
        let finite = self
            .iterations
            .iter()
            .filter(|r| {
                r.accuracy_after_prune.is_finite()
                    && r.accuracy_after_finetune.is_finite()
                    && r.mean_score.is_finite()
            })
            .count();
        GENERATIONS.saturating_sub(finite) as u64
    }
}

/// The outcome of one pruner call and its final network.
pub type Pruned = Result<(PruneOutcome, Network), String>;

/// One untraced pruner call on a copy of the set-up network, through the
/// entry point the workload's users call (`run_with_dir` into a fresh
/// `dir`, else `run`). Returns its wall time and outcome.
pub fn pruner_call(
    pruner: &ClassAwarePruner,
    setup: &Setup,
    dir: Option<&Path>,
) -> Result<(f64, Pruned), String> {
    let mut net = setup.net.clone();
    let (train, test) = (setup.data.train(), setup.data.test());
    let run_dir = dir
        .map(|d| RunDir::create(d).map_err(err("create run dir")))
        .transpose()?;
    let t0 = clock::now();
    let out = match &run_dir {
        Some(rd) => pruner.run_with_dir(&mut net, train, test, rd),
        None => pruner.run(&mut net, train, test),
    };
    let secs = t0.elapsed().as_secs_f64();
    Ok((secs, out.map(|o| (o, net)).map_err(|e| e.to_string())))
}
