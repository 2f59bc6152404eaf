//! The experiment grid: every run behind the paper's tables and figures.
//!
//! [`suite_specs`] flattens the evaluation into deduplicated
//! [`SuiteSpec`]s with stable ids (a run several tables reuse appears
//! once), [`artefact_rows`] says which spec fills each artefact row, and
//! [`run_spec`] executes a single spec end-to-end. The serial suite
//! ([`crate::run_suite`], behind `exp_suite`) and the fleet runner
//! (`capfleet`) both run specs through [`run_spec`]; the fleet passes a
//! run directory so the class-aware pipeline goes through the crash-safe
//! `RunDir` + `resume` path, and a worker rescheduled mid-run replays
//! bit-identically. The run configurations ([`score_config`],
//! [`fig6_schedule`], and `train_config` for fine-tuning) are defined
//! here once.

use crate::setup::train_config;
use crate::{build_dataset, pretrain_cached, Arch, DataKind, ExperimentScale};
use cap_baselines::{run_baseline, standard_criteria, BaselineConfig};
use cap_core::{ClassAwarePruner, PruneConfig, PruneOutcome, PruneStrategy, ScoreConfig};
use cap_nn::{RegularizerConfig, RunDir};
use std::path::Path;

/// One runnable cell of the experiment grid.
#[derive(Debug, Clone)]
pub struct SuiteSpec {
    /// Stable, filesystem-safe unique id (doubles as the fleet spec id
    /// and run-directory name).
    pub id: String,
    /// Model architecture.
    pub arch: Arch,
    /// Dataset stand-in.
    pub data: DataKind,
    /// Pruning strategy (ignored for baseline-criterion specs, which
    /// use the shared Fig. 6 schedule).
    pub strategy: PruneStrategy,
    /// Regulariser used for pre-training and fine-tuning.
    pub regularizer: RegularizerConfig,
    /// `None` runs the class-aware pipeline; `Some(name)` runs the
    /// named baseline criterion from [`standard_criteria`].
    pub criterion: Option<String>,
}

/// What one spec produced, whichever path executed it.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// Accuracy of the pre-trained (unpruned) model.
    pub baseline_accuracy: f64,
    /// Accuracy after pruning + fine-tuning.
    pub final_accuracy: f64,
    /// Fraction of filters removed.
    pub pruning_ratio: f64,
    /// Fraction of FLOPs removed.
    pub flops_reduction: f64,
    /// The class-aware run's full outcome (score snapshots before and
    /// after pruning for Figs. 4 and 7, the iteration trajectory, the
    /// stop reason); `None` for baseline criteria.
    pub prune: Option<PruneOutcome>,
}

/// A paper artefact assembled from [`SuiteSpec`] outcomes. Fig. 8 is not
/// one: it scores the cached pre-trained models and runs no spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artefact {
    /// Table I: the four paper pipelines.
    Table1,
    /// Fig. 4: the score histogram of one prunable site (the index is
    /// clamped to the pruned network's site count).
    Fig4 {
        /// Index of the displayed site.
        site: usize,
    },
    /// Fig. 7: layer-wise mean scores.
    Fig7,
    /// Table II: the strategy ablation on ResNet56-C10.
    Table2,
    /// Table III: the regulariser ablation.
    Table3,
    /// Fig. 6: the class-aware method against the baseline criteria.
    Fig6,
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

fn t1_id(arch: Arch, data: DataKind) -> String {
    format!("t1-{}-{}", slug(arch.name()), slug(data.name()))
}

fn t2_id(strategy: PruneStrategy) -> String {
    format!("t2-resnet56-cifar10-{}", slug(strategy.label()))
}

fn t3_id(arch: Arch, reg: RegularizerConfig) -> String {
    format!("t3-{}-cifar10-{}", slug(arch.name()), slug(reg.label()))
}

fn fig6_id(criterion: &str) -> String {
    format!("fig6-{}", slug(criterion))
}

/// The four model/dataset pairs of Table I, in row order.
const PAPER_PAIRS: [(Arch, DataKind); 4] = [
    (Arch::Vgg16, DataKind::C10),
    (Arch::Vgg19, DataKind::C100),
    (Arch::ResNet56, DataKind::C10),
    (Arch::ResNet56, DataKind::C100),
];

/// Table II's extra strategies; its combined row is the Table I run.
fn ablated_strategies() -> [PruneStrategy; 2] {
    [
        PruneStrategy::Percentage { fraction: 0.10 },
        PruneStrategy::Threshold {
            threshold: cap_core::threshold_for_classes(10),
        },
    ]
}

/// The regulariser variants of Table III and Fig. 8, in row order. The
/// last is the paper's L1+Lorth: Table III's rows for it are the Table I
/// runs.
pub(crate) fn regularizer_variants() -> [RegularizerConfig; 4] {
    [
        RegularizerConfig::none(),
        RegularizerConfig::l1_only(),
        RegularizerConfig::orth_only(),
        RegularizerConfig::paper(),
    ]
}

/// The whole grid as independent specs, deduplicated: the four paper
/// pipelines appear once (Table I, reused by Tables II/III and
/// Figs. 4/6/7), plus the Table II strategy ablation, the Table III
/// regulariser ablation, and the Fig. 6 baseline criteria.
pub fn suite_specs() -> Vec<SuiteSpec> {
    let mut specs = Vec::new();
    // Table I: the four paper-regularised pipelines.
    for (arch, data) in PAPER_PAIRS {
        specs.push(SuiteSpec {
            id: t1_id(arch, data),
            arch,
            data,
            strategy: PruneStrategy::paper_combined(data.classes()),
            regularizer: RegularizerConfig::paper(),
            criterion: None,
        });
    }
    // Table II: extra strategies on ResNet56-C10 (combined row = t1).
    for strategy in ablated_strategies() {
        specs.push(SuiteSpec {
            id: t2_id(strategy),
            arch: Arch::ResNet56,
            data: DataKind::C10,
            strategy,
            regularizer: RegularizerConfig::paper(),
            criterion: None,
        });
    }
    // Table III: regulariser ablation (paper rows = t1).
    for arch in [Arch::Vgg16, Arch::ResNet56] {
        for reg in regularizer_variants() {
            if reg == RegularizerConfig::paper() {
                continue;
            }
            specs.push(SuiteSpec {
                id: t3_id(arch, reg),
                arch,
                data: DataKind::C10,
                strategy: PruneStrategy::paper_combined(10),
                regularizer: reg,
                criterion: None,
            });
        }
    }
    // Fig. 6: baseline criteria on the VGG16-C10 pre-trained model.
    for criterion in standard_criteria() {
        specs.push(SuiteSpec {
            id: fig6_id(criterion.name()),
            arch: Arch::Vgg16,
            data: DataKind::C10,
            strategy: PruneStrategy::paper_combined(10),
            regularizer: RegularizerConfig::paper(),
            criterion: Some(criterion.name().to_string()),
        });
    }
    specs
}

/// Which spec fills each artefact row, in print order within each
/// artefact. Every [`suite_specs`] id appears at least once.
pub fn artefact_rows() -> Vec<(Artefact, String)> {
    let mut rows = Vec::new();
    for (arch, data) in PAPER_PAIRS {
        rows.push((Artefact::Table1, t1_id(arch, data)));
    }
    // VGG16-C10 conv1, VGG19-C100 conv3, a mid-network ResNet56-C10 layer.
    for (site, (arch, data)) in [0, 2, 19].into_iter().zip(PAPER_PAIRS) {
        rows.push((Artefact::Fig4 { site }, t1_id(arch, data)));
    }
    for (arch, data) in PAPER_PAIRS {
        rows.push((Artefact::Fig7, t1_id(arch, data)));
    }
    for strategy in ablated_strategies() {
        rows.push((Artefact::Table2, t2_id(strategy)));
    }
    rows.push((Artefact::Table2, t1_id(Arch::ResNet56, DataKind::C10)));
    for arch in [Arch::Vgg16, Arch::ResNet56] {
        for reg in regularizer_variants() {
            let id = if reg == RegularizerConfig::paper() {
                t1_id(arch, DataKind::C10)
            } else {
                t3_id(arch, reg)
            };
            rows.push((Artefact::Table3, id));
        }
    }
    rows.push((Artefact::Fig6, t1_id(Arch::Vgg16, DataKind::C10)));
    for criterion in standard_criteria() {
        rows.push((Artefact::Fig6, fig6_id(criterion.name())));
    }
    rows
}

/// Looks a spec up by id.
pub fn find_spec(id: &str) -> Option<SuiteSpec> {
    suite_specs().into_iter().find(|s| s.id == id)
}

/// The importance-scoring configuration of every experiment at `scale`.
pub fn score_config(scale: &ExperimentScale) -> ScoreConfig {
    ScoreConfig {
        images_per_class: scale.images_per_class,
        tau: scale.tau,
        ..ScoreConfig::default()
    }
}

/// The matched schedule every Fig. 6 baseline criterion runs under:
/// 10% of the filters per iteration for at most six iterations, each
/// followed by unregularised fine-tuning.
pub fn fig6_schedule(scale: &ExperimentScale) -> BaselineConfig {
    BaselineConfig {
        fraction_per_iter: 0.10,
        iterations: scale.max_iterations.min(6),
        finetune: train_config(scale.finetune_epochs, scale, RegularizerConfig::none()),
        eval_batch: scale.batch_size,
        seed: scale.seed,
    }
}

/// Executes one spec end-to-end at `scale`, pre-training through the
/// shared on-disk `cache` (so fleet workers share pre-trained weights
/// exactly like the serial suite).
///
/// For class-aware specs with `run_dir`: a directory without a journal
/// starts a fresh durable run (`run_with_dir`); a directory holding a
/// journal resumes it (`ClassAwarePruner::resume`), replaying completed
/// iterations bit-identically. Baseline-criterion specs are not
/// journaled — they rerun from scratch, which the determinism contract
/// makes equivalent.
///
/// # Errors
///
/// Propagates dataset/pre-train/prune errors as strings (the fleet
/// worker's exit boundary).
pub fn run_spec(
    spec: &SuiteSpec,
    scale: &ExperimentScale,
    cache: &Path,
    run_dir: Option<&Path>,
) -> Result<SpecOutcome, String> {
    let data = build_dataset(spec.data, scale).map_err(|e| format!("dataset: {e}"))?;
    let mut prepared = pretrain_cached(spec.arch, spec.data, &data, scale, spec.regularizer, cache)
        .map_err(|e| format!("pretrain: {e}"))?;
    let baseline_accuracy = prepared.baseline_accuracy;
    if let Some(name) = &spec.criterion {
        let mut criterion = standard_criteria()
            .into_iter()
            .find(|c| c.name() == name.as_str())
            .ok_or_else(|| format!("unknown baseline criterion {name:?}"))?;
        let outcome = run_baseline(
            criterion.as_mut(),
            &mut prepared.net,
            data.train(),
            data.test(),
            &fig6_schedule(scale),
        )
        .map_err(|e| format!("baseline {name}: {e}"))?;
        return Ok(SpecOutcome {
            baseline_accuracy,
            final_accuracy: outcome.final_accuracy,
            pruning_ratio: outcome.pruning_ratio(),
            flops_reduction: outcome.flops_reduction(),
            prune: None,
        });
    }
    let pruner = ClassAwarePruner::new(PruneConfig {
        score: score_config(scale),
        strategy: spec.strategy,
        finetune: train_config(scale.finetune_epochs, scale, spec.regularizer),
        max_iterations: scale.max_iterations,
        accuracy_drop_limit: scale.accuracy_drop_limit,
        eval_batch: scale.batch_size,
    })
    .map_err(|e| format!("config: {e}"))?;
    let outcome = match run_dir {
        Some(dir) if dir.join("journal.jsonl").exists() => {
            let dir = RunDir::open(dir).map_err(|e| format!("open run dir: {e}"))?;
            let (_, outcome) = pruner
                .resume(data.train(), data.test(), &dir)
                .map_err(|e| format!("resume: {e}"))?;
            outcome
        }
        Some(dir) => {
            let dir = RunDir::create(dir).map_err(|e| format!("create run dir: {e}"))?;
            pruner
                .run_with_dir(&mut prepared.net, data.train(), data.test(), &dir)
                .map_err(|e| format!("prune: {e}"))?
        }
        None => pruner
            .run(&mut prepared.net, data.train(), data.test())
            .map_err(|e| format!("prune: {e}"))?,
    };
    Ok(SpecOutcome {
        baseline_accuracy,
        final_accuracy: outcome.final_accuracy,
        pruning_ratio: outcome.pruning_ratio(),
        flops_reduction: outcome.flops_reduction(),
        prune: Some(outcome),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_are_unique_stable_and_filesystem_safe() {
        let specs = suite_specs();
        assert!(specs.len() >= 12, "grid too small: {}", specs.len());
        let ids: BTreeSet<&str> = specs.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids.len(), specs.len(), "duplicate spec ids");
        for id in &ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "unsafe id {id:?}"
            );
        }
        // Stable anchors other tooling (CI, docs) may reference.
        assert!(ids.contains("t1-vgg16-cifar10"), "{ids:?}");
        assert!(ids.contains("t2-resnet56-cifar10-percentage"), "{ids:?}");
        assert!(ids.contains("fig6-l1"), "{ids:?}");
        // Enumeration is deterministic.
        let again: Vec<String> = suite_specs().into_iter().map(|s| s.id).collect();
        let first: Vec<String> = specs.into_iter().map(|s| s.id).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn find_spec_round_trips_every_id() {
        for spec in suite_specs() {
            let found = find_spec(&spec.id).expect("id must round-trip");
            assert_eq!(found.criterion, spec.criterion);
        }
        assert!(find_spec("no-such-spec").is_none());
    }
}
