//! The paper's artefacts as row types, and [`run_suite`], which fills
//! every one of them from the [`crate::specs`] grid.

use crate::specs::{
    artefact_rows, regularizer_variants, run_spec, score_config, suite_specs, Artefact, SpecOutcome,
};
use crate::{build_dataset, pretrain_cached, Arch, DataKind, ExperimentScale};
use cap_core::{
    evaluate_scores, find_prunable_sites, layerwise_mean_scores, PruneOutcome, ScoreHistogram,
};
use std::collections::BTreeMap;
use std::path::Path;

/// Result alias for experiment runners.
pub type ExpResult<T> = Result<T, Box<dyn std::error::Error>>;

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// "VGG16-CIFAR10" style label.
    pub name: String,
    /// Original top-1 accuracy.
    pub original_acc: f64,
    /// Accuracy after class-aware pruning.
    pub pruned_acc: f64,
    /// Parameter pruning ratio.
    pub pruning_ratio: f64,
    /// FLOPs reduction.
    pub flops_reduction: f64,
}

/// One row of Table II (strategy ablation, ResNet56-CIFAR10).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Strategy label.
    pub strategy: &'static str,
    /// Accuracy after pruning.
    pub pruned_acc: f64,
    /// Drop vs. the unpruned baseline (negative = worse).
    pub drop: f64,
    /// Parameter pruning ratio.
    pub pruning_ratio: f64,
    /// FLOPs reduction.
    pub flops_reduction: f64,
}

/// One row of Table III (regulariser ablation).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Model-dataset label.
    pub model: String,
    /// Regulariser label ("/", "L1", "Lorth", "L1+Lorth").
    pub regularizer: &'static str,
    /// Accuracy after pruning.
    pub pruned_acc: f64,
    /// Drop vs. the unpruned baseline.
    pub drop: f64,
    /// Parameter pruning ratio.
    pub pruning_ratio: f64,
    /// FLOPs reduction.
    pub flops_reduction: f64,
}

/// Result of the Fig. 4 experiment: single-layer score histograms before
/// and after pruning.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Model-dataset label.
    pub name: String,
    /// Label of the displayed layer.
    pub layer: String,
    /// Histogram before pruning.
    pub before: ScoreHistogram,
    /// Histogram after pruning.
    pub after: ScoreHistogram,
}

/// One row of the Fig. 6 comparison.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Method name ("Class-aware (ours)", "L1", ...).
    pub method: String,
    /// Accuracy after pruning.
    pub accuracy: f64,
    /// Parameter pruning ratio.
    pub pruning_ratio: f64,
    /// FLOPs reduction.
    pub flops_reduction: f64,
}

/// Result of the Fig. 7 experiment for one model.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Model-dataset label.
    pub name: String,
    /// `(layer label, mean score before, mean score after)` rows.
    pub layers: Vec<(String, f64, f64)>,
}

/// One row of the Fig. 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Regulariser label.
    pub regularizer: &'static str,
    /// Score histogram after training VGG16-C10 under this regulariser.
    pub histogram: ScoreHistogram,
    /// Fraction of filters with score < 1.
    pub low_fraction: f64,
    /// Fraction of filters with the maximum score.
    pub high_fraction: f64,
    /// Combined low+high mass.
    pub polarization: f64,
}

fn class_aware<'a>(id: &str, out: &'a SpecOutcome) -> ExpResult<&'a PruneOutcome> {
    Ok(out
        .prune
        .as_ref()
        .ok_or_else(|| format!("{id} has no class-aware outcome"))?)
}

/// Every artefact of the paper's evaluation, in `exp_suite`'s print
/// order.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    /// Table I rows.
    pub table1: Vec<Table1Row>,
    /// Fig. 4 histograms.
    pub fig4: Vec<Fig4Result>,
    /// Fig. 7 layer-wise means.
    pub fig7: Vec<Fig7Result>,
    /// Table II rows.
    pub table2: Vec<Table2Row>,
    /// Table III rows.
    pub table3: Vec<Table3Row>,
    /// Fig. 8 rows.
    pub fig8: Vec<Fig8Row>,
    /// Fig. 6 rows (VGG16-CIFAR10).
    pub fig6: Vec<Fig6Row>,
}

/// Regenerates every table and figure at `scale`: runs each
/// [`suite_specs`] cell once through [`run_spec`] (pre-training through
/// the on-disk `cache`, so all methods start from the same weights),
/// assembles the rows [`artefact_rows`] names, and scores the cached
/// pre-trained VGG16-C10 models for Fig. 8.
///
/// Emits `pipeline_done` per class-aware run and `baseline_done` per
/// baseline criterion.
///
/// # Errors
///
/// Propagates dataset, pre-training, pruning and scoring errors.
pub fn run_suite(scale: &ExperimentScale, cache: &Path) -> ExpResult<SuiteReport> {
    let mut runs = BTreeMap::new();
    for spec in suite_specs() {
        let started = cap_obs::clock::now();
        let out = run_spec(&spec, scale, cache, None).map_err(|e| format!("{}: {e}", spec.id))?;
        let elapsed = started.elapsed().as_secs_f64();
        if let Some(prune) = &out.prune {
            cap_obs::emit(
                cap_obs::Event::new("pipeline_done")
                    .str("arch", spec.arch.name())
                    .str("dataset", spec.data.name())
                    .str("strategy", spec.strategy.label())
                    .str("regularizer", spec.regularizer.label())
                    .f64("pruning_ratio", out.pruning_ratio)
                    .f64("flops_reduction", out.flops_reduction)
                    .f64("baseline_accuracy", out.baseline_accuracy)
                    .f64("final_accuracy", out.final_accuracy)
                    .str("stop_reason", format!("{:?}", prune.stop_reason))
                    .f64("elapsed_secs", elapsed),
            );
        } else {
            cap_obs::emit(
                cap_obs::Event::new("baseline_done")
                    .str("method", spec.criterion.clone().unwrap_or_default())
                    .f64("pruning_ratio", out.pruning_ratio)
                    .f64("final_accuracy", out.final_accuracy)
                    .f64("elapsed_secs", elapsed),
            );
        }
        runs.insert(spec.id.clone(), (spec, out));
    }

    let mut report = SuiteReport::default();
    for (artefact, id) in artefact_rows() {
        let (spec, out) = runs
            .get(&id)
            .ok_or_else(|| format!("artefact row names unknown spec {id:?}"))?;
        let name = format!("{}-{}", spec.arch.name(), spec.data.name());
        let drop = out.final_accuracy - out.baseline_accuracy;
        match artefact {
            Artefact::Table1 => report.table1.push(Table1Row {
                name,
                original_acc: out.baseline_accuracy,
                pruned_acc: out.final_accuracy,
                pruning_ratio: out.pruning_ratio,
                flops_reduction: out.flops_reduction,
            }),
            Artefact::Fig4 { site } => {
                let prune = class_aware(&id, out)?;
                let site = site.min(prune.scores_before.sites.len().saturating_sub(1));
                report.fig4.push(Fig4Result {
                    name,
                    layer: prune
                        .scores_before
                        .sites
                        .get(site)
                        .map(|s| s.label.clone())
                        .unwrap_or_default(),
                    before: ScoreHistogram::from_site(&prune.scores_before, site),
                    after: ScoreHistogram::from_site(&prune.scores_after, site),
                });
            }
            Artefact::Fig7 => {
                let prune = class_aware(&id, out)?;
                report.fig7.push(Fig7Result {
                    name,
                    layers: layerwise_mean_scores(&prune.scores_before, &prune.scores_after),
                });
            }
            Artefact::Table2 => report.table2.push(Table2Row {
                strategy: spec.strategy.label(),
                pruned_acc: out.final_accuracy,
                drop,
                pruning_ratio: out.pruning_ratio,
                flops_reduction: out.flops_reduction,
            }),
            Artefact::Table3 => report.table3.push(Table3Row {
                model: name,
                regularizer: spec.regularizer.label(),
                pruned_acc: out.final_accuracy,
                drop,
                pruning_ratio: out.pruning_ratio,
                flops_reduction: out.flops_reduction,
            }),
            Artefact::Fig6 => report.fig6.push(Fig6Row {
                method: spec
                    .criterion
                    .clone()
                    .unwrap_or_else(|| "Class-aware (ours)".to_string()),
                accuracy: out.final_accuracy,
                pruning_ratio: out.pruning_ratio,
                flops_reduction: out.flops_reduction,
            }),
        }
    }

    // Fig. 8: no pruning, only the scores of each regulariser's
    // pre-trained VGG16-C10 model.
    let data = build_dataset(DataKind::C10, scale)?;
    for reg in regularizer_variants() {
        let mut prepared = pretrain_cached(Arch::Vgg16, DataKind::C10, &data, scale, reg, cache)?;
        let sites = find_prunable_sites(&prepared.net);
        let scores = evaluate_scores(
            &mut prepared.net,
            &sites,
            data.train(),
            &score_config(scale),
        )?;
        let histogram = ScoreHistogram::from_scores(&scores);
        report.fig8.push(Fig8Row {
            regularizer: reg.label(),
            low_fraction: histogram.low_fraction(),
            high_fraction: histogram.high_fraction(),
            polarization: histogram.polarization(),
            histogram,
        });
    }
    Ok(report)
}
