//! Class-aware importance scores for filters (paper Sec. III-B).
//!
//! For a filter `f` and class `n`, the score `s_{f,n} ∈ [0, 1]` is
//! computed from first-order Taylor scores of the filter's activation
//! outputs (Eq. 4): `Θ'(aᵢ, xⱼ) = |aᵢ · ∂L(xⱼ)/∂aᵢ|`, binarised at a
//! threshold `τ` (Eq. 5), averaged over `M` images of the class (Eq. 6)
//! and maximised over the filter's activation outputs (Eq. 7). The
//! *total* score of a filter is the sum of `s_{f,n}` over all classes —
//! "how many classes is this filter important for".

use crate::{PrunableSite, PruneError};
use cap_data::Dataset;
use cap_nn::{CrossEntropyLoss, Network, Reduction};
use cap_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// How the Taylor-score binarisation threshold `τ` (Eq. 5) is chosen.
///
/// The paper uses a fixed `τ = 1e-50`: at its training scale (full-width
/// networks trained to convergence with the modified cost), unimportant
/// activations produce *exactly zero* Taylor scores through ReLU gating,
/// so "strictly non-zero" separates them. On a smaller substrate the
/// zero structure is weaker and a threshold calibrated to the layer's
/// own score magnitude expresses the same "contributes significantly"
/// semantics (the paper's phrasing: "if the Taylor-score of an
/// activation output is near zero, this activation can be considered
/// not to contribute significantly").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TauMode {
    /// Fixed threshold on `Θ'` (the paper's setting, default `1e-50`).
    Absolute(f64),
    /// Threshold at `α ·` (mean `Θ'` over all activations of the site
    /// for the current class batch).
    SiteRelative(f64),
}

impl Default for TauMode {
    fn default() -> Self {
        TauMode::Absolute(1e-50)
    }
}

impl TauMode {
    fn validate(&self) -> Result<(), PruneError> {
        let v = match *self {
            TauMode::Absolute(v) | TauMode::SiteRelative(v) => v,
        };
        if !(v.is_finite() && v >= 0.0) {
            return Err(PruneError::InvalidConfig {
                reason: format!("tau parameter {v} must be finite and non-negative"),
            });
        }
        Ok(())
    }
}

/// Configuration of the importance-score evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreConfig {
    /// Number of images per class (`M`; paper uses 10 and verifies more
    /// images do not change the scores).
    pub images_per_class: usize,
    /// Taylor-score binarisation threshold `τ`.
    pub tau: TauMode,
    /// Seed for the per-class image selection.
    pub seed: u64,
}

impl Default for ScoreConfig {
    fn default() -> Self {
        ScoreConfig {
            images_per_class: 10,
            tau: TauMode::default(),
            seed: 0x5C0E,
        }
    }
}

impl ScoreConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::InvalidConfig`] for a zero image count or a
    /// non-finite / negative `τ` parameter.
    pub fn validate(&self) -> Result<(), PruneError> {
        if self.images_per_class == 0 {
            return Err(PruneError::InvalidConfig {
                reason: "images_per_class must be non-zero".to_string(),
            });
        }
        self.tau.validate()
    }
}

/// Scores of the filters at one prunable site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteScores {
    /// The site's label (mirrors [`PrunableSite::label`]).
    pub label: String,
    /// Class-count score per filter, each in `[0, classes]`.
    pub scores: Vec<f64>,
}

impl SiteScores {
    /// Mean score across the site's filters (0 for an empty site).
    pub fn mean(&self) -> f64 {
        if self.scores.is_empty() {
            return 0.0;
        }
        self.scores.iter().sum::<f64>() / self.scores.len() as f64
    }
}

/// Scores for every prunable site of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkScores {
    /// Per-site scores, aligned with the site list used for evaluation.
    pub sites: Vec<SiteScores>,
    /// Number of classes the scores were evaluated against.
    pub classes: usize,
}

impl NetworkScores {
    /// Total number of scored filters.
    pub fn total_filters(&self) -> usize {
        self.sites.iter().map(|s| s.scores.len()).sum()
    }

    /// Iterates over `(site_index, filter_index, score)` triples.
    pub fn iter_scores(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.sites
            .iter()
            .enumerate()
            .flat_map(|(si, s)| s.scores.iter().enumerate().map(move |(fi, &v)| (si, fi, v)))
    }

    /// Mean score over all filters (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.total_filters();
        if n == 0 {
            return 0.0;
        }
        self.iter_scores().map(|(_, _, v)| v).sum::<f64>() / n as f64
    }
}

/// The per-class score breakdown of one site: `per_class[f][n]` is
/// `s_{f,n}` (Eq. 7) for filter `f` and class `n` — the matrix the
/// summed [`SiteScores`] collapse, kept so "which classes made this
/// filter important (or not)" stays answerable after pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteAttribution {
    /// The site's label (mirrors [`PrunableSite::label`]).
    pub label: String,
    /// `s_{f,n}` per `[filter][class]`, each in `[0, 1]`.
    pub per_class: Vec<Vec<f64>>,
}

/// Per-class attribution for every scored site.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAttribution {
    /// Per-site matrices, aligned with [`NetworkScores::sites`].
    pub sites: Vec<SiteAttribution>,
    /// Number of classes (the inner dimension).
    pub classes: usize,
}

impl ClassAttribution {
    /// The class with the largest `s_{f,n}` for `filter` at `site`
    /// (ties break to the lowest class index; `None` out of range or
    /// when every class scores zero).
    pub fn top_class(&self, site: usize, filter: usize) -> Option<usize> {
        let row = self.sites.get(site)?.per_class.get(filter)?;
        let (mut best_class, mut best) = (None, 0.0f64);
        for (n, &v) in row.iter().enumerate() {
            if v > best {
                best = v;
                best_class = Some(n);
            }
        }
        best_class
    }
}

/// Most images one scoring pass carries. Whole classes are packed into
/// chunks of at most this many images (a class larger than the cap gets
/// a chunk of its own). Anywhere from 24 to 96 scores equally fast, but
/// a pass holds every layer's activations for its images (~0.36 MiB per
/// image on VGG16-C10 at width 0.25): 48 raised that pruning loop's
/// peak RSS by ~5 MiB, 24 leaves it where per-class passes had it. It
/// must also stay below the 256-row direct-GEMM limit so that a chunk
/// and a lone class pick the same GEMM path, which keeps the scores
/// bit-identical to one pass per class.
const CHUNK_IMAGES: usize = 24;

/// Evaluates class-aware importance scores for the given sites.
///
/// The network is treated as frozen and runs in scoring mode (see
/// [`Network::set_record_activations`]): eval-mode forward passes and
/// input-gradient-only backward passes, so no parameter gradient is
/// computed or touched. Every class batch is drawn first, in class
/// order; whole classes are then packed into chunks, and one
/// forward/backward pair per chunk scores every activation output of
/// every site for all of its classes at once (the paper's
/// single-backward Taylor approximation). With the summed loss in eval
/// mode each image's `∂L/∂a` depends on that image alone, so the scores
/// are bit-identical to one pass per class.
///
/// # Errors
///
/// Propagates dataset sampling errors, network shape errors and
/// configuration errors.
pub fn evaluate_scores(
    net: &mut Network,
    sites: &[PrunableSite],
    data: &Dataset,
    cfg: &ScoreConfig,
) -> Result<NetworkScores, PruneError> {
    Ok(evaluate_scores_with_attribution(net, sites, data, cfg)?.0)
}

/// [`evaluate_scores`] keeping the per-class breakdown alongside the
/// summed totals. `scores.sites[i].scores[f]` is exactly the sum of
/// `attribution.sites[i].per_class[f]` in class order (same additions,
/// same order — bit-identical to [`evaluate_scores`] at any thread
/// count).
///
/// # Errors
///
/// Propagates dataset sampling errors, network shape errors and
/// configuration errors.
pub fn evaluate_scores_with_attribution(
    net: &mut Network,
    sites: &[PrunableSite],
    data: &Dataset,
    cfg: &ScoreConfig,
) -> Result<(NetworkScores, ClassAttribution), PruneError> {
    // Profiler scope: class-aware Taylor scoring is a large share of a
    // pruning iteration, so it gets its own frame in sampled
    // flamegraphs.
    let _span = cap_obs::span!("core.score");
    cfg.validate()?;
    let classes = data.classes();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let loss_fn = CrossEntropyLoss::new(Reduction::Sum);

    let mut per_site: Vec<SiteScores> = sites
        .iter()
        .map(|s| {
            Ok(SiteScores {
                label: s.label.clone(),
                scores: vec![0.0; s.filters(net)?],
            })
        })
        .collect::<Result<_, PruneError>>()?;
    let mut per_site_attr: Vec<SiteAttribution> = per_site
        .iter()
        .map(|s| SiteAttribution {
            label: s.label.clone(),
            per_class: vec![vec![0.0; classes]; s.scores.len()],
        })
        .collect();

    // All draws up front, in class order: the rng sequence is the one a
    // pass per class would consume.
    let batches: Vec<Tensor> = (0..classes)
        .map(|class| data.sample_class_batch(class, cfg.images_per_class, &mut rng))
        .collect::<Result<_, _>>()?;

    net.set_record_activations(true);
    let result = (|| -> Result<(), PruneError> {
        for chunk in class_chunks(&batches) {
            let (x, labels) = stack_classes(&batches, chunk.clone())?;
            let logits = net.forward(&x, false)?;
            let out = loss_fn.forward(&logits, &labels)?;
            net.backward(&out.grad)?;
            for ((site, acc), attr) in sites
                .iter()
                .zip(per_site.iter_mut())
                .zip(per_site_attr.iter_mut())
            {
                let conv = site.conv(net)?;
                let a = conv
                    .recorded_output()
                    .ok_or_else(|| PruneError::UnsupportedTopology {
                        reason: format!("site {} did not record activations", site.label),
                    })?;
                let g =
                    conv.recorded_output_grad()
                        .ok_or_else(|| PruneError::UnsupportedTopology {
                            reason: format!("site {} did not record gradients", site.label),
                        })?;
                let row = a.numel() / labels.len();
                let mut first = 0;
                for class in chunk.clone() {
                    let m = batches[class].dim(0);
                    let rows = first * row..(first + m) * row;
                    first += m;
                    let contrib = site_class_contributions(
                        acc.scores.len(),
                        &a.data()[rows.clone()],
                        &g.data()[rows],
                        m,
                        cfg.tau,
                    );
                    // Totals fold serially in class order: the same
                    // additions, in the same order, as one pass per class.
                    for ((score, per_class), &c) in acc
                        .scores
                        .iter_mut()
                        .zip(attr.per_class.iter_mut())
                        .zip(contrib.iter())
                    {
                        *score += c;
                        per_class[class] = c;
                    }
                }
            }
        }
        Ok(())
    })();
    net.set_record_activations(false);
    result?;

    Ok((
        NetworkScores {
            sites: per_site,
            classes,
        },
        ClassAttribution {
            sites: per_site_attr,
            classes,
        },
    ))
}

/// Splits the classes, in order, into runs whose batches together hold
/// at most [`CHUNK_IMAGES`] images (at least one class per run).
fn class_chunks(batches: &[Tensor]) -> Vec<Range<usize>> {
    let mut chunks: Vec<Range<usize>> = Vec::new();
    let mut images = 0;
    for (class, batch) in batches.iter().enumerate() {
        let m = batch.dim(0);
        match chunks.last_mut() {
            Some(run) if images + m <= CHUNK_IMAGES => run.end = class + 1,
            _ => {
                chunks.push(class..class + 1);
                images = 0;
            }
        }
        images += m;
    }
    chunks
}

/// Stacks the batches of `classes` into one NCHW tensor with its labels.
fn stack_classes(
    batches: &[Tensor],
    classes: Range<usize>,
) -> Result<(Tensor, Vec<usize>), PruneError> {
    let mut shape = batches[classes.start].shape().to_vec();
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for class in classes {
        let batch = &batches[class];
        data.extend_from_slice(batch.data());
        labels.extend(std::iter::repeat_n(class, batch.dim(0)));
    }
    shape[0] = labels.len();
    Ok((Tensor::from_vec(shape, data)?, labels))
}

/// Computes `s_{f,n}` (Eq. 5–7) for one class and every filter of a
/// site, given flat NCHW activation and gradient buffers for `m`
/// samples. Returns one value per filter.
fn site_class_contributions(
    filters: usize,
    activations: &[f32],
    grads: &[f32],
    m: usize,
    tau_mode: TauMode,
) -> Vec<f64> {
    let mut contrib = vec![0.0f64; filters];
    if filters == 0 || m == 0 {
        return contrib;
    }
    let tau = match tau_mode {
        TauMode::Absolute(v) => v,
        TauMode::SiteRelative(alpha) => {
            let mut sum = 0.0f64;
            for (a, g) in activations.iter().zip(grads.iter()) {
                sum += f64::from((a * g).abs());
            }
            alpha * sum / activations.len().max(1) as f64
        }
    };
    let plane = activations.len() / (m * filters);
    // Filters are independent: each task owns a contiguous run of score
    // slots and runs the unchanged per-filter loop, so the result is
    // bit-identical for any thread count.
    let chunk = filters.div_ceil(cap_par::effective_parallelism());
    cap_par::parallel_chunks_mut(&mut contrib, chunk, |ci, slots| {
        for (j, slot) in slots.iter_mut().enumerate() {
            let f = ci * chunk + j;
            // s_ave over positions; track the max on the fly (Eq. 6-7).
            let mut best = 0.0f64;
            for pos in 0..plane {
                let mut hits = 0usize;
                for sample in 0..m {
                    let idx = (sample * filters + f) * plane + pos;
                    let theta = f64::from((activations[idx] * grads[idx]).abs());
                    if theta > tau {
                        hits += 1;
                    }
                }
                let s_ave = hits as f64 / m as f64;
                if s_ave > best {
                    best = s_ave;
                    if best >= 1.0 {
                        break;
                    }
                }
            }
            *slot = best;
        }
    });
    contrib
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_prunable_sites;
    use cap_data::{DatasetSpec, SyntheticDataset};
    use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};

    fn tiny_data() -> SyntheticDataset {
        SyntheticDataset::generate(
            &DatasetSpec::cifar10_like()
                .with_image_size(8)
                .with_counts(12, 4),
        )
        .unwrap()
    }

    fn tiny_net(rng: &mut StdRng) -> Network {
        let mut net = Network::new();
        net.push(Conv2d::new(3, 8, 3, 1, 1, false, rng).unwrap());
        net.push(BatchNorm2d::new(8).unwrap());
        net.push(Relu::new());
        net.push(Conv2d::new(8, 8, 3, 1, 1, false, rng).unwrap());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(8, 10, rng).unwrap());
        net
    }

    #[test]
    fn scores_are_bounded_by_class_count() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let scores =
            evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        assert_eq!(scores.classes, 10);
        assert_eq!(scores.total_filters(), 16);
        for (_, _, v) in scores.iter_scores() {
            assert!((0.0..=10.0).contains(&v), "score {v} out of range");
        }
    }

    #[test]
    fn zeroed_filter_scores_zero() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = tiny_net(&mut rng);
        // Kill filter 3 of conv1: its activations are identically zero, so
        // every Taylor score is zero and the class count must be 0.
        if let Some(c) = net.layers_mut()[0].as_conv_mut() {
            let fsize = 3 * 9;
            for v in &mut c.weight_mut().data_mut()[3 * fsize..4 * fsize] {
                *v = 0.0;
            }
        }
        let sites = find_prunable_sites(&net);
        let scores =
            evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        assert_eq!(scores.sites[0].scores[3], 0.0);
        // A live filter should score above zero.
        assert!(scores.sites[0].scores.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn scores_are_deterministic_in_seed() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let a = evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        let b = evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scores_bit_identical_across_thread_counts() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let prior = cap_par::threads();
        cap_par::set_threads(1);
        let serial =
            evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        cap_par::set_threads(4);
        let parallel =
            evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        cap_par::set_threads(prior);
        assert_eq!(serial.total_filters(), parallel.total_filters());
        for ((_, _, a), (_, _, b)) in serial.iter_scores().zip(parallel.iter_scores()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn attribution_rows_sum_to_totals_bit_exactly() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let (scores, attr) = evaluate_scores_with_attribution(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig::default(),
        )
        .unwrap();
        assert_eq!(attr.classes, scores.classes);
        assert_eq!(attr.sites.len(), scores.sites.len());
        for (site, asite) in scores.sites.iter().zip(attr.sites.iter()) {
            assert_eq!(site.label, asite.label);
            for (f, &total) in site.scores.iter().enumerate() {
                // Fold in class order: the exact additions the totals ran.
                let mut sum = 0.0f64;
                for &c in &asite.per_class[f] {
                    assert!((0.0..=1.0).contains(&c), "s_f,n {c} out of range");
                    sum += c;
                }
                assert_eq!(sum.to_bits(), total.to_bits(), "{sum} vs {total}");
            }
        }
    }

    #[test]
    fn attribution_matches_plain_scores_and_threads() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let plain =
            evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        let prior = cap_par::threads();
        cap_par::set_threads(1);
        let (with1, attr1) = evaluate_scores_with_attribution(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig::default(),
        )
        .unwrap();
        cap_par::set_threads(4);
        let (with4, attr4) = evaluate_scores_with_attribution(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig::default(),
        )
        .unwrap();
        cap_par::set_threads(prior);
        assert_eq!(plain, with1);
        assert_eq!(with1, with4);
        assert_eq!(attr1, attr4);
        // top_class is in range and consistent with the matrix argmax.
        if let Some(top) = attr1.top_class(0, 0) {
            assert!(top < attr1.classes);
            let row = &attr1.sites[0].per_class[0];
            assert!(row.iter().all(|&v| v <= row[top]));
        }
        assert_eq!(attr1.top_class(99, 0), None);
    }

    #[test]
    fn scores_stable_in_m() {
        // The paper: "by evaluating more than 10 images the importance
        // scores of filters are almost the same". With this data, M=8 vs
        // M=12 must correlate strongly.
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let small = evaluate_scores(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig {
                images_per_class: 8,
                ..ScoreConfig::default()
            },
        )
        .unwrap();
        let large = evaluate_scores(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig {
                images_per_class: 12,
                ..ScoreConfig::default()
            },
        )
        .unwrap();
        let mut dev = 0.0f64;
        for ((_, _, a), (_, _, b)) in small.iter_scores().zip(large.iter_scores()) {
            dev = dev.max((a - b).abs());
        }
        assert!(dev <= 2.0, "max deviation {dev} too large");
    }

    #[test]
    fn huge_tau_zeroes_everything() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let scores = evaluate_scores(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig {
                tau: TauMode::Absolute(1e30),
                ..ScoreConfig::default()
            },
        )
        .unwrap();
        assert!(scores.iter_scores().all(|(_, _, v)| v == 0.0));
    }

    #[test]
    fn config_validation() {
        assert!(ScoreConfig {
            images_per_class: 0,
            ..ScoreConfig::default()
        }
        .validate()
        .is_err());
        assert!(ScoreConfig {
            tau: TauMode::Absolute(f64::NAN),
            ..ScoreConfig::default()
        }
        .validate()
        .is_err());
        assert!(ScoreConfig::default().validate().is_ok());
    }
}
