//! Scoring oracle: `evaluate_scores_with_attribution` packs whole classes
//! into chunks and runs one scoring-mode pass per chunk. This suite
//! checks it bit for bit against the naive reading of the paper — one
//! eval-mode forward and one *full* backward per class (every layer
//! computing its parameter gradients too), then Eq. 5–7 evaluated per
//! image and per position — at 1 and 4 threads, under both `TauMode`s.
//!
//! The oracle never touches scoring mode: it runs clones of the
//! network's layers (residual blocks taken apart into their
//! sub-layers) and reads `a` and `∂L/∂a` off its own tape.

use cap_core::{
    evaluate_scores_with_attribution, find_prunable_sites, PrunableSite, ScoreConfig, SiteKind,
    TauMode,
};
use cap_data::{Dataset, DatasetSpec, SyntheticDataset};
use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, Relu, ResidualBlock};
use cap_nn::{fit, CrossEntropyLoss, Network, Reduction, TrainConfig};
use cap_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Stem conv, an identity block, a block with a projection shortcut,
/// then the classifier head.
fn resnet(classes: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 6, 3, 1, 1, false, &mut rng).unwrap());
    net.push(BatchNorm2d::new(6).unwrap());
    net.push(Relu::new());
    net.push(ResidualBlock::new(6, 6, 1, &mut rng).unwrap());
    net.push(ResidualBlock::new(6, 10, 2, &mut rng).unwrap());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(10, classes, &mut rng).unwrap());
    net
}

/// A short fit so batch-norm running statistics are not the identity.
fn pretrained(classes: usize, data: &Dataset) -> Network {
    let mut net = resnet(classes);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        ..TrainConfig::default()
    };
    fit(&mut net, data.images(), data.labels(), &cfg).unwrap();
    net
}

/// CIFAR-10-like train split with class `c` cut to `12 - c` images, so
/// with `M = 8` classes 5..9 hold fewer than `M` images and the 73
/// images span several chunks, not all of them full.
fn uneven_c10() -> Dataset {
    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(8)
            .with_counts(12, 1),
    )
    .unwrap();
    let train = data.train();
    let mut seen = [0usize; 10];
    let keep: Vec<usize> = (0..train.len())
        .filter(|&i| {
            let c = train.labels()[i];
            seen[c] += 1;
            seen[c] <= 12 - c
        })
        .collect();
    train.subset(&keep).unwrap()
}

/// CIFAR-100-like train split with 3 images per class: every class has
/// fewer than `M = 10` images, and 100 classes span many chunks.
fn c100() -> Dataset {
    SyntheticDataset::generate(
        &DatasetSpec::cifar100_like()
            .with_image_size(8)
            .with_counts(3, 1),
    )
    .unwrap()
    .train()
    .clone()
}

/// One convolution's recorded pair.
struct Tap {
    a: Tensor,
    g: Tensor,
}

/// A residual block taken apart; `forward`/`backward` restate
/// `y = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
struct Block {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    relu_out: Relu,
    conv1_out: Option<Tensor>,
}

impl Block {
    fn new(b: &ResidualBlock) -> Block {
        Block {
            conv1: b.conv1().clone(),
            bn1: b.bn1().clone(),
            relu1: Relu::new(),
            conv2: b.conv2().clone(),
            bn2: b.bn2().clone(),
            shortcut: b.shortcut().map(|(c, n)| (c.clone(), n.clone())),
            relu_out: Relu::new(),
            conv1_out: None,
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let a = self.conv1.forward(x).unwrap();
        let mut h = self.bn1.forward(&a, false).unwrap();
        self.conv1_out = Some(a);
        h = self.relu1.forward(&h);
        h = self.conv2.forward(&h).unwrap();
        h = self.bn2.forward(&h, false).unwrap();
        let s = match &mut self.shortcut {
            Some((c, n)) => n.forward(&c.forward(x).unwrap(), false).unwrap(),
            None => x.clone(),
        };
        self.relu_out.forward(&h.add(&s).unwrap())
    }

    /// Returns `∂L/∂x` and the conv1 tap.
    fn backward(&mut self, grad: &Tensor) -> (Tensor, Tap) {
        let g = self.relu_out.backward(grad).unwrap();
        let mut gm = self.bn2.backward(&g).unwrap();
        gm = self.conv2.backward(&gm).unwrap();
        gm = self.relu1.backward(&gm).unwrap();
        let g1 = self.bn1.backward(&gm).unwrap();
        gm = self.conv1.backward(&g1).unwrap();
        let gs = match &mut self.shortcut {
            Some((c, n)) => c.backward(&n.backward(&g).unwrap()).unwrap(),
            None => g,
        };
        let tap = Tap {
            a: self.conv1_out.take().unwrap(),
            g: g1,
        };
        (gm.add(&gs).unwrap(), tap)
    }
}

enum Step {
    Plain(Box<Layer>),
    Block(Box<Block>),
}

/// One eval-mode forward and one full backward over clones of `net`'s
/// layers; returns each site conv's tap keyed by its layer index.
fn full_pass(net: &Network, x: &Tensor, labels: &[usize]) -> BTreeMap<usize, Tap> {
    let mut steps: Vec<Step> = net
        .layers()
        .iter()
        .map(|l| match l {
            Layer::Residual(b) => Step::Block(Box::new(Block::new(b))),
            other => Step::Plain(Box::new(other.clone())),
        })
        .collect();
    let mut outputs: BTreeMap<usize, Tensor> = BTreeMap::new();
    let mut h = x.clone();
    for (i, step) in steps.iter_mut().enumerate() {
        h = match step {
            Step::Plain(l) => l.forward(&h, false).unwrap(),
            Step::Block(b) => b.forward(&h),
        };
        if matches!(step, Step::Plain(l) if l.as_conv().is_some()) {
            outputs.insert(i, h.clone());
        }
    }
    let mut g = CrossEntropyLoss::new(Reduction::Sum)
        .forward(&h, labels)
        .unwrap()
        .grad;
    let mut taps = BTreeMap::new();
    for (i, step) in steps.iter_mut().enumerate().rev() {
        match step {
            Step::Plain(l) => {
                if let Some(a) = outputs.remove(&i) {
                    taps.insert(i, Tap { a, g: g.clone() });
                }
                g = l.backward(&g).unwrap();
            }
            Step::Block(b) => {
                let (gin, tap) = b.backward(&g);
                taps.insert(i, tap);
                g = gin;
            }
        }
    }
    taps
}

fn site_layer(site: &PrunableSite) -> usize {
    match site.kind {
        SiteKind::Sequential { conv_idx } => conv_idx,
        SiteKind::ResidualInternal { block_idx } => block_idx,
    }
}

/// Eq. 5–7 for one class, one image and one position at a time.
fn naive_s_fn(tap: &Tap, tau_mode: TauMode) -> Vec<f64> {
    let (m, filters, plane) = (tap.a.dim(0), tap.a.dim(1), tap.a.dim(2) * tap.a.dim(3));
    let theta = |s: usize, f: usize, p: usize| {
        let i = (s * filters + f) * plane + p;
        f64::from((tap.a.data()[i] * tap.g.data()[i]).abs())
    };
    let tau = match tau_mode {
        TauMode::Absolute(v) => v,
        TauMode::SiteRelative(alpha) => {
            let mut sum = 0.0f64;
            for s in 0..m {
                for f in 0..filters {
                    for p in 0..plane {
                        sum += theta(s, f, p);
                    }
                }
            }
            alpha * sum / (m * filters * plane) as f64
        }
    };
    (0..filters)
        .map(|f| {
            let mut best = 0.0f64;
            for p in 0..plane {
                let hits = (0..m).filter(|&s| theta(s, f, p) > tau).count();
                let s_ave = hits as f64 / m as f64;
                if s_ave > best {
                    best = s_ave;
                }
            }
            best
        })
        .collect()
}

/// `per_class[site][filter][class]` and the class-order totals.
type Naive = (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>);

fn naive_scores(net: &Network, data: &Dataset, cfg: &ScoreConfig) -> Naive {
    let sites = find_prunable_sites(net);
    let classes = data.classes();
    let mut per_class: Vec<Vec<Vec<f64>>> = sites
        .iter()
        .map(|s| vec![vec![0.0; classes]; s.filters(net).unwrap()])
        .collect();
    let mut totals: Vec<Vec<f64>> = per_class.iter().map(|f| vec![0.0; f.len()]).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    #[allow(clippy::needless_range_loop)] // class is also the label and the draw order
    for class in 0..classes {
        let batch = data
            .sample_class_batch(class, cfg.images_per_class, &mut rng)
            .unwrap();
        let labels = vec![class; batch.dim(0)];
        let taps = full_pass(net, &batch, &labels);
        for (si, site) in sites.iter().enumerate() {
            let s_fn = naive_s_fn(&taps[&site_layer(site)], cfg.tau);
            for (f, v) in s_fn.into_iter().enumerate() {
                per_class[si][f][class] = v;
                totals[si][f] += v;
            }
        }
    }
    (per_class, totals)
}

/// The binarised scores hide small numeric drift, so the raw pair is
/// checked as well: one scoring-mode pass over every class stacked
/// records, row for row, the bits of the per-class full passes.
fn assert_taps_match(net: &mut Network, data: &Dataset, images_per_class: usize) {
    let sites = find_prunable_sites(net);
    let mut rng = StdRng::seed_from_u64(5);
    let batches: Vec<Tensor> = (0..data.classes())
        .map(|c| {
            data.sample_class_batch(c, images_per_class, &mut rng)
                .unwrap()
        })
        .collect();
    let mut stacked = Vec::new();
    let mut labels = Vec::new();
    for (class, batch) in batches.iter().enumerate() {
        stacked.extend_from_slice(batch.data());
        labels.extend(std::iter::repeat_n(class, batch.dim(0)));
    }
    let mut shape = batches[0].shape().to_vec();
    shape[0] = labels.len();
    let x = Tensor::from_vec(shape, stacked).unwrap();
    // The oracle runs first: clones taken in scoring mode would carry it.
    let oracle: Vec<BTreeMap<usize, Tap>> = batches
        .iter()
        .enumerate()
        .map(|(class, batch)| full_pass(net, batch, &vec![class; batch.dim(0)]))
        .collect();
    net.set_record_activations(true);
    let logits = net.forward(&x, false).unwrap();
    let grad = CrossEntropyLoss::new(Reduction::Sum)
        .forward(&logits, &labels)
        .unwrap()
        .grad;
    net.backward(&grad).unwrap();
    let mut first = 0;
    for (class, (batch, taps)) in batches.iter().zip(&oracle).enumerate() {
        for site in &sites {
            let conv = site.conv(net).unwrap();
            let tap = &taps[&site_layer(site)];
            let len = tap.a.numel();
            for (got, want, what) in [
                (conv.recorded_output().unwrap(), &tap.a, "a"),
                (conv.recorded_output_grad().unwrap(), &tap.g, "dL/da"),
            ] {
                let got = &got.data()[first * len / batch.dim(0)..][..len];
                for (i, (x, y)) in got.iter().zip(want.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{} class {class} {what}[{i}]: {x} vs {y}",
                        site.label
                    );
                }
            }
        }
        first += batch.dim(0);
    }
    net.set_record_activations(false);
}

fn assert_matches_oracle(mut net: Network, data: &Dataset, images_per_class: usize) {
    let sites = find_prunable_sites(&net);
    assert!(sites
        .iter()
        .any(|s| matches!(s.kind, SiteKind::ResidualInternal { .. })));
    let prior = cap_par::threads();
    for threads in [1, 4] {
        cap_par::set_threads(threads);
        assert_taps_match(&mut net, data, images_per_class);
    }
    for tau in [TauMode::Absolute(1e-50), TauMode::SiteRelative(1.0)] {
        let cfg = ScoreConfig {
            images_per_class,
            tau,
            seed: 0xA11CE,
        };
        let (want_attr, want_totals) = naive_scores(&net, data, &cfg);
        let mut nonzero = 0usize;
        for threads in [1, 4] {
            cap_par::set_threads(threads);
            let (scores, attr) =
                evaluate_scores_with_attribution(&mut net, &sites, data, &cfg).unwrap();
            for (si, (site, asite)) in scores.sites.iter().zip(&attr.sites).enumerate() {
                for (f, &total) in site.scores.iter().enumerate() {
                    assert_eq!(
                        total.to_bits(),
                        want_totals[si][f].to_bits(),
                        "{tau:?} t{threads} site {si} filter {f}: total {total} vs {}",
                        want_totals[si][f]
                    );
                    for (n, &v) in asite.per_class[f].iter().enumerate() {
                        let want = want_attr[si][f][n];
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "{tau:?} t{threads} site {si} filter {f} class {n}: {v} vs {want}"
                        );
                        nonzero += usize::from(v != 0.0);
                    }
                }
            }
        }
        assert!(
            nonzero > 0,
            "{tau:?}: every s_f,n is zero, the check is vacuous"
        );
    }
    cap_par::set_threads(prior);
}

#[test]
fn chunked_scoring_matches_per_class_full_backward_on_uneven_classes() {
    let data = uneven_c10();
    let net = pretrained(10, &data);
    assert_matches_oracle(net, &data, 8);
}

#[test]
fn chunked_scoring_matches_per_class_full_backward_on_100_classes() {
    let data = c100();
    let net = pretrained(100, &data);
    assert_matches_oracle(net, &data, 10);
}
