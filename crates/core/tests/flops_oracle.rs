//! FLOPs and parameter oracle for `analyze_network`.
//!
//! Table I's "FLOPs red." and "Prun. ratio" columns rest on
//! `cap_core::analyze_network`. This test recounts both from nothing but
//! the weight tensors' shapes and each layer's geometry, with its own
//! spatial arithmetic, and demands exact equality across successive
//! surgery generations of VGG16 and of a ResNet with projection
//! shortcuts.
//!
//! Counting convention (the paper's: one multiply-accumulate is two
//! FLOPs), per sample:
//! - conv: `2·cout·cin·kh·kw·oh·ow`; linear: `2·in·out`;
//! - batch-norm: 2 per element; ReLU: 1 per element; max-pool: `k·k`
//!   per output element; global average pool: 1 per input element;
//! - residual block: conv1, then BN + ReLU (3 per element), conv2,
//!   BN (2 per element), the projection conv and its BN (2 per element)
//!   when present, and the addition + ReLU (2 per element).
//!
//! Parameters are the element counts of every weight, bias, BN γ and β.

use cap_core::{analyze_network, apply_site_pruning, find_prunable_sites};
use cap_models::{resnet56, vgg16, ModelConfig};
use cap_nn::layer::{BatchNorm2d, Conv2d, Layer};
use cap_nn::Network;
use rand::SeedableRng;

/// Output side of a convolution or pooling window.
fn out_side(side: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    (side + 2 * padding - kernel) / stride + 1
}

/// FLOPs, parameters, output channels and output sides of one conv.
fn conv(c: &Conv2d, cin: usize, h: usize, w: usize) -> (u64, u64, usize, usize, usize) {
    let s = c.weight().shape();
    let (cout, wcin, kh, kw) = (s[0], s[1], s[2], s[3]);
    assert_eq!(wcin, cin, "conv weight disagrees with the channel stream");
    let oh = out_side(h, kh, c.stride(), c.padding());
    let ow = out_side(w, kw, c.stride(), c.padding());
    let flops = 2 * cout * cin * kh * kw * oh * ow;
    let params = c.weight().numel() + c.bias().map_or(0, |b| b.numel());
    (flops as u64, params as u64, cout, oh, ow)
}

fn bn_params(bn: &BatchNorm2d) -> u64 {
    (bn.gamma().numel() + bn.beta().numel()) as u64
}

/// `(total FLOPs, total params)` for one `[c, h, w]` sample.
fn oracle(net: &Network, mut c: usize, mut h: usize, mut w: usize) -> (u64, u64) {
    let (mut flops, mut params) = (0u64, 0u64);
    // Feature count once the spatial dims are gone.
    let mut features: Option<usize> = None;
    for layer in net.layers() {
        let elems = (c * h * w) as u64;
        match layer {
            Layer::Conv(cv) => {
                let (f, p, cout, oh, ow) = conv(cv, c, h, w);
                flops += f;
                params += p;
                (c, h, w) = (cout, oh, ow);
            }
            Layer::BatchNorm(bn) => {
                assert_eq!(bn.gamma().numel(), c);
                flops += 2 * elems;
                params += bn_params(bn);
            }
            Layer::Relu(_) => flops += features.map_or(elems, |f| f as u64),
            Layer::MaxPool(p) => {
                h = out_side(h, p.kernel(), p.stride(), 0);
                w = out_side(w, p.kernel(), p.stride(), 0);
                flops += (c * h * w * p.kernel() * p.kernel()) as u64;
            }
            Layer::GlobalAvgPool(_) => {
                flops += elems;
                features = Some(c);
            }
            Layer::Flatten(_) => features = Some(c * h * w),
            Layer::Linear(l) => {
                let s = l.weight().shape();
                let (out, inp) = (s[0], s[1]);
                assert_eq!(inp, features.unwrap_or(c * h * w));
                flops += 2 * (inp * out) as u64;
                params += (l.weight().numel() + l.bias().numel()) as u64;
                features = Some(out);
            }
            Layer::Residual(b) => {
                let (f1, p1, mid, oh, ow) = conv(b.conv1(), c, h, w);
                let (f2, p2, cout, oh2, ow2) = conv(b.conv2(), mid, oh, ow);
                assert_eq!((oh2, ow2), (oh, ow));
                let out_elems = (cout * oh * ow) as u64;
                flops += f1 + 3 * (mid * oh * ow) as u64 + f2 + 2 * out_elems;
                params += p1 + p2 + bn_params(b.bn1()) + bn_params(b.bn2());
                if let Some((sc, sbn)) = b.shortcut() {
                    let (fs, ps, scout, sh, sw) = conv(sc, c, h, w);
                    assert_eq!((scout, sh, sw), (cout, oh, ow));
                    flops += fs + 2 * out_elems;
                    params += ps + bn_params(sbn);
                }
                flops += 2 * out_elems;
                (c, h, w) = (cout, oh, ow);
            }
        }
    }
    (flops, params)
}

/// Prunes every site, keeping all but about a quarter of its filters
/// (at least one filter stays), with the dropped indices shifting per
/// generation.
fn prune_generation(net: &mut Network, generation: usize) {
    for site in find_prunable_sites(net) {
        let n = site.filters(net).unwrap();
        let drop = n / 4;
        let keep: Vec<usize> = (0..n).filter(|&i| (i + generation) % n >= drop).collect();
        apply_site_pruning(net, &site, &keep).unwrap();
    }
}

fn check_generations(mut net: Network, side: usize) {
    let mut last_flops = u64::MAX;
    for generation in 0..4 {
        let report = analyze_network(&net, 3, side, side).unwrap();
        let (flops, params) = oracle(&net, 3, side, side);
        assert_eq!(
            report.total_flops, flops,
            "FLOPs at generation {generation}"
        );
        assert_eq!(
            report.total_params, params,
            "params at generation {generation}"
        );
        assert_eq!(params, net.num_params() as u64, "generation {generation}");
        assert!(flops < last_flops, "generation {generation} pruned nothing");
        last_flops = flops;
        prune_generation(&mut net, generation);
    }
}

#[test]
fn vgg16_flops_match_an_independent_count_across_generations() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let cfg = ModelConfig::new(10).with_width(0.125).with_image_size(16);
    check_generations(vgg16(&cfg, &mut rng).unwrap(), 16);
}

#[test]
fn resnet_with_projection_shortcuts_matches_an_independent_count_across_generations() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let cfg = ModelConfig::new(100).with_width(0.25).with_image_size(16);
    let net = resnet56(&cfg, &mut rng).unwrap();
    let projections = net
        .layers()
        .iter()
        .filter(|l| matches!(l, Layer::Residual(b) if b.shortcut().is_some()))
        .count();
    assert_eq!(projections, 2, "one projection block per stage transition");
    check_generations(net, 16);
}
