//! Calibration utility: sweeps the site-relative Taylor binarisation
//! factor α and prints the resulting class-count score distribution of a
//! trained VGG16-C10, so the experiment default can be chosen where the
//! distribution is informative (spread over the full 0..classes range,
//! as in the paper's Fig. 4/8) rather than saturated.
//!
//! With `--sweep-m` it instead verifies the paper's claim that scoring
//! with more than 10 images per class barely changes the scores
//! (Sec. IV: "by evaluating more than 10 images the importance scores of
//! filters are almost the same with those with 10 images").
//!
//! Usage: `cargo run -p cap-bench --release --bin calibrate_tau [--smoke|--small] [--sweep-m]`

use cap_bench::specs::score_config;
use cap_bench::{build_dataset, build_model, pretrain, Arch, DataKind, ExperimentScale};
use cap_core::{
    evaluate_scores, find_prunable_sites, NetworkScores, PrunableSite, ScoreConfig, ScoreHistogram,
    TauMode,
};
use cap_data::SyntheticDataset;
use cap_nn::{Network, RegularizerConfig};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Prints each `M`'s mean score and its per-filter deviation from the
/// scores at `M = 10`.
fn sweep_m(
    net: &mut Network,
    sites: &[PrunableSite],
    data: &SyntheticDataset,
    scale: &ExperimentScale,
) -> Result<()> {
    let mut score_at = |m: usize| -> Result<NetworkScores> {
        let cfg = ScoreConfig {
            images_per_class: m,
            ..score_config(scale)
        };
        Ok(evaluate_scores(net, sites, data.train(), &cfg)?)
    };
    let reference = score_at(10)?;
    println!("M (images/class) | mean score | max |Δ| vs M=10 | mean |Δ| vs M=10");
    for m in [2usize, 5, 8, 10, 15, 20] {
        let scores = score_at(m)?;
        let mut max_dev = 0.0f64;
        let mut sum_dev = 0.0f64;
        let mut n = 0usize;
        for ((_, _, a), (_, _, b)) in scores.iter_scores().zip(reference.iter_scores()) {
            let d = (a - b).abs();
            max_dev = max_dev.max(d);
            sum_dev += d;
            n += 1;
        }
        println!(
            "{m:>16} | {:>10.3} | {:>14.3} | {:>15.4}",
            scores.mean(),
            max_dev,
            sum_dev / n.max(1) as f64
        );
    }
    Ok(())
}

fn main() -> Result<()> {
    cap_bench::init_trace();
    let args: Vec<String> = std::env::args().collect();
    let mut scale = args
        .iter()
        .filter_map(|a| a.strip_prefix("--").and_then(ExperimentScale::from_name))
        .next()
        .unwrap_or_else(ExperimentScale::full);
    if let Some(pos) = args.iter().position(|a| a == "--epochs") {
        if let Some(e) = args.get(pos + 1).and_then(|v| v.parse().ok()) {
            scale.pretrain_epochs = e;
        }
    }
    let kind = if args.iter().any(|a| a == "--c100") {
        DataKind::C100
    } else {
        DataKind::C10
    };
    let arch = if args.iter().any(|a| a == "--resnet") {
        Arch::ResNet56
    } else if args.iter().any(|a| a == "--vgg19") {
        Arch::Vgg19
    } else {
        Arch::Vgg16
    };
    let data = build_dataset(kind, &scale)?;
    let net = build_model(arch, kind, &scale)?;
    let mut prepared = pretrain(net, &data, &scale, RegularizerConfig::paper())?;
    println!(
        "{}-{} baseline accuracy {:.1}% after {} epochs",
        arch.name(),
        kind.name(),
        prepared.baseline_accuracy * 100.0,
        scale.pretrain_epochs
    );
    let threshold = cap_core::threshold_for_classes(kind.classes());
    let sites = find_prunable_sites(&prepared.net);
    if args.iter().any(|a| a == "--sweep-m") {
        return sweep_m(&mut prepared.net, &sites, &data, &scale);
    }
    for alpha in [0.5, 1.0, 2.0, 3.0, 4.0, 6.0] {
        let scores = evaluate_scores(
            &mut prepared.net,
            &sites,
            data.train(),
            &ScoreConfig {
                tau: TauMode::SiteRelative(alpha),
                ..score_config(&scale)
            },
        )?;
        let h = ScoreHistogram::from_scores(&scores);
        let below = scores
            .iter_scores()
            .filter(|&(_, _, v)| v < threshold)
            .count();
        println!(
            "\nalpha = {alpha}: mean {:.2}, {}/{} filters below threshold {threshold}",
            scores.mean(),
            below,
            scores.total_filters()
        );
        if kind == DataKind::C10 {
            print!("{}", h.render_ascii(40));
        } else {
            // 100 bins is noisy; print decile summary instead.
            let counts = h.counts();
            for decile in 0..10 {
                let sum: usize = counts[decile * 10..(decile + 1) * 10].iter().sum();
                println!("{:>3}-{:<3} | {}", decile * 10, (decile + 1) * 10 - 1, sum);
            }
            println!("  100   | {}", counts[100]);
        }
    }
    Ok(())
}
