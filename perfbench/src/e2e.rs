//! Untraced runs: the end-to-end metrics, measured through the entry
//! points users call.

use crate::oracle;
use crate::probe::{self, median, Tracer};
use crate::workload::{
    accuracy, bytes_of, err, generations, per_sample_agrees, pruner_call, reduction,
    setup_repeated, Facts, Scratch, Workload, GENERATIONS, INFER_BATCH,
};
use crate::{Metric, Report};
use cap_core::ClassAwarePruner;
use cap_nn::{predict_all, Network, RunDir};
use cap_obs::clock;
use cap_tensor::Tensor;

/// Pruner calls per run at the least, however short `--seconds` is.
const MIN_CALLS: usize = 2;
/// Inference passes per run at the least.
const MIN_PASSES: usize = 5;
/// Seconds of inference passes on a pruning workload.
const PRUNE_INFER_SECONDS: f64 = 1.0;
/// Share of `--seconds` the inference workload spends repeating its cut.
const CUT_SHARE: f64 = 0.05;

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Measurements of an untraced run.
struct E2e {
    setup_times: Vec<f64>,
    prune_times: Vec<f64>,
    rates: Vec<f64>,
    final_acc: f64,
    labels: usize,
    flops_reduction: f64,
}

impl E2e {
    /// The end-to-end metrics: speed and memory. What the seed alone
    /// fixes (`final_acc`, `flops_reduction`) and the failure share (also
    /// carried as `attempted` / `failed`) are printed as `info` lines but
    /// left out of the JSON line: their spread across seeds measures the
    /// seeds, not the code, and ResNet56-C100 sits at chance accuracy at
    /// this training length.
    fn report(self, correct: bool, attempted: u64, failed: u64) -> Report {
        let metrics = vec![
            metric(
                "setup_s",
                median(&self.setup_times),
                "s",
                self.setup_times.len(),
            ),
            metric(
                "prune_s",
                median(&self.prune_times),
                "s",
                self.prune_times.len(),
            ),
            metric(
                "infer_img_per_s",
                median(&self.rates),
                "img/s",
                self.rates.len(),
            ),
            metric("peak_rss_mb", probe::peak_rss_mb(), "MiB", 1),
        ];
        let info = vec![
            metric("final_acc", self.final_acc, "fraction", self.labels),
            metric("flops_reduction", self.flops_reduction, "fraction", 1),
            metric(
                "failed_frac",
                failed as f64 / attempted.max(1) as f64,
                "fraction",
                attempted as usize,
            ),
        ];
        Report {
            correct,
            attempted,
            failed,
            metrics,
            info,
        }
    }
}

/// Forward-only passes over a list of networks.
struct Passes {
    /// Images per second of each pass.
    rates: Vec<f64>,
    /// Predictions of the first pass, per network.
    preds: Vec<Vec<usize>>,
    /// Inference batches run and failed.
    attempted: u64,
    failed: u64,
}

/// Runs `predict_all` over `images` on every network, pass after pass,
/// until `seconds` have passed (at least `MIN_PASSES` passes). Each
/// batch of a pass whose predictions differ from the first pass fails.
fn infer_passes(
    nets: &mut [Network],
    images: &Tensor,
    batch: usize,
    seconds: f64,
) -> Result<Passes, String> {
    let n = images.dim(0);
    let batches = n.div_ceil(batch) as u64;
    let mut p = Passes {
        rates: Vec::new(),
        preds: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = clock::now();
    while p.rates.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t0 = clock::now();
        let preds: Vec<_> = nets
            .iter_mut()
            .map(|net| predict_all(net, images, batch))
            .collect();
        p.rates
            .push((nets.len() * n) as f64 / t0.elapsed().as_secs_f64());
        for (g, pred) in preds.into_iter().enumerate() {
            p.attempted += batches;
            match pred {
                Ok(pred) if p.preds.len() == g => p.preds.push(pred),
                Ok(pred) if pred == p.preds[g] => {}
                _ => p.failed += batches,
            }
        }
    }
    if p.preds.len() != nets.len() {
        return Err("inference failed on the first pass".into());
    }
    Ok(p)
}

/// `vgg16_c10_infer`: cut the generations, then forward-only passes over
/// all of them.
pub fn infer(w: &Workload, seconds: f64) -> Result<Report, String> {
    let (setup, setup_times) = setup_repeated(w)?;
    let (c, h, wd) = setup.dims();
    let images = setup.data.test().images();
    let mut prune_times = Vec::new();
    let mut nets = Vec::new();
    let start = clock::now();
    while prune_times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < CUT_SHARE * seconds {
        let t0 = clock::now();
        nets = generations(&setup, &mut Tracer::default())?;
        prune_times.push(t0.elapsed().as_secs_f64());
    }
    let mut correct = true;
    let mut flops = Vec::new();
    for net in &nets {
        let (count, agree) = oracle::check(net, c, h, wd)?;
        correct &= agree;
        flops.push(count.flops);
    }
    let mut p = infer_passes(&mut nets, images, INFER_BATCH, seconds)?;
    for (g, net) in nets.iter_mut().enumerate() {
        if !per_sample_agrees(net, images, &p.preds[g])? {
            correct = false;
            p.failed += images.dim(0).div_ceil(INFER_BATCH) as u64;
        }
    }
    let labels = setup.data.test().labels();
    let e2e = E2e {
        setup_times,
        prune_times,
        rates: p.rates,
        final_acc: accuracy(&p.preds[GENERATIONS], labels),
        labels: labels.len(),
        flops_reduction: reduction(flops[GENERATIONS], flops[0]),
    };
    Ok(e2e.report(correct, p.attempted, p.failed))
}

/// Oracle-checks every generation the pruner checkpointed in `dir`.
fn oracle_run_dir(dir: &std::path::Path, dims: (usize, usize, usize)) -> Result<bool, String> {
    let rd = RunDir::open(dir).map_err(err("open run dir"))?;
    let mut agree = true;
    for g in rd.generations() {
        let net = rd.load_generation(g).map_err(err("load generation"))?;
        agree &= oracle::check(&net, dims.0, dims.1, dims.2)?.1;
    }
    Ok(agree)
}

/// `*_prune`: pruner calls until `seconds` have passed, then inference
/// over the unpruned and the final network.
pub fn prune(
    w: &Workload,
    persist: bool,
    seconds: f64,
    scratch: &Scratch,
) -> Result<Report, String> {
    let (setup, setup_times) = setup_repeated(w)?;
    let dims = setup.dims();
    let pruner = ClassAwarePruner::new(w.prune_config()).map_err(err("pruner config"))?;
    let k = GENERATIONS as u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = oracle::check(&setup.net, dims.0, dims.1, dims.2)?.1;
    let mut times = Vec::new();
    let mut first: Option<(Facts, Vec<u8>, Network)> = None;
    let start = clock::now();
    while times.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        let dir = persist.then(|| scratch.path().join(format!("prune-{}", times.len())));
        let (secs, out) = pruner_call(&pruner, &setup, dir.as_deref())?;
        times.push(secs);
        attempted += k;
        if let (Some(d), None, Ok(_)) = (&dir, &first, &out) {
            correct &= oracle_run_dir(d, dims)?;
        }
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let (outcome, net) = match out {
            Ok(v) => v,
            Err(e) => {
                eprintln!("pruner call failed: {e}");
                failed += k;
                continue;
            }
        };
        let facts = Facts::of(&outcome);
        failed += facts.failed_iterations();
        let bytes = bytes_of(&net)?;
        match &first {
            None => {
                correct &= oracle::check(&net, dims.0, dims.1, dims.2)?.1;
                first = Some((facts, bytes, net));
            }
            Some((f, b, _)) if *f != facts || *b != bytes => {
                eprintln!("pruner call {} differs from the first call", times.len());
                correct = false;
                failed += k;
            }
            Some(_) => {}
        }
    }
    let (facts, _, final_net) = first.ok_or("every pruner call failed")?;
    // Forward-only throughput of the unpruned and the final network on
    // the test set, at the pruner's eval batch.
    let mut nets = vec![setup.net.clone(), final_net];
    let images = setup.data.test().images();
    let p = infer_passes(&mut nets, images, w.scale.batch_size, PRUNE_INFER_SECONDS)?;
    for (g, net) in nets.iter_mut().enumerate() {
        correct &= per_sample_agrees(net, images, &p.preds[g])?;
    }
    let labels = setup.data.test().labels();
    correct &= accuracy(&p.preds[0], labels) == setup.baseline_accuracy
        && accuracy(&p.preds[1], labels) == facts.final_accuracy;
    let e2e = E2e {
        setup_times,
        prune_times: times,
        rates: p.rates,
        final_acc: facts.final_accuracy,
        labels: labels.len(),
        flops_reduction: facts.final_cost.flops_reduction_vs(&facts.baseline_cost),
    };
    Ok(e2e.report(correct, attempted + p.attempted, failed + p.failed))
}
