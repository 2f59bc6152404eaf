//! Traced runs: the per-layer metrics. The pruning loop is replayed
//! phase by phase through the crates' public functions, in the order
//! `ClassAwarePruner::run` / `run_with_dir` calls them, with a span from
//! this file around each call; the replay must reproduce the untraced
//! pruner call bit for bit.

use crate::probe::{median_ns, Tracer};
use crate::workload::{
    accuracy, bytes_of, err, generations, per_sample_agrees, pruner_call, reduction, setup_traced,
    Facts, IterFacts, Scratch, Setup, Workload, GENERATIONS, INFER_BATCH,
};
use crate::{kernels, ledger, oracle, Metric, Report};
use cap_core::{
    analyze_network, apply_site_pruning, evaluate_scores, evaluate_scores_with_attribution,
    find_prunable_sites, select_filters, ClassAwarePruner, FlopsReport,
};
use cap_nn::{evaluate, fit, predict_all, Network, RunDir};
use cap_obs::clock;
use cap_tensor::Tensor;
use std::collections::BTreeMap;

/// Per-layer values by metric name.
type Values = BTreeMap<String, f64>;

/// Minimum seconds each kernel row is timed for.
const KERNEL_SECONDS: f64 = 0.02;
/// Repetitions behind each ledger entry and forward wall time.
const REPS: usize = 3;

/// Every per-layer metric name and unit, in output order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("data.generate_s", "s"),
        ("nn.fit.pretrain_s", "s"),
        ("nn.fit.pretrain_img_per_s", "img/s"),
        ("nn.fit.finetune_s", "s"),
        ("nn.fit.finetune_img_per_s", "img/s"),
        ("nn.evaluate.s", "s"),
        ("nn.evaluate.img_per_s", "img/s"),
        ("nn.evaluate.final_acc", "fraction"),
        ("core.score.s", "s"),
        ("core.score.img_per_s", "img/s"),
        ("core.select.s", "s"),
        ("core.surgery.s", "s"),
        ("core.flops.s", "s"),
        ("core.flops.oracle_mismatches", "count"),
        ("nn.rundir.save_s", "s"),
        ("nn.rundir.bytes", "bytes"),
        ("par.cpu_util.pretrain", "fraction"),
        ("par.cpu_util.finetune", "fraction"),
        ("par.cpu_util.score", "fraction"),
        ("par.cpu_util.evaluate", "fraction"),
        ("iter.wall_s", "s"),
        ("iter.unattributed_s", "s"),
        ("obs.trace_overhead_frac", "fraction"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for g in 1..=GENERATIONS {
        out.push((format!("gen.{g}.flops_reduction"), "fraction"));
        out.push((format!("gen.{g}.wall_reduction"), "fraction"));
    }
    let labels = (1..=13)
        .map(|i| format!("conv{i}"))
        .chain((1..=3).map(|s| format!("stage{s}")))
        .chain(std::iter::once("total".to_string()));
    for label in labels {
        for tag in ["gen0", "final"] {
            out.push((format!("layer.{label}.fwd_ns.{tag}"), "ns"));
            out.push((format!("layer.{label}.bwd_ns.{tag}"), "ns"));
            if label == "total" {
                out.push((format!("layer.{label}.gflops.{tag}"), "GFLOP/s"));
            }
        }
    }
    for name in kernels::names() {
        let unit = if name.ends_with(".gbps") {
            "GB/s"
        } else {
            "GFLOP/s"
        };
        out.push((name, unit));
    }
    out
}

/// Emits `v` in the fixed name order; a layer the workload does not
/// exercise reads 0 with no samples.
fn report(v: Values, correct: bool, attempted: u64, failed: u64) -> Result<Report, String> {
    let names = names();
    if let Some(extra) = v.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(format!(
            "internal: metric {extra} is not in the per-layer list"
        ));
    }
    let metrics = names
        .into_iter()
        .map(|(name, unit)| {
            let value = v.get(&name).copied();
            Metric {
                samples: usize::from(value.is_some()),
                value: value.unwrap_or(0.0),
                unit,
                name,
            }
        })
        .collect();
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        info: Vec::new(),
    })
}

/// Wall time, throughput and pool utilisation (CPU seconds over wall
/// seconds times pool threads) of every phase the tracer saw.
fn phase_rows(v: &mut Values, tr: &Tracer) {
    // (span, seconds metric, images-per-second metric, utilisation metric)
    const PHASES: [(&str, &str, &str, &str); 9] = [
        ("data.generate", "data.generate_s", "", ""),
        (
            "nn.fit.pretrain",
            "nn.fit.pretrain_s",
            "nn.fit.pretrain_img_per_s",
            "par.cpu_util.pretrain",
        ),
        (
            "nn.fit.finetune",
            "nn.fit.finetune_s",
            "nn.fit.finetune_img_per_s",
            "par.cpu_util.finetune",
        ),
        (
            "nn.evaluate",
            "nn.evaluate.s",
            "nn.evaluate.img_per_s",
            "par.cpu_util.evaluate",
        ),
        (
            "core.score",
            "core.score.s",
            "core.score.img_per_s",
            "par.cpu_util.score",
        ),
        ("core.select", "core.select.s", "", ""),
        ("core.surgery", "core.surgery.s", "", ""),
        ("core.flops", "core.flops.s", "", ""),
        ("nn.rundir.save", "nn.rundir.save_s", "", ""),
    ];
    let threads = cap_par::threads() as f64;
    let totals = tr.totals();
    for (span, secs, rate, util) in PHASES {
        let Some(t) = totals.get(span) else { continue };
        v.insert(secs.into(), t.wall_s);
        if t.wall_s > 0.0 {
            if !rate.is_empty() {
                v.insert(rate.into(), t.images as f64 / t.wall_s);
            }
            if !util.is_empty() {
                v.insert(util.into(), t.cpu_s / (t.wall_s * threads));
            }
        }
    }
}

/// Median nanoseconds of a forward-only pass of each network over `images`.
fn forward_walls(nets: &mut [Network], images: &Tensor, batch: usize) -> Result<Vec<f64>, String> {
    nets.iter_mut()
        .map(|net| {
            let (out, ns) = median_ns(REPS, || predict_all(net, images, batch));
            out.map_err(err("predict"))?;
            Ok(ns)
        })
        .collect()
}

/// `gen.<g>.*`: FLOPs reduction next to forward wall-time reduction.
fn generation_rows(v: &mut Values, flops: &[u64], walls: &[f64]) {
    for g in 1..flops.len() {
        v.insert(
            format!("gen.{g}.flops_reduction"),
            reduction(flops[g], flops[0]),
        );
        v.insert(format!("gen.{g}.wall_reduction"), 1.0 - walls[g] / walls[0]);
    }
}

/// The per-instance ledger of the first and last network, and the
/// kernel rows. Returns whether every kernel matched its reference.
fn ledger_and_kernel_rows(
    v: &mut Values,
    nets: &[Network],
    setup: &Setup,
    seed: u64,
) -> Result<bool, String> {
    let (c, h, w) = setup.dims();
    for (tag, net) in [("gen0", &nets[0]), ("final", &nets[nets.len() - 1])] {
        let count = oracle::count(net, c, h, w)?;
        let mut total = ledger::Row::default();
        for (label, row) in ledger::measure(&count.convs, REPS, seed)? {
            println!(
                "ledger {tag} {label}: instances={} fwd_ns={:.0} bwd_ns={:.0} flop={:.0} gflops={:.3} (batch {})",
                row.instances,
                row.fwd_ns,
                row.bwd_ns,
                row.flops,
                row.gflops(),
                ledger::BATCH
            );
            v.insert(format!("layer.{label}.fwd_ns.{tag}"), row.fwd_ns);
            v.insert(format!("layer.{label}.bwd_ns.{tag}"), row.bwd_ns);
            total.fwd_ns += row.fwd_ns;
            total.bwd_ns += row.bwd_ns;
            total.flops += row.flops;
        }
        v.insert(format!("layer.total.fwd_ns.{tag}"), total.fwd_ns);
        v.insert(format!("layer.total.bwd_ns.{tag}"), total.bwd_ns);
        v.insert(format!("layer.total.gflops.{tag}"), total.gflops());
    }
    let (rows, bad) = kernels::run(seed, KERNEL_SECONDS);
    v.extend(rows);
    Ok(bad == 0)
}

/// Result of the traced replay.
struct Replay {
    facts: Facts,
    /// The network after each iteration, generation 0 first.
    nets: Vec<Network>,
    wall_s: f64,
    iter_wall_s: f64,
    unattributed_s: f64,
    rundir_bytes: u64,
    oracle_bad: usize,
}

/// The replay's own journal line (the library's format is private; this
/// one carries the same facts).
fn iter_line(i: usize, f: &IterFacts) -> String {
    format!(
        "{{\"type\":\"iter\",\"iteration\":{i},\"removed_filters\":{},\"remaining_filters\":{},\"accuracy_after_prune\":{},\"accuracy_after_finetune\":{},\"mean_score\":{},\"flops\":{},\"params\":{}}}",
        f.removed, f.remaining, f.accuracy_after_prune, f.accuracy_after_finetune, f.mean_score, f.flops, f.params
    )
}

/// Replays one pruner call on the set-up network; with `dir`, also the
/// persistence `run_with_dir` adds (checkpoints, journal, the run
/// history's prediction pass and attribution lines).
fn replay(
    w: &Workload,
    setup: &Setup,
    dir: Option<&RunDir>,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let cfg = w.prune_config();
    let (train, test) = (setup.data.train(), setup.data.test());
    let (c, h, wd) = setup.dims();
    let score_images = cfg.score.images_per_class * train.classes();
    let mut net = setup.net.clone();
    let mut oracle_bad = 0usize;
    let mut rundir_bytes = 0u64;
    let t_run = clock::now();

    let mut analyze = |net: &Network, tr: &mut Tracer| -> Result<FlopsReport, String> {
        tr.span("core.flops", 0, || {
            oracle_bad += usize::from(!oracle::check(net, c, h, wd)?.1);
            analyze_network(net, c, h, wd).map_err(|e| e.to_string())
        })
    };
    let eval = |net: &mut Network, tr: &mut Tracer| -> Result<f64, String> {
        tr.span("nn.evaluate", test.len(), || {
            evaluate(net, test.images(), test.labels(), cfg.eval_batch)
        })
        .map_err(err("evaluate"))
    };

    let baseline_accuracy = eval(&mut net, tr)?;
    let baseline_cost = analyze(&net, tr)?;
    let sites0 = find_prunable_sites(&net);
    let scores_before = tr
        .span("core.score", score_images, || {
            evaluate_scores(&mut net, &sites0, train, &cfg.score)
        })
        .map_err(err("score"))?;
    if let Some(d) = dir {
        rundir_bytes += bytes_of(&net)?.len() as u64;
        tr.span("nn.rundir.save", 0, || {
            d.save_generation(0, &net)?;
            d.append_journal("{\"type\":\"meta\",\"source\":\"perfbench replay\"}")
        })
        .map_err(err("run dir"))?;
    }

    let mut nets = vec![net.clone()];
    let mut iterations = Vec::new();
    let (mut iter_wall_s, mut unattributed_s) = (0.0, 0.0);
    for i in 1..=cfg.max_iterations {
        let timed_before = tr.timed_s();
        let t_iter = clock::now();
        let sites = find_prunable_sites(&net);
        let (scores, attribution) = tr
            .span("core.score", score_images, || {
                evaluate_scores_with_attribution(&mut net, &sites, train, &cfg.score)
            })
            .map_err(err("score"))?;
        let selection = tr
            .span("core.select", 0, || select_filters(&scores, &cfg.strategy))
            .map_err(err("select"))?;
        if selection.is_empty() {
            break;
        }
        // The pruner snapshots the network for rollback inside its
        // surgery timer; so does the replay.
        tr.span("core.surgery", 0, || -> Result<Network, String> {
            let snapshot = net.clone();
            for (si, site) in sites.iter().enumerate() {
                if selection.remove[si].is_empty() {
                    continue;
                }
                let keep = selection.keep_for(si, scores.sites[si].scores.len());
                apply_site_pruning(&mut net, site, &keep).map_err(|e| e.to_string())?;
            }
            Ok(snapshot)
        })?;
        let accuracy_after_prune = eval(&mut net, tr)?;
        let ft = &cfg.finetune;
        tr.span("nn.fit.finetune", ft.epochs * train.len(), || {
            fit(&mut net, train.images(), train.labels(), ft)
        })
        .map_err(err("fine-tune"))?;
        let accuracy_after_finetune = eval(&mut net, tr)?;
        let cost = analyze(&net, tr)?;
        let facts = IterFacts {
            removed: selection.total_removed(),
            remaining: find_prunable_sites(&net)
                .iter()
                .map(|s| s.filters(&net).unwrap_or(0))
                .sum(),
            accuracy_after_prune,
            accuracy_after_finetune,
            mean_score: scores.mean(),
            flops: cost.total_flops,
            params: cost.total_params,
        };
        if let Some(d) = dir {
            // The run history's per-iteration work: per-class recall
            // needs a prediction pass, and one attribution line is
            // appended per removed filter.
            tr.span("nn.evaluate", test.len(), || {
                predict_all(&mut net, test.images(), cfg.eval_batch)
            })
            .map_err(err("predict"))?;
            let mut lines = Vec::new();
            for (si, removed) in selection.remove.iter().enumerate() {
                for &f in removed {
                    let per_class: Vec<String> = attribution.sites[si].per_class[f]
                        .iter()
                        .map(f64::to_string)
                        .collect();
                    lines.push(format!(
                        "{{\"iteration\":{i},\"site\":\"{}\",\"filter\":{f},\"per_class\":[{}]}}",
                        scores.sites[si].label,
                        per_class.join(",")
                    ));
                }
            }
            let journal = iter_line(i, &facts);
            rundir_bytes += (bytes_of(&net)?.len()
                + journal.len()
                + lines.iter().map(String::len).sum::<usize>()) as u64;
            tr.span(
                "nn.rundir.save",
                0,
                || -> Result<(), cap_nn::RunDirError> {
                    for line in &lines {
                        d.append_jsonl("class_attribution.jsonl", line)?;
                    }
                    d.save_generation(i as u64, &net)?;
                    d.append_journal(&journal)
                },
            )
            .map_err(err("run dir"))?;
        }
        iterations.push(facts);
        nets.push(net.clone());
        let iter_s = t_iter.elapsed().as_secs_f64();
        iter_wall_s += iter_s;
        unattributed_s += iter_s - (tr.timed_s() - timed_before);
    }
    let final_accuracy = eval(&mut net, tr)?;
    let final_cost = analyze(&net, tr)?;
    let sites_final = find_prunable_sites(&net);
    let scores_after = tr
        .span("core.score", score_images, || {
            evaluate_scores(&mut net, &sites_final, train, &cfg.score)
        })
        .map_err(err("score"))?;
    Ok(Replay {
        facts: Facts {
            baseline_accuracy,
            final_accuracy,
            baseline_cost,
            final_cost,
            scores_before,
            scores_after,
            iterations,
        },
        nets,
        wall_s: t_run.elapsed().as_secs_f64(),
        iter_wall_s,
        unattributed_s,
        rundir_bytes,
        oracle_bad,
    })
}

/// `*_prune`: one untraced pruner call, then its traced replay, which
/// must agree with it exactly.
pub fn prune(w: &Workload, persist: bool, scratch: &Scratch) -> Result<Report, String> {
    let mut tr = Tracer::default();
    let setup = setup_traced(w, &mut tr)?;

    let pruner = ClassAwarePruner::new(w.prune_config()).map_err(err("pruner config"))?;
    let ref_dir = persist.then(|| scratch.path().join("untraced"));
    let (untraced_s, out) = pruner_call(&pruner, &setup, ref_dir.as_deref())?;
    let (outcome, ref_net) = out?;

    let replay_dir = persist
        .then(|| RunDir::create(scratch.path().join("replay")).map_err(err("create run dir")))
        .transpose()?;
    let mut rp = replay(w, &setup, replay_dir.as_ref(), &mut tr)?;

    // Replay agreement: the same facts and the same networks, bit for
    // bit (identical weights imply identical removed filters).
    let mut correct = rp.oracle_bad == 0;
    if rp.facts != Facts::of(&outcome) {
        eprintln!(
            "replay disagrees with the pruner:\n  pruner {:?}\n  replay {:?}",
            Facts::of(&outcome).iterations,
            rp.facts.iterations
        );
        correct = false;
    }
    if bytes_of(&ref_net)? != bytes_of(&rp.nets[rp.nets.len() - 1])? {
        eprintln!("the replay's final network differs from the pruner's");
        correct = false;
    }
    if let Some(d) = &ref_dir {
        let rd = RunDir::open(d).map_err(err("open run dir"))?;
        for g in rd.generations() {
            let saved = bytes_of(&rd.load_generation(g).map_err(err("load generation"))?)?;
            if rp.nets.get(g as usize).map(bytes_of).transpose()? != Some(saved) {
                eprintln!("replay generation {g} differs from the pruner's checkpoint");
                correct = false;
            }
        }
    }

    let mut v = Values::new();
    phase_rows(&mut v, &tr);
    v.insert("nn.evaluate.final_acc".into(), rp.facts.final_accuracy);
    v.insert("core.flops.oracle_mismatches".into(), rp.oracle_bad as f64);
    if persist {
        v.insert("nn.rundir.bytes".into(), rp.rundir_bytes as f64);
    }
    v.insert("iter.wall_s".into(), rp.iter_wall_s);
    v.insert("iter.unattributed_s".into(), rp.unattributed_s);
    v.insert(
        "obs.trace_overhead_frac".into(),
        rp.wall_s / untraced_s - 1.0,
    );
    let flops: Vec<u64> = std::iter::once(rp.facts.baseline_cost.total_flops)
        .chain(rp.facts.iterations.iter().map(|r| r.flops))
        .collect();
    let walls = forward_walls(&mut rp.nets, setup.data.test().images(), w.scale.batch_size)?;
    generation_rows(&mut v, &flops, &walls);
    correct &= ledger_and_kernel_rows(&mut v, &rp.nets, &setup, w.scale.seed)?;
    report(v, correct, GENERATIONS as u64, rp.facts.failed_iterations())
}

/// `vgg16_c10_infer`: the cut and one inference pass over every
/// generation, each call in its own span, next to one untraced pass.
pub fn infer(w: &Workload) -> Result<Report, String> {
    let mut tr = Tracer::default();
    let setup = setup_traced(w, &mut tr)?;
    let (c, h, wd) = setup.dims();
    let images = setup.data.test().images();
    let n = images.dim(0);
    let mut nets = generations(&setup, &mut tr)?;
    let mut flops = Vec::new();
    let mut oracle_bad = 0usize;
    for net in &nets {
        let (count, agree) = tr.span("core.flops", 0, || oracle::check(net, c, h, wd))?;
        flops.push(count.flops);
        oracle_bad += usize::from(!agree);
    }

    let t0 = clock::now();
    for net in nets.iter_mut() {
        predict_all(net, images, INFER_BATCH).map_err(err("predict"))?;
    }
    let untraced_s = t0.elapsed().as_secs_f64();
    let timed_before = tr.timed_s();
    let t0 = clock::now();
    let mut preds = Vec::new();
    for net in nets.iter_mut() {
        preds.push(
            tr.span("nn.evaluate", n, || predict_all(net, images, INFER_BATCH))
                .map_err(err("predict"))?,
        );
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let unattributed_s = traced_s - (tr.timed_s() - timed_before);
    let mut correct = oracle_bad == 0;
    for (g, net) in nets.iter_mut().enumerate() {
        correct &= per_sample_agrees(net, images, &preds[g])?;
    }

    let mut v = Values::new();
    phase_rows(&mut v, &tr);
    let labels = setup.data.test().labels();
    v.insert(
        "nn.evaluate.final_acc".into(),
        accuracy(&preds[GENERATIONS], labels),
    );
    v.insert("core.flops.oracle_mismatches".into(), oracle_bad as f64);
    v.insert("iter.wall_s".into(), traced_s);
    v.insert("iter.unattributed_s".into(), unattributed_s);
    v.insert(
        "obs.trace_overhead_frac".into(),
        traced_s / untraced_s - 1.0,
    );
    let walls = forward_walls(&mut nets, images, INFER_BATCH)?;
    generation_rows(&mut v, &flops, &walls);
    correct &= ledger_and_kernel_rows(&mut v, &nets, &setup, w.scale.seed)?;
    let batches = (nets.len() * n.div_ceil(INFER_BATCH)) as u64;
    report(v, correct, batches, if correct { 0 } else { batches })
}
