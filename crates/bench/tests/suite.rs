//! The experiment grid: the serial suite path and the fleet path give the
//! same numbers, and every grid cell feeds the artefacts.

use cap_bench::specs::{artefact_rows, find_spec, run_spec, suite_specs, Artefact, SpecOutcome};
use cap_bench::ExperimentScale;
use std::collections::BTreeSet;

/// A tighter variant of the smoke scale, so a class-aware run takes
/// seconds even in a debug build.
fn tight() -> ExperimentScale {
    ExperimentScale {
        train_per_class: 6,
        test_per_class: 2,
        train_per_class_100: 2,
        test_per_class_100: 1,
        pretrain_epochs: 1,
        finetune_epochs: 1,
        max_iterations: 1,
        images_per_class: 4,
        ..ExperimentScale::smoke()
    }
}

/// Every outcome field except the per-iteration wall-clock timings.
/// `{:?}` prints each float's shortest round-trip form, so equal
/// fingerprints mean bit-equal values.
fn fingerprint(out: &SpecOutcome) -> String {
    let mut out = out.clone();
    for it in out.prune.iter_mut().flat_map(|p| p.iterations.iter_mut()) {
        it.secs_score = 0.0;
        it.secs_surgery = 0.0;
        it.secs_finetune = 0.0;
        it.secs_eval = 0.0;
    }
    format!("{out:?}")
}

#[test]
fn suite_and_fleet_paths_agree_bit_exactly() {
    let root = std::env::temp_dir().join(format!("cap-suite-test-{}", std::process::id()));
    let scale = tight();
    for id in ["t1-vgg16-cifar10", "t1-resnet56-cifar10"] {
        let spec = find_spec(id).expect("grid id");
        // The first call pre-trains into the cache, the second loads it:
        // cached and freshly trained weights must prune identically too.
        let suite = run_spec(&spec, &scale, &root.join("cache"), None).expect("suite path");
        let fleet =
            run_spec(&spec, &scale, &root.join("cache"), Some(&root.join(id))).expect("fleet path");
        assert!(suite.prune.is_some(), "{id}: class-aware outcome missing");
        assert_eq!(fingerprint(&suite), fingerprint(&fleet), "{id}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn every_spec_feeds_an_artefact_and_every_row_names_a_spec() {
    let specs: BTreeSet<String> = suite_specs().into_iter().map(|s| s.id).collect();
    let rows = artefact_rows();
    let named: BTreeSet<String> = rows.iter().map(|(_, id)| id.clone()).collect();
    let unused: Vec<_> = specs.difference(&named).collect();
    assert!(
        unused.is_empty(),
        "specs feeding no artefact row: {unused:?}"
    );
    let dangling: Vec<_> = named.difference(&specs).collect();
    assert!(dangling.is_empty(), "rows naming no spec: {dangling:?}");

    let count = |want: fn(Artefact) -> bool| rows.iter().filter(|(a, _)| want(*a)).count();
    assert_eq!(count(|a| a == Artefact::Table1), 4);
    assert_eq!(count(|a| matches!(a, Artefact::Fig4 { .. })), 3);
    assert_eq!(count(|a| a == Artefact::Fig7), 4);
    assert_eq!(count(|a| a == Artefact::Table2), 3);
    assert_eq!(count(|a| a == Artefact::Table3), 8);
    let baselines = suite_specs()
        .iter()
        .filter(|s| s.criterion.is_some())
        .count();
    assert_eq!(count(|a| a == Artefact::Fig6), 1 + baselines);
}
