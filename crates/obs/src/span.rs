//! RAII span timers with nesting, rolled up into the metrics registry.

use crate::metrics::{Histogram, Metric};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A scoped timer created by [`crate::span!`]; records its elapsed time
/// on drop under the full nested path (`outer/inner`).
///
/// When observability is disabled the guard is inert: construction is
/// one relaxed atomic load and drop is a `None` check — no allocation,
/// no clock read.
#[must_use = "a span guard times the scope it lives in; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(Instant, &'static str)>,
}

impl SpanGuard {
    /// Starts a span named `name` (convention: `crate.component.op`).
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { active: None };
        }
        STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            active: Some((Instant::now(), name)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((start, name)) = self.active.take() else {
            return;
        };
        let elapsed_ns = start.elapsed().as_nanos() as f64;
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            // Defensive: only pop our own frame even if a nested guard
            // leaked past its scope.
            if stack.last() == Some(&name) {
                stack.pop();
            }
            path
        });
        crate::registry().histogram_record(&format!("span.{path}"), elapsed_ns);
        if crate::flight::enabled() {
            crate::flight::record_span(&path, crate::instant_offset_us(start), elapsed_ns / 1e3);
        }
    }
}

/// The `span.*` histograms of a registry snapshot as `(path, histogram)`
/// pairs, in the snapshot's sorted-name order (a path sorts directly
/// after its parent prefix).
fn span_histograms(snapshot: &[(String, Metric)]) -> Vec<(&str, &Histogram)> {
    snapshot
        .iter()
        .filter_map(|(name, metric)| match metric {
            Metric::Histogram(h) => name.strip_prefix("span.").map(|p| (p, h)),
            _ => None,
        })
        .collect()
}

/// Folds every `span.*` histogram in the registry into folded-stack
/// lines (`a;b;c`, sorted) weighted by exact self time in whole µs:
/// the path's total minus its direct children's totals, clamped at 0.
/// Lines that round to 0 µs are dropped.
///
/// A span still open when this runs has no histogram total yet: its
/// closed descendants keep their full stacks and only its own self time
/// is missing. If an earlier instance of the same path already closed,
/// the open one's children are charged against that total, so its self
/// time reads low (clamped at 0). Empty when nothing was recorded.
pub fn span_folded() -> Vec<(String, u64)> {
    let snapshot = crate::registry().snapshot();
    let spans = span_histograms(&snapshot);
    let mut child_ns: BTreeMap<&str, f64> = BTreeMap::new();
    for (path, h) in &spans {
        if let Some((parent, _)) = path.rsplit_once('/') {
            *child_ns.entry(parent).or_default() += h.sum();
        }
    }
    let mut lines: Vec<(String, u64)> = spans
        .iter()
        .filter_map(|(path, h)| {
            let self_ns = (h.sum() - child_ns.get(path).copied().unwrap_or(0.0)).max(0.0);
            let us = (self_ns / 1e3).round() as u64;
            (us > 0).then(|| (path.replace('/', ";"), us))
        })
        .collect();
    lines.sort_unstable();
    lines
}

/// Renders every `span.*` histogram in the registry as an indented
/// call-tree with count / total / p50 / p95 / max columns.
///
/// Returns an empty string when nothing was recorded.
pub fn span_report() -> String {
    let snapshot = crate::registry().snapshot();
    let spans = span_histograms(&snapshot);
    if spans.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "span                                      count      total      p50      p95      max\n",
    );
    // A path sorts directly after its parent prefix, so indenting by
    // depth renders the tree.
    for (path, h) in spans {
        let depth = path.matches('/').count();
        let label = format!(
            "{}{}",
            "  ".repeat(depth),
            path.rsplit('/').next().unwrap_or(path)
        );
        out.push_str(&format!(
            "{label:<40} {:>6} {:>10} {:>8} {:>8} {:>8}\n",
            h.count(),
            fmt_ns(h.sum()),
            fmt_ns(h.p50()),
            fmt_ns(h.p95()),
            fmt_ns(h.max()),
        ));
    }
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the process-global enable flag and registry, so
    // they serialise on a lock (the rest of the obs unit tests do not
    // touch global state).
    fn with_global_obs(f: impl FnOnce()) {
        let _guard = crate::test_lock();
        crate::reset();
        crate::enable();
        f();
        crate::disable();
        crate::reset();
    }

    #[test]
    fn nested_spans_record_full_paths() {
        with_global_obs(|| {
            {
                let _outer = SpanGuard::enter("outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = SpanGuard::enter("inner");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                {
                    let _inner = SpanGuard::enter("inner");
                }
            }
            let snap = crate::registry().snapshot();
            let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
            assert!(names.contains(&"span.outer"), "{names:?}");
            assert!(names.contains(&"span.outer/inner"), "{names:?}");
            let (_, inner) = snap.iter().find(|(n, _)| n == "span.outer/inner").unwrap();
            let (_, outer) = snap.iter().find(|(n, _)| n == "span.outer").unwrap();
            match (inner, outer) {
                (Metric::Histogram(i), Metric::Histogram(o)) => {
                    assert_eq!(i.count(), 2);
                    assert_eq!(o.count(), 1);
                    assert!(
                        o.sum() > i.sum(),
                        "outer must include inner time: {} vs {}",
                        o.sum(),
                        i.sum()
                    );
                }
                other => panic!("unexpected metrics {other:?}"),
            }
        });
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::disable();
        {
            let _span = SpanGuard::enter("ghost");
        }
        assert!(crate::registry().snapshot().is_empty());
    }

    #[test]
    fn report_renders_tree() {
        with_global_obs(|| {
            {
                let _a = SpanGuard::enter("fit");
                let _b = SpanGuard::enter("batch");
            }
            let report = span_report();
            assert!(report.contains("fit"), "{report}");
            assert!(report.contains("  batch"), "{report}");
            assert!(report.lines().count() >= 3, "{report}");
        });
    }

    #[test]
    fn folded_weights_are_exact_self_times() {
        let _guard = crate::test_lock();
        crate::reset();
        let rec =
            |path: &str, ns: f64| crate::registry().histogram_record(&format!("span.{path}"), ns);
        // root: 10 µs over two calls; its children take 3 + 2 + 0.4 µs.
        rec("root", 6_000.0);
        rec("root", 4_000.0);
        rec("root/a", 3_000.0);
        rec("root/a/x", 1_000.0);
        rec("root/b", 2_000.0);
        // Rounds to 0 µs: no line, but still subtracted from root.
        rec("root/c", 400.0);
        // Children summing past their parent clamp its self time at 0.
        rec("clamped", 1_000.0);
        rec("clamped/child", 3_000.0);
        // A child recorded while its parent is still open (no total yet).
        rec("open/child", 2_000.0);
        crate::registry().histogram_record("not.a.span", 5e6);

        let folded = span_folded();
        assert_eq!(
            folded,
            vec![
                ("clamped;child".to_string(), 3),
                ("open;child".to_string(), 2),
                ("root".to_string(), 5), // 10 - 3 - 2 - 0.4 = 4.6 µs
                ("root;a".to_string(), 2),
                ("root;a;x".to_string(), 1),
                ("root;b".to_string(), 2),
            ]
        );
        let under_root: u64 = folded
            .iter()
            .filter(|(stack, _)| stack == "root" || stack.starts_with("root;"))
            .map(|(_, us)| us)
            .sum();
        assert_eq!(under_root, 10, "root's lines sum to its 10 µs total");
        crate::reset();
    }

    #[test]
    fn disabled_or_empty_registry_folds_to_nothing() {
        let _guard = crate::test_lock();
        crate::reset();
        assert!(span_folded().is_empty());
        crate::disable();
        {
            let _a = SpanGuard::enter("ghost");
            let _b = SpanGuard::enter("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(span_folded().is_empty());
    }

    #[test]
    fn span_paths_are_per_thread() {
        with_global_obs(|| {
            let t = std::thread::spawn(|| {
                let _a = SpanGuard::enter("worker");
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
            {
                let _m = SpanGuard::enter("main_side");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            t.join().unwrap();
            let snap = crate::registry().snapshot();
            let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
            // Neither thread nests inside the other.
            assert!(names.contains(&"span.worker"), "{names:?}");
            assert!(names.contains(&"span.main_side"), "{names:?}");
            assert!(!names.iter().any(|n| n.contains('/')), "{names:?}");
        });
    }
}
