//! Clocks, process counters and the in-memory span recorder.
//!
//! Everything here reads `/proc/self`, so it observes the library from
//! outside: no library code is instrumented.

use cap_obs::clock;
use std::collections::BTreeMap;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on (`nproc`), from `Cpus_allowed_list`.
pub fn nproc() -> usize {
    let Some(list) = status_field("Cpus_allowed_list:") else {
        return 1;
    };
    list.split(',')
        .map(|part| match part.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum::<usize>()
        .max(1)
}

/// CPU time consumed so far by every live thread of this process, in
/// seconds (sum of the per-thread `schedstat` run times; the pool's
/// workers live for the whole process, so none of their time is lost).
pub fn cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 * 1e-9
}

/// Totals of one span name.
#[derive(Default)]
pub struct SpanTotal {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub images: usize,
}

/// One timed call.
struct Span {
    name: &'static str,
    wall_s: f64,
    cpu_s: f64,
    images: usize,
}

/// In-memory span recorder: one record per timed call, kept until the
/// run ends and then aggregated by name.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span named `name` that processes `images` images.
    pub fn span<T>(&mut self, name: &'static str, images: usize, f: impl FnOnce() -> T) -> T {
        let cpu0 = cpu_s();
        let t0 = clock::now();
        let out = f();
        self.spans.push(Span {
            name,
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_s() - cpu0,
            images,
        });
        out
    }

    /// Wall time of every span recorded so far.
    pub fn timed_s(&self) -> f64 {
        self.spans.iter().map(|s| s.wall_s).sum()
    }

    /// Per-name totals.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.wall_s += s.wall_s;
            t.cpu_s += s.cpu_s;
            t.images += s.images;
        }
        out
    }
}

/// Times `f` `reps` times and returns its output with the median
/// nanoseconds per call.
pub fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = clock::now();
        let out = std::hint::black_box(f());
        times.push(t0.elapsed().as_nanos() as f64);
        last = Some(out);
    }
    (last.expect("at least one repetition"), median(&times))
}
