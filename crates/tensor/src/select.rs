//! Shape-aware kernel selection for the blocked GEMM.
//!
//! For every problem shape the selector picks a *path* (direct or
//! packed), a microkernel, and cache-blocking parameters, one of two
//! ways:
//!
//! 1. **Direct** — problems whose dims are all ≤ 256 fit in cache and
//!    skip packing entirely (the packing passes were a measured
//!    regression at 192³, see `BENCH_kernels.json`).
//! 2. **Static heuristic** — everything else: 8×8 tiles for wide
//!    problems, 16×4 for tall-skinny ones, reference blocking for the
//!    scalar path.
//!
//! The decision is a pure function of the shape, the operand layout and
//! the pinned [`SimdMode`] — never of the thread count, the clock or
//! any file — so a run's kernel choices are reproducible. Changing
//! blocking or switching between AVX2 tiles never changes output bits
//! (see `crate::simd` module docs); only the ISA pin does.

use crate::simd::SimdMode;

/// `k`-dimension cache block. Fixed forever (never selected)
/// because it determines the floating-point summation grouping: packed
/// kernels round the accumulator into the output at each `KC` boundary.
pub(crate) const KC: usize = 256;

/// Largest dimension for which the direct (unpacked) path is selected:
/// at `256³` the working set (~768 KiB) still lives in L2/L3 and the
/// packing passes cost more than they save.
const DIRECT_MAX_DIM: usize = 256;

/// A register-tile microkernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Micro {
    /// Portable 4×8 scalar tile (separate multiply and add); the
    /// cross-architecture reference kernel.
    Scalar4x8,
    /// AVX2+FMA 8×8 tile (eight YMM accumulators).
    Avx2_8x8,
    /// AVX2+FMA 16×4 tile for tall-skinny problems.
    Avx2_16x4,
}

impl Micro {
    /// Tile rows.
    pub(crate) fn mr(self) -> usize {
        match self {
            Micro::Scalar4x8 => 4,
            Micro::Avx2_8x8 => 8,
            Micro::Avx2_16x4 => 16,
        }
    }

    /// Tile columns.
    pub(crate) fn nr(self) -> usize {
        match self {
            Micro::Scalar4x8 => 8,
            Micro::Avx2_8x8 => 8,
            Micro::Avx2_16x4 => 4,
        }
    }

    /// Stable name used in telemetry and `BENCH_kernels.json`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Micro::Scalar4x8 => "scalar_4x8",
            Micro::Avx2_8x8 => "avx2_8x8",
            Micro::Avx2_16x4 => "avx2_16x4",
        }
    }
}

/// One packed-path configuration: microkernel plus cache blocking.
/// (`KC` is global and fixed; see its doc.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Config {
    pub(crate) micro: Micro,
    /// `m`-dimension cache block; also the row granularity of parallel
    /// tasks.
    pub(crate) mc: usize,
    /// `n`-dimension cache block (one packed B panel).
    pub(crate) nc: usize,
}

impl Config {
    pub(crate) fn describe(&self) -> String {
        format!(
            "{} mc={} nc={} kc={KC}",
            self.micro.name(),
            self.mc,
            self.nc
        )
    }
}

/// How the GEMM entry point should run one problem.
pub(crate) enum Decision {
    /// Unpacked small-shape path (serial, operands stay in cache).
    Direct,
    /// Packed blocked path with a fixed configuration.
    Packed(Config),
}

fn heuristic(m: usize, n: usize, mode: SimdMode) -> Config {
    match mode {
        SimdMode::Scalar => Config {
            micro: Micro::Scalar4x8,
            mc: 64,
            nc: 512,
        },
        SimdMode::Avx2 => {
            // Tall-skinny outputs can't fill 8-wide rows; everything
            // else feeds the 8×8 tile. A larger MC than the scalar
            // path pays off because the A block streams from L2.
            let micro = if n < 48 && m >= 2 * n {
                Micro::Avx2_16x4
            } else {
                Micro::Avx2_8x8
            };
            Config {
                micro,
                mc: 128,
                nc: 512,
            }
        }
    }
}

/// Selects the execution plan for `out[m×n] += A[m×k] · B[k×n]`.
/// `b_contiguous` is whether B's rows are unit-stride (the direct SIMD
/// path streams B rows without packing).
pub(crate) fn plan(m: usize, n: usize, k: usize, b_contiguous: bool, mode: SimdMode) -> Decision {
    // Small shapes: skip packing. The AVX2 direct kernel needs
    // unit-stride B rows; the scalar direct loop handles any layout.
    if m <= DIRECT_MAX_DIM && n <= DIRECT_MAX_DIM && k <= DIRECT_MAX_DIM {
        let direct_ok = match mode {
            SimdMode::Scalar => true,
            SimdMode::Avx2 => b_contiguous,
        };
        if direct_ok {
            return Decision::Direct;
        }
    }
    Decision::Packed(heuristic(m, n, mode))
}

/// Publishes the selector decision to the metrics registry (counters
/// only; the per-kernel execution counters live in `gemm`).
pub(crate) fn observe(decision: &Decision) {
    if !cap_obs::enabled() {
        return;
    }
    let which = match decision {
        Decision::Direct => "tensor.gemm.select.direct_total",
        Decision::Packed(_) => "tensor.gemm.select.heuristic_total",
    };
    cap_obs::counter_add(which, 1);
}

/// Human-readable selector verdict for a (row-major) matmul of the
/// given shape — what `matmul` would run right now, without running
/// it. Exposed for benches and telemetry (`BENCH_kernels.json`'s
/// `selector` fields).
pub fn gemm_plan_summary(m: usize, n: usize, k: usize) -> String {
    summary(m, n, k, crate::simd::simd_mode())
}

fn summary(m: usize, n: usize, k: usize, mode: SimdMode) -> String {
    match plan(m, n, k, true, mode) {
        Decision::Direct => format!("direct({})", mode.name()),
        Decision::Packed(cfg) => format!("packed({}, heuristic)", cfg.describe()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_names_are_distinct_and_tiles_fit_the_accumulator() {
        let all = [Micro::Scalar4x8, Micro::Avx2_8x8, Micro::Avx2_16x4];
        for (i, m) in all.iter().enumerate() {
            assert!(m.mr() * m.nr() <= crate::simd::ACC_LEN);
            assert!(all[i + 1..].iter().all(|o| o.name() != m.name()));
        }
    }

    #[test]
    fn small_shapes_go_direct_large_go_packed() {
        for mode in [SimdMode::Scalar, SimdMode::Avx2] {
            let p = plan(192, 192, 192, true, mode);
            assert!(matches!(p, Decision::Direct), "{}", mode.name());
            let p = plan(1024, 1024, 1024, true, mode);
            assert!(
                !matches!(p, Decision::Direct),
                "1024 must pack under {}",
                mode.name()
            );
        }
    }

    #[test]
    fn strided_b_under_avx2_stays_packed() {
        let p = plan(64, 64, 64, false, SimdMode::Avx2);
        assert!(matches!(p, Decision::Packed(_)));
        // Scalar direct handles any layout.
        let p = plan(64, 64, 64, false, SimdMode::Scalar);
        assert!(matches!(p, Decision::Direct));
    }

    #[test]
    fn skinny_heuristic_picks_16x4() {
        let cfg = heuristic(4096, 16, SimdMode::Avx2);
        assert_eq!(cfg.micro, Micro::Avx2_16x4);
        let cfg = heuristic(512, 512, SimdMode::Avx2);
        assert_eq!(cfg.micro, Micro::Avx2_8x8);
    }

    fn dir_listing(dir: &std::path::Path) -> Vec<std::ffi::OsString> {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .map(|it| it.filter_map(|e| e.ok().map(|e| e.file_name())).collect())
            .unwrap_or_default();
        names.sort();
        names
    }

    #[test]
    fn large_avx2_problems_take_the_heuristic_and_write_no_file() {
        let want = Config {
            micro: Micro::Avx2_8x8,
            mc: 128,
            nc: 512,
        };
        assert!(matches!(
            plan(2048, 2048, 2048, true, SimdMode::Avx2),
            Decision::Packed(cfg) if cfg == want
        ));
        assert!(matches!(
            plan(2048, 2048, 2048, true, SimdMode::Scalar),
            Decision::Packed(cfg) if cfg.micro == Micro::Scalar4x8
        ));
        // Running a 2²⁸-flop problem leaves the working directory as it
        // was: kernel selection reads and writes no state.
        let (m, n, k) = (512, 512, 512);
        let before = (dir_listing(".".as_ref()), dir_listing("results".as_ref()));
        let a = vec![0.5f32; m * k];
        let b = vec![0.25f32; k * n];
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm(
            m,
            n,
            k,
            crate::gemm::MatRef::row_major(&a, k),
            crate::gemm::MatRef::row_major(&b, n),
            &mut out,
        );
        assert!(out.iter().all(|&v| v == 0.125 * k as f32));
        let after = (dir_listing(".".as_ref()), dir_listing("results".as_ref()));
        assert_eq!(before, after);
    }

    #[test]
    fn model_shapes_keep_their_kernels() {
        // (m, k, n) of the per-sample forward GEMMs of VGG16 and
        // ResNet56 at full scale, then whole-batch lowerings. The
        // expected strings are the verdicts the selector gave while it
        // still had a tuning path: no model shape changed kernel.
        const WIDE: &str = "packed(avx2_8x8 mc=128 nc=512 kc=256, heuristic)";
        const SKINNY: &str = "packed(avx2_16x4 mc=128 nc=512 kc=256, heuristic)";
        const SCALAR: &str = "packed(scalar_4x8 mc=64 nc=512 kc=256, heuristic)";
        const DIRECT: (&str, &str) = ("direct(avx2)", "direct(scalar)");
        let table = [
            ((16, 27, 256), DIRECT),
            ((16, 144, 256), DIRECT),
            ((32, 288, 64), (WIDE, SCALAR)),
            ((64, 576, 16), (SKINNY, SCALAR)),
            ((128, 1152, 4), (SKINNY, SCALAR)),
            ((4, 36, 256), DIRECT),
            ((8, 72, 64), DIRECT),
            ((16, 144, 16), DIRECT),
            ((16, 144, 12288), (WIDE, SCALAR)),
            ((64, 576, 768), (WIDE, SCALAR)),
            ((128, 1152, 192), (WIDE, SCALAR)),
            ((8, 27, 6400), (WIDE, SCALAR)),
        ];
        for ((m, k, n), (avx2, scalar)) in table {
            assert_eq!(summary(m, n, k, SimdMode::Avx2), avx2, "{m}x{k}x{n}");
            assert_eq!(summary(m, n, k, SimdMode::Scalar), scalar, "{m}x{k}x{n}");
        }
    }
}
