//! GEMM and im2col rows at the shapes the two models' convolutions lower
//! to, each checked against a naive reference.
//!
//! A convolution with `M` filters over `K = cin·k·k` input taps and `N`
//! output pixels runs three products: the forward `W[M,K]·cols[K,N]`
//! (`matmul`), the weight gradient `g[M,N]·cols[K,N]ᵀ`
//! (`matmul_transpose_b`) and the input gradient `W[M,K]ᵀ·g[M,N]`
//! (`matmul_transpose_a`). Rows are named by that `M x K x N` triple.
//! Per-sample rows have `N = out_h·out_w` (how the library lowers today);
//! whole-batch rows have `N = 48·out_h·out_w` (one GEMM per batch of 48).

use crate::probe::median;
use cap_obs::clock;
use cap_tensor::{
    im2col, matmul, matmul_transpose_a, matmul_transpose_b, randn, Conv2dGeometry, Tensor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone, Copy)]
enum Product {
    Forward,
    WeightGrad,
    InputGrad,
}

/// `(product, M, K, N)`.
const GEMMS: [(Product, usize, usize, usize); 20] = [
    // VGG16 per-sample: conv1, conv2, conv4, conv6, conv9.
    (Product::Forward, 16, 27, 256),
    (Product::Forward, 16, 144, 256),
    (Product::Forward, 32, 288, 64),
    (Product::Forward, 64, 576, 16),
    (Product::Forward, 128, 1152, 4),
    // ResNet56 per-sample: one inner conv per stage.
    (Product::Forward, 4, 36, 256),
    (Product::Forward, 8, 72, 64),
    (Product::Forward, 16, 144, 16),
    // Whole-batch lowering at batch 48.
    (Product::Forward, 16, 144, 12288),
    (Product::Forward, 64, 576, 768),
    (Product::Forward, 128, 1152, 192),
    (Product::Forward, 4, 36, 12288),
    (Product::Forward, 16, 144, 768),
    // The skinny class the packed path handles worst (8 filters over an
    // RGB input, 25 samples of 16x16).
    (Product::Forward, 8, 27, 6400),
    (Product::WeightGrad, 16, 144, 256),
    (Product::WeightGrad, 64, 576, 16),
    (Product::WeightGrad, 4, 36, 256),
    (Product::InputGrad, 16, 144, 256),
    (Product::InputGrad, 64, 576, 16),
    (Product::InputGrad, 4, 36, 256),
];

/// `(cin, h, w)` of 3x3 / stride 1 / pad 1 im2col inputs: VGG16 conv1,
/// conv2 and conv6, ResNet56 stage 1 and stage 3.
const IM2COLS: [(usize, usize, usize); 5] = [
    (3, 16, 16),
    (16, 16, 16),
    (64, 4, 4),
    (4, 16, 16),
    (16, 4, 4),
];

/// Metric names of every kernel row, in output order.
pub fn names() -> Vec<String> {
    let mut out: Vec<String> = GEMMS
        .iter()
        .map(|&(p, m, k, n)| {
            let op = match p {
                Product::Forward => "gemm",
                Product::WeightGrad => "gemm_tb",
                Product::InputGrad => "gemm_ta",
            };
            format!("tensor.{op}.{m}x{k}x{n}.gflops")
        })
        .collect();
    out.extend(
        IM2COLS
            .iter()
            .map(|(c, h, w)| format!("tensor.im2col.{c}x{h}x{w}.gbps")),
    );
    out
}

/// Times `f` until at least `min_s` seconds and 5 calls have passed;
/// returns the median seconds per call.
fn time_call(min_s: f64, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = clock::now();
    while times.len() < 5 || start.elapsed().as_secs_f64() < min_s {
        let t0 = clock::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Naive `C[M,N] = Σ_k A(m,k)·B(k,n)` in f64, with the matching
/// `Σ_k |A(m,k)·B(k,n)|` that bounds the rounding error of any order of
/// f32 summation.
fn reference(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> (Vec<f64>, Vec<f64>) {
    let mut c = vec![0.0f64; m * n];
    let mut mag = vec![0.0f64; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = f64::from(a(i, kk));
            for j in 0..n {
                let p = av * f64::from(b(kk, j));
                c[i * n + j] += p;
                mag[i * n + j] += p.abs();
            }
        }
    }
    (c, mag)
}

/// Runs every kernel row. Returns `(name, value)` pairs and the number of
/// rows whose output disagreed with the reference.
pub fn run(seed: u64, min_s: f64) -> (Vec<(String, f64)>, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6E33);
    let mut rows = Vec::new();
    let mut bad = 0usize;
    let names = names();
    for (&(product, m, k, n), name) in GEMMS.iter().zip(&names) {
        // Operands in the layout each product takes.
        let (a, b) = match product {
            Product::Forward => (
                randn(&[m, k], 0.0, 1.0, &mut rng),
                randn(&[k, n], 0.0, 1.0, &mut rng),
            ),
            Product::WeightGrad => (
                randn(&[m, n], 0.0, 1.0, &mut rng),
                randn(&[k, n], 0.0, 1.0, &mut rng),
            ),
            Product::InputGrad => (
                randn(&[m, k], 0.0, 1.0, &mut rng),
                randn(&[m, n], 0.0, 1.0, &mut rng),
            ),
        };
        let call = |a: &Tensor, b: &Tensor| match product {
            Product::Forward => matmul(a, b),
            Product::WeightGrad => matmul_transpose_b(a, b),
            Product::InputGrad => matmul_transpose_a(a, b),
        };
        let (ad, bd) = (a.data(), b.data());
        // Reference in the product's own output shape.
        let (rows_out, cols_out, want) = match product {
            Product::Forward => (
                m,
                n,
                reference(m, k, n, |i, j| ad[i * k + j], |i, j| bd[i * n + j]),
            ),
            Product::WeightGrad => (
                m,
                k,
                reference(m, n, k, |i, j| ad[i * n + j], |i, j| bd[j * n + i]),
            ),
            Product::InputGrad => (
                k,
                n,
                reference(k, m, n, |i, j| ad[j * k + i], |i, j| bd[i * n + j]),
            ),
        };
        let ok = match call(&a, &b) {
            Ok(got) if got.shape() == [rows_out, cols_out] => got
                .data()
                .iter()
                .zip(want.0.iter().zip(&want.1))
                .all(|(&g, (&r, &mag))| (f64::from(g) - r).abs() <= 1e-4 * mag + 1e-6),
            _ => false,
        };
        if !ok {
            eprintln!("kernel check failed: {name}");
            bad += 1;
        }
        let secs = time_call(min_s, || {
            std::hint::black_box(call(std::hint::black_box(&a), &b).ok());
        });
        rows.push((name.clone(), 2.0 * (m * k * n) as f64 / secs * 1e-9));
    }
    for (&(c, h, w), name) in IM2COLS.iter().zip(&names[GEMMS.len()..]) {
        let x = randn(&[1, c, h, w], 0.0, 1.0, &mut rng);
        let ok = Conv2dGeometry::new(c, 1, 3, 1, 1, h, w)
            .ok()
            .and_then(|geom| {
                let cols = im2col(&x, 0, &geom).ok()?;
                Some((geom, cols))
            })
            .filter(|(geom, cols)| im2col_matches(&x, geom, cols));
        let Some((geom, _)) = ok else {
            eprintln!("kernel check failed: {name}");
            bad += 1;
            rows.push((name.clone(), 0.0));
            continue;
        };
        let secs = time_call(min_s, || {
            std::hint::black_box(im2col(std::hint::black_box(&x), 0, &geom).ok());
        });
        // Bytes the call must move: the input read once, the column
        // matrix written once.
        let bytes = 4 * (c * h * w + geom.col_rows() * geom.col_cols());
        rows.push((name.clone(), bytes as f64 / secs * 1e-9));
    }
    (rows, bad)
}

/// Gathers every column entry straight from the definition of the
/// unfolding and compares it with the library's matrix.
fn im2col_matches(x: &Tensor, geom: &Conv2dGeometry, cols: &Tensor) -> bool {
    let (k, oh, ow) = (geom.kernel, geom.out_h, geom.out_w);
    if cols.shape() != [geom.col_rows(), geom.col_cols()] {
        return false;
    }
    let d = x.data();
    (0..geom.in_channels * k * k).all(|row| {
        let (ch, kh, kw) = (row / (k * k), row / k % k, row % k);
        (0..oh * ow).all(|col| {
            let ih = (col / ow * geom.stride + kh) as isize - geom.padding as isize;
            let iw = (col % ow * geom.stride + kw) as isize - geom.padding as isize;
            let inside =
                (0..geom.in_h as isize).contains(&ih) && (0..geom.in_w as isize).contains(&iw);
            let want = if inside {
                d[(ch * geom.in_h + ih as usize) * geom.in_w + iw as usize]
            } else {
                0.0
            };
            cols.data()[row * oh * ow + col] == want
        })
    })
}
