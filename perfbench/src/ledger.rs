//! Per-instance layer ledger: forward and backward time of every
//! convolution instance at its real input shape, timed on a clone of the
//! layer through its public `forward` / `backward`.

use crate::oracle::ConvSite;
use crate::probe::median_ns;
use cap_tensor::randn;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Training batch the ledger times each instance at.
pub const BATCH: usize = 48;

/// One ledger row (summed over the instances sharing a label).
#[derive(Default)]
pub struct Row {
    pub instances: usize,
    pub fwd_ns: f64,
    pub bwd_ns: f64,
    /// Forward + backward FLOPs of one batch (backward = input and weight
    /// gradients, twice the forward).
    pub flops: f64,
}

impl Row {
    pub fn gflops(&self) -> f64 {
        let ns = self.fwd_ns + self.bwd_ns;
        if ns > 0.0 {
            self.flops / ns
        } else {
            0.0
        }
    }
}

/// Times every instance `reps` times (median) and sums consecutive
/// instances that share a label.
pub fn measure(sites: &[ConvSite], reps: usize, seed: u64) -> Result<Vec<(String, Row)>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1ED6);
    let mut rows: Vec<(String, Row)> = Vec::new();
    for site in sites {
        let mut conv = site.conv.clone();
        let x = randn(
            &[BATCH, conv.in_channels(), site.in_h, site.in_w],
            0.0,
            1.0,
            &mut rng,
        );
        let (y, fwd_ns) = median_ns(reps, || conv.forward(&x));
        let y = y.map_err(|e| format!("{}: forward: {e}", site.label))?;
        let g = randn(y.shape(), 0.0, 1.0, &mut rng);
        // Each backward consumes the forward's cached columns, which stay
        // in place between calls; gradients accumulate harmlessly.
        let (gx, bwd_ns) = median_ns(reps, || conv.backward(&g));
        gx.map_err(|e| format!("{}: backward: {e}", site.label))?;
        let k = conv.kernel();
        let fwd_flops = 2.0
            * (BATCH * conv.out_channels() * y.dim(2) * y.dim(3) * conv.in_channels() * k * k)
                as f64;
        if rows.last().is_none_or(|(label, _)| *label != site.label) {
            rows.push((site.label.clone(), Row::default()));
        }
        let row = &mut rows.last_mut().expect("pushed above").1;
        row.instances += 1;
        row.fwd_ns += fwd_ns;
        row.bwd_ns += bwd_ns;
        row.flops += 3.0 * fwd_flops;
    }
    Ok(rows)
}
