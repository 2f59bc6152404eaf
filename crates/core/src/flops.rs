//! FLOPs and parameter accounting, used for the "Prun. ratio" and
//! "FLOPs red." columns of the paper's tables.
//!
//! One multiply-accumulate counts as two FLOPs, the paper's convention
//! ("4.1 billion MAC operations and thus 8.2 billion FLOPs").

use crate::PruneError;
use cap_nn::layer::Layer;
use cap_nn::Network;
use cap_tensor::conv_output_size;

/// Cost of one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerCost {
    /// Layer kind plus position label.
    pub label: String,
    /// Floating-point operations for one input sample.
    pub flops: u64,
    /// Learnable parameter count.
    pub params: u64,
}

/// Cost report for a whole network at a given input size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlopsReport {
    /// Per-layer breakdown in execution order.
    pub layers: Vec<LayerCost>,
    /// Total FLOPs per sample.
    pub total_flops: u64,
    /// Total parameters.
    pub total_params: u64,
}

impl FlopsReport {
    /// Relative FLOPs reduction of `self` w.r.t. `baseline`
    /// (`1 − flops/baseline`), clamped at 0 for larger models.
    pub fn flops_reduction_vs(&self, baseline: &FlopsReport) -> f64 {
        if baseline.total_flops == 0 {
            return 0.0;
        }
        (1.0 - self.total_flops as f64 / baseline.total_flops as f64).max(0.0)
    }

    /// Relative parameter reduction (the tables' pruning ratio).
    pub fn param_reduction_vs(&self, baseline: &FlopsReport) -> f64 {
        if baseline.total_params == 0 {
            return 0.0;
        }
        (1.0 - self.total_params as f64 / baseline.total_params as f64).max(0.0)
    }
}

/// Analyses `net` for a single sample of shape `[channels, height, width]`.
///
/// # Errors
///
/// Returns [`PruneError::UnsupportedTopology`] if shapes stop propagating
/// (e.g. a channel mismatch mid-network) and geometry errors from pooling
/// or convolution.
pub fn analyze_network(
    net: &Network,
    in_channels: usize,
    height: usize,
    width: usize,
) -> Result<FlopsReport, PruneError> {
    let mut layers = Vec::new();
    let mut c = in_channels;
    let mut h = height;
    let mut w = width;
    let mut flat: Option<usize> = None; // feature count once spatial collapsed
    for (i, layer) in net.layers().iter().enumerate() {
        let label = format!("{}{}", layer.kind(), i);
        match layer {
            Layer::Conv(conv) => {
                if conv.in_channels() != c {
                    return Err(PruneError::UnsupportedTopology {
                        reason: format!(
                            "conv at layer {i} expects {} channels, stream has {c}",
                            conv.in_channels()
                        ),
                    });
                }
                let oh = conv_output_size(h, conv.kernel(), conv.stride(), conv.padding())?;
                let ow = conv_output_size(w, conv.kernel(), conv.stride(), conv.padding())?;
                let macs = (conv.out_channels()
                    * oh
                    * ow
                    * conv.in_channels()
                    * conv.kernel()
                    * conv.kernel()) as u64;
                layers.push(LayerCost {
                    label,
                    flops: 2 * macs,
                    params: conv.num_params() as u64,
                });
                c = conv.out_channels();
                h = oh;
                w = ow;
            }
            Layer::BatchNorm(bn) => {
                layers.push(LayerCost {
                    label,
                    flops: (2 * c * h * w) as u64,
                    params: bn.num_params() as u64,
                });
            }
            Layer::Relu(_) => {
                layers.push(LayerCost {
                    label,
                    flops: flat.unwrap_or(c * h * w) as u64,
                    params: 0,
                });
            }
            Layer::MaxPool(_) => {
                // Geometry is not stored on the layer; infer from a 2x2/2
                // pool, the only configuration the models use.
                let oh = conv_output_size(h, 2, 2, 0)?;
                let ow = conv_output_size(w, 2, 2, 0)?;
                layers.push(LayerCost {
                    label,
                    flops: (c * oh * ow * 4) as u64,
                    params: 0,
                });
                h = oh;
                w = ow;
            }
            Layer::GlobalAvgPool(_) => {
                layers.push(LayerCost {
                    label,
                    flops: (c * h * w) as u64,
                    params: 0,
                });
                flat = Some(c);
            }
            Layer::Flatten(_) => {
                layers.push(LayerCost {
                    label,
                    flops: 0,
                    params: 0,
                });
                flat = Some(c * h * w);
            }
            Layer::Linear(lin) => {
                let in_f = flat.unwrap_or(c * h * w);
                if lin.in_features() != in_f {
                    return Err(PruneError::UnsupportedTopology {
                        reason: format!(
                            "linear at layer {i} expects {} features, stream has {in_f}",
                            lin.in_features()
                        ),
                    });
                }
                layers.push(LayerCost {
                    label,
                    flops: 2 * (lin.in_features() * lin.out_features()) as u64,
                    params: lin.num_params() as u64,
                });
                flat = Some(lin.out_features());
            }
            Layer::Residual(block) => {
                let mut flops = 0u64;
                // conv1 (may be strided).
                let c1 = block.conv1();
                let oh = conv_output_size(h, c1.kernel(), c1.stride(), c1.padding())?;
                let ow = conv_output_size(w, c1.kernel(), c1.stride(), c1.padding())?;
                flops += 2
                    * (c1.out_channels() * oh * ow * c1.in_channels() * c1.kernel() * c1.kernel())
                        as u64;
                // bn1 + relu on conv1 output.
                flops += (3 * c1.out_channels() * oh * ow) as u64;
                // conv2 (stride 1, same spatial).
                let c2 = block.conv2();
                flops += 2
                    * (c2.out_channels() * oh * ow * c2.in_channels() * c2.kernel() * c2.kernel())
                        as u64;
                // bn2.
                flops += (2 * c2.out_channels() * oh * ow) as u64;
                // Projection shortcut: 1×1 conv plus its batch-norm.
                if let Some((sc, _)) = block.shortcut() {
                    flops += 2 * (sc.out_channels() * oh * ow * sc.in_channels()) as u64
                        + (2 * sc.out_channels() * oh * ow) as u64;
                }
                // Addition + final relu.
                flops += (2 * block.out_channels() * oh * ow) as u64;
                layers.push(LayerCost {
                    label,
                    flops,
                    params: block.num_params() as u64,
                });
                c = block.out_channels();
                h = oh;
                w = ow;
            }
        }
    }
    let total_flops = layers.iter().map(|l| l.flops).sum();
    let total_params = layers.iter().map(|l| l.params).sum();
    Ok(FlopsReport {
        layers,
        total_flops,
        total_params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_nn::layer::{
        BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu, ResidualBlock,
    };
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn conv_flops_formula() {
        let mut net = Network::new();
        net.push(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng()).unwrap());
        let r = analyze_network(&net, 3, 16, 16).unwrap();
        // 2 * 8*16*16*3*3*3
        assert_eq!(r.total_flops, 2 * 8 * 16 * 16 * 3 * 9);
        assert_eq!(r.total_params, 8 * 3 * 9);
    }

    #[test]
    fn params_match_network_count() {
        let mut net = Network::new();
        net.push(Conv2d::new(3, 4, 3, 1, 1, false, &mut rng()).unwrap());
        net.push(BatchNorm2d::new(4).unwrap());
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2).unwrap());
        net.push(ResidualBlock::new(4, 8, 2, &mut rng()).unwrap());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(8, 10, &mut rng()).unwrap());
        let r = analyze_network(&net, 3, 16, 16).unwrap();
        assert_eq!(r.total_params as usize, net.num_params());
    }

    #[test]
    fn pruning_reduces_both_metrics() {
        let mut rng = rng();
        let mut net = Network::new();
        net.push(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng).unwrap());
        net.push(BatchNorm2d::new(8).unwrap());
        net.push(Relu::new());
        net.push(Conv2d::new(8, 8, 3, 1, 1, false, &mut rng).unwrap());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(8, 4, &mut rng).unwrap());
        let before = analyze_network(&net, 3, 8, 8).unwrap();
        let sites = crate::find_prunable_sites(&net);
        crate::apply_site_pruning(&mut net, &sites[0], &[0, 1]).unwrap();
        let after = analyze_network(&net, 3, 8, 8).unwrap();
        assert!(after.total_flops < before.total_flops);
        assert!(after.total_params < before.total_params);
        assert!(after.flops_reduction_vs(&before) > 0.5);
        assert!(after.param_reduction_vs(&before) > 0.0);
        // Baseline reduction vs itself is zero.
        assert_eq!(before.flops_reduction_vs(&before), 0.0);
    }

    #[test]
    fn channel_mismatch_detected() {
        let mut net = Network::new();
        net.push(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng()).unwrap());
        let r = analyze_network(&net, 4, 8, 8);
        assert!(matches!(r, Err(PruneError::UnsupportedTopology { .. })));
    }
}
