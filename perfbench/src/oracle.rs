//! Independent FLOPs and parameter count, written from the layer shapes
//! alone, that every generation of every workload is checked against
//! `cap_core::analyze_network`. It also lists each convolution instance
//! with the input shape it sees, for the per-instance layer ledger.
//!
//! Conventions (the paper's): one multiply-accumulate is two FLOPs;
//! batch-norm costs two FLOPs per element, ReLU and the residual add one
//! each, max pooling one per window element, global average pooling one
//! per input element.

use cap_nn::layer::{Conv2d, Layer};
use cap_nn::Network;

/// One convolution instance and the per-sample input it sees.
pub struct ConvSite {
    /// Ledger label: `conv<i>` for plain networks, `stage<s>` for
    /// residual networks (aggregated per stage).
    pub label: String,
    pub conv: Conv2d,
    pub in_h: usize,
    pub in_w: usize,
}

/// The oracle's count of one network.
pub struct Count {
    pub flops: u64,
    pub params: u64,
    pub convs: Vec<ConvSite>,
}

fn out_size(x: usize, k: usize, s: usize, p: usize) -> Result<usize, String> {
    (x + 2 * p)
        .checked_sub(k)
        .map(|v| v / s + 1)
        .ok_or_else(|| format!("window {k} larger than padded input {x}+2*{p}"))
}

/// Counts a convolution applied to a `[cin, h, w]` sample; returns its
/// FLOPs, parameters and output side lengths.
fn conv_cost(
    conv: &Conv2d,
    c: usize,
    h: usize,
    w: usize,
) -> Result<(u64, u64, usize, usize), String> {
    if conv.in_channels() != c {
        return Err(format!(
            "conv expects {} channels, stream has {c}",
            conv.in_channels()
        ));
    }
    let k = conv.kernel();
    let oh = out_size(h, k, conv.stride(), conv.padding())?;
    let ow = out_size(w, k, conv.stride(), conv.padding())?;
    let macs = conv.out_channels() * oh * ow * c * k * k;
    let params = conv.out_channels() * c * k * k + conv.bias().map_or(0, |b| b.data().len());
    Ok((2 * macs as u64, params as u64, oh, ow))
}

/// Counts `net` for one `[c, h, w]` sample.
pub fn count(net: &Network, c: usize, h: usize, w: usize) -> Result<Count, String> {
    let residual = net.layers().iter().any(|l| l.as_residual().is_some());
    let (mut c, mut h, mut w) = (c, h, w);
    let mut flat: Option<usize> = None;
    let (mut flops, mut params) = (0u64, 0u64);
    let mut convs = Vec::new();
    let (mut conv_no, mut stage) = (0usize, 1usize);
    for layer in net.layers() {
        match layer {
            Layer::Conv(conv) => {
                let (f, p, oh, ow) = conv_cost(conv, c, h, w)?;
                conv_no += 1;
                let label = if residual {
                    format!("stage{stage}")
                } else {
                    format!("conv{conv_no}")
                };
                convs.push(ConvSite {
                    label,
                    conv: conv.clone(),
                    in_h: h,
                    in_w: w,
                });
                (flops, params) = (flops + f, params + p);
                (c, h, w) = (conv.out_channels(), oh, ow);
            }
            Layer::BatchNorm(bn) => {
                if bn.channels() != c {
                    return Err(format!(
                        "batch-norm over {} channels, stream has {c}",
                        bn.channels()
                    ));
                }
                flops += (2 * c * h * w) as u64;
                params += 2 * c as u64;
            }
            Layer::Relu(_) => flops += flat.unwrap_or(c * h * w) as u64,
            Layer::MaxPool(pool) => {
                let (k, s) = (pool.kernel(), pool.stride());
                (h, w) = (out_size(h, k, s, 0)?, out_size(w, k, s, 0)?);
                flops += (c * h * w * k * k) as u64;
            }
            Layer::GlobalAvgPool(_) => {
                flops += (c * h * w) as u64;
                flat = Some(c);
            }
            Layer::Flatten(_) => flat = Some(c * h * w),
            Layer::Linear(lin) => {
                let in_f = flat.unwrap_or(c * h * w);
                if lin.in_features() != in_f {
                    return Err(format!(
                        "linear expects {} features, stream has {in_f}",
                        lin.in_features()
                    ));
                }
                flops += 2 * (in_f * lin.out_features()) as u64;
                params += (in_f * lin.out_features() + lin.bias().data().len()) as u64;
                flat = Some(lin.out_features());
            }
            Layer::Residual(block) => {
                if block.conv1().stride() > 1 {
                    stage += 1;
                }
                let label = format!("stage{stage}");
                let (f1, p1, oh, ow) = conv_cost(block.conv1(), c, h, w)?;
                let mid = block.conv1().out_channels();
                let (f2, p2, oh2, ow2) = conv_cost(block.conv2(), mid, oh, ow)?;
                let out_c = block.conv2().out_channels();
                // bn1 (2) + relu (1) on the inner width, bn2 (2) on the output.
                flops += f1 + f2 + (3 * mid * oh * ow + 2 * out_c * oh2 * ow2) as u64;
                params += p1 + p2 + 2 * (mid + out_c) as u64;
                for (conv, ih, iw) in [(block.conv1(), h, w), (block.conv2(), oh, ow)] {
                    convs.push(ConvSite {
                        label: label.clone(),
                        conv: conv.clone(),
                        in_h: ih,
                        in_w: iw,
                    });
                }
                match block.shortcut() {
                    Some((sc, bn)) => {
                        let (fs, ps, sh, sw) = conv_cost(sc, c, h, w)?;
                        if (sc.out_channels(), sh, sw) != (out_c, oh2, ow2)
                            || bn.channels() != out_c
                        {
                            return Err(
                                "projection shortcut does not match the block output".into()
                            );
                        }
                        flops += fs + (2 * out_c * sh * sw) as u64;
                        params += ps + 2 * out_c as u64;
                        convs.push(ConvSite {
                            label: label.clone(),
                            conv: sc.clone(),
                            in_h: h,
                            in_w: w,
                        });
                    }
                    None if (c, h, w) != (out_c, oh2, ow2) => {
                        return Err("identity shortcut across a shape change".into());
                    }
                    None => {}
                }
                // Residual add + output ReLU.
                flops += (2 * out_c * oh2 * ow2) as u64;
                (c, h, w) = (out_c, oh2, ow2);
            }
        }
    }
    Ok(Count {
        flops,
        params,
        convs,
    })
}

/// Checks `net` against `cap_core::analyze_network`; returns the
/// oracle's count and whether both totals agree.
pub fn check(net: &Network, c: usize, h: usize, w: usize) -> Result<(Count, bool), String> {
    let ours = count(net, c, h, w)?;
    let lib = cap_core::analyze_network(net, c, h, w).map_err(|e| e.to_string())?;
    let agree = ours.flops == lib.total_flops
        && ours.params == lib.total_params
        && ours.params == net.num_params() as u64;
    if !agree {
        eprintln!(
            "FLOPs oracle mismatch: oracle {} FLOPs / {} params, analyze_network {} / {}, num_params {}",
            ours.flops,
            ours.params,
            lib.total_flops,
            lib.total_params,
            net.num_params()
        );
    }
    Ok((ours, agree))
}
