#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section. One grid, [`specs`], defines every run and its
//! configuration; [`run_suite`] (behind the `exp_suite` binary) runs it
//! serially and assembles the artefacts, and the fleet runner
//! (`capfleet`) runs the same cells as independent work items.
//!
//! | Entry point | Paper content |
//! |---|---|
//! | [`SuiteReport::table1`] | Table I — accuracy / pruning ratio / FLOPs reduction for the four model-dataset pairs |
//! | [`SuiteReport::table2`] | Table II — strategy ablation on ResNet56-C10 |
//! | [`SuiteReport::table3`] | Table III — regulariser ablation |
//! | [`SuiteReport::fig4`] | Fig. 4 — single-layer score distributions before/after pruning |
//! | [`SuiteReport::fig6`] | Fig. 6 — comparison against L1 / SSS / HRank / TPP / OrthConv / DepGraph (+ Taylor) |
//! | [`SuiteReport::fig7`] | Fig. 7 — per-layer mean scores before/after pruning |
//! | [`SuiteReport::fig8`] | Fig. 8 — score distributions under regulariser variants |
//! | [`specs::run_spec`] | any single grid cell (`capfleet init --specs FILE`) |

mod experiments;
mod render;
mod scale;
mod setup;
pub mod specs;
mod trace;

pub use experiments::{
    run_suite, Fig4Result, Fig6Row, Fig7Result, Fig8Row, SuiteReport, Table1Row, Table2Row,
    Table3Row,
};
pub use render::{
    render_fig4, render_fig6, render_fig7, render_fig8, render_table1, render_table2, render_table3,
};
pub use scale::ExperimentScale;
pub use setup::{build_dataset, build_model, pretrain, pretrain_cached, Arch, DataKind, Prepared};
pub use trace::{finalize_telemetry, init_trace, init_trace_quiet};
