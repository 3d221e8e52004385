//! Analytical performance model for stencil accelerators — Section 4 of the
//! paper (Eqs. 1–11) plus the Table 1 parameter glossary.
//!
//! The model predicts the execution latency `L` (in kernel-clock cycles) of
//! an iterative stencil accelerator from:
//!
//! * source analysis — dimensions `D`, input lengths `W_d`, iteration count
//!   `H`, per-fused-iteration halo growth `Δw_d`, element size `Δs`
//!   (all from [`StencilFeatures`](stencilcl_lang::StencilFeatures));
//! * the design point — fused depth `h`, kernel count `K`, slowest-kernel
//!   tile lengths `w_d · f_d^max` (from
//!   [`Design`](stencilcl_grid::Design)/[`Partition`](stencilcl_grid::Partition));
//! * HLS results — `C_element = II / N_PE`
//!   (from [`HlsReport`](stencilcl_hls::HlsReport));
//! * off-line profiling — global-memory bandwidth `BW`, pipe cost `C_pipe`,
//!   and launch overhead (from [`Device`](stencilcl_hls::Device)).
//!
//! The top-level entry point is [`predict`]; [`ModelInputs::gather`] collects
//! the parameters from the other crates.
//!
//! Two deliberate, documented deviations from the printed equations:
//!
//! 1. **Eq. 2 missing `h`** — the printed region count lacks the division by
//!    the fused depth even though its text defines `h`; we use
//!    `N_region = ⌈H/h⌉ · ∏ W_d / (K ∏ w_d)`, without which the predicted
//!    latency would not depend on `h` at all.
//! 2. **`Δw_d` per design** — the baseline cone expands on both sides of
//!    every dimension (`Δw_d` = full growth), while in the pipe-based designs
//!    the slowest (corner) kernel only expands on its outward region-boundary
//!    faces; [`ModelInputs::gather`] derives the effective `Δw_d` from the
//!    partition's canonical face classification.
//!
//! Like the paper's model, [`predict`] charges a *single* launch overhead per
//! region pass, whereas the real runtime (and the simulator in
//! `stencilcl-sim`) launches the `K` kernels sequentially — Section 5.6
//! identifies exactly this as the source of the model's underestimation in
//! Figure 7.
//!
//! # Example
//!
//! ```
//! use stencilcl_grid::{Design, DesignKind, Partition};
//! use stencilcl_hls::{synthesize, CostModel, Device};
//! use stencilcl_lang::{programs, StencilFeatures};
//! use stencilcl_model::{predict, ModelInputs};
//!
//! let program = programs::jacobi_2d();
//! let features = StencilFeatures::extract(&program)?;
//! let design = Design::equal(DesignKind::PipeShared, 16, vec![4, 4], vec![128, 128])?;
//! let partition = Partition::new(features.extent, &design, &features.growth)?;
//! let device = Device::default();
//! let hls = synthesize(&program, &partition, 8, &CostModel::default(), &device);
//! let inputs = ModelInputs::gather(&features, &partition, &hls, &device);
//! let prediction = predict(&inputs);
//! assert!(prediction.total > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod compute;
mod error;
mod glossary;
mod memory;
mod params;
mod share;
mod sync;
#[cfg(test)]
pub(crate) mod testutil;

pub use compute::{compute_latency, iter_latency};
pub use error::ModelError;
pub use glossary::{parameter_glossary, ParamInfo, Provenance};
pub use memory::{memory_latency, read_latency, write_latency};
pub use params::ModelInputs;
pub use share::{overlap_lambda, share_latency};
pub use sync::{predict, region_count, Prediction};
