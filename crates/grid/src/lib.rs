//! N-dimensional grids, tiles, cones, and region decomposition for stencil synthesis.
//!
//! This crate is the geometric substrate of the `stencilcl` framework. It provides:
//!
//! * [`Point`] / [`Extent`] / [`Rect`] — small fixed-capacity N-d (N ≤ 3) index
//!   arithmetic used everywhere else in the workspace;
//! * [`Grid`] — a dense row-major N-d array holding stencil data;
//! * [`LaneHash`] — the four-lane word hash that digests grid data, slabs
//!   and checkpoint files;
//! * [`Growth`] — per-dimension, per-side halo growth of a fused-iteration cone;
//! * [`Cone`] — the iteration-fusion cone of a tile: the widest *base* footprint
//!   loaded from global memory and the per-level footprints that shrink toward
//!   the tile as fused iterations advance;
//! * [`Partition`] and [`Design`] — the decomposition of an input grid into
//!   *regions* processed pass-by-pass, each region split into `K` *tiles*
//!   executed by parallel kernels, with equal (baseline / pipe-shared) or
//!   heterogeneous (workload-balanced) tile lengths.
//!
//! The vocabulary follows the DAC'17 paper "A Comprehensive Framework for
//! Synthesizing Stencil Algorithms on FPGAs using OpenCL Model": a *region* is
//! the portion of the input processed concurrently by all kernels between two
//! global-memory synchronizations, a *tile* is the output footprint owned by one
//! kernel, and the *cone* is the enlarged footprint a kernel must compute when
//! `h` stencil iterations are fused on chip.
//!
//! # Example
//!
//! ```
//! use stencilcl_grid::{Design, DesignKind, Extent, Growth, Partition};
//!
//! // 2-D 64x64 grid, 2x2 kernels, 4 fused iterations, symmetric radius 1.
//! let extent = Extent::new2(64, 64);
//! let growth = Growth::symmetric(2, 1);
//! let design = Design::equal(DesignKind::PipeShared, 4, vec![2, 2], vec![16, 16])?;
//! let partition = Partition::new(extent, &design, &growth)?;
//! assert_eq!(partition.kernel_count(), 4);
//! assert_eq!(partition.regions_per_pass(), 4); // (64/32)^2
//! # Ok::<(), stencilcl_grid::GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cone;
mod error;
mod extent;
mod grid;
mod growth;
mod hash;
mod partition;
mod point;
mod rect;
mod tile;

pub use cone::Cone;
pub use error::GridError;
pub use extent::Extent;
pub use grid::Grid;
pub use growth::Growth;
pub use hash::LaneHash;
pub use partition::{Design, DesignKind, Partition};
pub use point::Point;
pub use rect::Rect;
pub use tile::{Face, FaceKind, TileInfo};

/// Maximum number of spatial dimensions supported by the framework.
///
/// The paper evaluates 1-D, 2-D and 3-D stencils; all geometry types in this
/// crate use fixed-capacity storage of this size.
pub const MAX_DIM: usize = 3;

/// Validates a dimensionality, returning it if within `1..=MAX_DIM`.
///
/// # Errors
///
/// Returns [`GridError::BadDimension`] when `dim` is zero or exceeds
/// [`MAX_DIM`].
pub fn check_dim(dim: usize) -> Result<usize, GridError> {
    if dim == 0 || dim > MAX_DIM {
        Err(GridError::BadDimension(dim))
    } else {
        Ok(dim)
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn check_dim_accepts_supported_dims() {
        for d in 1..=MAX_DIM {
            assert_eq!(check_dim(d).unwrap(), d);
        }
    }

    #[test]
    fn check_dim_rejects_zero_and_large() {
        assert!(check_dim(0).is_err());
        assert!(check_dim(MAX_DIM + 1).is_err());
    }
}
