use stencilcl_grid::{Cone, DesignKind, Growth, Rect, TileInfo, MAX_DIM};
use stencilcl_lang::StencilFeatures;

use crate::ExecError;

/// Precomputed update domains for one tile across a fused pass.
///
/// Iteration fusion turns a tile into a trapezoid of work: the footprint a
/// kernel may validly update shrinks every chained statement and every fused
/// iteration on each face where data is *consumed* rather than exchanged
/// (expanding faces), while on pipe-shared and grid-boundary faces the domain
/// reaches the tile edge throughout.
///
/// For iteration `i` (1-based) and statement `s` (0-based) the valid domain
/// is the cone's base shrunk on expanding faces by
/// `(i−1) · G_total + G_cum(s)`, where `G_cum` accumulates the statement
/// growths within one iteration, intersected with the statement's global
/// update domain (which handles the fixed grid-boundary ring).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DomainPlan {
    cone: Cone,
    buffer: Rect,
    total: Growth,
    cumulative: Vec<Growth>,
    global_domains: Vec<Rect>,
    fused: u64,
}

impl DomainPlan {
    /// Builds the plan for `tile` under design `kind` with `fused` on-chip
    /// iterations of the stencil described by `features` over `grid_rect`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if statement growths cannot be combined (they
    /// always can for a checked program).
    pub fn new(
        features: &StencilFeatures,
        tile: &TileInfo,
        kind: DesignKind,
        fused: u64,
        grid_rect: &Rect,
    ) -> Result<DomainPlan, ExecError> {
        let total = features.growth;
        let cone = tile.cone(kind, total, fused);
        let mut cumulative = Vec::with_capacity(features.statements.len());
        let mut acc = Growth::zero(features.dim);
        for s in &features.statements {
            acc = acc.checked_add(&s.growth)?;
            cumulative.push(acc);
        }
        let global_domains = features
            .statements
            .iter()
            .map(|s| {
                let (mut lo, mut hi) = s.growth.amounts(1);
                for v in lo.iter_mut().chain(hi.iter_mut()) {
                    *v = -*v;
                }
                grid_rect.expand(&lo, &hi)
            })
            .collect();
        // Buffer: the cone's input footprint, plus a one-iteration halo on
        // pipe-shared faces, clipped to the grid.
        let mut halo_lo = [0i64; MAX_DIM];
        let mut halo_hi = [0i64; MAX_DIM];
        if kind.uses_pipes() {
            for f in tile.faces() {
                if matches!(f.kind, stencilcl_grid::FaceKind::Shared { .. }) {
                    if f.high {
                        halo_hi[f.axis] = total.hi(f.axis) as i64;
                    } else {
                        halo_lo[f.axis] = total.lo(f.axis) as i64;
                    }
                }
            }
        }
        let buffer = cone
            .input_footprint()
            .expand(&halo_lo, &halo_hi)
            .intersect(grid_rect)?;
        Ok(DomainPlan {
            cone,
            buffer,
            total,
            cumulative,
            global_domains,
            fused,
        })
    }

    /// The local buffer footprint (burst-read window), clipped to the grid.
    pub fn buffer(&self) -> Rect {
        self.buffer
    }

    /// The tile (output footprint).
    pub fn tile(&self) -> Rect {
        self.cone.tile()
    }

    /// The valid update domain of statement `s` at fused iteration `i`
    /// (1-based), in absolute coordinates, clipped to the statement's global
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `1..=fused` or `s` is out of range.
    pub fn domain(&self, i: u64, s: usize) -> Rect {
        assert!(
            i >= 1 && i <= self.fused,
            "iteration {i} outside 1..={}",
            self.fused
        );
        let cum = &self.cumulative[s];
        let mut lo = [0i64; MAX_DIM];
        let mut hi = [0i64; MAX_DIM];
        for d in 0..self.tile().dim() {
            if self.cone.expands_lo(d) {
                lo[d] = -(((i - 1) * self.total.lo(d) + cum.lo(d)) as i64);
            }
            if self.cone.expands_hi(d) {
                hi[d] = -(((i - 1) * self.total.hi(d) + cum.hi(d)) as i64);
            }
        }
        self.cone
            .level(0)
            .expand(&lo, &hi)
            .intersect(&self.global_domains[s])
            .expect("plan geometry shares one dimensionality")
    }

    /// The absolute halo region of this tile's buffer across the given face:
    /// the part of the buffer beyond the tile along `axis` on the `high`
    /// side. This is what a pipe neighbor refills after each statement.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn halo_rect(&self, axis: usize, high: bool) -> Rect {
        let tile = self.tile();
        let (mut lo, mut hi) = (self.buffer.lo(), self.buffer.hi());
        if high {
            lo = lo.with_coord(axis, tile.hi().coord(axis));
        } else {
            hi = hi.with_coord(axis, tile.lo().coord(axis));
        }
        Rect::new(lo, hi).expect("buffer and tile share one dimensionality")
    }
}

/// Rejects stencils whose statements read diagonal offsets (pipe executors
/// exchange face slabs only; see the crate-level limitations).
///
/// # Errors
///
/// Returns [`ExecError::DiagonalAccess`] naming the first offending
/// statement.
pub fn reject_diagonals(features: &StencilFeatures) -> Result<(), ExecError> {
    for s in &features.statements {
        for (_, offset) in &s.accesses {
            let nonzero = (0..offset.dim()).filter(|&d| offset.coord(d) != 0).count();
            if nonzero > 1 {
                return Err(ExecError::DiagonalAccess {
                    statement: s.target.clone(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_grid::{Design, Extent, Partition};
    use stencilcl_lang::programs;

    fn plan(kind: DesignKind, fused: u64) -> (StencilFeatures, Vec<DomainPlan>) {
        let program = programs::jacobi_2d().with_extent(Extent::new2(64, 64));
        let f = StencilFeatures::extract(&program).unwrap();
        let d = Design::equal(kind, fused, vec![2, 2], vec![16, 16]).unwrap();
        let p = Partition::new(f.extent, &d, &f.growth).unwrap();
        let grid_rect = Rect::from_extent(&f.extent);
        let plans = p
            .tiles_for_region(&[1, 1])
            .iter()
            .map(|t| DomainPlan::new(&f, t, kind, fused, &grid_rect).unwrap())
            .collect();
        (f, plans)
    }

    #[test]
    fn final_domain_is_the_tile() {
        // Kernel 0 of region [1,1] lies strictly inside the grid, so the
        // trapezoid must close exactly on the tile at the last iteration.
        let (_, plans) = plan(DesignKind::Baseline, 3);
        assert_eq!(plans[0].domain(3, 0), plans[0].tile());
    }

    #[test]
    fn first_domain_spans_the_cone_base_interior() {
        let (_, plans) = plan(DesignKind::Baseline, 3);
        let dp = &plans[0]; // interior region: all faces expand
        let d = dp.domain(1, 0);
        // Base expands 3 on every side; after one statement the domain has
        // shrunk 1 on every side.
        assert_eq!(d, dp.tile().expand_uniform(2));
    }

    #[test]
    fn pipe_domains_reach_shared_tile_edges() {
        let (_, plans) = plan(DesignKind::PipeShared, 3);
        // Kernel 0 of region [1,1]: lo faces are region boundary? No — all
        // region faces of region [1,1] are interior, so outward faces are
        // RegionBoundary; kernel 0's lo faces expand, hi faces are shared.
        let dp = &plans[0];
        let d = dp.domain(2, 0);
        assert_eq!(d.hi(), dp.tile().hi(), "shared faces never shrink");
        assert!(
            d.lo().coord(0) < dp.tile().lo().coord(0),
            "outward halo still valid"
        );
    }

    #[test]
    fn buffer_includes_shared_halo_only_for_pipes() {
        let (_, base) = plan(DesignKind::Baseline, 2);
        let (_, pipe) = plan(DesignKind::PipeShared, 2);
        // Baseline kernel 0 buffer: tile + 2 on all sides.
        assert_eq!(base[0].buffer(), base[0].tile().expand_uniform(2));
        // Pipe kernel 0: 2*1 outward on lo sides (region boundary), 1 on
        // shared hi sides.
        let expected = pipe[0].tile().expand(&[2, 2, 0], &[1, 1, 0]);
        assert_eq!(pipe[0].buffer(), expected);
    }

    #[test]
    fn halo_rect_sits_beyond_tile() {
        let (_, pipe) = plan(DesignKind::PipeShared, 2);
        let dp = &pipe[0];
        let halo = dp.halo_rect(0, true);
        assert_eq!(halo.lo().coord(0), dp.tile().hi().coord(0));
        assert_eq!(halo.hi().coord(0), dp.buffer().hi().coord(0));
        assert_eq!(halo.volume(), dp.buffer().len(1));
    }

    #[test]
    fn grid_boundary_clips_domains() {
        let program = programs::jacobi_2d().with_extent(Extent::new2(32, 32));
        let f = StencilFeatures::extract(&program).unwrap();
        let d = Design::equal(DesignKind::Baseline, 2, vec![2, 2], vec![16, 16]).unwrap();
        let p = Partition::new(f.extent, &d, &f.growth).unwrap();
        let grid_rect = Rect::from_extent(&f.extent);
        let tiles = p.tiles_for_region(&[0, 0]);
        let dp = DomainPlan::new(&f, &tiles[0], DesignKind::Baseline, 2, &grid_rect).unwrap();
        // Kernel (0,0): grid boundary on lo sides, so the domain starts at 1
        // (the statement interior), not below 0.
        let d1 = dp.domain(1, 0);
        assert_eq!(d1.lo().coord(0), 1);
        assert_eq!(d1.lo().coord(1), 1);
    }

    #[test]
    fn diagonal_detection() {
        let ok = StencilFeatures::extract(&programs::fdtd_2d()).unwrap();
        assert!(reject_diagonals(&ok).is_ok());
        let diag = stencilcl_lang::parse(
            "stencil d { grid A[8][8] : f32; iterations 1;
             A[i][j] = A[i-1][j-1]; }",
        )
        .unwrap();
        let f = StencilFeatures::extract(&diag).unwrap();
        assert!(matches!(
            reject_diagonals(&f).unwrap_err(),
            ExecError::DiagonalAccess { .. }
        ));
    }
}
