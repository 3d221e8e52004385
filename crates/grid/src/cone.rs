use serde::{Deserialize, Serialize};

use crate::{Growth, Rect, MAX_DIM};

/// The iteration-fusion *cone* of one tile.
///
/// Fusing `h` stencil iterations on chip means a kernel that must emit the
/// tile's values after iteration `h` has to start from a wider input
/// footprint and compute a footprint that shrinks by the stencil [`Growth`]
/// every iteration — the cone of Figure 1(a) in the paper.
///
/// Which sides actually expand is configurable per face: in the baseline
/// (overlapped tiling) design every side facing another tile or region
/// expands, which is exactly the redundant computation pipe-based sharing
/// removes. Sides that exchange data through pipes, and sides on the global
/// grid boundary, do not expand.
///
/// Levels are indexed `0..=h`: level `0` is the input footprint loaded from
/// global memory, level `i` is the footprint of values valid after `i` fused
/// iterations, and level `h` equals the tile itself.
///
/// # Example
///
/// ```
/// use stencilcl_grid::{Cone, Growth, Point, Rect};
///
/// let tile = Rect::new(Point::new2(8, 8), Point::new2(16, 16))?;
/// let cone = Cone::new(tile, Growth::symmetric(2, 1), 4, [true; 3], [true; 3]);
/// assert_eq!(cone.level(0).volume(), 16 * 16); // 8+2*4 per side
/// assert_eq!(cone.level(4), tile);
/// assert_eq!(cone.redundant_elements(), cone.total_compute() - 4 * tile.volume());
/// # Ok::<(), stencilcl_grid::GridError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cone {
    tile: Rect,
    growth: Growth,
    fused: u64,
    expand_lo: [bool; MAX_DIM],
    expand_hi: [bool; MAX_DIM],
}

impl Cone {
    /// Creates a cone over `tile` with `fused` on-chip iterations.
    ///
    /// `expand_lo[d]` / `expand_hi[d]` select whether the low/high face along
    /// dimension `d` grows (no pipe neighbor there) or stays fixed.
    pub fn new(
        tile: Rect,
        growth: Growth,
        fused: u64,
        expand_lo: [bool; MAX_DIM],
        expand_hi: [bool; MAX_DIM],
    ) -> Self {
        Cone {
            tile,
            growth,
            fused,
            expand_lo,
            expand_hi,
        }
    }

    /// A cone expanding on every face (the baseline overlapped-tiling cone).
    pub fn fully_expanding(tile: Rect, growth: Growth, fused: u64) -> Self {
        Cone::new(tile, growth, fused, [true; MAX_DIM], [true; MAX_DIM])
    }

    /// A degenerate cone that never expands (all faces shared or on the grid
    /// boundary).
    pub fn non_expanding(tile: Rect, growth: Growth, fused: u64) -> Self {
        Cone::new(tile, growth, fused, [false; MAX_DIM], [false; MAX_DIM])
    }

    /// The tile (output footprint) this cone serves.
    pub fn tile(&self) -> Rect {
        self.tile
    }

    /// The per-iteration growth.
    pub fn growth(&self) -> Growth {
        self.growth
    }

    /// The number of fused iterations `h`.
    pub fn fused(&self) -> u64 {
        self.fused
    }

    /// Whether the low face of dimension `d` expands.
    ///
    /// # Panics
    ///
    /// Panics if `d >= tile.dim()`.
    pub fn expands_lo(&self, d: usize) -> bool {
        assert!(d < self.tile.dim());
        self.expand_lo[d]
    }

    /// Whether the high face of dimension `d` expands.
    ///
    /// # Panics
    ///
    /// Panics if `d >= tile.dim()`.
    pub fn expands_hi(&self, d: usize) -> bool {
        assert!(d < self.tile.dim());
        self.expand_hi[d]
    }

    /// The footprint of level `level`, for `level <= fused`.
    ///
    /// # Panics
    ///
    /// Panics if `level > self.fused()`.
    pub fn level(&self, level: u64) -> Rect {
        assert!(
            level <= self.fused,
            "cone level {level} beyond fused depth {}",
            self.fused
        );
        let steps = self.fused - level;
        let (mut lo, mut hi) = self.growth.amounts(steps);
        for d in 0..self.tile.dim() {
            if !self.expand_lo[d] {
                lo[d] = 0;
            }
            if !self.expand_hi[d] {
                hi[d] = 0;
            }
        }
        self.tile.expand(&lo, &hi)
    }

    /// The input footprint loaded from global memory (level 0).
    pub fn input_footprint(&self) -> Rect {
        self.level(0)
    }

    /// Elements computed at iteration `i` (1-based), i.e. the volume of level
    /// `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i == 0` or `i > self.fused()`.
    pub fn compute_at(&self, i: u64) -> u64 {
        assert!(
            i >= 1 && i <= self.fused,
            "iteration {i} outside 1..={}",
            self.fused
        );
        self.level(i).volume()
    }

    /// Total elements computed over all fused iterations — Eq. 8's cone
    /// volume `Σ_{i=1..h} ∏_d (len_d + e_d·(h − i))`.
    ///
    /// Evaluated in closed form, so the cost does not grow with `h`: the
    /// product is a polynomial of degree `dim` in `s = h − i`, summed over
    /// `s = 0..h` with the power sums `S0..S3`. Exact in `u128`.
    ///
    /// # Panics
    ///
    /// Panics if the total does not fit in `u64`.
    pub fn total_compute(&self) -> u64 {
        const OVERFLOW: &str = "cone volume overflows u64";
        let h = u128::from(self.fused);
        if h == 0 {
            return 0;
        }
        let mul = |a: u128, b: u128| a.checked_mul(b).expect(OVERFLOW);
        let (lo, hi) = self.growth.amounts(1);
        // coeffs[k] is the coefficient of s^k in ∏_d (len_d + e_d·s).
        let mut coeffs = [1u128, 0, 0, 0];
        for d in 0..self.tile.dim() {
            let len = u128::from(self.tile.len(d));
            let mut e = 0u128;
            if self.expand_lo[d] {
                e += lo[d] as u128;
            }
            if self.expand_hi[d] {
                e += hi[d] as u128;
            }
            for k in (0..=d + 1).rev() {
                let shifted = if k == 0 { 0 } else { mul(coeffs[k - 1], e) };
                coeffs[k] = mul(coeffs[k], len).checked_add(shifted).expect(OVERFLOW);
            }
        }
        // Power sums S_k = Σ_{s=0}^{h-1} s^k (`None` if beyond u128, which
        // only matters when its coefficient is nonzero).
        let s1 = h * (h - 1) / 2;
        let sums = [
            Some(h),
            Some(s1),
            ((h - 1) * h).checked_mul(2 * h - 1).map(|p| p / 6),
            s1.checked_mul(s1),
        ];
        let total = coeffs
            .iter()
            .zip(sums)
            .try_fold(0u128, |acc, (&c, s)| match c {
                0 => Some(acc),
                c => acc.checked_add(c.checked_mul(s?)?),
            })
            .expect(OVERFLOW);
        u64::try_from(total).expect(OVERFLOW)
    }

    /// Elements computed beyond the tile across all fused iterations — the
    /// redundant computation the pipe-based design eliminates.
    pub fn redundant_elements(&self) -> u64 {
        self.total_compute() - self.fused * self.tile.volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn tile2() -> Rect {
        Rect::new(Point::new2(10, 10), Point::new2(18, 18)).unwrap()
    }

    #[test]
    fn levels_shrink_toward_tile() {
        let cone = Cone::fully_expanding(tile2(), Growth::symmetric(2, 1), 3);
        assert_eq!(cone.level(0), tile2().expand_uniform(3));
        assert_eq!(cone.level(1), tile2().expand_uniform(2));
        assert_eq!(cone.level(3), tile2());
        assert_eq!(cone.input_footprint().volume(), 14 * 14);
    }

    #[test]
    fn non_expanding_cone_is_constant() {
        let cone = Cone::non_expanding(tile2(), Growth::symmetric(2, 1), 5);
        assert_eq!(cone.level(0), tile2());
        assert_eq!(cone.level(5), tile2());
        assert_eq!(cone.redundant_elements(), 0);
    }

    #[test]
    fn partial_expansion_only_on_selected_faces() {
        let cone = Cone::new(
            tile2(),
            Growth::symmetric(2, 1),
            2,
            [true, false, false],
            [false, true, false],
        );
        let base = cone.level(0);
        assert_eq!(base.lo(), Point::new2(8, 10));
        assert_eq!(base.hi(), Point::new2(18, 20));
    }

    #[test]
    fn redundancy_counts_overlap_only() {
        let cone = Cone::fully_expanding(tile2(), Growth::symmetric(2, 1), 2);
        // level1 = 10x10 (expanded by h-1 = 1), level2 = 8x8 (the tile).
        assert_eq!(cone.total_compute(), 100 + 64);
        assert_eq!(cone.redundant_elements(), 100 - 64);
    }

    #[test]
    fn asymmetric_growth_respected() {
        let g = Growth::new(&[1, 0], &[0, 2]).unwrap();
        let cone = Cone::fully_expanding(tile2(), g, 2);
        let base = cone.level(0);
        assert_eq!(base.lo(), Point::new2(8, 10));
        assert_eq!(base.hi(), Point::new2(18, 22));
    }

    #[test]
    #[should_panic(expected = "beyond fused depth")]
    fn level_beyond_depth_panics() {
        let cone = Cone::fully_expanding(tile2(), Growth::symmetric(2, 1), 2);
        let _ = cone.level(3);
    }
}
