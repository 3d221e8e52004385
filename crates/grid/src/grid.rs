use std::fmt;

use crate::{Extent, GridError, Point, Rect, MAX_DIM};

/// A dense, row-major N-dimensional array of stencil data.
///
/// `Grid` is the in-memory stand-in for the accelerator's global-memory
/// buffers: functional executors read and write it, and the burst-transfer
/// sizes of the performance model correspond to sub-boxes of it.
///
/// # Example
///
/// ```
/// use stencilcl_grid::{Extent, Grid, Point};
///
/// let mut g = Grid::filled(Extent::new2(4, 4), 0.0f64);
/// g.set(&Point::new2(1, 2), 3.5)?;
/// assert_eq!(*g.get(&Point::new2(1, 2))?, 3.5);
/// # Ok::<(), stencilcl_grid::GridError>(())
/// ```
#[derive(PartialEq)]
pub struct Grid<T> {
    extent: Extent,
    data: Vec<T>,
}

impl<T: Clone> Clone for Grid<T> {
    fn clone(&self) -> Self {
        Grid {
            extent: self.extent,
            data: self.data.clone(),
        }
    }

    /// Copies into the existing allocation when it is large enough, so a
    /// reused snapshot buffer costs a copy and no allocation.
    fn clone_from(&mut self, source: &Self) {
        self.extent = source.extent;
        self.data.clone_from(&source.data);
    }
}

impl<T: Clone> Grid<T> {
    /// Creates a grid with every element set to `value`.
    pub fn filled(extent: Extent, value: T) -> Self {
        Grid {
            extent,
            data: vec![value; extent.volume() as usize],
        }
    }
}

impl<T> Grid<T> {
    /// Creates a grid by evaluating `f` at every point in row-major order
    /// (the order of [`Extent::iter`]). It walks rows: one [`Point`] per
    /// row, of which only the last coordinate advances per cell.
    pub fn from_fn(extent: Extent, mut f: impl FnMut(&Point) -> T) -> Self {
        let volume = extent.volume() as usize;
        let mut data = Vec::with_capacity(volume);
        let last = extent.dim() - 1;
        let row = extent.len(last) as i64;
        let mut start = [0i64; MAX_DIM];
        while data.len() < volume {
            let p = Point::from_array(extent.dim(), start);
            data.extend((0..row).map(|x| f(&p.with_coord(last, x))));
            for d in (0..last).rev() {
                start[d] += 1;
                if (start[d] as usize) < extent.len(d) {
                    break;
                }
                start[d] = 0;
            }
        }
        Grid { extent, data }
    }

    /// Creates a grid from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::UnevenPartition`] when `data.len()` differs from
    /// the extent's volume.
    pub fn from_vec(extent: Extent, data: Vec<T>) -> Result<Self, GridError> {
        if data.len() as u64 != extent.volume() {
            return Err(GridError::UnevenPartition {
                detail: format!(
                    "data length {} does not match extent volume {}",
                    data.len(),
                    extent.volume()
                ),
            });
        }
        Ok(Grid { extent, data })
    }

    /// The grid's extent.
    pub fn extent(&self) -> Extent {
        self.extent
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.extent.dim()
    }

    /// Borrow of the element at `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] when `p` is outside the grid.
    pub fn get(&self, p: &Point) -> Result<&T, GridError> {
        Ok(&self.data[self.extent.linearize(p)?])
    }

    /// Mutable borrow of the element at `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] when `p` is outside the grid.
    pub fn get_mut(&mut self, p: &Point) -> Result<&mut T, GridError> {
        let idx = self.extent.linearize(p)?;
        Ok(&mut self.data[idx])
    }

    /// Overwrites the element at `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] when `p` is outside the grid.
    pub fn set(&mut self, p: &Point, value: T) -> Result<(), GridError> {
        *self.get_mut(p)? = value;
        Ok(())
    }

    /// Row-major slice of all elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major slice of all elements.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterates over `(point, &value)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Point, &T)> + '_ {
        self.extent.iter().zip(self.data.iter())
    }
}

impl<T: Clone> Grid<T> {
    /// Copies the elements of `window` (clipped to the grid) into a new
    /// row-major vector; the load half of a burst transfer.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DimensionMismatch`] when `window` has a different
    /// dimensionality.
    pub fn read_window(&self, window: &Rect) -> Result<Vec<T>, GridError> {
        let clipped = Rect::from_extent(&self.extent).intersect(window)?;
        let mut out = Vec::with_capacity(clipped.volume() as usize);
        if clipped.is_empty() {
            return Ok(out);
        }
        let row_len = clipped.len(clipped.dim() - 1) as usize;
        for base in RowStarts::new(&self.extent, &clipped)? {
            out.extend_from_slice(&self.data[base..base + row_len]);
        }
        Ok(out)
    }

    /// Writes `values` into the points of `window` (clipped to the grid) in
    /// row-major order; the store half of a burst transfer.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DimensionMismatch`] for mismatched dimensionality,
    /// or [`GridError::UnevenPartition`] when `values` is not exactly the
    /// clipped window's volume.
    pub fn write_window(&mut self, window: &Rect, values: &[T]) -> Result<(), GridError> {
        let clipped = Rect::from_extent(&self.extent).intersect(window)?;
        if values.len() as u64 != clipped.volume() {
            return Err(GridError::UnevenPartition {
                detail: format!(
                    "window volume {} but {} values supplied",
                    clipped.volume(),
                    values.len()
                ),
            });
        }
        if clipped.is_empty() {
            return Ok(());
        }
        let row_len = clipped.len(clipped.dim() - 1) as usize;
        let rows = RowStarts::new(&self.extent, &clipped)?;
        for (base, row) in rows.zip(values.chunks_exact(row_len)) {
            self.data[base..base + row_len].clone_from_slice(row);
        }
        Ok(())
    }

    /// Copies `src_window` of `src` into `dst_window` of `self`, row slice
    /// by row slice — the burst transfer without the intermediate vector
    /// that a [`read_window`](Self::read_window) +
    /// [`write_window`](Self::write_window) pair materializes. Both windows
    /// are clipped to their grids first.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DimensionMismatch`] for mismatched window
    /// dimensionality, or [`GridError::UnevenPartition`] when the clipped
    /// windows have different shapes.
    pub fn copy_window_from(
        &mut self,
        dst_window: &Rect,
        src: &Grid<T>,
        src_window: &Rect,
    ) -> Result<(), GridError> {
        let dst_clip = Rect::from_extent(&self.extent).intersect(dst_window)?;
        let src_clip = Rect::from_extent(&src.extent).intersect(src_window)?;
        if dst_clip.dim() != src_clip.dim()
            || (0..dst_clip.dim()).any(|d| dst_clip.len(d) != src_clip.len(d))
        {
            return Err(GridError::UnevenPartition {
                detail: format!(
                    "cannot copy window {src_clip} into differently shaped window {dst_clip}"
                ),
            });
        }
        if dst_clip.is_empty() {
            return Ok(());
        }
        let row_len = dst_clip.len(dst_clip.dim() - 1) as usize;
        let dst_rows = RowStarts::new(&self.extent, &dst_clip)?;
        for (d, s) in dst_rows.zip(RowStarts::new(&src.extent, &src_clip)?) {
            self.data[d..d + row_len].clone_from_slice(&src.data[s..s + row_len]);
        }
        Ok(())
    }
}

/// Linear indices of the row starts of a non-empty box inside an extent,
/// in row-major order: one [`Extent::linearize`] of the box's corner, then
/// an odometer over the leading axes that adds each axis's stride and, on
/// wrap, takes back the whole axis it walked. No `Point` is built per row,
/// so a one-cell-wide column costs one add per cell.
struct RowStarts {
    next: usize,
    rows: usize,
    /// Leading axes only (the last axis is the row itself).
    outer: usize,
    strides: [usize; MAX_DIM],
    lens: [usize; MAX_DIM],
    cursor: [usize; MAX_DIM],
}

impl RowStarts {
    fn new(extent: &Extent, rect: &Rect) -> Result<Self, GridError> {
        let dim = rect.dim();
        let next = extent.linearize(&rect.lo())?;
        let mut strides = [0usize; MAX_DIM];
        let mut lens = [0usize; MAX_DIM];
        let mut stride = 1usize;
        for d in (0..dim).rev() {
            strides[d] = stride;
            lens[d] = rect.len(d) as usize;
            stride *= extent.len(d);
        }
        let outer = dim - 1;
        Ok(RowStarts {
            next,
            rows: lens[..outer].iter().product(),
            outer,
            strides,
            lens,
            cursor: [0; MAX_DIM],
        })
    }
}

impl Iterator for RowStarts {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.rows == 0 {
            return None;
        }
        self.rows -= 1;
        let start = self.next;
        for d in (0..self.outer).rev() {
            self.cursor[d] += 1;
            if self.cursor[d] < self.lens[d] {
                self.next += self.strides[d];
                break;
            }
            self.cursor[d] = 0;
            self.next -= (self.lens[d] - 1) * self.strides[d];
        }
        Some(start)
    }
}

impl Grid<f64> {
    /// Maximum absolute element-wise difference against another grid.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DimensionMismatch`] when extents differ.
    pub fn max_abs_diff(&self, other: &Grid<f64>) -> Result<f64, GridError> {
        if self.extent != other.extent {
            return Err(GridError::DimensionMismatch {
                left: self.extent.dim(),
                right: other.extent.dim(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }
}

impl<T: fmt::Debug> fmt::Debug for Grid<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grid")
            .field("extent", &self.extent)
            .field("len", &self.data.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_set_get() {
        let mut g = Grid::filled(Extent::new2(3, 3), 1.0f64);
        assert_eq!(*g.get(&Point::new2(2, 2)).unwrap(), 1.0);
        g.set(&Point::new2(0, 1), 5.0).unwrap();
        assert_eq!(*g.get(&Point::new2(0, 1)).unwrap(), 5.0);
        assert!(g.get(&Point::new2(3, 0)).is_err());
    }

    #[test]
    fn from_fn_row_major() {
        let g = Grid::from_fn(Extent::new2(2, 2), |p| p.coord(0) * 10 + p.coord(1));
        assert_eq!(g.as_slice(), &[0, 1, 10, 11]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Grid::from_vec(Extent::new1(4), vec![1, 2, 3]).is_err());
        let g = Grid::from_vec(Extent::new1(3), vec![1, 2, 3]).unwrap();
        assert_eq!(*g.get(&Point::new1(2)).unwrap(), 3);
    }

    #[test]
    fn window_roundtrip() {
        let mut g = Grid::from_fn(Extent::new2(4, 4), |p| p.coord(0) * 4 + p.coord(1));
        let w = Rect::new(Point::new2(1, 1), Point::new2(3, 3)).unwrap();
        let vals = g.read_window(&w).unwrap();
        assert_eq!(vals, vec![5, 6, 9, 10]);
        g.write_window(&w, &[0, 0, 0, 0]).unwrap();
        assert_eq!(*g.get(&Point::new2(1, 2)).unwrap(), 0);
        assert_eq!(*g.get(&Point::new2(0, 0)).unwrap(), 0); // untouched corner
        assert_eq!(*g.get(&Point::new2(3, 3)).unwrap(), 15);
    }

    #[test]
    fn window_clips_to_grid() {
        let g = Grid::filled(Extent::new1(4), 7u32);
        let w = Rect::new(Point::new1(-2), Point::new1(2)).unwrap();
        assert_eq!(g.read_window(&w).unwrap().len(), 2);
    }

    #[test]
    fn write_window_length_checked() {
        let mut g = Grid::filled(Extent::new1(4), 0u8);
        let w = Rect::new(Point::new1(0), Point::new1(2)).unwrap();
        assert!(g.write_window(&w, &[1]).is_err());
    }

    #[test]
    fn copy_window_between_grids_without_intermediate() {
        let src = Grid::from_fn(Extent::new2(4, 4), |p| p.coord(0) * 4 + p.coord(1));
        let mut dst = Grid::filled(Extent::new2(3, 3), -1);
        let src_w = Rect::new(Point::new2(1, 1), Point::new2(3, 3)).unwrap();
        let dst_w = Rect::new(Point::new2(0, 0), Point::new2(2, 2)).unwrap();
        dst.copy_window_from(&dst_w, &src, &src_w).unwrap();
        assert_eq!(*dst.get(&Point::new2(0, 0)).unwrap(), 5);
        assert_eq!(*dst.get(&Point::new2(1, 1)).unwrap(), 10);
        assert_eq!(*dst.get(&Point::new2(2, 2)).unwrap(), -1); // outside dst window
                                                               // Matches the two-step read + write path exactly.
        let mut two_step = Grid::filled(Extent::new2(3, 3), -1);
        let vals = src.read_window(&src_w).unwrap();
        two_step.write_window(&dst_w, &vals).unwrap();
        assert_eq!(dst.as_slice(), two_step.as_slice());
    }

    #[test]
    fn copy_window_rejects_shape_mismatch() {
        let src = Grid::filled(Extent::new2(4, 4), 1u8);
        let mut dst = Grid::filled(Extent::new2(4, 4), 0u8);
        let a = Rect::new(Point::new2(0, 0), Point::new2(2, 2)).unwrap();
        let b = Rect::new(Point::new2(0, 0), Point::new2(2, 3)).unwrap();
        assert!(dst.copy_window_from(&a, &src, &b).is_err());
        // Equal shapes after clipping are fine, including empty ones.
        let empty = Rect::new(Point::new2(2, 2), Point::new2(2, 4)).unwrap();
        dst.copy_window_from(&empty, &src, &empty).unwrap();
    }

    #[test]
    fn max_abs_diff() {
        let a = Grid::filled(Extent::new1(3), 1.0);
        let mut b = a.clone();
        b.set(&Point::new1(1), 1.5).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
    }

    #[test]
    fn iter_pairs_points_with_values() {
        let g = Grid::from_fn(Extent::new1(3), |p| p.coord(0) * 2);
        let collected: Vec<_> = g.iter().map(|(p, v)| (p.coord(0), *v)).collect();
        assert_eq!(collected, vec![(0, 0), (1, 2), (2, 4)]);
    }
}
