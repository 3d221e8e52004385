use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{check_dim, GridError, Point, MAX_DIM};

/// The size of an N-dimensional grid: one positive length per dimension.
///
/// # Example
///
/// ```
/// use stencilcl_grid::Extent;
///
/// let e = Extent::new2(2048, 1024);
/// assert_eq!(e.volume(), 2048 * 1024);
/// assert_eq!(e.len(1), 1024);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Extent {
    dim: usize,
    lens: [usize; MAX_DIM],
}

impl Extent {
    /// Creates an extent from a slice of per-dimension lengths.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::BadDimension`] for unsupported dimensionality and
    /// [`GridError::EmptyExtent`] if any length is zero.
    pub fn new(lens: &[usize]) -> Result<Self, GridError> {
        let dim = check_dim(lens.len())?;
        if lens.contains(&0) {
            return Err(GridError::EmptyExtent);
        }
        let mut stored = [1usize; MAX_DIM];
        stored[..dim].copy_from_slice(lens);
        Ok(Extent { dim, lens: stored })
    }

    /// Creates a 1-D extent.
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero.
    pub fn new1(x: usize) -> Self {
        Extent::new(&[x]).expect("nonzero 1-D extent")
    }

    /// Creates a 2-D extent.
    ///
    /// # Panics
    ///
    /// Panics if any length is zero.
    pub fn new2(x: usize, y: usize) -> Self {
        Extent::new(&[x, y]).expect("nonzero 2-D extent")
    }

    /// Creates a 3-D extent.
    ///
    /// # Panics
    ///
    /// Panics if any length is zero.
    pub fn new3(x: usize, y: usize, z: usize) -> Self {
        Extent::new(&[x, y, z]).expect("nonzero 3-D extent")
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Length along dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dim()`.
    pub fn len(&self, d: usize) -> usize {
        assert!(d < self.dim, "axis {d} out of range for dim {}", self.dim);
        self.lens[d]
    }

    /// Whether the extent has zero volume. Always `false` for a constructed
    /// extent; provided for `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The per-dimension lengths as a slice of length `self.dim()`.
    pub fn as_slice(&self) -> &[usize] {
        &self.lens[..self.dim]
    }

    /// Total number of elements.
    pub fn volume(&self) -> u64 {
        self.as_slice().iter().map(|&l| l as u64).product()
    }

    /// Whether `p` lies inside `[0, len)` along every dimension.
    ///
    /// Points of a different dimensionality are never contained.
    pub fn contains(&self, p: &Point) -> bool {
        p.dim() == self.dim
            && (0..self.dim).all(|d| p.coord(d) >= 0 && (p.coord(d) as usize) < self.lens[d])
    }

    /// Row-major linear index of `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] when `p` is not contained.
    pub fn linearize(&self, p: &Point) -> Result<usize, GridError> {
        if !self.contains(p) {
            return Err(GridError::OutOfBounds {
                point: p.as_slice().to_vec(),
                extent: self.as_slice().to_vec(),
            });
        }
        let mut idx = 0usize;
        for d in 0..self.dim {
            idx = idx * self.lens[d] + p.coord(d) as usize;
        }
        Ok(idx)
    }

    /// Inverse of [`linearize`](Self::linearize).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.volume()`.
    pub fn delinearize(&self, idx: usize) -> Point {
        assert!(
            (idx as u64) < self.volume(),
            "linear index {idx} out of range"
        );
        let mut coords = [0i64; MAX_DIM];
        let mut rest = idx;
        for d in (0..self.dim).rev() {
            coords[d] = (rest % self.lens[d]) as i64;
            rest /= self.lens[d];
        }
        Point::new(&coords[..self.dim]).expect("dim already validated")
    }

    /// Iterates over all points of the extent in row-major order.
    pub fn iter(&self) -> ExtentIter {
        ExtentIter {
            extent: *self,
            cursor: [0; MAX_DIM],
            remaining: self.volume() as usize,
        }
    }
}

impl fmt::Debug for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, l) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Row-major iterator over all points of an [`Extent`], produced by
/// [`Extent::iter`]. It keeps an odometer cursor and advances it last axis
/// first, so yielding a point costs no division or validation.
#[derive(Debug, Clone)]
pub struct ExtentIter {
    extent: Extent,
    cursor: [i64; MAX_DIM],
    remaining: usize,
}

impl Iterator for ExtentIter {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = Point::from_array(self.extent.dim, self.cursor);
        for d in (0..self.extent.dim).rev() {
            self.cursor[d] += 1;
            if (self.cursor[d] as usize) < self.extent.lens[d] {
                break;
            }
            self.cursor[d] = 0;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ExtentIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_length() {
        assert_eq!(Extent::new(&[4, 0]).unwrap_err(), GridError::EmptyExtent);
    }

    #[test]
    fn volume_and_contains() {
        let e = Extent::new3(2, 3, 4);
        assert_eq!(e.volume(), 24);
        assert!(e.contains(&Point::new3(1, 2, 3)));
        assert!(!e.contains(&Point::new3(2, 0, 0)));
        assert!(!e.contains(&Point::new3(0, -1, 0)));
        assert!(!e.contains(&Point::new2(0, 0)));
    }

    #[test]
    fn linearize_roundtrip() {
        let e = Extent::new3(2, 3, 4);
        for idx in 0..24 {
            let p = e.delinearize(idx);
            assert_eq!(e.linearize(&p).unwrap(), idx);
        }
    }

    #[test]
    fn linearize_rejects_outside() {
        let e = Extent::new2(2, 2);
        assert!(e.linearize(&Point::new2(2, 0)).is_err());
    }

    #[test]
    fn row_major_order_last_axis_fastest() {
        let e = Extent::new2(2, 3);
        let pts: Vec<_> = e.iter().collect();
        assert_eq!(pts[0], Point::new2(0, 0));
        assert_eq!(pts[1], Point::new2(0, 1));
        assert_eq!(pts[3], Point::new2(1, 0));
        assert_eq!(pts.len(), 6);
    }

    #[test]
    fn iter_is_exact_size() {
        let e = Extent::new2(3, 3);
        let mut it = e.iter();
        assert_eq!(it.len(), 9);
        it.next();
        assert_eq!(it.len(), 8);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Extent::new2(4, 8)), "[4 x 8]");
    }
}
