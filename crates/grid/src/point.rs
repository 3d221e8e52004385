use std::fmt;
use std::ops::{Add, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::{check_dim, GridError, MAX_DIM};

/// An N-dimensional integer coordinate or offset, `1 <= N <= MAX_DIM`.
///
/// `Point` doubles as an absolute grid coordinate and as a relative stencil
/// offset (e.g. the `(-1, 0)` of `A[i-1][j]`). Coordinates are signed so that
/// halo cells just outside a [`Rect`](crate::Rect) and negative stencil
/// offsets are representable.
///
/// # Example
///
/// ```
/// use stencilcl_grid::Point;
///
/// let p = Point::new2(3, 4);
/// let o = Point::new2(-1, 0);
/// assert_eq!((p + o).unwrap(), Point::new2(2, 4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Point {
    dim: usize,
    coords: [i64; MAX_DIM],
}

impl Point {
    /// Creates a point from a coordinate slice.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::BadDimension`] if `coords` is empty or longer than
    /// [`MAX_DIM`].
    pub fn new(coords: &[i64]) -> Result<Self, GridError> {
        let dim = check_dim(coords.len())?;
        let mut c = [0i64; MAX_DIM];
        c[..dim].copy_from_slice(coords);
        Ok(Point { dim, coords: c })
    }

    /// A point from a dimensionality the caller already validated and its
    /// coordinate array, whose entries past `dim` must be zero (equality
    /// and hashing compare the whole array).
    pub(crate) fn from_array(dim: usize, coords: [i64; MAX_DIM]) -> Self {
        Point { dim, coords }
    }

    /// Creates a 1-D point.
    pub fn new1(x: i64) -> Self {
        Point {
            dim: 1,
            coords: [x, 0, 0],
        }
    }

    /// Creates a 2-D point.
    pub fn new2(x: i64, y: i64) -> Self {
        Point {
            dim: 2,
            coords: [x, y, 0],
        }
    }

    /// Creates a 3-D point.
    pub fn new3(x: i64, y: i64, z: i64) -> Self {
        Point {
            dim: 3,
            coords: [x, y, z],
        }
    }

    /// Creates the origin (all-zero point) of the given dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::BadDimension`] for unsupported `dim`.
    pub fn origin(dim: usize) -> Result<Self, GridError> {
        let dim = check_dim(dim)?;
        Ok(Point {
            dim,
            coords: [0; MAX_DIM],
        })
    }

    /// Number of dimensions of this point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinate along dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dim()`.
    pub fn coord(&self, d: usize) -> i64 {
        assert!(
            d < self.dim,
            "coordinate axis {d} out of range for dim {}",
            self.dim
        );
        self.coords[d]
    }

    /// The coordinates as a slice of length `self.dim()`.
    pub fn as_slice(&self) -> &[i64] {
        &self.coords[..self.dim]
    }

    /// Returns a copy with the coordinate along dimension `d` replaced.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dim()`.
    pub fn with_coord(mut self, d: usize, value: i64) -> Self {
        assert!(
            d < self.dim,
            "coordinate axis {d} out of range for dim {}",
            self.dim
        );
        self.coords[d] = value;
        self
    }

    /// Checked component-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DimensionMismatch`] when dimensionalities differ.
    pub fn checked_add(&self, other: &Point) -> Result<Point, GridError> {
        if self.dim != other.dim {
            return Err(GridError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        let mut coords = self.coords;
        for (c, o) in coords.iter_mut().zip(other.coords.iter()).take(self.dim) {
            *c += o;
        }
        Ok(Point {
            dim: self.dim,
            coords,
        })
    }

    /// Checked component-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DimensionMismatch`] when dimensionalities differ.
    pub fn checked_sub(&self, other: &Point) -> Result<Point, GridError> {
        if self.dim != other.dim {
            return Err(GridError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        let mut coords = self.coords;
        for (c, o) in coords.iter_mut().zip(other.coords.iter()).take(self.dim) {
            *c -= o;
        }
        Ok(Point {
            dim: self.dim,
            coords,
        })
    }

    /// The L∞ norm (Chebyshev radius) of this point viewed as an offset.
    ///
    /// This is the per-element "reach" of a stencil offset, used to size halos.
    pub fn chebyshev(&self) -> u64 {
        self.as_slice()
            .iter()
            .map(|c| c.unsigned_abs())
            .max()
            .unwrap_or(0)
    }
}

impl Add for Point {
    type Output = Result<Point, GridError>;

    fn add(self, rhs: Point) -> Self::Output {
        self.checked_add(&rhs)
    }
}

impl Sub for Point {
    type Output = Result<Point, GridError>;

    fn sub(self, rhs: Point) -> Self::Output {
        self.checked_sub(&rhs)
    }
}

impl Neg for Point {
    type Output = Point;

    fn neg(mut self) -> Point {
        for d in 0..self.dim {
            self.coords[d] = -self.coords[d];
        }
        self
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let p = Point::new(&[1, -2, 3]).unwrap();
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coord(0), 1);
        assert_eq!(p.coord(1), -2);
        assert_eq!(p.coord(2), 3);
        assert_eq!(p.as_slice(), &[1, -2, 3]);
    }

    #[test]
    fn new_rejects_bad_dims() {
        assert!(Point::new(&[]).is_err());
        assert!(Point::new(&[1, 2, 3, 4]).is_err());
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Point::new2(3, 4);
        let b = Point::new2(-1, 2);
        let s = (a + b).unwrap();
        assert_eq!(s, Point::new2(2, 6));
        assert_eq!((s - b).unwrap(), a);
        assert_eq!(-b, Point::new2(1, -2));
    }

    #[test]
    fn mismatched_dims_error() {
        let a = Point::new1(1);
        let b = Point::new2(1, 2);
        assert!(matches!(
            (a + b).unwrap_err(),
            GridError::DimensionMismatch { left: 1, right: 2 }
        ));
    }

    #[test]
    fn chebyshev_radius() {
        assert_eq!(Point::new3(-2, 1, 0).chebyshev(), 2);
        assert_eq!(Point::origin(2).unwrap().chebyshev(), 0);
    }

    #[test]
    fn with_coord_replaces_single_axis() {
        let p = Point::new3(1, 2, 3).with_coord(1, 9);
        assert_eq!(p, Point::new3(1, 9, 3));
    }

    #[test]
    fn display_formats_as_tuple() {
        assert_eq!(Point::new2(1, -2).to_string(), "(1, -2)");
    }
}
