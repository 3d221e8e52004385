//! Property-based tests for the geometric substrate.

use proptest::prelude::*;
use stencilcl_grid::{
    Cone, Design, DesignKind, Extent, FaceKind, Grid, Growth, Partition, Point, Rect,
};

fn arb_extent() -> impl Strategy<Value = Extent> {
    (1usize..=3).prop_flat_map(|dim| {
        prop::collection::vec(1usize..=12, dim)
            .prop_map(|lens| Extent::new(&lens).expect("valid lens"))
    })
}

proptest! {
    #[test]
    fn from_fn_visits_the_points_of_extent_iter_in_order(extent in arb_extent()) {
        let mut seen = Vec::new();
        let grid = Grid::from_fn(extent, |p| {
            seen.push(*p);
            p.as_slice().to_vec()
        });
        let expect: Vec<Point> = extent.iter().collect();
        prop_assert_eq!(&seen, &expect);
        for (p, v) in grid.iter() {
            prop_assert_eq!(p.as_slice(), v.as_slice());
        }
    }

    #[test]
    fn linearize_roundtrips(extent in arb_extent(), seed in 0usize..10_000) {
        let idx = seed % extent.volume() as usize;
        let p = extent.delinearize(idx);
        prop_assert_eq!(extent.linearize(&p).unwrap(), idx);
        prop_assert!(extent.contains(&p));
    }

    #[test]
    fn extent_iteration_is_exhaustive_and_unique(extent in arb_extent(), seed in 0usize..10_000) {
        let pts: Vec<Point> = extent.iter().collect();
        prop_assert_eq!(pts.len() as u64, extent.volume());
        // Row-major order: the i-th point is the i-th linear index.
        for (i, p) in pts.iter().enumerate() {
            prop_assert_eq!(*p, extent.delinearize(i));
        }
        let mut sorted = pts.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), pts.len());
        // `size_hint` stays exact after partial consumption.
        let taken = seed % (pts.len() + 1);
        let mut it = extent.iter();
        for _ in 0..taken {
            it.next();
        }
        let left = pts.len() - taken;
        prop_assert_eq!(it.size_hint(), (left, Some(left)));
        prop_assert_eq!(it.count(), left);
    }

    #[test]
    fn rect_intersection_is_commutative_and_contained(
        a_lo in -8i64..8, a_len in 0i64..10, b_lo in -8i64..8, b_len in 0i64..10,
    ) {
        let a = Rect::new(Point::new1(a_lo), Point::new1(a_lo + a_len)).unwrap();
        let b = Rect::new(Point::new1(b_lo), Point::new1(b_lo + b_len)).unwrap();
        let ab = a.intersect(&b).unwrap();
        let ba = b.intersect(&a).unwrap();
        prop_assert_eq!(ab.volume(), ba.volume());
        prop_assert!(a.contains_rect(&ab));
        prop_assert!(b.contains_rect(&ab));
    }

    #[test]
    fn expand_then_shrink_is_identity(
        lo in 0i64..5, len in 1i64..10, amount in 0i64..5,
    ) {
        let r = Rect::new(Point::new2(lo, lo), Point::new2(lo + len, lo + len)).unwrap();
        let back = r.expand_uniform(amount).expand_uniform(-amount);
        prop_assert_eq!(back, r);
    }

    #[test]
    fn cone_levels_are_nested(
        tile_len in 2u64..12, growth in 0u64..3, fused in 1u64..6,
    ) {
        let tile = Rect::new(Point::new2(0, 0), Point::new2(tile_len as i64, tile_len as i64))
            .unwrap();
        let cone = stencilcl_grid::Cone::fully_expanding(
            tile, Growth::symmetric(2, growth), fused,
        );
        for i in 0..fused {
            prop_assert!(cone.level(i).contains_rect(&cone.level(i + 1)),
                "level {} must contain level {}", i, i + 1);
        }
        prop_assert_eq!(cone.level(fused), tile);
    }

    #[test]
    fn closed_form_cone_volume_matches_per_level_sum(
        shape in (1usize..=3).prop_flat_map(|dim| (
            prop::collection::vec(1i64..=300, dim),
            prop::collection::vec(0u64..=4, dim),
            prop::collection::vec(0u64..=4, dim),
        )),
        fused in 1u64..=1024,
    ) {
        let (lens, lo, hi) = shape;
        let dim = lens.len();
        let tile = Rect::new(Point::origin(dim).unwrap(), Point::new(&lens).unwrap()).unwrap();
        let growth = Growth::new(&lo, &hi).unwrap();
        for flags in 0u32..1 << (2 * dim) {
            let mut expand_lo = [false; 3];
            let mut expand_hi = [false; 3];
            for d in 0..dim {
                expand_lo[d] = flags & (1 << (2 * d)) != 0;
                expand_hi[d] = flags & (1 << (2 * d + 1)) != 0;
            }
            let cone = Cone::new(tile, growth, fused, expand_lo, expand_hi);
            let per_level: u64 = (1..=fused).map(|i| cone.compute_at(i)).sum();
            prop_assert_eq!(cone.total_compute(), per_level, "flags {:#b}", flags);
        }
    }

    #[test]
    fn partition_tiles_cover_each_region_exactly(
        kx in 1usize..4, ky in 1usize..4,
        wx in 2usize..6, wy in 2usize..6,
        rx in 1usize..3, ry in 1usize..3,
        fused in 1u64..4,
    ) {
        let extent = Extent::new2(kx * wx * rx, ky * wy * ry);
        let design = Design::equal(
            DesignKind::PipeShared, fused, vec![kx, ky], vec![wx, wy],
        ).unwrap();
        let growth = Growth::symmetric(2, 1);
        let Ok(partition) = Partition::new(extent, &design, &growth) else {
            // Tiles narrower than the halo are legitimately rejected.
            return Ok(());
        };
        for region in partition.region_indices() {
            let tiles = partition.tiles_for_region(&region);
            let rect = partition.region_rect(&region);
            let total: u64 = tiles.iter().map(|t| t.rect().volume()).sum();
            prop_assert_eq!(total, rect.volume());
            // Shared faces are mutual.
            for t in &tiles {
                for f in t.faces() {
                    if let FaceKind::Shared { neighbor } = f.kind {
                        let back = tiles[neighbor].face(f.axis, !f.high);
                        prop_assert_eq!(back.kind, FaceKind::Shared { neighbor: t.kernel() });
                    }
                }
            }
        }
    }

    #[test]
    fn balancing_factors_average_to_one(
        lens in prop::collection::vec(1usize..20, 1..6),
    ) {
        let design = Design::heterogeneous(1, vec![lens]).unwrap();
        let f = design.balancing_factors(0);
        let mean: f64 = f.iter().sum::<f64>() / f.len() as f64;
        prop_assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn growth_from_offsets_bounds_every_offset(
        offs in prop::collection::vec((-3i64..=3, -3i64..=3), 1..8),
    ) {
        let points: Vec<Point> = offs.iter().map(|&(x, y)| Point::new2(x, y)).collect();
        let g = Growth::from_offsets(2, points.iter()).unwrap();
        for p in &points {
            for d in 0..2 {
                let c = p.coord(d);
                if c < 0 {
                    prop_assert!(g.lo(d) >= c.unsigned_abs());
                } else {
                    prop_assert!(g.hi(d) >= c as u64);
                }
            }
        }
    }
}

/// Per axis: the grid length, the window's low corner and length (reaching
/// past both grid edges, and empty at length 0), and the offset of the
/// source window that `copy_window_from` reads.
type WindowAxis = (usize, i64, i64, i64);

fn arb_window_case() -> impl Strategy<Value = Vec<WindowAxis>> {
    (1usize..=3).prop_flat_map(|dim| {
        prop::collection::vec((1usize..=9, -3i64..=9, 0i64..=12, -4i64..=4), dim)
    })
}

fn window_rect(lo: impl Iterator<Item = i64>, hi: impl Iterator<Item = i64>) -> Rect {
    let lo: Vec<i64> = lo.collect();
    let hi: Vec<i64> = hi.collect();
    Rect::new(Point::new(&lo).unwrap(), Point::new(&hi).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The row-stride walks of the three window copies agree with a
    // point-by-point oracle: every clipped cell in row-major order, and
    // nothing outside the clipped window touched.
    #[test]
    fn window_copies_match_a_per_point_oracle(
        axes in arb_window_case(),
        column in 0usize..=1,
    ) {
        let mut axes = axes;
        if column == 1 {
            // A one-cell-wide column: every row is a single cell.
            axes.last_mut().unwrap().2 = 1;
        }
        let lens: Vec<usize> = axes.iter().map(|a| a.0).collect();
        let extent = Extent::new(&lens).unwrap();
        let window = window_rect(axes.iter().map(|a| a.1), axes.iter().map(|a| a.1 + a.2));
        let clipped = Rect::from_extent(&extent).intersect(&window).unwrap();
        let grid = Grid::from_fn(extent, |p| extent.linearize(p).unwrap() as i64);

        let want: Vec<i64> = clipped.iter().map(|p| *grid.get(&p).unwrap()).collect();
        prop_assert_eq!(grid.read_window(&window).unwrap(), want);

        let values: Vec<i64> = (0..clipped.volume() as i64).map(|v| -1 - v).collect();
        let mut written = grid.clone();
        written.write_window(&window, &values).unwrap();
        let mut oracle = grid.clone();
        for (p, v) in clipped.iter().zip(&values) {
            oracle.set(&p, *v).unwrap();
        }
        prop_assert_eq!(written.as_slice(), oracle.as_slice());

        let src_window = window_rect(
            axes.iter().map(|a| a.1 + a.3),
            axes.iter().map(|a| a.1 + a.2 + a.3),
        );
        let src = Grid::from_fn(extent, |p| 1000 + extent.linearize(p).unwrap() as i64);
        let src_clip = Rect::from_extent(&extent).intersect(&src_window).unwrap();
        let same_shape = (0..extent.dim()).all(|d| clipped.len(d) == src_clip.len(d));
        let mut copied = grid.clone();
        let result = copied.copy_window_from(&window, &src, &src_window);
        if same_shape {
            prop_assert!(result.is_ok());
            let mut oracle = grid.clone();
            for (d, s) in clipped.iter().zip(src_clip.iter()) {
                oracle.set(&d, *src.get(&s).unwrap()).unwrap();
            }
            prop_assert_eq!(copied.as_slice(), oracle.as_slice());
        } else {
            prop_assert!(result.is_err());
            prop_assert_eq!(copied.as_slice(), grid.as_slice());
        }
    }
}
