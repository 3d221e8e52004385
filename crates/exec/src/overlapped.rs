//! Bit-exactness of baseline (overlapped-tiling) designs.
//!
//! A baseline design has no executor of its own: its tiles are pipe kernels
//! with no `Shared` face, so they run through the same tiled step as the
//! pipe designs. These cases pin that step against the reference sweep for
//! redundant cones in one, two and three dimensions.

#[cfg(test)]
mod tests {
    use crate::threaded::tests::check;
    use stencilcl_grid::{Design, DesignKind, Extent};
    use stencilcl_lang::programs;

    #[test]
    fn jacobi_1d_matches_reference() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(64))
            .with_iterations(10);
        let d = Design::equal(DesignKind::Baseline, 3, vec![4], vec![8]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn jacobi_2d_matches_reference() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(7);
        let d = Design::equal(DesignKind::Baseline, 3, vec![2, 2], vec![8, 8]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn fdtd_2d_multi_statement_matches_reference() {
        let p = programs::fdtd_2d()
            .with_extent(Extent::new2(24, 24))
            .with_iterations(5);
        let d = Design::equal(DesignKind::Baseline, 2, vec![2, 2], vec![6, 6]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn hotspot_3d_matches_reference() {
        // A 3-D cone over two arrays, one of them read-only.
        let p = stencilcl_lang::parse(&programs::hotspot_3d_source(16, 16, 8, 4)).unwrap();
        let d = Design::equal(DesignKind::Baseline, 2, vec![2, 2, 1], vec![8, 8, 8]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn partial_last_pass_handled() {
        // 10 iterations with h=4: passes of 4, 4, 2.
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(48))
            .with_iterations(10);
        let d = Design::equal(DesignKind::Baseline, 4, vec![2], vec![12]).unwrap();
        check(&p, &d);
    }
}
