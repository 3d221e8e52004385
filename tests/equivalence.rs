//! Cross-crate functional equivalence: every accelerator design must compute
//! exactly what the naive reference computes, for every benchmark of the
//! suite, under equal and heterogeneous tilings, sequentially and threaded.

use stencilcl::prelude::*;
use stencilcl::suite;

fn init(name: &str, p: &Point) -> f64 {
    let mut v = name.len() as f64 + 0.5;
    for d in 0..p.dim() {
        v = v * 31.0 + p.coord(d) as f64;
    }
    (v * 0.00173).sin()
}

/// Runs one (program, design) pair through a mode and asserts bit equality
/// with the reference.
fn assert_equivalent(program: &Program, design: &Design, mode: ExecMode) {
    let f = StencilFeatures::extract(program).unwrap();
    let partition = Partition::new(program.extent(), design, &f.growth)
        .unwrap_or_else(|e| panic!("{}: {e}", program.name));
    let diff = verify_design(program, &partition, mode, &ExecOptions::new(), init)
        .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", program.name));
    assert_eq!(
        diff, 0.0,
        "{} under {mode:?} diverged by {diff}",
        program.name
    );
}

fn tiny(name: &str, n: usize, iters: u64) -> Program {
    suite::by_name(name).unwrap().scaled(n, iters)
}

#[test]
fn all_benchmarks_overlapped_equal_tiles() {
    for (name, n, par) in [
        ("Jacobi-1D", 64usize, vec![4]),
        // 300-cell tiles: row chunks of LANE_WIDTH end inside a pipe tile.
        ("Jacobi-1D", 1200, vec![2]),
        ("Jacobi-2D", 32, vec![2, 2]),
        ("Jacobi-3D", 16, vec![2, 2, 2]),
        ("HotSpot-2D", 32, vec![2, 2]),
        ("HotSpot-3D", 16, vec![2, 2, 2]),
        ("FDTD-2D", 32, vec![2, 2]),
        ("FDTD-3D", 16, vec![2, 2, 2]),
    ] {
        let p = tiny(name, n, 6);
        let dim = p.dim();
        let tiles: Vec<usize> = (0..dim).map(|d| n / par[d] / 2).collect();
        let d = Design::equal(DesignKind::Baseline, 3, par, tiles).unwrap();
        for mode in ExecMode::ALL {
            assert_equivalent(&p, &d, mode);
        }
    }
}

#[test]
fn all_benchmarks_pipe_shared_equal_tiles() {
    for (name, n, par) in [
        ("Jacobi-1D", 64usize, vec![4]),
        // 300-cell tiles: row chunks of LANE_WIDTH end inside a pipe tile.
        ("Jacobi-1D", 1200, vec![2]),
        ("Jacobi-2D", 32, vec![2, 2]),
        ("Jacobi-3D", 16, vec![2, 2, 2]),
        ("HotSpot-2D", 32, vec![2, 2]),
        ("HotSpot-3D", 16, vec![2, 2, 2]),
        ("FDTD-2D", 32, vec![2, 2]),
        ("FDTD-3D", 16, vec![2, 2, 2]),
    ] {
        let p = tiny(name, n, 6);
        let dim = p.dim();
        let tiles: Vec<usize> = (0..dim).map(|d| n / par[d] / 2).collect();
        let d = Design::equal(DesignKind::PipeShared, 3, par, tiles).unwrap();
        assert_equivalent(&p, &d, ExecMode::PipeShared);
    }
}

#[test]
fn all_benchmarks_heterogeneous_threaded() {
    for (name, n) in [
        ("Jacobi-2D", 32usize),
        ("HotSpot-2D", 32),
        ("FDTD-2D", 32),
        ("Jacobi-3D", 16),
    ] {
        let p = tiny(name, n, 5);
        let dim = p.dim();
        let half = n / 2;
        // Unequal split per dimension, alternating direction.
        let lens: Vec<Vec<usize>> = (0..dim)
            .map(|d| {
                if d % 2 == 0 {
                    vec![half - 2, half + 2]
                } else {
                    vec![half + 2, half - 2]
                }
            })
            .collect();
        let d = Design::heterogeneous(2, lens).unwrap();
        assert_equivalent(&p, &d, ExecMode::PipeShared);
        assert_equivalent(&p, &d, ExecMode::Threaded);
    }
}

#[test]
fn fused_depth_exceeding_iterations_is_clamped() {
    // h = 8 but only 5 iterations: the last pass fuses fewer.
    let p = tiny("Jacobi-2D", 32, 5);
    let d = Design::equal(DesignKind::PipeShared, 8, vec![2, 2], vec![8, 8]).unwrap();
    assert_equivalent(&p, &d, ExecMode::PipeShared);
    let d = Design::equal(DesignKind::Baseline, 8, vec![2, 2], vec![8, 8]).unwrap();
    for mode in ExecMode::ALL {
        assert_equivalent(&p, &d, mode);
    }
}

#[test]
fn single_kernel_designs_degenerate_gracefully() {
    // One tile spanning each region: no pipes, no sharing, still exact.
    let p = tiny("Jacobi-2D", 32, 4);
    let d = Design::equal(DesignKind::Baseline, 2, vec![1, 1], vec![16, 16]).unwrap();
    for mode in ExecMode::ALL {
        assert_equivalent(&p, &d, mode);
    }
    let d = Design::equal(DesignKind::PipeShared, 2, vec![1, 1], vec![16, 16]).unwrap();
    assert_equivalent(&p, &d, ExecMode::PipeShared);
}

#[test]
fn region_spanning_whole_grid_has_no_outward_halo() {
    let p = tiny("Jacobi-2D", 32, 6);
    // 2x2 tiles of 16: one region covers the grid.
    let d = Design::equal(DesignKind::PipeShared, 3, vec![2, 2], vec![16, 16]).unwrap();
    assert_equivalent(&p, &d, ExecMode::PipeShared);
    assert_equivalent(&p, &d, ExecMode::Threaded);
}
