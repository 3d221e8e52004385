use stencilcl_grid::Partition;
use stencilcl_lang::{GridState, Program};

use crate::options::ExecOptions;
use crate::threaded::{one_worker, run_threaded_opts};
use crate::ExecError;

/// Runs the paper's pipe-shared execution (equal or heterogeneous tiling):
/// the tiles of each region advance through the fused iterations in
/// lockstep, and after every update statement each tile pushes the freshly
/// computed boundary slab of the statement's target array to its pipe
/// neighbors, which splice them into their local halos.
///
/// This is the one-worker case of
/// [`run_threaded_opts`](crate::run_threaded_opts): one worker, on the
/// calling thread, drives every kernel's step and buffers every slab, no
/// pipe or thread is created,
/// and injected worker faults ([`ExecOptions::faults`]) do not fire — the
/// configuration the supervisor degrades to. Like every worker count, it
/// matches [`run_reference_opts`](crate::run_reference_opts) exactly.
///
/// # Errors
///
/// As [`run_threaded_opts`](crate::run_threaded_opts); `state` then holds
/// the grid as of the last completed fused-block barrier.
pub fn run_pipe_shared_opts(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
) -> Result<(), ExecError> {
    run_threaded_opts(program, partition, state, &one_worker(opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::tests::check;
    use stencilcl_grid::{Design, DesignKind, Extent, Point};
    use stencilcl_lang::{programs, StencilFeatures};

    fn init(name: &str, p: &Point) -> f64 {
        let mut v = name.len() as f64;
        for d in 0..p.dim() {
            v = v * 37.0 + p.coord(d) as f64;
        }
        (v * 0.0017).cos()
    }

    #[test]
    fn jacobi_1d_pipe_matches_reference() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(64))
            .with_iterations(9);
        let d = Design::equal(DesignKind::PipeShared, 3, vec![4], vec![8]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn jacobi_2d_pipe_matches_reference() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(8);
        let d = Design::equal(DesignKind::PipeShared, 4, vec![2, 2], vec![8, 8]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn fdtd_2d_pipe_matches_reference() {
        let p = programs::fdtd_2d()
            .with_extent(Extent::new2(24, 24))
            .with_iterations(6);
        let d = Design::equal(DesignKind::PipeShared, 3, vec![2, 2], vec![6, 6]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn heterogeneous_tiling_matches_reference() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(6);
        let d = Design::heterogeneous(3, vec![vec![6, 10], vec![12, 4]]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn hotspot_2d_with_read_only_power_matches() {
        let p = programs::hotspot_2d()
            .with_extent(Extent::new2(24, 24))
            .with_iterations(5);
        let d = Design::equal(DesignKind::PipeShared, 5, vec![2, 2], vec![6, 6]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn jacobi_3d_pipe_matches_reference() {
        let p = programs::jacobi_3d()
            .with_extent(Extent::new3(12, 12, 12))
            .with_iterations(4);
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2, 2], vec![3, 3, 3]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn partial_final_block_reuses_the_deep_windows() {
        // 10 iterations with h=4: blocks of 4, 4, 2 — the depth-2 pass must
        // run inside windows sized for depth 4.
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(10);
        let d = Design::equal(DesignKind::PipeShared, 4, vec![2, 2], vec![8, 8]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn rejects_diagonal_stencils() {
        let p = stencilcl_lang::parse(
            "stencil d { grid A[16][16] : f32; iterations 2;
             A[i][j] = 0.5 * (A[i-1][j-1] + A[i+1][j+1]); }",
        )
        .unwrap();
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![4, 4]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        let mut s = GridState::uniform(&p, 0.0);
        assert!(matches!(
            run_pipe_shared_opts(&p, &partition, &mut s, &ExecOptions::new()).unwrap_err(),
            ExecError::DiagonalAccess { .. }
        ));
        // A baseline design exchanges no slab, so the same stencil runs.
        for (parallelism, tile) in [(vec![2, 2], vec![4, 4]), (vec![4, 2], vec![2, 4])] {
            let d = Design::equal(DesignKind::Baseline, 2, parallelism, tile).unwrap();
            check(&p, &d);
        }
    }

    #[test]
    fn traced_run_is_bit_exact_and_produces_spans() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(24, 24))
            .with_iterations(4);
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![6, 6]).unwrap();
        let f = StencilFeatures::extract(&p).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        let mut plain = GridState::new(&p, init);
        run_pipe_shared_opts(&p, &partition, &mut plain, &ExecOptions::new()).unwrap();
        let rec = stencilcl_telemetry::Recorder::new();
        let opts = ExecOptions::new().trace(rec.clone());
        let mut traced = GridState::new(&p, init);
        run_pipe_shared_opts(&p, &partition, &mut traced, &opts).unwrap();
        assert_eq!(plain.max_abs_diff(&traced).unwrap(), 0.0);
        let t = rec.finish();
        assert_eq!(t.dropped, 0);
        t.validate_spans()
            .expect("sequential spans are well-formed");
        assert!(t.counters.cells_computed > 0);
        assert_eq!(t.counters.slabs_sent, t.counters.slabs_received);
        for k in 0..4 {
            assert!(t.phase_totals(k).compute > 0.0, "kernel {k} computed");
        }
    }
}
