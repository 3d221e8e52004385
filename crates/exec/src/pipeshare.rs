use std::sync::PoisonError;

use stencilcl_grid::Partition;
use stencilcl_lang::{GridState, Program};
use stencilcl_telemetry::{Disabled, TracePhase, TraceSink};

use crate::integrity::RunLimits;
use crate::options::ExecOptions;
use crate::persist::CheckpointWriter;
use crate::pool::{
    double_buffer, into_barrier, run_barriers, DriverRun, KernelStep, PipelinePlan, Slab,
};
use crate::ExecError;

/// Runs the paper's pipe-shared execution (equal or heterogeneous tiling):
/// the tiles of each region advance through the fused iterations in
/// lockstep, and after every update statement each tile pushes the freshly
/// computed boundary slab of the statement's target array to its pipe
/// neighbors, which splice it into their local halos.
///
/// This is the sequential driver of the one per-kernel pipe step that
/// [`run_threaded_opts`](crate::run_threaded_opts) drives with a pool of
/// worker threads: here every kernel's step runs in lockstep on the
/// calling thread. Per statement, every kernel computes against its own
/// pre-splice window and its slabs are buffered; then each receiver
/// splices its slabs in plan edge order — the order a threaded worker
/// receives them in — so a halo corner covered by two neighbors' slabs
/// gets the same last writer in both drivers by construction. Both must
/// match [`run_reference_opts`](crate::run_reference_opts) exactly.
/// Because this driver is sequential, a trace ([`ExecOptions::trace`])
/// shows the dataflow's logical order — slab splices appear as `Dependent`
/// spans on the receiving kernel's row.
///
/// All geometry and routing is planned once per run; each tile's local
/// window persists across fused blocks with only its halo ring refreshed,
/// and the global grid is double-buffered instead of cloned per block.
///
/// # Errors
///
/// Returns [`ExecError::BadConfiguration`] for baseline partitions,
/// [`ExecError::DiagonalAccess`] for non-star stencils, and propagates
/// geometry/evaluation errors; `state` then holds the grid as of the last
/// completed fused-block barrier.
pub fn run_pipe_shared_opts(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
) -> Result<(), ExecError> {
    let limits = opts.limits();
    let (_, result) = match &opts.trace {
        Some(rec) => sequential_run(program, partition, state, opts, 0, limits, None, rec),
        None => sequential_run(program, partition, state, opts, 0, limits, None, &Disabled),
    };
    result
}

/// The sequential driver, with the same contract as
/// [`pool_run`](crate::threaded::pool_run) so the supervisor's degraded
/// attempt is booked like a pool attempt: it keeps the run's lane width,
/// sink, block numbering, and checkpoint writer, and seals generations at
/// its own barriers. It never fires injected faults — the fallback must
/// not be able to wedge.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sequential_run<S: TraceSink>(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
    block_base: u64,
    limits: RunLimits,
    ckpt: Option<&CheckpointWriter>,
    sink: &S,
) -> (DriverRun, Result<(), ExecError>) {
    let plan = match PipelinePlan::new(program, partition, opts.lanes) {
        Ok(plan) => plan,
        Err(e) => return (DriverRun::default(), Err(e)),
    };
    let buffers = double_buffer(state);
    let mut steps: Vec<KernelStep<'_, S>> = (0..plan.kernels())
        .map(|k| KernelStep::new(&plan, k, limits.integrity, sink))
        .collect();
    // One buffered slab per planned edge of the current region.
    let mut slabs: Vec<Option<Slab>> = Vec::new();
    let (run, result) = run_barriers(&plan, &buffers, &limits, ckpt, block_base, sink, |block| {
        let depth = &plan.depths[block.depth];
        let cur = buffers[block.src]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        for r in 0..plan.regions.len() {
            for step in &mut steps {
                step.load(r, &cur)?;
            }
            slabs.resize_with(depth.edges[r].len(), || None);
            for i in 1..=depth.h {
                for s in 0..plan.stmts {
                    let at = (block.step_base + i, s);
                    for step in &mut steps {
                        step.compute(depth, r, i, at, |link, slab| {
                            slabs[link.edge] = Some(slab);
                            Ok(())
                        })?;
                    }
                    for (k, step) in steps.iter_mut().enumerate() {
                        for link in &depth.routes[r][k].ins {
                            let t0 = sink.now();
                            let slab = slabs[link.edge].take().expect("every edge emits");
                            step.splice(r, link, slab, at)?;
                            if S::ACTIVE {
                                let phase = TracePhase::Dependent { iteration: at.0 };
                                sink.span(k, r, phase, t0, sink.now());
                            }
                        }
                    }
                }
            }
            for step in &steps {
                step.store(r, &buffers[1 - block.src])?;
            }
        }
        Ok(())
    });
    drop(steps);
    *state = into_barrier(buffers, run.blocks);
    (run, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_reference_opts;
    use stencilcl_grid::{Design, DesignKind, Extent, Point};
    use stencilcl_lang::{programs, StencilFeatures};

    fn init(name: &str, p: &Point) -> f64 {
        let mut v = name.len() as f64;
        for d in 0..p.dim() {
            v = v * 37.0 + p.coord(d) as f64;
        }
        (v * 0.0017).cos()
    }

    fn check(program: &Program, design: &Design) {
        let features = StencilFeatures::extract(program).unwrap();
        let partition = Partition::new(program.extent(), design, &features.growth).unwrap();
        let mut expect = GridState::new(program, init);
        run_reference_opts(program, &mut expect, &ExecOptions::new()).unwrap();
        let mut got = GridState::new(program, init);
        run_pipe_shared_opts(program, &partition, &mut got, &ExecOptions::new()).unwrap();
        assert_eq!(
            expect.max_abs_diff(&got).unwrap(),
            0.0,
            "{} diverged from reference",
            program.name
        );
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
    fn rejects_baseline_partition() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(32))
            .with_iterations(2);
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::Baseline, 2, vec![2], vec![8]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        let mut s = GridState::uniform(&p, 0.0);
        assert!(run_pipe_shared_opts(&p, &partition, &mut s, &ExecOptions::new()).is_err());
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
