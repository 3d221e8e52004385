use stencilcl_grid::{DesignKind, Extent, Partition, Rect};
use stencilcl_lang::{GridState, Program, StencilFeatures};
use stencilcl_telemetry::{Counter, Disabled, TracePhase, TraceSink};

use crate::domains::DomainPlan;
use crate::integrity::{scan_state, RunLimits};
use crate::options::ExecOptions;
use crate::pool::compile_with_lanes;
use crate::window::{extract_window, write_back};
use crate::ExecError;

/// Runs the baseline overlapped-tiling execution (Nacci et al., DAC'13):
/// per fused pass, every tile independently loads its expanded cone
/// footprint from the pass snapshot, computes all fused iterations locally
/// (recomputing the halo overlap its neighbors also compute), and writes its
/// tile back. With [`ExecOptions::trace`] set, tile rows in the trace are
/// numbered in region-major tile order.
///
/// The result must equal [`run_reference_opts`](crate::run_reference_opts)
/// exactly — redundant computation changes *where* values are computed,
/// never *what* they are.
///
/// # Errors
///
/// Returns [`ExecError::BadConfiguration`] unless the partition's design is
/// [`DesignKind::Baseline`], and propagates geometry/evaluation errors.
///
/// # Example
///
/// See the crate-level documentation (`run_pipe_shared_opts` is used the
/// same way).
pub fn run_overlapped_opts(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
) -> Result<(), ExecError> {
    if partition.design().kind() != DesignKind::Baseline {
        return Err(ExecError::config(format!(
            "run_overlapped expects a baseline design, got {}",
            partition.design().kind()
        )));
    }
    let limits = opts.limits();
    match &opts.trace {
        Some(rec) => run_fused(program, partition, state, opts.lanes, limits, rec),
        None => run_fused(program, partition, state, opts.lanes, limits, &Disabled),
    }
}

/// Pass/region/tile driver for the overlapped executor. (The pipe executors
/// no longer share this loop: they plan once per run and keep persistent
/// windows — see `crate::pool`.)
pub(crate) fn run_fused<S: TraceSink>(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    lanes: Option<usize>,
    limits: RunLimits,
    sink: &S,
) -> Result<(), ExecError> {
    let features = StencilFeatures::extract(program)?;
    let kind = partition.design().kind();
    let fused = partition.design().fused();
    let grid_rect = Rect::from_extent(&program.extent());
    let updated: Vec<&str> = program.updated_grids();
    let scanned: Vec<String> = updated.iter().map(|s| s.to_string()).collect();
    // Tile index for attributing a health hit to its owning kernel (tiles
    // are numbered in region-major order, matching the trace rows).
    let tile_index: Vec<(usize, Rect)> = if limits.health.enabled() {
        partition
            .region_indices()
            .flat_map(|region| partition.tiles_for_region(&region))
            .enumerate()
            .map(|(k, tile)| (k, tile.rect()))
            .collect()
    } else {
        Vec::new()
    };
    let mut done = 0u64;
    while done < program.iterations {
        limits.check_deadline(done)?;
        let h_eff = fused.min(program.iterations - done);
        let snapshot = state.clone();
        for region in partition.region_indices() {
            for (k, tile) in partition.tiles_for_region(&region).into_iter().enumerate() {
                let dp = DomainPlan::new(&features, &tile, kind, h_eff, &grid_rect)?;
                let buffer = dp.buffer();
                let read_t0 = sink.now();
                let local_program = program.with_extent(window_extent(&buffer)?);
                let mut local = extract_window(&snapshot, program, &local_program, &buffer)?;
                if S::ACTIVE {
                    sink.add(
                        Counter::HaloBytes,
                        buffer.volume()
                            * std::mem::size_of::<f64>() as u64
                            * local_program.grids.len() as u64,
                    );
                    sink.span(k, 0, TracePhase::Read, read_t0, sink.now());
                }
                let kernels = compile_with_lanes(&local_program, lanes)?;
                let origin = buffer.lo();
                for i in 1..=h_eff {
                    let compute_t0 = sink.now();
                    for s in 0..program.updates.len() {
                        let global_domain = dp.domain(i, s);
                        let domain = global_domain.translate(&-origin)?;
                        if S::ACTIVE {
                            sink.add(Counter::CellsComputed, domain.volume());
                            // Every cell outside the tile's own output rect
                            // is the trapezoid's redundant halo recompute —
                            // a neighboring tile computes it too.
                            let own = global_domain.intersect(&tile.rect())?.volume();
                            sink.add(Counter::RedundantCells, domain.volume() - own);
                        }
                        kernels.apply_statement(&mut local, s, &domain)?;
                    }
                    if S::ACTIVE {
                        sink.span(
                            k,
                            0,
                            TracePhase::Compute {
                                iteration: done + i,
                            },
                            compute_t0,
                            sink.now(),
                        );
                    }
                }
                let write_t0 = sink.now();
                write_back(state, &local, &updated, &origin, &tile.rect())?;
                if S::ACTIVE {
                    sink.span(k, 0, TracePhase::Write, write_t0, sink.now());
                }
            }
        }
        // Health scan of the pass just written; on divergence roll back to
        // the pass-start snapshot — the last healthy barrier.
        if limits.health.enabled() {
            if let Err(e) = scan_state(&limits.health, state, &scanned, &tile_index, done, sink) {
                *state = snapshot;
                return Err(e);
            }
        }
        done += h_eff;
    }
    Ok(())
}

pub(crate) fn window_extent(rect: &Rect) -> Result<Extent, ExecError> {
    let lens: Vec<usize> = (0..rect.dim()).map(|d| rect.len(d) as usize).collect();
    Extent::new(&lens).map_err(ExecError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_reference_opts;
    use stencilcl_grid::{Design, Point};
    use stencilcl_lang::programs;

    fn check(program: &Program, design: &Design) {
        let features = StencilFeatures::extract(program).unwrap();
        let partition = Partition::new(program.extent(), design, &features.growth).unwrap();
        let init = |name: &str, p: &Point| {
            let tag = name.len() as f64;
            let mut v = tag;
            for d in 0..p.dim() {
                v = v * 31.0 + p.coord(d) as f64;
            }
            (v * 0.001).sin()
        };
        let mut expect = GridState::new(program, init);
        run_reference_opts(program, &mut expect, &ExecOptions::new()).unwrap();
        let mut got = GridState::new(program, init);
        run_overlapped_opts(program, &partition, &mut got, &ExecOptions::new()).unwrap();
        assert_eq!(
            expect.max_abs_diff(&got).unwrap(),
            0.0,
            "{} diverged from reference",
            program.name
        );
    }

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

    #[test]
    fn rejects_pipe_designs() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(32))
            .with_iterations(2);
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2], vec![8]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        let mut s = GridState::uniform(&p, 0.0);
        assert!(run_overlapped_opts(&p, &partition, &mut s, &ExecOptions::new()).is_err());
    }
}
