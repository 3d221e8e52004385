use stencilcl_grid::{Partition, Rect};
use stencilcl_lang::{GridState, Program};
use stencilcl_telemetry::{Counter, Disabled, TracePhase, TraceSink};

use crate::integrity::{scan_state, slab_checksum, verify_slab, RunLimits};
use crate::options::ExecOptions;
use crate::pool::{apply_statement_split, Edge, PipelinePlan, SplitScratch};
use crate::window::{extract_window, refresh_ring, write_back};
use crate::ExecError;

/// Runs the paper's pipe-shared execution (equal or heterogeneous tiling):
/// the tiles of each region advance through the fused iterations in
/// lockstep, and after every update statement each tile pushes the freshly
/// computed boundary slab of the statement's target array to its pipe
/// neighbors, which splice it into their local halos.
///
/// This is the sequential (deterministic) rendition of the dataflow;
/// [`run_threaded_opts`](crate::run_threaded_opts) executes the same
/// protocol with a persistent pool of worker threads and channels. Both
/// must match [`run_reference_opts`](crate::run_reference_opts) exactly.
/// Because this executor is sequential, a trace
/// ([`ExecOptions::trace`]) shows the dataflow's logical order — slab
/// splices appear as `Dependent` spans on the receiving kernel's row.
///
/// All geometry is planned once per run; each tile's local window persists
/// across fused blocks with only its halo ring refreshed, and the global
/// grid is double-buffered (reads from `cur`, tile write-backs into `next`,
/// swap per block) instead of cloned per block.
///
/// # Errors
///
/// Returns [`ExecError::BadConfiguration`] for baseline partitions,
/// [`ExecError::DiagonalAccess`] for non-star stencils, and propagates
/// geometry/evaluation errors.
pub fn run_pipe_shared_opts(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
) -> Result<(), ExecError> {
    let limits = opts.limits();
    match &opts.trace {
        Some(rec) => pipe_shared_impl(program, partition, state, opts.lanes, limits, rec),
        None => pipe_shared_impl(program, partition, state, opts.lanes, limits, &Disabled),
    }
}

/// The monomorphized body shared by [`run_pipe_shared_opts`] and the
/// supervisor's sequential-fallback path (which must keep the failing run's
/// lane width and sink).
pub(crate) fn pipe_shared_impl<S: TraceSink>(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    lanes: Option<usize>,
    limits: RunLimits,
    sink: &S,
) -> Result<(), ExecError> {
    let plan = PipelinePlan::new(program, partition, lanes)?;
    if plan.depths.is_empty() {
        return Ok(());
    }
    let updated: Vec<&str> = plan.updated.iter().map(String::as_str).collect();
    let region_count = plan.regions.len();
    let kernels = plan.tiles.first().map_or(0, Vec::len);

    // Double buffer: `cur` holds every value as of the block start, `next`
    // receives the tile write-backs. Tiles partition the grid, so after a
    // block `next`'s updated arrays are fully written and the roles swap.
    let mut cur = state.clone();
    let mut next = state.clone();
    // Persistent local windows, one per (region, kernel), created lazily on
    // the first block and halo-refreshed afterwards.
    let mut locals: Vec<Vec<Option<GridState>>> =
        vec![(0..kernels).map(|_| None).collect(); region_count];
    let mut scratch = SplitScratch::new();

    // Per-kernel outgoing edges and their local-coordinate source rects are
    // iteration- and statement-invariant: route once per (depth, region).
    type Routing<'e> = (Vec<Vec<&'e Edge>>, Vec<Vec<Rect>>);
    let mut routes: Vec<Vec<Routing<'_>>> = Vec::with_capacity(plan.depths.len());
    for depth in &plan.depths {
        let mut per_region = Vec::with_capacity(region_count);
        for r in 0..region_count {
            let mut out_edges: Vec<Vec<&Edge>> = vec![Vec::new(); kernels];
            let mut out_rects: Vec<Vec<Rect>> = vec![Vec::new(); kernels];
            for e in &depth.edges[r] {
                out_edges[e.from].push(e);
                out_rects[e.from].push(e.overlap.translate(&-plan.windows[r][e.from].lo())?);
            }
            per_region.push((out_edges, out_rects));
        }
        routes.push(per_region);
    }

    // Tile index for attributing a health hit to its owning kernel.
    let tile_index: Vec<(usize, Rect)> = if limits.health.enabled() {
        let tiles = &plan.tiles;
        (0..region_count)
            .flat_map(|r| (0..kernels).map(move |k| (k, tiles[r][k])))
            .collect()
    } else {
        Vec::new()
    };
    // Global slab sequence counters: the sequential protocol emits and
    // splices slabs in one deterministic order, so a single send/recv pair
    // plays the role of the threaded pool's per-channel counters.
    let mut send_seq = 0u64;
    let mut recv_seq = 0u64;

    let mut done = 0u64;
    while done < plan.iterations {
        if let Err(e) = limits.check_deadline(done) {
            // `cur` is the last completed barrier — hand it back as the
            // partial result the error's `completed` count describes.
            *state = cur;
            return Err(e);
        }
        let h = plan.fused.min(plan.iterations - done);
        let di = plan.depth_index(h);
        let depth = &plan.depths[di];
        for r in 0..region_count {
            for (k, slot) in locals[r].iter_mut().enumerate() {
                let read_t0 = sink.now();
                match slot {
                    slot @ None => {
                        *slot = Some(extract_window(
                            &cur,
                            program,
                            &plan.local_programs[r][k],
                            &plan.windows[r][k],
                        )?);
                        if S::ACTIVE {
                            let cells: u64 = plan.windows[r][k].volume();
                            sink.add(
                                Counter::HaloBytes,
                                cells
                                    * std::mem::size_of::<f64>() as u64
                                    * plan.local_programs[r][k].grids.len() as u64,
                            );
                        }
                    }
                    Some(local) => {
                        refresh_ring(
                            local,
                            &cur,
                            &plan.rings[r][k],
                            &plan.windows[r][k].lo(),
                            &updated,
                        )?;
                        if S::ACTIVE {
                            let cells: u64 = plan.rings[r][k].iter().map(Rect::volume).sum();
                            sink.add(
                                Counter::HaloBytes,
                                cells * std::mem::size_of::<f64>() as u64 * updated.len() as u64,
                            );
                        }
                    }
                }
                if S::ACTIVE {
                    sink.span(k, r, TracePhase::Read, read_t0, sink.now());
                }
            }
            let (out_edges, out_rects) = &routes[di][r];
            for i in 1..=h {
                for s in 0..program.updates.len() {
                    // Compute every tile's statement against its own
                    // pre-splice window, buffering the emitted slabs...
                    let mut slabs = Vec::with_capacity(depth.edges[r].len());
                    for k in 0..kernels {
                        let domain = depth.local_domain(r, k, i, s, plan.stmts);
                        let local = locals[r][k].as_mut().expect("window extracted");
                        let edges = &out_edges[k];
                        let compute_t0 = sink.now();
                        apply_statement_split(
                            &plan.compiled[r][k],
                            local,
                            s,
                            domain,
                            &out_rects[k],
                            &mut scratch,
                            sink,
                            |e, values| {
                                if S::ACTIVE {
                                    sink.add(Counter::SlabsSent, 1);
                                    sink.add(
                                        Counter::HaloBytes,
                                        (values.len() * std::mem::size_of::<f64>()) as u64,
                                    );
                                }
                                let checksum = limits.integrity.then(|| {
                                    let sum = slab_checksum(send_seq, (done + i, s), &values);
                                    send_seq += 1;
                                    sum
                                });
                                slabs.push((edges[e].to, edges[e].overlap, values, checksum));
                                Ok(())
                            },
                        )?;
                        if S::ACTIVE {
                            sink.span(
                                k,
                                r,
                                TracePhase::Compute {
                                    iteration: done + i,
                                },
                                compute_t0,
                                sink.now(),
                            );
                        }
                    }
                    // ...then splice them all, in edge-discovery order (the
                    // same per-receiver order the threaded pool uses).
                    let target = &program.updates[s].target;
                    for (to, overlap, values, checksum) in slabs {
                        let splice_t0 = sink.now();
                        if limits.integrity {
                            let Some(sum) = checksum else {
                                return Err(ExecError::SlabCorrupt {
                                    kernel: to,
                                    step: (done + i, s),
                                });
                            };
                            verify_slab(to, recv_seq, (done + i, s), &values, sum, sink)?;
                            recv_seq += 1;
                        }
                        let dst_rect = overlap.translate(&-plan.windows[r][to].lo())?;
                        let dst = locals[r][to].as_mut().expect("window extracted");
                        dst.grid_mut(target)?.write_window(&dst_rect, &values)?;
                        if S::ACTIVE {
                            sink.add(Counter::SlabsReceived, 1);
                            sink.span(
                                to,
                                r,
                                TracePhase::Dependent {
                                    iteration: done + i,
                                },
                                splice_t0,
                                sink.now(),
                            );
                        }
                    }
                }
            }
            for (k, slot) in locals[r].iter().enumerate() {
                let local = slot.as_ref().expect("window extracted");
                let write_t0 = sink.now();
                write_back(
                    &mut next,
                    local,
                    &updated,
                    &plan.windows[r][k].lo(),
                    &plan.tiles[r][k],
                )?;
                if S::ACTIVE {
                    sink.span(k, r, TracePhase::Write, write_t0, sink.now());
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
        // Health scan of the block just committed into `cur`: after the
        // swap `next` still holds the previous barrier, so a divergence
        // hands back the last *healthy* checkpoint.
        if limits.health.enabled() {
            if let Err(e) = scan_state(&limits.health, &cur, &plan.updated, &tile_index, done, sink)
            {
                *state = next;
                return Err(e);
            }
        }
        done += h;
        // Committed barrier: feed the streamed-progress hook.
        limits.note_progress(done);
    }
    *state = cur;
    Ok(())
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
