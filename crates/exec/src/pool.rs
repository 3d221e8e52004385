use stencilcl_grid::{FaceKind, Partition, Rect};
use stencilcl_lang::{CompiledProgram, GridState, Program, StencilFeatures};
use stencilcl_telemetry::{Counter, TraceSink};

use crate::domains::{reject_diagonals, DomainPlan};
use crate::overlapped::window_extent;
use crate::window::halo_ring;
use crate::ExecError;

/// Lowers `program` to bytecode kernels walked `lanes` cells per tape pass
/// (`None` = the compiler default, `LANE_WIDTH`). Every width is bit-exact.
pub(crate) fn compile_with_lanes(
    program: &Program,
    lanes: Option<usize>,
) -> Result<CompiledProgram, ExecError> {
    let lanes = lanes.unwrap_or(stencilcl_lang::LANE_WIDTH);
    Ok(CompiledProgram::compile(program)?.with_lanes(lanes))
}

/// Bounded capacity of each pipe channel — the stand-in for the FPGA FIFO
/// depth. Capacity 2 lets a producer run one statement ahead of a slow
/// consumer without unbounded buffering.
pub(crate) const PIPE_CAPACITY: usize = 2;

/// One boundary-slab message: the values of the statement's target array
/// over the agreed overlap region, tagged with its global
/// `(iteration, statement)` step for protocol checking. The iteration
/// component counts from the start of the run (`done + i`), so reusing one
/// channel across every fused block and region still detects skew.
///
/// With integrity on ([`ExecOptions::integrity`](crate::ExecOptions)),
/// [`Slab::seal`] additionally stamps an FNV-1a-64 checksum over the
/// payload bits, the step tag, and the channel's sequence number; the
/// splice site recomputes it so a payload corrupted in flight surfaces as
/// [`ExecError::SlabCorrupt`](crate::ExecError) instead of splicing
/// silently into a neighbor's halo.
#[derive(Debug)]
pub(crate) struct Slab {
    pub step: (u64, usize),
    pub values: Vec<f64>,
    /// `Some(fnv1a(seq, step, values))` when the run seals slabs; `None`
    /// on the zero-overhead default path.
    pub checksum: Option<u64>,
}

impl Slab {
    /// Builds a slab for the given `(iteration, statement)` step. With
    /// `corrupt` set (the `CorruptStepTag` injected fault), the iteration
    /// component is skewed by one so the receiver's [`check_slab_step`]
    /// protocol check must trip.
    pub fn tagged(step: (u64, usize), values: Vec<f64>, corrupt: bool) -> Slab {
        let step = if corrupt {
            (step.0.wrapping_add(1), step.1)
        } else {
            step
        };
        Slab {
            step,
            values,
            checksum: None,
        }
    }

    /// Seals the slab with the channel's send-side sequence number.
    #[must_use]
    pub fn seal(mut self, seq: u64) -> Slab {
        self.checksum = Some(crate::integrity::slab_checksum(
            seq,
            self.step,
            &self.values,
        ));
        self
    }

    /// Flips the lowest mantissa bit of the first payload value — the
    /// `CorruptPayload` injected fault. Applied *after* [`Slab::seal`], so
    /// the receiver's checksum recomputation must mismatch.
    #[must_use]
    pub fn corrupt_payload(mut self) -> Slab {
        if let Some(v) = self.values.first_mut() {
            *v = f64::from_bits(v.to_bits() ^ 1);
        }
        self
    }
}

/// A directed slab exchange within one region: after every statement,
/// kernel `from` sends the target array's values over `overlap` (absolute
/// coordinates) to kernel `to`, which splices them into its halo.
#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub from: usize,
    pub to: usize,
    pub overlap: Rect,
}

/// Geometry for one distinct fused-block depth. A run has at most two: the
/// design's fused depth and the remainder of the final partial block.
#[derive(Debug)]
pub(crate) struct DepthPlans {
    /// The fused depth these plans describe.
    pub h: u64,
    /// `plans[region][kernel]`.
    pub plans: Vec<Vec<DomainPlan>>,
    /// `edges[region]`, in discovery order (kernel-major, then face order).
    /// Splice order must match between the sequential and threaded
    /// executors: halo corners can be covered by two neighbors' slabs, so
    /// the last writer decides the (unconsumed but compared) value.
    pub edges: Vec<Vec<Edge>>,
    /// `domains[region][kernel][(i - 1) * stmts + s]`: the statement domain
    /// of fused level `i`, statement `s` — already translated into the
    /// kernel's local window **and clipped to the statement's updatable
    /// interior**. Hoisting the per-statement
    /// `domain.intersect(statement_domain)` here means it happens once per
    /// run instead of once per fused block.
    pub domains: Vec<Vec<Vec<Rect>>>,
}

impl DepthPlans {
    /// The pre-clipped local domain of fused level `i` (1-based), statement
    /// `s`, for `(region, kernel)`. `stmts` is the program's statement
    /// count.
    pub fn local_domain(
        &self,
        region: usize,
        kernel: usize,
        i: u64,
        s: usize,
        stmts: usize,
    ) -> &Rect {
        &self.domains[region][kernel][(i as usize - 1) * stmts + s]
    }
}

/// Everything the pipe executors precompute once per run.
///
/// The plan fixes the invariants the persistent-window executors rely on:
///
/// * `windows[r][k]` is the buffer of the **deepest** pass; every
///   shallower pass's buffer, domains, and overlaps are contained in it,
///   so one local window per `(region, kernel)` — sized and rooted at the
///   deepest buffer — serves every block of the run.
/// * `rings[r][k]` decomposes `window ∖ tile`; those are exactly the local
///   cells whose values a block leaves stale (intermediate trapezoid
///   values), so refreshing them from the global grid restores the full
///   pre-block window without re-reading the tile interior.
/// * `edges` are identical across depths in *structure* (which pairs
///   exchange); only the overlap rects differ, so channels keyed by the
///   directed pair can be created once and reused for the whole run.
#[derive(Debug)]
pub(crate) struct PipelinePlan {
    /// Region indices in execution order.
    pub regions: Vec<Vec<usize>>,
    /// `tiles[region][kernel]`: the output footprint written back per block.
    pub tiles: Vec<Vec<Rect>>,
    /// `windows[region][kernel]`: deepest-pass buffer, the persistent local
    /// window's absolute footprint (its `lo()` is the window origin).
    pub windows: Vec<Vec<Rect>>,
    /// `rings[region][kernel]`: `window ∖ tile` as disjoint rects.
    pub rings: Vec<Vec<Vec<Rect>>>,
    /// `local_programs[region][kernel]`: the program re-extented to the
    /// window, the shape every local window is extracted in.
    pub local_programs: Vec<Vec<Program>>,
    /// `compiled[region][kernel]`: the local program lowered to bytecode
    /// kernels, once per run — the functional analogue of the code
    /// generator's per-tile kernel specialization.
    pub compiled: Vec<Vec<CompiledProgram>>,
    /// Number of update statements per iteration.
    pub stmts: usize,
    /// Distinct pass depths, deepest first.
    pub depths: Vec<DepthPlans>,
    /// Every directed kernel pair with an edge in any region (the set is
    /// depth-independent), in deterministic discovery order.
    pub pairs: Vec<(usize, usize)>,
    /// Names of the grids update statements write.
    pub updated: Vec<String>,
    /// Total stencil iterations of the run.
    pub iterations: u64,
    /// The design's fused depth clamped to the run length.
    pub fused: u64,
}

/// The sequence of distinct fused-block depths for a run: the clamped
/// design depth, then the final partial block's remainder if any.
pub(crate) fn pass_depths(fused: u64, iterations: u64) -> Vec<u64> {
    if iterations == 0 {
        return Vec::new();
    }
    let deepest = fused.min(iterations);
    let rem = iterations % deepest;
    if rem == 0 {
        vec![deepest]
    } else {
        vec![deepest, rem]
    }
}

impl PipelinePlan {
    /// Builds the full per-run plan, validating the design kind and stencil
    /// shape exactly like the original per-pass executors did. `lanes` is
    /// the run's cells per tape pass of the compiled row walk (`None` = the
    /// compiler default).
    pub fn new(
        program: &Program,
        partition: &Partition,
        lanes: Option<usize>,
    ) -> Result<Self, ExecError> {
        let features = StencilFeatures::extract(program)?;
        if !partition.design().kind().uses_pipes() {
            return Err(ExecError::config(
                "pipe executors expect a pipe-shared or heterogeneous design",
            ));
        }
        reject_diagonals(&features)?;

        let kind = partition.design().kind();
        let grid_rect = Rect::from_extent(&program.extent());
        let updated: Vec<String> = program
            .updated_grids()
            .into_iter()
            .map(str::to_string)
            .collect();
        let iterations = program.iterations;
        let hs = pass_depths(partition.design().fused(), iterations);
        let regions: Vec<Vec<usize>> = partition.region_indices().collect();

        let mut depths = Vec::with_capacity(hs.len());
        for &h in &hs {
            let mut plans = Vec::with_capacity(regions.len());
            let mut edges = Vec::with_capacity(regions.len());
            for region in &regions {
                let tiles = partition.tiles_for_region(region);
                let region_plans: Vec<DomainPlan> = tiles
                    .iter()
                    .map(|t| DomainPlan::new(&features, t, kind, h, &grid_rect))
                    .collect::<Result<_, _>>()?;
                let mut region_edges = Vec::new();
                for (t, tile) in tiles.iter().enumerate() {
                    for f in tile.faces() {
                        if let FaceKind::Shared { neighbor } = f.kind {
                            let overlap = region_plans[neighbor]
                                .halo_rect(f.axis, !f.high)
                                .intersect(&region_plans[t].buffer())?;
                            region_edges.push(Edge {
                                from: t,
                                to: neighbor,
                                overlap,
                            });
                        }
                    }
                }
                plans.push(region_plans);
                edges.push(region_edges);
            }
            depths.push(DepthPlans {
                h,
                plans,
                edges,
                domains: Vec::new(),
            });
        }

        let (mut tiles, mut windows, mut rings, mut local_programs, mut compiled, mut pairs) = (
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        if let Some(deepest) = depths.first() {
            for (r, region) in regions.iter().enumerate() {
                let region_tiles: Vec<Rect> = partition
                    .tiles_for_region(region)
                    .iter()
                    .map(|t| t.rect())
                    .collect();
                let region_windows: Vec<Rect> =
                    deepest.plans[r].iter().map(DomainPlan::buffer).collect();
                let region_rings: Vec<Vec<Rect>> = region_windows
                    .iter()
                    .zip(&region_tiles)
                    .map(|(w, t)| halo_ring(w, t))
                    .collect::<Result<_, _>>()?;
                let region_programs: Vec<Program> = region_windows
                    .iter()
                    .map(|w| Ok(program.with_extent(window_extent(w)?)))
                    .collect::<Result<_, ExecError>>()?;
                let region_compiled: Vec<CompiledProgram> = region_programs
                    .iter()
                    .map(|p| compile_with_lanes(p, lanes))
                    .collect::<Result<_, _>>()?;
                for e in &deepest.edges[r] {
                    if !pairs.contains(&(e.from, e.to)) {
                        pairs.push((e.from, e.to));
                    }
                }
                tiles.push(region_tiles);
                windows.push(region_windows);
                rings.push(region_rings);
                local_programs.push(region_programs);
                compiled.push(region_compiled);
            }
        }

        // Second pass: translate every (depth, level, statement) domain into
        // its local window and clip it to the statement's updatable interior
        // once, instead of per fused block.
        let stmts = program.updates.len();
        for depth in &mut depths {
            let mut domains = Vec::with_capacity(regions.len());
            for r in 0..regions.len() {
                let mut per_kernel = Vec::with_capacity(compiled[r].len());
                for (k, cp) in compiled[r].iter().enumerate() {
                    let origin = windows[r][k].lo();
                    let mut v = Vec::with_capacity(depth.h as usize * stmts);
                    for i in 1..=depth.h {
                        for s in 0..stmts {
                            let local = depth.plans[r][k].domain(i, s).translate(&-origin)?;
                            v.push(local.intersect(&cp.statement_domain(s))?);
                        }
                    }
                    per_kernel.push(v);
                }
                domains.push(per_kernel);
            }
            depth.domains = domains;
        }

        Ok(PipelinePlan {
            regions,
            tiles,
            windows,
            rings,
            local_programs,
            compiled,
            stmts,
            depths,
            pairs,
            updated,
            iterations,
            fused: hs.first().copied().unwrap_or(0),
        })
    }

    /// Index into [`Self::depths`] for a block of depth `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not one of the run's pass depths (an executor bug).
    pub fn depth_index(&self, h: u64) -> usize {
        self.depths
            .iter()
            .position(|d| d.h == h)
            .expect("block depth was planned")
    }
}

/// Verifies a received slab carries the expected global
/// `(iteration, statement)` tag. A mismatch means the pipe protocol skewed
/// — a real executor bug, so this is a hard runtime error, not a debug
/// assertion.
pub(crate) fn check_slab_step(
    kernel: usize,
    got: (u64, usize),
    expected: (u64, usize),
) -> Result<(), ExecError> {
    if got == expected {
        Ok(())
    } else {
        Err(ExecError::config(format!(
            "kernel {kernel}: pipe protocol skew: received slab tagged \
             (iteration {}, statement {}) but expected (iteration {}, statement {})",
            got.0, got.1, expected.0, expected.1
        )))
    }
}

/// Reusable per-run scratch for [`apply_statement_split`]: the boundary
/// cache (values + occupancy, keyed by the cell's linear index inside the
/// clipped domain), the committed-values buffer, and the tape walk's value
/// stack. Hoisting these into one allocation per run (instead of
/// fresh vectors per fused block and statement) removes the allocator from
/// the inner loop.
#[derive(Debug, Default)]
pub(crate) struct SplitScratch {
    cached: Vec<f64>,
    have: Vec<bool>,
    values: Vec<f64>,
    stack: Vec<f64>,
    eval: stencilcl_lang::EvalScratch,
}

impl SplitScratch {
    pub fn new() -> Self {
        SplitScratch::default()
    }

    fn reset(&mut self, volume: usize) {
        self.cached.clear();
        self.cached.resize(volume, 0.0);
        self.have.clear();
        self.have.resize(volume, false);
        self.values.clear();
    }
}

/// Clipped-domain linear index of `p` (row-major over `clipped`), the key
/// of the boundary cache.
fn clipped_lin(clipped: &Rect, p: &stencilcl_grid::Point) -> usize {
    let lo = clipped.lo();
    let mut i = 0u64;
    for d in 0..clipped.dim() {
        i = i * clipped.len(d) + (p.coord(d) - lo.coord(d)) as u64;
    }
    i as usize
}

/// Applies statement `s` over the **pre-clipped** local domain `clipped`
/// (already intersected with the statement's updatable interior — see
/// [`DepthPlans::local_domain`]) with the paper's latency-hiding element
/// ordering (Section 3.1): the cells feeding outgoing slabs are evaluated
/// first — against the pristine pre-statement state — and each slab is
/// handed to `emit` before any interior work, so downstream kernels can
/// start consuming while this kernel computes its interior. All writes
/// commit only after every evaluation, preserving the snapshot semantics
/// (and therefore bit-exactness with the reference execution).
///
/// Both the boundary cache and the interior are evaluated through the
/// statement's bytecode tape; the interior is a row-major sweep over
/// contiguous rows through the row-chunk walk
/// ([`CompiledProgram::eval_row_into`]), no `Point` construction, and
/// bounds proven once per row. Boundary cells already in the cache are
/// recomputed as part of their row — the cache is memoization over the
/// unmutated pre-statement state, so the recompute is bit-identical and
/// the row stays contiguous for the chunked tape passes.
///
/// `outs[e]` is the local-coordinate source rect of outgoing slab `e`;
/// `emit(e, values)` receives the post-statement values of the target array
/// over that rect.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_statement_split<S: TraceSink>(
    cp: &CompiledProgram,
    local: &mut GridState,
    s: usize,
    clipped: &Rect,
    outs: &[Rect],
    scratch: &mut SplitScratch,
    sink: &S,
    mut emit: impl FnMut(usize, Vec<f64>) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    if S::ACTIVE {
        sink.add(Counter::CellsComputed, clipped.volume());
    }
    scratch.reset(clipped.volume() as usize);
    let target = cp.kernel(s).target();
    {
        let views = cp.views(local)?;
        for (e, overlap) in outs.iter().enumerate() {
            let mut values = local.grid(target)?.read_window(overlap)?;
            if !clipped.is_empty() {
                for (slot, p) in overlap.iter().enumerate() {
                    if clipped.contains(&p) {
                        let i = clipped_lin(clipped, &p);
                        let v = if scratch.have[i] {
                            scratch.cached[i]
                        } else {
                            let idx = cp.extent().linearize(&p)?;
                            let v = cp.eval_idx(s, &views, idx, &mut scratch.stack);
                            scratch.cached[i] = v;
                            scratch.have[i] = true;
                            v
                        };
                        values[slot] = v;
                    }
                }
            }
            emit(e, values)?;
        }
        if clipped.is_empty() {
            return Ok(());
        }
        // Interior sweep: whole contiguous rows through the
        // lane-parallel tape walk. The boundary cache above is pure
        // memoization — `local` is unmutated until the write below —
        // so re-evaluating cached cells as part of their row is
        // bit-identical and keeps the sweep branch-free.
        let row_len = clipped.len(clipped.dim() - 1) as usize;
        for start in clipped.row_starts() {
            let base = cp.extent().linearize(&start)?;
            cp.eval_row_into(
                s,
                &views,
                base,
                row_len,
                &mut scratch.eval,
                &mut scratch.values,
            )?;
        }
    }
    let target_grid = local.grid_mut(target)?;
    target_grid.write_window(clipped, &scratch.values)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_grid::{Design, DesignKind, Extent};
    use stencilcl_lang::programs;

    #[test]
    fn pass_depths_cover_the_run() {
        assert_eq!(pass_depths(4, 10), vec![4, 2]);
        assert_eq!(pass_depths(4, 8), vec![4]);
        assert_eq!(pass_depths(4, 3), vec![3]);
        assert_eq!(pass_depths(1, 5), vec![1]);
        assert!(pass_depths(4, 0).is_empty());
    }

    #[test]
    fn sealed_slabs_detect_payload_corruption() {
        use crate::integrity::slab_checksum;
        let clean = Slab::tagged((2, 1), vec![1.5, -3.25], false).seal(9);
        let sum = clean.checksum.expect("sealed");
        assert_eq!(sum, slab_checksum(9, (2, 1), &clean.values));
        let corrupt = Slab::tagged((2, 1), vec![1.5, -3.25], false)
            .seal(9)
            .corrupt_payload();
        assert_eq!(corrupt.checksum, Some(sum), "seal happens before the flip");
        assert_ne!(
            slab_checksum(9, (2, 1), &corrupt.values),
            sum,
            "recomputation over the flipped payload must mismatch"
        );
        // An unsealed slab carries no checksum at all.
        assert_eq!(Slab::tagged((2, 1), vec![0.0], false).checksum, None);
    }

    #[test]
    fn slab_step_mismatch_is_a_hard_error() {
        assert!(check_slab_step(0, (3, 1), (3, 1)).is_ok());
        let err = check_slab_step(2, (3, 0), (3, 1)).unwrap_err();
        assert!(matches!(err, ExecError::BadConfiguration { .. }));
        assert!(err.to_string().contains("protocol skew"));
        assert!(err.to_string().contains("kernel 2"));
        assert!(check_slab_step(1, (4, 0), (3, 0)).is_err());
    }

    fn plan_for(fused: u64, iterations: u64) -> PipelinePlan {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(iterations);
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::PipeShared, fused, vec![2, 2], vec![8, 8]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        PipelinePlan::new(&p, &partition, None).unwrap()
    }

    #[test]
    fn shallower_pass_geometry_nests_in_the_deepest_window() {
        let plan = plan_for(4, 10); // depths 4 and 2
        assert_eq!(plan.depths.len(), 2);
        for (di, depth) in plan.depths.iter().enumerate() {
            for (r, region_plans) in depth.plans.iter().enumerate() {
                for (k, dp) in region_plans.iter().enumerate() {
                    assert!(
                        plan.windows[r][k].contains_rect(&dp.buffer()),
                        "depth {di} buffer escapes the persistent window"
                    );
                }
                for e in &depth.edges[r] {
                    assert!(plan.windows[r][e.from].contains_rect(&e.overlap));
                    assert!(plan.windows[r][e.to].contains_rect(&e.overlap));
                }
            }
        }
    }

    #[test]
    fn edge_pair_set_is_depth_independent() {
        let plan = plan_for(3, 7); // depths 3 and 1
        for depth in &plan.depths {
            for region_edges in &depth.edges {
                for e in region_edges {
                    assert!(plan.pairs.contains(&(e.from, e.to)));
                }
            }
        }
    }

    #[test]
    fn rings_tile_the_window_exactly() {
        let plan = plan_for(3, 6);
        for r in 0..plan.regions.len() {
            for k in 0..plan.tiles[r].len() {
                let ring_volume: u64 = plan.rings[r][k].iter().map(Rect::volume).sum();
                assert_eq!(
                    ring_volume + plan.tiles[r][k].volume(),
                    plan.windows[r][k].volume()
                );
            }
        }
    }

    #[test]
    fn rejects_baseline_designs() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(32))
            .with_iterations(2);
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::Baseline, 2, vec![2], vec![8]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        assert!(PipelinePlan::new(&p, &partition, None).is_err());
    }
}
