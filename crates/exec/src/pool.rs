use std::sync::{Arc, PoisonError, RwLock};

use stencilcl_grid::{Extent, FaceKind, Partition, Rect};
use stencilcl_lang::{CompiledProgram, FusedScratch, GridState, Program, StencilFeatures};
use stencilcl_telemetry::{Counter, TracePhase, TraceSink};

use crate::domains::{reject_diagonals, DomainPlan};
use crate::integrity::{scan_state, verify_slab, RunLimits};
use crate::persist::CheckpointWriter;
use crate::window::{extract_window, halo_ring, refresh_ring, write_back};
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
/// pipe across every fused block and region still detects skew.
///
/// With integrity on ([`ExecOptions::integrity`](crate::ExecOptions)),
/// [`Slab::seal`] additionally stamps a lane-hash checksum over the
/// payload bits, the step tag, and the pipe's sequence number; the
/// splice site recomputes it so a payload corrupted in flight surfaces as
/// [`ExecError::SlabCorrupt`](crate::ExecError) instead of splicing
/// silently into a neighbor's halo.
#[derive(Debug)]
pub(crate) struct Slab {
    pub step: (u64, usize),
    pub values: Vec<f64>,
    /// `Some(slab_checksum(seq, step, values))` when the run seals slabs; `None`
    /// on the zero-overhead default path.
    pub checksum: Option<u64>,
}

impl Slab {
    /// An unsealed slab for the given `(iteration, statement)` step.
    pub fn tagged(step: (u64, usize), values: Vec<f64>) -> Slab {
        Slab {
            step,
            values,
            checksum: None,
        }
    }

    /// Seals the slab with the pipe's send-side sequence number.
    #[must_use]
    pub fn seal(mut self, seq: u64) -> Slab {
        self.checksum = Some(crate::integrity::slab_checksum(
            seq,
            self.step,
            &self.values,
        ));
        self
    }

    /// Skews the iteration tag by one — the `CorruptStepTag` injected
    /// fault. The receiver's [`check_slab_step`] runs before any checksum
    /// verification, so the protocol check must trip.
    #[must_use]
    pub fn corrupt_step(mut self) -> Slab {
        self.step.0 = self.step.0.wrapping_add(1);
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

/// One end of a planned [`Edge`], as its sending or receiving kernel sees
/// it.
#[derive(Debug, Clone)]
pub(crate) struct Link {
    /// Index into the depth's `edges[region]`.
    pub edge: usize,
    /// Index into [`PipelinePlan::pairs`]: the pipe that carries the slab.
    pub pair: usize,
    /// The overlap in this kernel's local window coordinates.
    pub rect: Rect,
}

/// A kernel's routing for one `(depth, region)`: its outgoing and incoming
/// links, each in plan edge order. Outgoing order is the order
/// [`apply_statement_split`] emits slabs in; incoming order is the order
/// every worker splices them in, whether a slab comes from its own edge
/// buffer or from a pipe, so when two neighbors' slabs cover the same halo
/// corner the same one is written last for every worker count.
#[derive(Debug, Clone, Default)]
pub(crate) struct Route {
    pub outs: Vec<Link>,
    pub ins: Vec<Link>,
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
    pub edges: Vec<Vec<Edge>>,
    /// `routes[region][kernel]`: `edges` as each kernel sees them.
    pub routes: Vec<Vec<Route>>,
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

/// Everything the tiled executors precompute once per run, for every design
/// kind. A baseline plan has no edges, routes or pairs: each tile's window
/// is its full cone, and no kernel exchanges a slab.
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
///   exchange); only the overlap rects differ, so pipes keyed by the
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
    /// Builds the full per-run plan for any design kind. Pipe designs must
    /// be star stencils ([`ExecError::DiagonalAccess`] otherwise); a
    /// baseline tile has no shared face, so its cone expands everywhere
    /// but the grid boundary, it has no edges or routes, and any stencil
    /// shape plans. `lanes` is the run's cells per tape pass of the
    /// compiled row walk (`None` = the compiler default).
    pub fn new(
        program: &Program,
        partition: &Partition,
        lanes: Option<usize>,
    ) -> Result<Self, ExecError> {
        let features = StencilFeatures::extract(program)?;
        let kind = partition.design().kind();
        if kind.uses_pipes() {
            reject_diagonals(&features)?;
        }
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
        let mut pairs = Vec::new();
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
                            if !pairs.contains(&(t, neighbor)) {
                                pairs.push((t, neighbor));
                            }
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
                routes: Vec::new(),
                domains: Vec::new(),
            });
        }

        let (mut tiles, mut windows, mut rings, mut local_programs, mut compiled) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
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
                tiles.push(region_tiles);
                windows.push(region_windows);
                rings.push(region_rings);
                local_programs.push(region_programs);
                compiled.push(region_compiled);
            }
        }

        // Second pass, once per run instead of per fused block: route every
        // edge to both of its kernels in local coordinates, and translate
        // every (depth, level, statement) domain into its local window,
        // clipped to the statement's updatable interior.
        let stmts = program.updates.len();
        for depth in &mut depths {
            for (r, region_edges) in depth.edges.iter().enumerate() {
                let mut routes = vec![Route::default(); windows[r].len()];
                for (edge, e) in region_edges.iter().enumerate() {
                    let pair = pairs.iter().position(|p| *p == (e.from, e.to));
                    let pair = pair.expect("every edge's pair was recorded");
                    let rect = e.overlap.translate(&-windows[r][e.from].lo())?;
                    routes[e.from].outs.push(Link { edge, pair, rect });
                    let rect = e.overlap.translate(&-windows[r][e.to].lo())?;
                    routes[e.to].ins.push(Link { edge, pair, rect });
                }
                depth.routes.push(routes);
            }
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

    /// Kernels (tiles) per region.
    pub fn kernels(&self) -> usize {
        self.tiles.first().map_or(0, Vec::len)
    }

    /// Cells one statement sweeps across every kernel's window in the
    /// largest region.
    pub fn cells_per_statement(&self) -> u64 {
        self.windows
            .iter()
            .map(|ws| ws.iter().map(Rect::volume).sum())
            .max()
            .unwrap_or(0)
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

/// The extent of a local window over `rect`.
pub(crate) fn window_extent(rect: &Rect) -> Result<Extent, ExecError> {
    let lens: Vec<usize> = (0..rect.dim()).map(|d| rect.len(d) as usize).collect();
    Extent::new(&lens).map_err(ExecError::from)
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

/// Applies statement `s` over the **pre-clipped** local domain `clipped`
/// (already intersected with the statement's updatable interior — see
/// [`DepthPlans::local_domain`]), then hands every outgoing slab to `emit`.
///
/// The sweep is the reference's own: [`CompiledProgram::apply_statement_with`]
/// walks the domain in bands of rows and commits each row into the window
/// through its line buffer as soon as no later row reads it, so the pipe
/// step and the plain sweep share one per-cell path. Each slab is then
/// read from the committed window: its cells inside `clipped` carry the
/// swept values, and its cells outside (grid-boundary cells the statement
/// never updates) still carry their pre-statement values, because the
/// commit writes `clipped` and nothing else.
///
/// Section 3.1 evaluates the slab cells first so a neighbor can start
/// early; the simulator and the generated OpenCL keep that order. The host
/// step does not: that order needs every slab cell memoized or evaluated
/// twice, and at 1024²×64, pipe 4×4, fused 4 that bookkeeping made one
/// sequential pipe step cost about twice the plain sweep per cell, while a
/// 2-core host has no idle core for an early slab to feed. Gathering after
/// the sweep costs one row copy per overlap row.
///
/// `outs[e].rect` is the local-coordinate source rect of outgoing slab
/// `e`; `emit(e, values)` receives the post-statement values of the target
/// array over that rect.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_statement_split<S: TraceSink>(
    cp: &CompiledProgram,
    local: &mut GridState,
    s: usize,
    clipped: &Rect,
    outs: &[Link],
    scratch: &mut FusedScratch,
    sink: &S,
    mut emit: impl FnMut(usize, Vec<f64>) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    if S::ACTIVE {
        sink.add(Counter::CellsComputed, clipped.volume());
    }
    cp.apply_statement_with(local, s, clipped, scratch)?;
    let target_grid = local.grid(cp.kernel(s).target())?;
    for (e, link) in outs.iter().enumerate() {
        emit(e, target_grid.read_window(&link.rect)?)?;
    }
    Ok(())
}

/// One kernel's share of the paper's pipe protocol (Section 3.1), driven
/// by the pipe executor's workers: each worker runs the steps of the
/// kernels it owns in lockstep, buffering slabs between its own kernels
/// and moving the rest over channels. The step owns the kernel's
/// persistent local windows (one per region, extracted on the first block
/// and halo-refreshed afterwards), its sweep scratch, and its per-pipe
/// slab sequence numbers: both ends of every pipe count from 0 for the
/// whole run, so a sealed slab also proves nothing was dropped or
/// reordered.
pub(crate) struct KernelStep<'p, S> {
    plan: &'p PipelinePlan,
    kernel: usize,
    integrity: bool,
    sink: &'p S,
    updated: Vec<&'p str>,
    locals: Vec<Option<GridState>>,
    scratch: FusedScratch,
    sent: Vec<u64>,
    received: Vec<u64>,
}

impl<'p, S: TraceSink> KernelStep<'p, S> {
    /// A fresh step for `kernel`; `integrity` seals and verifies slabs.
    pub fn new(plan: &'p PipelinePlan, kernel: usize, integrity: bool, sink: &'p S) -> Self {
        KernelStep {
            plan,
            kernel,
            integrity,
            sink,
            updated: plan.updated.iter().map(String::as_str).collect(),
            locals: vec![None; plan.regions.len()],
            scratch: FusedScratch::new(),
            sent: vec![0; plan.pairs.len()],
            received: vec![0; plan.pairs.len()],
        }
    }

    /// The kernel this step drives.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Loads region `r`'s window from the block's source grid `cur`: the
    /// whole window on the first block, only its halo ring afterwards.
    pub fn load(&mut self, r: usize, cur: &GridState) -> Result<(), ExecError> {
        let (plan, k, sink) = (self.plan, self.kernel, self.sink);
        let t0 = sink.now();
        let (cells, arrays) = match &mut self.locals[r] {
            slot @ None => {
                let lp = &plan.local_programs[r][k];
                *slot = Some(extract_window(cur, lp, &plan.windows[r][k])?);
                (plan.windows[r][k].volume(), lp.grids.len())
            }
            Some(local) => {
                let ring = &plan.rings[r][k];
                refresh_ring(local, cur, ring, &plan.windows[r][k].lo(), &self.updated)?;
                (ring.iter().map(Rect::volume).sum(), self.updated.len())
            }
        };
        if S::ACTIVE {
            let bytes = cells * std::mem::size_of::<f64>() as u64 * arrays as u64;
            sink.add(Counter::HaloBytes, bytes);
            sink.span(k, r, TracePhase::Read, t0, sink.now());
        }
        Ok(())
    }

    /// Computes statement `at.1` of fused level `i` in region `r`, then
    /// hands every outgoing slab — gathered from the swept window, tagged
    /// with the global step `at` and, under integrity, sealed with its
    /// pipe's sequence number — to `emit`.
    pub fn compute(
        &mut self,
        depth: &DepthPlans,
        r: usize,
        i: u64,
        at: (u64, usize),
        mut emit: impl FnMut(&Link, Slab) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let (plan, k, sink) = (self.plan, self.kernel, self.sink);
        let outs = &depth.routes[r][k].outs;
        let (integrity, sent) = (self.integrity, &mut self.sent);
        let clipped = depth.local_domain(r, k, i, at.1, plan.stmts);
        if S::ACTIVE {
            // Cells outside the kernel's own tile are halo recompute that a
            // neighboring tile owns: a baseline cone, or a pipe design's
            // region-boundary halo.
            let tile = plan.tiles[r][k].translate(&-plan.windows[r][k].lo())?;
            let own = clipped.intersect(&tile)?.volume();
            sink.add(Counter::RedundantCells, clipped.volume() - own);
        }
        let t0 = sink.now();
        apply_statement_split(
            &plan.compiled[r][k],
            self.locals[r].as_mut().expect("window loaded"),
            at.1,
            clipped,
            outs,
            &mut self.scratch,
            sink,
            |e, values| {
                if S::ACTIVE {
                    sink.add(Counter::SlabsSent, 1);
                    let bytes = values.len() * std::mem::size_of::<f64>();
                    sink.add(Counter::HaloBytes, bytes as u64);
                }
                let link = &outs[e];
                let mut slab = Slab::tagged(at, values);
                if integrity {
                    slab = slab.seal(sent[link.pair]);
                    sent[link.pair] += 1;
                }
                emit(link, slab)
            },
        )?;
        if S::ACTIVE {
            let phase = TracePhase::Compute { iteration: at.0 };
            sink.span(k, r, phase, t0, sink.now());
        }
        Ok(())
    }

    /// Splices a slab received over `link` into region `r`'s window, after
    /// checking its step tag against `at` and, under integrity, its seal.
    pub fn splice(
        &mut self,
        r: usize,
        link: &Link,
        slab: Slab,
        at: (u64, usize),
    ) -> Result<(), ExecError> {
        let k = self.kernel;
        check_slab_step(k, slab.step, at)?;
        if self.integrity {
            // An unsealed slab under an integrity run is itself a protocol
            // violation — treat it as corruption.
            let Some(sum) = slab.checksum else {
                return Err(ExecError::SlabCorrupt {
                    kernel: k,
                    step: at,
                });
            };
            let seq = self.received[link.pair];
            verify_slab(k, seq, slab.step, &slab.values, sum, self.sink)?;
            self.received[link.pair] += 1;
        }
        let target = &self.plan.local_programs[r][k].updates[at.1].target;
        let local = self.locals[r].as_mut().expect("window loaded");
        local
            .grid_mut(target)?
            .write_window(&link.rect, &slab.values)?;
        if S::ACTIVE {
            self.sink.add(Counter::SlabsReceived, 1);
        }
        Ok(())
    }

    /// Writes region `r`'s tile back into the block's destination grid.
    pub fn store(&self, r: usize, next: &RwLock<GridState>) -> Result<(), ExecError> {
        let (plan, k, sink) = (self.plan, self.kernel, self.sink);
        let t0 = sink.now();
        let local = self.locals[r].as_ref().expect("window loaded");
        let mut next = next.write().unwrap_or_else(PoisonError::into_inner);
        let origin = plan.windows[r][k].lo();
        write_back(&mut next, local, &self.updated, &origin, &plan.tiles[r][k])?;
        if S::ACTIVE {
            sink.span(k, r, TracePhase::Write, t0, sink.now());
        }
        Ok(())
    }
}

/// One fused-block order: depth `plan.depths[depth]`, slabs tagged with
/// global iterations from `step_base`, reading buffer `src` and writing
/// the tiles into buffer `1 - src`. `index` is the global fused-block
/// index (offset by the supervisor across attempts), the fault-injection
/// trigger.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    pub depth: usize,
    pub step_base: u64,
    pub src: usize,
    pub index: u64,
}

/// The double-buffered global grid: a block reads `[src]` and writes its
/// tiles into `[1 - src]`, which tiles partition, so after the block the
/// roles swap and no full-grid snapshot is ever cloned.
pub(crate) type Buffers = [Arc<RwLock<GridState>>; 2];

/// Both buffers, initialized to `state`, which moves into buffer 0: one
/// full-grid copy per run, for the spare. `state` stays empty until
/// [`into_barrier`] hands the committed grid back.
pub(crate) fn double_buffer(state: &mut GridState) -> Buffers {
    let spare = state.clone();
    [
        Arc::new(RwLock::new(std::mem::take(state))),
        Arc::new(RwLock::new(spare)),
    ]
}

/// The grid of the last committed barrier after `blocks` blocks — the
/// final grid on success, the run's checkpoint on failure (a failed block
/// only wrote into the spare buffer).
pub(crate) fn into_barrier(buffers: Buffers, blocks: u64) -> GridState {
    let [b0, b1] = buffers;
    let last = if blocks.is_multiple_of(2) { b0 } else { b1 };
    match Arc::try_unwrap(last) {
        Ok(lock) => lock.into_inner().unwrap_or_else(PoisonError::into_inner),
        Err(arc) => arc.read().unwrap_or_else(PoisonError::into_inner).clone(),
    }
}

/// What one driver run accomplished before returning: completed (and
/// checkpointed) iterations, fused blocks, and worker threads that had to
/// be abandoned at teardown.
#[derive(Debug, Default)]
pub(crate) struct DriverRun {
    pub iterations: u64,
    pub blocks: u64,
    pub leaked: usize,
}

/// The pipe driver's barrier loop; `run_block` runs one fused block on
/// the workers. Per fused block it checks the deadline and
/// external cancellation, picks the block depth, runs the block, scans the
/// block's output for numerical health *before* committing (so on
/// divergence the source buffer is still the last healthy checkpoint),
/// swaps the buffers, offers the committed barrier to the durable
/// checkpoint writer (which seals only when its cadence is due), and
/// notifies the progress hook. `block_base` continues the global block
/// numbering of earlier attempts.
pub(crate) fn run_barriers<S: TraceSink>(
    plan: &PipelinePlan,
    buffers: &Buffers,
    limits: &RunLimits,
    ckpt: Option<&CheckpointWriter>,
    block_base: u64,
    sink: &S,
    mut run_block: impl FnMut(Block) -> Result<(), ExecError>,
) -> (DriverRun, Result<(), ExecError>) {
    // Tile index for attributing a health hit to its owning kernel, built
    // only when the watchdog is armed.
    let tile_index: Vec<(usize, Rect)> = if limits.health.enabled() {
        let kernels = plan.kernels();
        (0..plan.regions.len())
            .flat_map(|r| (0..kernels).map(move |k| (k, plan.tiles[r][k])))
            .collect()
    } else {
        Vec::new()
    };
    let mut run = DriverRun::default();
    while run.iterations < plan.iterations {
        let done = run.iterations;
        if let Err(e) = limits.check_deadline(done) {
            return (run, Err(e));
        }
        let h = plan.fused.min(plan.iterations - done);
        let src = (run.blocks % 2) as usize;
        let block = Block {
            depth: plan.depth_index(h),
            step_base: done,
            src,
            index: block_base + run.blocks,
        };
        if let Err(mut e) = run_block(block) {
            // A deadline or cancel seen inside a block cannot know the
            // run's progress; patch in the last committed count.
            if let ExecError::DeadlineExceeded { completed }
            | ExecError::JobCancelled { completed } = &mut e
            {
                *completed = done;
            }
            return (run, Err(e));
        }
        let next = buffers[1 - src]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        if limits.health.enabled() {
            let scan = scan_state(
                &limits.health,
                &next,
                &plan.updated,
                &tile_index,
                done,
                sink,
            );
            if let Err(e) = scan {
                return (run, Err(e));
            }
        }
        run.iterations += h;
        run.blocks += 1;
        if let Some(w) = ckpt {
            w.at_barrier(&next, run.iterations, block_base + run.blocks, sink);
        }
        drop(next);
        limits.note_progress(run.iterations);
    }
    (run, Ok(()))
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
        let clean = Slab::tagged((2, 1), vec![1.5, -3.25]).seal(9);
        let sum = clean.checksum.expect("sealed");
        assert_eq!(sum, slab_checksum(9, (2, 1), &clean.values));
        let corrupt = Slab::tagged((2, 1), vec![1.5, -3.25])
            .seal(9)
            .corrupt_payload();
        assert_eq!(corrupt.checksum, Some(sum), "seal happens before the flip");
        assert_ne!(
            slab_checksum(9, (2, 1), &corrupt.values),
            sum,
            "recomputation over the flipped payload must mismatch"
        );
        // An unsealed slab carries no checksum at all.
        assert_eq!(Slab::tagged((2, 1), vec![0.0]).checksum, None);
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
}
