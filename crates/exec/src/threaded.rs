use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{
    bounded, unbounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender,
};
use stencilcl_grid::{Partition, Rect};
use stencilcl_lang::{GridState, Program};
use stencilcl_telemetry::{Counter, Disabled, TracePhase, TraceSink};

use crate::faults::{FaultKind, FaultPlan};
use crate::integrity::{scan_state, verify_slab, RunLimits};
use crate::options::ExecOptions;
use crate::persist::CheckpointWriter;
use crate::pool::{
    apply_statement_split, check_slab_step, PipelinePlan, Slab, SplitScratch, PIPE_CAPACITY,
};
use crate::supervise::CancelToken;
use crate::window::{extract_window, refresh_ring, write_back};
use crate::ExecError;

/// Granularity at which blocked pipe operations re-check the cancellation
/// token: a cancelled pool drains within one tick of each worker's current
/// compute finishing.
const TICK: Duration = Duration::from_millis(10);

/// Process-wide gauge of live pipe-executor worker threads (incremented at
/// spawn, decremented when a worker exits, including by panic unwind).
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of pipe-executor worker threads currently alive in the process —
/// an operational gauge: after every executor call returns cleanly this
/// settles back to its previous value, because teardown joins the pool.
pub fn live_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// RAII registration of one worker in the process-wide and per-run gauges.
/// Dropping (normal return or panic unwind) deregisters, so the gauges
/// never overcount dead threads.
struct WorkerGuard {
    run: Arc<AtomicUsize>,
}

impl WorkerGuard {
    fn register(run: &Arc<AtomicUsize>) -> Self {
        LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
        run.fetch_add(1, Ordering::SeqCst);
        WorkerGuard {
            run: Arc::clone(run),
        }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
        self.run.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One block-execution order from the main thread to every worker.
#[derive(Debug, Clone, Copy)]
enum Command {
    /// Run one fused block: depth `plan.depths[depth]`, tagging slabs with
    /// global iterations starting at `step_base`, reading from buffer `src`
    /// and writing the tile back into buffer `1 - src`. `block` is the
    /// global fused-block index (offset by the supervisor across retries),
    /// used only as the fault-injection trigger.
    Pass {
        depth: usize,
        step_base: u64,
        src: usize,
        block: u64,
    },
}

/// A worker's end-of-block report: `(kernel, outcome)`.
type Done = (usize, Result<(), ExecError>);

/// One endpoint of a directed kernel-pair pipe, keyed by `(from, to)`.
type PairEndpoint<T> = ((usize, usize), T);

/// A worker's per-`(depth, region)` routing table: which of its pipe
/// endpoints serve each planned edge, and the overlap rects in local window
/// coordinates. Out entries keep the plan's edge-discovery order, which is
/// also the order `apply_statement_split` emits slabs in.
struct Route {
    out_chans: Vec<usize>,
    out_rects: Vec<Rect>,
    in_chans: Vec<usize>,
    in_rects: Vec<Rect>,
}

/// Everything a worker thread owns for the whole run.
struct WorkerCtx<S: TraceSink> {
    kernel: usize,
    plan: Arc<PipelinePlan>,
    buffers: [Arc<RwLock<GridState>>; 2],
    outs: Vec<PairEndpoint<Sender<Slab>>>,
    ins: Vec<PairEndpoint<Receiver<Slab>>>,
    token: CancelToken,
    faults: Arc<FaultPlan>,
    /// The run's integrity envelope: deadline, health policy, and whether
    /// slabs are sealed/verified. Carried by value into every worker.
    limits: RunLimits,
    /// Telemetry sink (a zero-sized no-op unless the run records a trace).
    sink: S,
}

/// What one pool run accomplished before returning: completed (and
/// checkpointed) iterations, fused blocks, and worker threads that had to
/// be abandoned at teardown.
pub(crate) struct PoolRun {
    pub iterations: u64,
    pub blocks: u64,
    pub leaked: usize,
}

impl PoolRun {
    fn empty() -> Self {
        PoolRun {
            iterations: 0,
            blocks: 0,
            leaked: 0,
        }
    }
}

/// Runs the pipe-shared design with **real concurrency**: a persistent pool
/// of one OS thread per tile kernel, alive for the whole run, connected by
/// bounded crossbeam channels that play the role of the OpenCL pipes
/// (created once per directed kernel pair and reused across every region
/// and fused block).
///
/// Per fused block the main thread broadcasts a single pass order; each
/// worker then walks all of its regions — refreshing only the halo ring of
/// its persistent local window, computing the block with a latency-hiding
/// element order (boundary cells feeding the pipes are evaluated and sent
/// before the interior, Section 3.1 of the paper), and writing its tile
/// back into the spare global buffer. The two global buffers alternate
/// roles per block (read `src`, write `1 - src`), so no full-grid snapshot
/// is ever cloned.
///
/// Results must be identical to
/// [`run_pipe_shared_opts`](crate::run_pipe_shared_opts) (and therefore to
/// the reference): the protocol only moves the same values through
/// channels instead of memcpys.
///
/// [`ExecOptions::policy`] sets the watchdog deadlines and
/// [`ExecOptions::faults`] arms injected worker faults; see
/// [`run_supervised_opts`](crate::run_supervised_opts) for automatic
/// recovery. The telemetry sink is chosen here — at plan time — and the
/// whole pool monomorphizes against it, so an untraced run pays nothing
/// for the instrumentation.
///
/// # Errors
///
/// Same conditions as [`run_pipe_shared_opts`](crate::run_pipe_shared_opts),
/// plus [`ExecError::WorkerPanic`] if a worker thread dies and
/// [`ExecError::PipeStall`] if the watchdog sees no progress within its
/// deadline. On error the pool is cancelled cooperatively and joined —
/// worker threads do not outlive the call — and `state` is rolled back to
/// the last consistent fused-block barrier.
pub fn run_threaded_opts(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
) -> Result<(), ExecError> {
    let limits = opts.limits();
    let result = match &opts.trace {
        Some(rec) => pool_run(program, partition, state, opts, 0, limits, None, rec),
        None => pool_run(program, partition, state, opts, 0, limits, None, &Disabled),
    };
    result.map(|_| ()).map_err(|(e, _)| e)
}

/// One complete pool lifecycle: spawn, run every fused block, tear down.
///
/// `opts` supplies the watchdog policy, the fault plan, and the lane
/// width; `limits` is passed separately because the supervisor anchors it
/// once for all of its attempts.
///
/// On failure the pool is cancelled via the [`CancelToken`], workers are
/// joined (or, past `policy.teardown_grace`, abandoned and counted in
/// [`PoolRun::leaked`]), and `state` receives the grid as of the **last
/// consistent fused-block barrier** — the supervisor's checkpoint — along
/// with how many iterations that checkpoint represents.
///
/// `block_base` offsets the fused-block indices used as fault-injection
/// triggers, so a supervised retry continues the global block numbering
/// instead of restarting it.
///
/// `ckpt` is the optional durable-checkpoint writer: it observes every
/// committed fused-block barrier (the buffer the workers just finished
/// reading, i.e. the run's consistent checkpoint) and seals a generation to
/// disk on its own cadence.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pool_run<S: TraceSink>(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
    block_base: u64,
    limits: RunLimits,
    ckpt: Option<&CheckpointWriter>,
    sink: &S,
) -> Result<PoolRun, (ExecError, PoolRun)> {
    let policy = &opts.policy;
    let plan =
        PipelinePlan::new(program, partition, opts.lanes).map_err(|e| (e, PoolRun::empty()))?;
    if plan.depths.is_empty() {
        return Ok(PoolRun::empty());
    }
    let kernels = plan.tiles.first().map_or(0, Vec::len);
    let plan = Arc::new(plan);
    let token = CancelToken::default();
    let live = Arc::new(AtomicUsize::new(0));

    // Double buffer shared by the pool; workers read `src` (shared lock)
    // and write disjoint tiles into `1 - src` (short exclusive locks).
    let buffers = [
        Arc::new(RwLock::new(state.clone())),
        Arc::new(RwLock::new(state.clone())),
    ];

    // One bounded channel per directed kernel pair, for the whole run.
    let mut outs: Vec<Vec<PairEndpoint<Sender<Slab>>>> = (0..kernels).map(|_| Vec::new()).collect();
    let mut ins: Vec<Vec<PairEndpoint<Receiver<Slab>>>> =
        (0..kernels).map(|_| Vec::new()).collect();
    for &(from, to) in &plan.pairs {
        let (tx, rx) = bounded::<Slab>(PIPE_CAPACITY);
        outs[from].push(((from, to), tx));
        ins[to].push(((from, to), rx));
    }

    let (done_tx, done_rx) = unbounded::<Done>();
    let mut cmd_txs = Vec::with_capacity(kernels);
    let mut handles = Vec::with_capacity(kernels);
    for (k, (k_outs, k_ins)) in outs.into_iter().zip(ins).enumerate() {
        let (cmd_tx, cmd_rx) = unbounded::<Command>();
        let ctx = WorkerCtx {
            kernel: k,
            plan: Arc::clone(&plan),
            buffers: [Arc::clone(&buffers[0]), Arc::clone(&buffers[1])],
            outs: k_outs,
            ins: k_ins,
            token: token.clone(),
            faults: Arc::clone(&opts.faults),
            limits: limits.clone(),
            sink: sink.clone(),
        };
        let done_tx = done_tx.clone();
        let guard = WorkerGuard::register(&live);
        let handle = thread::Builder::new()
            .name(format!("stencil-worker-{k}"))
            .spawn(move || {
                let _guard = guard;
                worker_loop(&ctx, &cmd_rx, &done_tx);
            })
            .map_err(|e| {
                (
                    ExecError::config(format!("failed to spawn worker {k}: {e}")),
                    PoolRun::empty(),
                )
            })?;
        cmd_txs.push(cmd_tx);
        handles.push(handle);
    }
    drop(done_tx);

    // Tile index for attributing a health hit to its owning kernel, built
    // only when the watchdog is armed (tiles are disjoint across kernels
    // within a region; the first containing rect wins).
    let tile_index: Vec<(usize, Rect)> = if limits.health.enabled() {
        let plan = &plan;
        (0..plan.regions.len())
            .flat_map(|r| (0..kernels).map(move |k| (k, plan.tiles[r][k])))
            .collect()
    } else {
        Vec::new()
    };

    let mut src = 0usize;
    let mut done_iters = 0u64;
    let mut done_blocks = 0u64;
    let mut outcome: Result<(), ExecError> = Ok(());
    while done_iters < plan.iterations {
        if let Err(e) = limits.check_deadline(done_iters) {
            outcome = Err(e);
            break;
        }
        let h = plan.fused.min(plan.iterations - done_iters);
        let depth = plan.depth_index(h);
        for tx in &cmd_txs {
            // A send can only fail if the worker already died; the collector
            // below will classify that as a panic or surface its error.
            let _ = tx.send(Command::Pass {
                depth,
                step_base: done_iters,
                src,
                block: block_base + done_blocks,
            });
        }
        if let Err(mut e) = collect_block(&done_rx, kernels, policy.watchdog, policy.drain, |k| {
            handles[k].is_finished()
        }) {
            // A worker hitting the deadline (or an external cancel) inside a
            // pipe tick cannot know the run's progress; patch in the last
            // checkpointed count.
            if let ExecError::DeadlineExceeded { completed }
            | ExecError::JobCancelled { completed } = &mut e
            {
                *completed = done_iters;
            }
            outcome = Err(e);
            break;
        }
        // Health scan of the buffer the block just wrote, *before* the
        // barrier commits: on divergence `buffers[src]` is still the last
        // healthy checkpoint and the teardown below hands it back.
        if limits.health.enabled() {
            let next = buffers[1 - src]
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Err(e) = scan_state(
                &limits.health,
                &next,
                &plan.updated,
                &tile_index,
                done_iters,
                sink,
            ) {
                outcome = Err(e);
                break;
            }
        }
        done_iters += h;
        done_blocks += 1;
        src ^= 1;
        // The barrier has committed: `buffers[src]` is the consistent grid
        // as of `done_iters`. Offer it to the durable-checkpoint writer
        // (which seals a generation only when its cadence is due).
        if let Some(w) = ckpt {
            let checkpoint = buffers[src].read().unwrap_or_else(PoisonError::into_inner);
            w.at_barrier(&checkpoint, done_iters, block_base + done_blocks, sink);
        }
        // Feed the streamed-progress hook with the committed count (the
        // service's job events ride on this).
        limits.note_progress(done_iters);
    }

    drop(cmd_txs);
    let mut leaked = 0usize;
    if outcome.is_ok() {
        for (k, handle) in handles.into_iter().enumerate() {
            if handle.join().is_err() && outcome.is_ok() {
                outcome = Err(ExecError::WorkerPanic { kernel: k });
            }
        }
    } else {
        // Cooperative teardown: every blocking pipe operation re-checks the
        // token within one TICK, so wedged workers exit promptly instead of
        // leaking until process exit.
        token.cancel();
        let deadline = Instant::now() + policy.teardown_grace;
        while live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        // Gauge at zero means every worker is past its guard drop and join
        // returns immediately (`is_finished()` can lag the drop by the
        // thread's final exit, so it is not the signal to wait on here).
        let drained = live.load(Ordering::SeqCst) == 0;
        for handle in handles {
            if drained || handle.is_finished() {
                let _ = handle.join();
            } else {
                // Still mid-compute past the grace period: abandon it (the
                // thread exits on its own at its next cancellation check).
                leaked += 1;
            }
        }
    }

    // `buffers[src]` always holds the last consistent fused-block barrier:
    // the final grid on success, the supervisor's checkpoint on failure
    // (the failed block only wrote into `1 - src`).
    let [b0, b1] = buffers;
    let last = if src == 0 { b0 } else { b1 };
    *state = match Arc::try_unwrap(last) {
        Ok(lock) => lock.into_inner().unwrap_or_else(PoisonError::into_inner),
        Err(arc) => arc.read().unwrap_or_else(PoisonError::into_inner).clone(),
    };
    let run = PoolRun {
        iterations: done_iters,
        blocks: done_blocks,
        leaked,
    };
    match outcome {
        Ok(()) => Ok(run),
        Err(e) => Err((e, run)),
    }
}

/// Waits for every worker's end-of-block report, with a watchdog: if no
/// report arrives within `deadline`, the lowest-numbered silent worker is
/// blamed — [`ExecError::WorkerPanic`] if its thread already exited
/// (a panic never reports), [`ExecError::PipeStall`] if it is still wedged.
/// When some workers fail and others report hang-up cascades, the
/// root-cause error (non-cascade, lowest kernel) wins.
fn collect_block(
    done_rx: &Receiver<Done>,
    workers: usize,
    deadline: Duration,
    drain: Duration,
    worker_finished: impl Fn(usize) -> bool,
) -> Result<(), ExecError> {
    let mut reported = vec![false; workers];
    let mut failures: Vec<(usize, ExecError)> = Vec::new();
    while let Some(silent) = reported.iter().position(|r| !r) {
        let wait = if failures.is_empty() { deadline } else { drain };
        match done_rx.recv_timeout(wait) {
            Ok((k, Ok(()))) => reported[k] = true,
            Ok((k, Err(e))) => {
                reported[k] = true;
                failures.push((k, e));
            }
            Err(_) => {
                let e = if worker_finished(silent) {
                    ExecError::WorkerPanic { kernel: silent }
                } else {
                    ExecError::PipeStall { kernel: silent }
                };
                failures.push((silent, e));
                break;
            }
        }
    }
    match failures
        .into_iter()
        .min_by_key(|(k, e)| (is_cascade(e), *k))
    {
        None => Ok(()),
        Some((_, e)) => Err(e),
    }
}

/// A hang-up or cancellation error only tells us the pool was already going
/// down; prefer reporting the root cause.
fn is_cascade(e: &ExecError) -> bool {
    matches!(e, ExecError::Cancelled)
        || matches!(e, ExecError::BadConfiguration { detail } if detail.contains("hung up"))
}

/// Sends one slab, re-checking the cancellation token and the run deadline
/// every [`TICK`] while the pipe is full. With an active sink, counts the
/// slab and its payload bytes, plus the wall time spent blocked on a full
/// pipe. A deadline hit reports `completed: 0` — workers cannot know the
/// run's progress, so the pool's main loop patches in the checkpoint count.
fn pipe_send<S: TraceSink>(
    tx: &Sender<Slab>,
    mut slab: Slab,
    token: &CancelToken,
    limits: &RunLimits,
    sink: &S,
) -> Result<(), ExecError> {
    let bytes = (slab.values.len() * std::mem::size_of::<f64>()) as u64;
    let t0 = sink.now();
    loop {
        if token.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        if limits.cancel_requested() {
            return Err(ExecError::JobCancelled { completed: 0 });
        }
        if limits.deadline_passed() {
            return Err(ExecError::DeadlineExceeded { completed: 0 });
        }
        match tx.send_timeout(slab, TICK) {
            Ok(()) => {
                if S::ACTIVE {
                    sink.add(Counter::StallNs, sink.now().saturating_sub(t0));
                    sink.add(Counter::SlabsSent, 1);
                    sink.add(Counter::HaloBytes, bytes);
                }
                return Ok(());
            }
            Err(SendTimeoutError::Timeout(s)) => slab = s,
            Err(SendTimeoutError::Disconnected(_)) => {
                return Err(ExecError::config("pipe consumer hung up"))
            }
        }
    }
}

/// Receives one slab, re-checking the cancellation token and the run
/// deadline every [`TICK`] while the pipe is empty. With an active sink,
/// counts the slab and the wall time spent blocked on an empty pipe. See
/// [`pipe_send`] for the `completed: 0` deadline convention.
fn pipe_recv<S: TraceSink>(
    rx: &Receiver<Slab>,
    token: &CancelToken,
    limits: &RunLimits,
    sink: &S,
) -> Result<Slab, ExecError> {
    let t0 = sink.now();
    loop {
        if token.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        if limits.cancel_requested() {
            return Err(ExecError::JobCancelled { completed: 0 });
        }
        if limits.deadline_passed() {
            return Err(ExecError::DeadlineExceeded { completed: 0 });
        }
        match rx.recv_timeout(TICK) {
            Ok(slab) => {
                if S::ACTIVE {
                    sink.add(Counter::StallNs, sink.now().saturating_sub(t0));
                    sink.add(Counter::SlabsReceived, 1);
                }
                return Ok(slab);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ExecError::config("pipe producer hung up"))
            }
        }
    }
}

/// Sleeps for `total`, waking early if the pool is cancelled.
fn sleep_cancellable(token: &CancelToken, total: Duration) {
    let deadline = Instant::now() + total;
    while !token.is_cancelled() {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            return;
        };
        thread::sleep(left.min(TICK));
    }
}

/// Body of one pool worker: build its routing tables once, then serve
/// [`Command::Pass`] orders until the
/// command channel closes. The first error is reported on the done channel
/// and ends the worker; dropping its pipe endpoints unblocks any partners
/// waiting on it. Every potentially-blocking operation observes the pool's
/// cancellation token, so a teardown is never blocked on this thread.
fn worker_loop<S: TraceSink>(
    ctx: &WorkerCtx<S>,
    cmd_rx: &Receiver<Command>,
    done_tx: &Sender<Done>,
) {
    let kernel = ctx.kernel;
    let plan = &ctx.plan;
    let regions = plan.regions.len();
    let setup = || -> Result<Vec<Vec<Route>>, ExecError> {
        let missing = || ExecError::config("no pipe endpoint for a planned edge");
        let mut routes = Vec::with_capacity(plan.depths.len());
        for depth in &plan.depths {
            let mut per_region = Vec::with_capacity(regions);
            for r in 0..regions {
                let origin = plan.windows[r][kernel].lo();
                let mut route = Route {
                    out_chans: Vec::new(),
                    out_rects: Vec::new(),
                    in_chans: Vec::new(),
                    in_rects: Vec::new(),
                };
                for e in &depth.edges[r] {
                    if e.from == kernel {
                        let pos = ctx.outs.iter().position(|(p, _)| *p == (e.from, e.to));
                        route.out_chans.push(pos.ok_or_else(missing)?);
                        route.out_rects.push(e.overlap.translate(&-origin)?);
                    }
                    if e.to == kernel {
                        let pos = ctx.ins.iter().position(|(p, _)| *p == (e.from, e.to));
                        route.in_chans.push(pos.ok_or_else(missing)?);
                        route.in_rects.push(e.overlap.translate(&-origin)?);
                    }
                }
                per_region.push(route);
            }
            routes.push(per_region);
        }
        Ok(routes)
    };
    let routes = match setup() {
        Ok(v) => v,
        Err(e) => {
            let _ = done_tx.send((kernel, Err(e)));
            return;
        }
    };
    let updated: Vec<&str> = plan.updated.iter().map(String::as_str).collect();
    // Persistent local windows, one per region, alive across every block.
    let mut locals: Vec<Option<GridState>> = vec![None; regions];
    let mut scratch = SplitScratch::new();
    // Per-endpoint slab sequence counters, persistent across blocks: both
    // ends of every channel count monotonically from 0 for the pool's whole
    // life, so the checksum also proves nothing was dropped or reordered.
    let mut out_seqs = vec![0u64; ctx.outs.len()];
    let mut in_seqs = vec![0u64; ctx.ins.len()];
    // Idle accounting: from spawn until the first command this worker is in
    // its Launch phase; between a block's done-report and the next command
    // it sits at the fused-block Barrier. Flushed as a span at the moment
    // each command arrives (same thread, so spans stay sequential).
    let mut idle_since = if S::ACTIVE {
        Some((ctx.sink.now(), TracePhase::Launch))
    } else {
        None
    };
    while let Ok(Command::Pass {
        depth,
        step_base,
        src,
        block,
    }) = cmd_rx.recv()
    {
        if let Some((t0, phase)) = idle_since.take() {
            ctx.sink.span(kernel, 0, phase, t0, ctx.sink.now());
        }
        let mut corrupt_tags = false;
        let mut corrupt_payload = false;
        match ctx.faults.fire(kernel, block) {
            None => {}
            Some(FaultKind::WorkerPanic) => {
                panic!("injected worker panic (kernel {kernel}, block {block})")
            }
            Some(FaultKind::PipeStall) => {
                // Wedge silently — never report this block — until the
                // supervisor cancels the pool, then exit cleanly.
                while !ctx.token.is_cancelled() {
                    thread::sleep(TICK);
                }
                return;
            }
            Some(FaultKind::DelayedSlab(ms)) => {
                sleep_cancellable(&ctx.token, Duration::from_millis(ms));
            }
            Some(FaultKind::CorruptStepTag) => corrupt_tags = true,
            Some(FaultKind::CorruptPayload) => corrupt_payload = true,
            // I/O fault kinds are dispatched by `FaultPlan::fire_io` from
            // the checkpoint store, and job-level kinds by
            // `FaultPlan::fire_job` from pool runners — never by the
            // per-block worker hook.
            Some(
                FaultKind::TornWrite(_)
                | FaultKind::ShortRead
                | FaultKind::CorruptCheckpoint(_)
                | FaultKind::FsyncFail
                | FaultKind::RunnerPanicAtJob
                | FaultKind::StallJob(_),
            ) => {}
        }
        let result = run_pass(
            ctx,
            &routes[depth],
            &updated,
            &mut locals,
            &mut scratch,
            &mut out_seqs,
            &mut in_seqs,
            depth,
            step_base,
            src,
            corrupt_tags,
            corrupt_payload,
        );
        let failed = result.is_err();
        if S::ACTIVE {
            idle_since = Some((ctx.sink.now(), TracePhase::Barrier));
        }
        if done_tx.send((kernel, result)).is_err() || failed {
            return;
        }
    }
    // Command channel closed: flush the trailing barrier wait so the final
    // teardown idle shows up in the trace.
    if let Some((t0, phase)) = idle_since {
        ctx.sink.span(kernel, 0, phase, t0, ctx.sink.now());
    }
}

/// One worker's share of one fused block, across all of its regions.
#[allow(clippy::too_many_arguments)]
fn run_pass<S: TraceSink>(
    ctx: &WorkerCtx<S>,
    routes: &[Route],
    updated: &[&str],
    locals: &mut [Option<GridState>],
    scratch: &mut SplitScratch,
    out_seqs: &mut [u64],
    in_seqs: &mut [u64],
    depth: usize,
    step_base: u64,
    src: usize,
    corrupt_tags: bool,
    corrupt_payload: bool,
) -> Result<(), ExecError> {
    let kernel = ctx.kernel;
    let sink = &ctx.sink;
    let plan = &ctx.plan;
    let dp = &plan.depths[depth];
    let cur = ctx.buffers[src]
        .read()
        .unwrap_or_else(PoisonError::into_inner);
    for r in 0..plan.regions.len() {
        let origin = plan.windows[r][kernel].lo();
        let lp = &plan.local_programs[r][kernel];
        let read_t0 = sink.now();
        match &mut locals[r] {
            slot @ None => {
                *slot = Some(extract_window(&cur, lp, lp, &plan.windows[r][kernel])?);
                if S::ACTIVE {
                    let cells: u64 = plan.windows[r][kernel].volume();
                    sink.add(
                        Counter::HaloBytes,
                        cells * std::mem::size_of::<f64>() as u64 * lp.grids.len() as u64,
                    );
                }
            }
            Some(local) => {
                refresh_ring(local, &cur, &plan.rings[r][kernel], &origin, updated)?;
                if S::ACTIVE {
                    let cells: u64 = plan.rings[r][kernel].iter().map(Rect::volume).sum();
                    sink.add(
                        Counter::HaloBytes,
                        cells * std::mem::size_of::<f64>() as u64 * updated.len() as u64,
                    );
                }
            }
        }
        if S::ACTIVE {
            sink.span(kernel, r, TracePhase::Read, read_t0, sink.now());
        }
        let local = locals[r].as_mut().expect("window extracted");
        let route = &routes[r];
        for i in 1..=dp.h {
            for s in 0..lp.updates.len() {
                let domain = dp.local_domain(r, kernel, i, s, plan.stmts);
                let step = (step_base + i, s);
                let compute_t0 = sink.now();
                // Produce first (boundary cells against the pristine
                // pre-state), so downstream kernels are fed before we turn
                // to the interior...
                apply_statement_split(
                    &plan.compiled[r][kernel],
                    local,
                    s,
                    domain,
                    &route.out_rects,
                    scratch,
                    sink,
                    {
                        let out_chans = &route.out_chans;
                        let out_seqs = &mut *out_seqs;
                        move |e, values| {
                            let chan = out_chans[e];
                            let mut slab = Slab::tagged(step, values, corrupt_tags);
                            if ctx.limits.integrity {
                                slab = slab.seal(out_seqs[chan]);
                                out_seqs[chan] += 1;
                            }
                            // Injected payload corruption flips a bit *after*
                            // sealing: with integrity on the receiver's
                            // recompute catches it; with integrity off it is
                            // exactly the silent corruption the checksums
                            // exist to stop.
                            if corrupt_payload {
                                slab = slab.corrupt_payload();
                            }
                            pipe_send(&ctx.outs[chan].1, slab, &ctx.token, &ctx.limits, &ctx.sink)
                        }
                    },
                )?;
                if S::ACTIVE {
                    sink.span(
                        kernel,
                        r,
                        TracePhase::Compute {
                            iteration: step_base + i,
                        },
                        compute_t0,
                        sink.now(),
                    );
                }
                // ...then consume: splice the upstream slabs in, in the
                // plan's edge order.
                let target = &lp.updates[s].target;
                let wait_t0 = sink.now();
                for (chan, dst) in route.in_chans.iter().zip(&route.in_rects) {
                    let slab = pipe_recv(&ctx.ins[*chan].1, &ctx.token, &ctx.limits, sink)?;
                    check_slab_step(kernel, slab.step, step)?;
                    if ctx.limits.integrity {
                        // An unsealed slab under an integrity run is itself a
                        // protocol violation — treat it as corruption.
                        let Some(sum) = slab.checksum else {
                            return Err(ExecError::SlabCorrupt { kernel, step });
                        };
                        verify_slab(kernel, in_seqs[*chan], slab.step, &slab.values, sum, sink)?;
                        in_seqs[*chan] += 1;
                    }
                    local.grid_mut(target)?.write_window(dst, &slab.values)?;
                }
                if S::ACTIVE && !route.in_chans.is_empty() {
                    sink.span(
                        kernel,
                        r,
                        TracePhase::PipeWait {
                            iteration: step_base + i,
                        },
                        wait_t0,
                        sink.now(),
                    );
                }
            }
        }
        let write_t0 = sink.now();
        let mut next = ctx.buffers[1 - src]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        write_back(&mut next, local, updated, &origin, &plan.tiles[r][kernel])?;
        if S::ACTIVE {
            sink.span(kernel, r, TracePhase::Write, write_t0, sink.now());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_pipe_shared_opts, run_reference_opts, ExecPolicy};
    use stencilcl_grid::{Design, DesignKind, Extent, Point};
    use stencilcl_lang::{programs, StencilFeatures};

    fn init(name: &str, p: &Point) -> f64 {
        let mut v = name.len() as f64 + 1.0;
        for d in 0..p.dim() {
            v = v * 29.0 + p.coord(d) as f64;
        }
        (v * 0.003).sin()
    }

    fn check(program: &Program, design: &Design) {
        let features = StencilFeatures::extract(program).unwrap();
        let partition = Partition::new(program.extent(), design, &features.growth).unwrap();
        let mut expect = GridState::new(program, init);
        let opts = ExecOptions::new();
        run_reference_opts(program, &mut expect, &opts).unwrap();
        let mut threaded = GridState::new(program, init);
        run_threaded_opts(program, &partition, &mut threaded, &opts).unwrap();
        assert_eq!(
            expect.max_abs_diff(&threaded).unwrap(),
            0.0,
            "{}",
            program.name
        );
        // Threaded and sequential pipe executions agree bit for bit.
        let mut sequential = GridState::new(program, init);
        run_pipe_shared_opts(program, &partition, &mut sequential, &opts).unwrap();
        assert_eq!(sequential.max_abs_diff(&threaded).unwrap(), 0.0);
    }

    #[test]
    fn jacobi_2d_threads_match_reference() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(6);
        let d = Design::equal(DesignKind::PipeShared, 3, vec![2, 2], vec![8, 8]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn fdtd_2d_threads_match_reference() {
        let p = programs::fdtd_2d()
            .with_extent(Extent::new2(24, 24))
            .with_iterations(4);
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![6, 6]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn heterogeneous_threads_match_reference() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(6);
        let d = Design::heterogeneous(2, vec![vec![6, 10], vec![10, 6]]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn one_dimensional_pipeline_of_four_workers() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(64))
            .with_iterations(8);
        let d = Design::equal(DesignKind::PipeShared, 4, vec![4], vec![16]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn partial_final_block_runs_in_the_same_pool() {
        // 7 iterations at depth 3: the pool serves blocks of 3, 3, 1 without
        // being torn down, reusing windows and channels across depths.
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(7);
        let d = Design::equal(DesignKind::PipeShared, 3, vec![2, 2], vec![8, 8]).unwrap();
        check(&p, &d);
    }

    #[test]
    fn custom_policy_deadlines_stay_bit_exact() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(5);
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![8, 8]).unwrap();
        let f = StencilFeatures::extract(&p).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        let policy = ExecPolicy {
            watchdog: Duration::from_secs(5),
            drain: Duration::from_millis(200),
            ..ExecPolicy::default()
        };
        let mut expect = GridState::new(&p, init);
        run_reference_opts(&p, &mut expect, &ExecOptions::new()).unwrap();
        let mut got = GridState::new(&p, init);
        run_threaded_opts(&p, &partition, &mut got, &ExecOptions::new().policy(policy)).unwrap();
        assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
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
        assert!(run_threaded_opts(&p, &partition, &mut s, &ExecOptions::new()).is_err());
    }

    #[test]
    fn watchdog_reports_a_stall_with_the_kernel_id() {
        let (done_tx, done_rx) = unbounded::<Done>();
        done_tx.send((0, Ok(()))).unwrap();
        let err = collect_block(
            &done_rx,
            2,
            Duration::from_millis(50),
            Duration::from_millis(50),
            |_| false,
        )
        .unwrap_err();
        assert_eq!(err, ExecError::PipeStall { kernel: 1 });
    }

    #[test]
    fn watchdog_reports_a_panic_when_the_silent_worker_is_dead() {
        let (done_tx, done_rx) = unbounded::<Done>();
        drop(done_tx);
        let err = collect_block(
            &done_rx,
            1,
            Duration::from_millis(50),
            Duration::from_millis(50),
            |_| true,
        )
        .unwrap_err();
        assert_eq!(err, ExecError::WorkerPanic { kernel: 0 });
    }

    #[test]
    fn root_cause_errors_outrank_hangup_and_cancel_cascades() {
        let (done_tx, done_rx) = unbounded::<Done>();
        done_tx
            .send((0, Err(ExecError::config("pipe producer hung up"))))
            .unwrap();
        done_tx
            .send((1, Err(ExecError::config("kernel 1: pipe protocol skew"))))
            .unwrap();
        done_tx.send((2, Err(ExecError::Cancelled))).unwrap();
        let err = collect_block(
            &done_rx,
            3,
            Duration::from_secs(5),
            Duration::from_secs(5),
            |_| false,
        )
        .unwrap_err();
        assert!(err.to_string().contains("protocol skew"));
    }

    #[test]
    fn pipe_helpers_observe_cancellation() {
        let off = RunLimits::disabled();
        let (tx, rx) = bounded::<Slab>(1);
        let token = CancelToken::default();
        token.cancel();
        assert_eq!(
            pipe_recv(&rx, &token, &off, &Disabled).unwrap_err(),
            ExecError::Cancelled
        );
        let slab = Slab::tagged((1, 0), vec![0.0], false);
        assert_eq!(
            pipe_send(&tx, slab, &token, &off, &Disabled).unwrap_err(),
            ExecError::Cancelled
        );
        // Without cancellation, a hung-up partner is still classified.
        let fresh = CancelToken::default();
        drop(tx);
        assert!(pipe_recv(&rx, &fresh, &off, &Disabled)
            .unwrap_err()
            .to_string()
            .contains("hung up"));
    }

    #[test]
    fn pipe_helpers_observe_the_run_deadline() {
        let expired = RunLimits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..RunLimits::disabled()
        };
        let token = CancelToken::default();
        let (tx, rx) = bounded::<Slab>(1);
        assert_eq!(
            pipe_recv(&rx, &token, &expired, &Disabled).unwrap_err(),
            ExecError::DeadlineExceeded { completed: 0 }
        );
        let slab = Slab::tagged((1, 0), vec![0.0], false);
        assert_eq!(
            pipe_send(&tx, slab, &token, &expired, &Disabled).unwrap_err(),
            ExecError::DeadlineExceeded { completed: 0 }
        );
    }
}
