use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{
    bounded, unbounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender,
};
use stencilcl_grid::Partition;
use stencilcl_lang::{GridState, Program};
use stencilcl_telemetry::{Counter, Disabled, TracePhase, TraceSink};

use crate::faults::{FaultKind, FaultPlan};
use crate::integrity::RunLimits;
use crate::jobs::CancelHandle;
use crate::options::ExecOptions;
use crate::persist::CheckpointWriter;
use crate::pool::{
    double_buffer, into_barrier, run_barriers, Block, Buffers, DriverRun, KernelStep, PipelinePlan,
    Slab, PIPE_CAPACITY,
};
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

/// The host's cores, read once per process (`available_parallelism` reads
/// the cgroup quota on every call).
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Cells each worker must sweep per statement. Below it a second worker's
/// slab handoffs (a futex wake each, and a partner core that must be
/// running at that moment) cost more CPU than the sweep it takes over, and
/// a stall on either core stalls the whole lockstep job.
const WORKER_GRAIN_CELLS: u64 = 1 << 13;

/// The one worker-count rule of every pipe run: `pinned`
/// ([`ExecPolicy::workers`](crate::ExecPolicy::workers)) if set, otherwise
/// `min(host cores, kernels, cells / WORKER_GRAIN_CELLS)`, where `cells`
/// is what one statement sweeps in the plan's largest region; clamped to
/// `1..=kernels`.
pub(crate) fn worker_count(pinned: Option<usize>, kernels: usize, cells: u64) -> usize {
    let by_work = usize::try_from(cells / WORKER_GRAIN_CELLS).unwrap_or(usize::MAX);
    pinned
        .unwrap_or_else(|| host_cores().min(by_work))
        .clamp(1, kernels.max(1))
}

/// Worker `g` of `workers` owns the contiguous kernels
/// `g·K/W .. (g+1)·K/W`.
fn kernel_groups(kernels: usize, workers: usize) -> Vec<Range<usize>> {
    (0..workers)
        .map(|g| g * kernels / workers..(g + 1) * kernels / workers)
        .collect()
}

/// `opts` for the one-worker run: every kernel on one thread, no injected
/// worker faults — the configuration of
/// [`run_pipe_shared_opts`](crate::run_pipe_shared_opts) and of the
/// supervisor's degraded attempt, which must not be able to wedge.
pub(crate) fn one_worker(opts: &ExecOptions) -> ExecOptions {
    let mut one = opts.clone();
    one.policy.workers = Some(1);
    one.faults = Arc::new(FaultPlan::new());
    one
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

/// A worker's end-of-block report: `(worker, outcome)`.
type Done = (usize, Result<(), ExecError>);

/// Everything a worker thread owns for the whole run. `outs`/`ins` are
/// indexed by [`PipelinePlan::pairs`] and hold only the endpoints of pipes
/// that cross into or out of this worker's kernels, so a dying worker's
/// dropped endpoints unblock its partners; a pair between two of its own
/// kernels has no pipe and goes through the worker's edge buffer.
struct WorkerCtx<S: TraceSink> {
    kernels: Range<usize>,
    plan: Arc<PipelinePlan>,
    buffers: Buffers,
    outs: Vec<Option<Sender<Slab>>>,
    ins: Vec<Option<Receiver<Slab>>>,
    /// The pool's internal teardown token — a separate instance from the
    /// job's external cancel handle in `limits`, so a teardown reports
    /// [`ExecError::Cancelled`] and a client abort
    /// [`ExecError::JobCancelled`].
    token: CancelHandle,
    faults: Arc<FaultPlan>,
    /// The run's integrity envelope: deadline, health policy, and whether
    /// slabs are sealed/verified. Carried by value into every worker.
    limits: RunLimits,
    /// Telemetry sink (a zero-sized no-op unless the run records a trace).
    sink: S,
}

/// Runs a tiled design — baseline, pipe-shared or heterogeneous — on a
/// fixed set of worker threads; the host's cores play the paper's
/// processing elements. `W = min(cores, kernels, cells / grain)` workers
/// ([`ExecPolicy::workers`](crate::ExecPolicy) pins `W`) live for the
/// whole run; worker `g` owns kernels
/// `g·K/W .. (g+1)·K/W`. A run whose statement sweeps fewer than two grains
/// of cells gets one worker, which (without injected faults) runs on the
/// calling thread.
/// Per statement a worker runs each owned kernel's step (sweep, then emit
/// the slabs gathered from the swept window) and then splices each owned
/// kernel's incoming slabs in plan edge order — from its edge buffer when
/// both kernels are its own, else from a bounded crossbeam channel, the
/// OpenCL pipe, created once per directed cross-worker kernel pair. A
/// worker starts the next statement only once it holds every slab of this
/// one, so no pipe holds more than its capacity of 2 slabs. A baseline
/// design plans no edge, so its workers share nothing but the barriers.
/// Results are bit-identical for every `W`, and to the reference.
///
/// [`ExecOptions::policy`] sets the watchdog deadlines and `W`, and
/// [`ExecOptions::faults`] arms injected worker faults; see
/// [`run_supervised_opts`](crate::run_supervised_opts) for automatic
/// recovery. The whole pool monomorphizes against the telemetry sink, so
/// an untraced run pays nothing for the instrumentation.
///
/// # Errors
///
/// [`ExecError::DiagonalAccess`] for non-star stencils under a pipe
/// design (a baseline design runs any shape), geometry and
/// evaluation errors, [`ExecError::WorkerPanic`] naming the kernel whose
/// step panicked, and [`ExecError::PipeStall`] if the watchdog sees no
/// report within its deadline. On error the pool is cancelled
/// cooperatively and joined, and `state` is rolled back to the last
/// consistent fused-block barrier.
pub fn run_threaded_opts(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
) -> Result<(), ExecError> {
    let limits = opts.limits();
    let (_, result) = match &opts.trace {
        Some(rec) => pool_run(program, partition, state, opts, 0, limits, None, rec),
        None => pool_run(program, partition, state, opts, 0, limits, None, &Disabled),
    };
    result
}

/// One complete pool lifecycle: spawn the workers, run every fused block
/// through the barrier loop, tear down. `opts` supplies the policy, the
/// fault plan, and the lane width; `limits` is passed separately because
/// the supervisor anchors it once for all of its attempts. `block_base`
/// continues the global fused-block numbering (the fault triggers) across
/// supervised attempts, and `ckpt` is the optional durable-checkpoint
/// writer offered every committed barrier.
///
/// On failure the pool is cancelled via its internal [`CancelHandle`],
/// workers are joined (or, past `policy.teardown_grace`, abandoned and
/// counted in [`DriverRun::leaked`]), and `state` receives the grid of the
/// **last consistent fused-block barrier** — the supervisor's checkpoint.
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
) -> (DriverRun, Result<(), ExecError>) {
    let policy = &opts.policy;
    let plan = match PipelinePlan::new(program, partition, opts.lanes) {
        Ok(plan) => Arc::new(plan),
        Err(e) => return (DriverRun::default(), Err(e)),
    };
    if plan.depths.is_empty() {
        return (DriverRun::default(), Ok(()));
    }
    let kernels = plan.kernels();
    let groups = kernel_groups(
        kernels,
        worker_count(policy.workers, kernels, plan.cells_per_statement()),
    );
    let token = CancelHandle::new();
    let buffers = double_buffer(state);

    // One bounded channel per directed cross-worker kernel pair, for the
    // whole run.
    let owner = |k: usize| groups.iter().position(|g| g.contains(&k)).unwrap_or(0);
    let mut outs: Vec<Vec<Option<Sender<Slab>>>> = vec![vec![None; plan.pairs.len()]; groups.len()];
    let mut ins: Vec<Vec<Option<Receiver<Slab>>>> =
        vec![vec![None; plan.pairs.len()]; groups.len()];
    for (p, &(from, to)) in plan.pairs.iter().enumerate() {
        if owner(from) != owner(to) {
            let (tx, rx) = bounded::<Slab>(PIPE_CAPACITY);
            outs[owner(from)][p] = Some(tx);
            ins[owner(to)][p] = Some(rx);
        }
    }
    let mut ctxs: Vec<WorkerCtx<S>> = groups
        .iter()
        .zip(outs.into_iter().zip(ins))
        .map(|(kernels, (outs, ins))| WorkerCtx {
            kernels: kernels.clone(),
            plan: Arc::clone(&plan),
            buffers: buffers.clone(),
            outs,
            ins,
            token: token.clone(),
            faults: Arc::clone(&opts.faults),
            limits: limits.clone(),
            sink: sink.clone(),
        })
        .collect();

    if groups.len() == 1 && opts.faults.is_empty() {
        // One worker without injected faults has no pipe and nothing that
        // can wedge it, so it runs on this thread: no spawn, no command or
        // report handoff per block, and no watchdog to arm.
        let ctx = ctxs.pop().expect("one worker context");
        let mut worker = Worker::new(&ctx);
        let (run, outcome) = run_barriers(&plan, &buffers, &limits, ckpt, block_base, sink, |b| {
            worker.block(&ctx, b)
        });
        worker.finish(&ctx);
        // The context's buffer handles go first, so the barrier grid is
        // moved out rather than cloned.
        drop(ctx);
        *state = into_barrier(buffers, run.blocks);
        return (run, outcome);
    }

    let live = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = unbounded::<Done>();
    let mut cmd_txs = Vec::with_capacity(groups.len());
    let mut handles = Vec::with_capacity(groups.len());
    let mut spawn_error = None;
    for (g, ctx) in ctxs.into_iter().enumerate() {
        let (cmd_tx, cmd_rx) = unbounded::<Block>();
        let done_tx = done_tx.clone();
        let guard = WorkerGuard::register(&live);
        let spawned = thread::Builder::new()
            .name(format!("stencil-worker-{g}"))
            .spawn(move || {
                let _guard = guard;
                worker_loop(g, &ctx, &cmd_rx, &done_tx);
            });
        match spawned {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                spawn_error = Some(ExecError::config(format!(
                    "failed to spawn worker {g}: {e}"
                )));
                break;
            }
        }
        cmd_txs.push(cmd_tx);
    }
    drop(done_tx);

    let (mut run, mut outcome) = match spawn_error {
        Some(e) => (DriverRun::default(), Err(e)),
        None => run_barriers(&plan, &buffers, &limits, ckpt, block_base, sink, |block| {
            for tx in &cmd_txs {
                // A send can only fail if the worker already exited; the
                // collector below surfaces its report or its silence.
                let _ = tx.send(block);
            }
            collect_block(&done_rx, &groups, policy.watchdog, policy.drain)
        }),
    };

    // Closing the command channels ends every worker loop. A pass reports
    // its own panics; a join error is a panic outside any pass.
    drop(cmd_txs);
    if outcome.is_ok() {
        for (g, handle) in handles.into_iter().enumerate() {
            if handle.join().is_err() && outcome.is_ok() {
                let kernel = groups[g].start;
                outcome = Err(ExecError::WorkerPanic { kernel });
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
                run.leaked += 1;
            }
        }
    }
    *state = into_barrier(buffers, run.blocks);
    (run, outcome)
}

/// Waits for every worker's end-of-block report, with a watchdog. A worker
/// reports its own failures, panics included, so silence means a wedge: if
/// no report arrives within `deadline` (or within `drain` once another
/// worker has failed), the lowest-numbered silent worker is blamed with
/// [`ExecError::PipeStall`] on its first kernel. When some workers fail and
/// others report hang-up cascades, the root-cause error (non-cascade,
/// lowest worker) wins.
fn collect_block(
    done_rx: &Receiver<Done>,
    groups: &[Range<usize>],
    deadline: Duration,
    drain: Duration,
) -> Result<(), ExecError> {
    let mut reported = vec![false; groups.len()];
    let mut failures: Vec<(usize, ExecError)> = Vec::new();
    while let Some(silent) = reported.iter().position(|r| !r) {
        let wait = if failures.is_empty() { deadline } else { drain };
        match done_rx.recv_timeout(wait) {
            Ok((g, Ok(()))) => reported[g] = true,
            Ok((g, Err(e))) => {
                reported[g] = true;
                failures.push((g, e));
            }
            Err(_) => {
                let kernel = groups[silent].start;
                failures.push((silent, ExecError::PipeStall { kernel }));
                break;
            }
        }
    }
    match failures
        .into_iter()
        .min_by_key(|(g, e)| (is_cascade(e), *g))
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

/// The checks every blocking worker operation repeats each [`TICK`]: pool
/// teardown, external cancellation, and the run deadline. A deadline hit
/// reports `completed: 0` — workers cannot know the run's progress, so the
/// barrier loop patches in the checkpoint count.
fn interrupted(token: &CancelHandle, limits: &RunLimits) -> Result<(), ExecError> {
    if token.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    if limits.cancel_requested() {
        return Err(ExecError::JobCancelled { completed: 0 });
    }
    if limits.deadline_passed() {
        return Err(ExecError::DeadlineExceeded { completed: 0 });
    }
    Ok(())
}

/// Sends one slab, re-checking [`interrupted`] every [`TICK`] while the
/// pipe is full. With an active sink, counts the wall time spent blocked on
/// a full pipe (the step counts the slab itself).
fn pipe_send<S: TraceSink>(
    tx: &Sender<Slab>,
    mut slab: Slab,
    token: &CancelHandle,
    limits: &RunLimits,
    sink: &S,
) -> Result<(), ExecError> {
    let t0 = sink.now();
    loop {
        interrupted(token, limits)?;
        match tx.send_timeout(slab, TICK) {
            Ok(()) => {
                if S::ACTIVE {
                    sink.add(Counter::StallNs, sink.now().saturating_sub(t0));
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

/// Receives one slab, re-checking [`interrupted`] every [`TICK`] while the
/// pipe is empty. With an active sink, counts the wall time spent blocked
/// on an empty pipe.
fn pipe_recv<S: TraceSink>(
    rx: &Receiver<Slab>,
    token: &CancelHandle,
    limits: &RunLimits,
    sink: &S,
) -> Result<Slab, ExecError> {
    let t0 = sink.now();
    loop {
        interrupted(token, limits)?;
        match rx.recv_timeout(TICK) {
            Ok(slab) => {
                if S::ACTIVE {
                    sink.add(Counter::StallNs, sink.now().saturating_sub(t0));
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

/// Sleeps for `total` — an injected slab delay — re-checking
/// [`interrupted`] every [`TICK`] like a blocked pipe operation.
fn delay(token: &CancelHandle, limits: &RunLimits, total: Duration) -> Result<(), ExecError> {
    let deadline = Instant::now() + total;
    loop {
        interrupted(token, limits)?;
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            return Ok(());
        };
        thread::sleep(left.min(TICK));
    }
}

/// Injected slab corruptions one kernel applies to every slab it emits
/// during a block, after the step sealed it.
#[derive(Debug, Clone, Copy, Default)]
struct Corrupt {
    step: bool,
    payload: bool,
}

/// Body of pool worker `g`: serve [`Block`] orders with a [`Worker`]
/// until the command channel closes. The first error is reported on the
/// done channel and ends the worker; dropping its pipe endpoints unblocks
/// any partners waiting on it. Every potentially-blocking operation
/// observes the pool's cancellation token, so a teardown is never blocked
/// on this thread.
fn worker_loop<S: TraceSink>(
    g: usize,
    ctx: &WorkerCtx<S>,
    cmd_rx: &Receiver<Block>,
    done_tx: &Sender<Done>,
) {
    let mut worker = Worker::new(ctx);
    while let Ok(block) = cmd_rx.recv() {
        let result = worker.block(ctx, block);
        let failed = result.is_err();
        if done_tx.send((g, result)).is_err() || failed {
            return;
        }
    }
    worker.finish(ctx);
}

/// One worker's state for the whole run: its kernels' [`KernelStep`]s,
/// the block's injected corruptions, and the edge buffer.
struct Worker<'p, S: TraceSink> {
    steps: Vec<KernelStep<'p, S>>,
    corrupt: Vec<Corrupt>,
    /// One buffered slab per planned edge of the current region; only
    /// intra-worker edges use it.
    slabs: Vec<Option<Slab>>,
    /// Idle accounting: from the start until the first block every owned
    /// kernel is in its Launch phase; between blocks it sits at the
    /// fused-block Barrier. Flushed as one span per owned kernel when the
    /// next block starts (same thread, so each kernel's spans stay
    /// sequential).
    idle_since: Option<(u64, TracePhase)>,
}

impl<'p, S: TraceSink> Worker<'p, S> {
    fn new(ctx: &'p WorkerCtx<S>) -> Self {
        let plan = &*ctx.plan;
        Worker {
            steps: ctx
                .kernels
                .clone()
                .map(|k| KernelStep::new(plan, k, ctx.limits.integrity, &ctx.sink))
                .collect(),
            corrupt: vec![Corrupt::default(); ctx.kernels.len()],
            slabs: Vec::new(),
            idle_since: S::ACTIVE.then(|| (ctx.sink.now(), TracePhase::Launch)),
        }
    }

    /// Runs this worker's share of one block under `catch_unwind`, so a
    /// panic is reported as [`ExecError::WorkerPanic`] for the kernel
    /// whose step panicked instead of leaving the collector to wait out
    /// its watchdog. Injected faults fire here, per owned kernel at block
    /// start, and only here.
    fn block(&mut self, ctx: &WorkerCtx<S>, block: Block) -> Result<(), ExecError> {
        if let Some((t0, phase)) = self.idle_since.take() {
            idle(ctx, t0, phase);
        }
        let mut at_kernel = ctx.kernels.start;
        let Worker {
            steps,
            corrupt,
            slabs,
            ..
        } = self;
        let pass = catch_unwind(AssertUnwindSafe(|| {
            corrupt.fill(Corrupt::default());
            fire_faults(ctx, block, corrupt, &mut at_kernel)?;
            run_pass(ctx, steps, slabs, block, corrupt, &mut at_kernel)
        }));
        if S::ACTIVE {
            self.idle_since = Some((ctx.sink.now(), TracePhase::Barrier));
        }
        pass.unwrap_or(Err(ExecError::WorkerPanic { kernel: at_kernel }))
    }

    /// Flushes the trailing barrier wait, so the final teardown idle shows
    /// up in the trace.
    fn finish(self, ctx: &WorkerCtx<S>) {
        if let Some((t0, phase)) = self.idle_since {
            idle(ctx, t0, phase);
        }
    }
}

/// Records one idle span `[t0, now)` on every owned kernel's row.
fn idle<S: TraceSink>(ctx: &WorkerCtx<S>, t0: u64, phase: TracePhase) {
    let now = ctx.sink.now();
    for k in ctx.kernels.clone() {
        ctx.sink.span(k, 0, phase, t0, now);
    }
}

/// Fires the block-start faults of every owned kernel, in kernel order:
/// panics and delays happen here, and corruptions are recorded in
/// `corrupt`. A stall wedges the whole worker silently — the block is
/// never reported — until the pool is cancelled.
fn fire_faults<S: TraceSink>(
    ctx: &WorkerCtx<S>,
    block: Block,
    corrupt: &mut [Corrupt],
    at_kernel: &mut usize,
) -> Result<(), ExecError> {
    for (k, c) in ctx.kernels.clone().zip(corrupt) {
        *at_kernel = k;
        match ctx.faults.fire(k, block.index) {
            None => {}
            Some(FaultKind::WorkerPanic) => {
                panic!("injected worker panic (kernel {k}, block {})", block.index)
            }
            Some(FaultKind::PipeStall) => {
                while !ctx.token.is_cancelled() {
                    thread::sleep(TICK);
                }
                return Err(ExecError::Cancelled);
            }
            Some(FaultKind::DelayedSlab(ms)) => {
                delay(&ctx.token, &ctx.limits, Duration::from_millis(ms))?;
            }
            Some(FaultKind::CorruptStepTag) => c.step = true,
            Some(FaultKind::CorruptPayload) => c.payload = true,
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
    }
    Ok(())
}

/// One worker's share of one fused block, across all of its regions: its
/// kernels' steps in lockstep, two phases per statement. Compute runs
/// every owned kernel's step and routes each slab into the edge buffer
/// (receiver owned here) or its pipe; splice then feeds each owned kernel
/// its incoming slabs in plan edge order. `at_kernel` tracks the kernel
/// being stepped, so a panic can be attributed to it.
fn run_pass<S: TraceSink>(
    ctx: &WorkerCtx<S>,
    steps: &mut [KernelStep<'_, S>],
    slabs: &mut Vec<Option<Slab>>,
    block: Block,
    corrupt: &[Corrupt],
    at_kernel: &mut usize,
) -> Result<(), ExecError> {
    let (sink, plan) = (&ctx.sink, &*ctx.plan);
    let depth = &plan.depths[block.depth];
    let cur = ctx.buffers[block.src]
        .read()
        .unwrap_or_else(PoisonError::into_inner);
    for r in 0..plan.regions.len() {
        for step in steps.iter_mut() {
            *at_kernel = step.kernel();
            step.load(r, &cur)?;
        }
        slabs.resize_with(depth.edges[r].len(), || None);
        for i in 1..=depth.h {
            for s in 0..plan.stmts {
                let at = (block.step_base + i, s);
                for (step, c) in steps.iter_mut().zip(corrupt) {
                    *at_kernel = step.kernel();
                    step.compute(depth, r, i, at, |link, mut slab| {
                        if c.step {
                            slab = slab.corrupt_step();
                        }
                        // With integrity on the receiver's recompute
                        // catches a flipped payload bit; with it off this
                        // is exactly the silent corruption the checksums
                        // exist to stop.
                        if c.payload {
                            slab = slab.corrupt_payload();
                        }
                        match &ctx.outs[link.pair] {
                            Some(tx) => pipe_send(tx, slab, &ctx.token, &ctx.limits, sink),
                            None => {
                                slabs[link.edge] = Some(slab);
                                Ok(())
                            }
                        }
                    })?;
                }
                for step in steps.iter_mut() {
                    let k = step.kernel();
                    *at_kernel = k;
                    let ins = &depth.routes[r][k].ins;
                    let wait_t0 = sink.now();
                    for link in ins {
                        let slab = match &ctx.ins[link.pair] {
                            Some(rx) => pipe_recv(rx, &ctx.token, &ctx.limits, sink)?,
                            None => slabs[link.edge].take().expect("every edge emits"),
                        };
                        step.splice(r, link, slab, at)?;
                    }
                    if S::ACTIVE && !ins.is_empty() {
                        let phase = TracePhase::PipeWait { iteration: at.0 };
                        sink.span(k, r, phase, wait_t0, sink.now());
                    }
                }
            }
        }
        for step in steps.iter() {
            *at_kernel = step.kernel();
            step.store(r, &ctx.buffers[1 - block.src])?;
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// Runs `design` at the default worker count, on one worker and on one
    /// worker per kernel, and checks each against the reference, bit for
    /// bit.
    pub(crate) fn check(program: &Program, design: &Design) {
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
        // Small test grids sit under the worker grain, so the default run
        // above is one worker; pin the widest pool too.
        let kernels = partition.kernel_count();
        let widest = ExecPolicy {
            workers: Some(kernels),
            ..ExecPolicy::default()
        };
        let mut wide = GridState::new(program, init);
        run_threaded_opts(program, &partition, &mut wide, &opts.clone().policy(widest)).unwrap();
        assert_eq!(expect.max_abs_diff(&wide).unwrap(), 0.0);
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
    fn workers_own_contiguous_kernel_ranges() {
        assert_eq!(kernel_groups(4, 3), vec![0..1, 1..2, 2..4]);
        assert_eq!(kernel_groups(16, 2), vec![0..8, 8..16]);
        assert_eq!(kernel_groups(5, 1), vec![0..5]);
        // A pinned count is clamped to 1..=kernels whatever the work;
        // unpinned never exceeds the kernel count, and a sweep under one
        // grain stays on one worker.
        assert_eq!(worker_count(Some(9), 4, 0), 4);
        assert_eq!(worker_count(Some(0), 4, u64::MAX), 1);
        assert_eq!(worker_count(Some(3), 4, 0), 3);
        assert_eq!(worker_count(None, 1, u64::MAX), 1);
        assert!((1..=16).contains(&worker_count(None, 16, u64::MAX)));
        assert_eq!(worker_count(None, 16, WORKER_GRAIN_CELLS - 1), 1);
        assert_eq!(
            worker_count(None, 16, 2 * WORKER_GRAIN_CELLS),
            host_cores().min(2)
        );
    }

    #[test]
    fn watchdog_reports_a_stall_with_the_kernel_id() {
        let (done_tx, done_rx) = unbounded::<Done>();
        done_tx.send((0, Ok(()))).unwrap();
        let err = collect_block(
            &done_rx,
            &[0..1, 1..2],
            Duration::from_millis(50),
            Duration::from_millis(50),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::PipeStall { kernel: 1 });
    }

    #[test]
    fn a_reported_panic_is_surfaced_before_the_watchdog() {
        // Worker 0 (kernels 0..2) reports the panic of its kernel 1 and
        // exits; the collector returns it at once instead of waiting out
        // a 30 s watchdog or drain.
        let (done_tx, done_rx) = unbounded::<Done>();
        done_tx
            .send((0, Err(ExecError::WorkerPanic { kernel: 1 })))
            .unwrap();
        done_tx.send((1, Ok(()))).unwrap();
        drop(done_tx);
        let t0 = Instant::now();
        let err = collect_block(
            &done_rx,
            &[0..2, 2..4],
            Duration::from_secs(30),
            Duration::from_secs(30),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::WorkerPanic { kernel: 1 });
        assert!(t0.elapsed() < Duration::from_secs(1));
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
            &[0..1, 1..2, 2..3],
            Duration::from_secs(5),
            Duration::from_secs(5),
        )
        .unwrap_err();
        assert!(err.to_string().contains("protocol skew"));
    }

    #[test]
    fn pipe_helpers_observe_cancellation() {
        let off = RunLimits::disabled();
        let (tx, rx) = bounded::<Slab>(1);
        let token = CancelHandle::new();
        token.cancel();
        assert_eq!(
            pipe_recv(&rx, &token, &off, &Disabled).unwrap_err(),
            ExecError::Cancelled
        );
        let slab = Slab::tagged((1, 0), vec![0.0]);
        assert_eq!(
            pipe_send(&tx, slab, &token, &off, &Disabled).unwrap_err(),
            ExecError::Cancelled
        );
        // Without cancellation, a hung-up partner is still classified.
        let fresh = CancelHandle::new();
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
        let token = CancelHandle::new();
        let (tx, rx) = bounded::<Slab>(1);
        assert_eq!(
            pipe_recv(&rx, &token, &expired, &Disabled).unwrap_err(),
            ExecError::DeadlineExceeded { completed: 0 }
        );
        let slab = Slab::tagged((1, 0), vec![0.0]);
        assert_eq!(
            pipe_send(&tx, slab, &token, &expired, &Disabled).unwrap_err(),
            ExecError::DeadlineExceeded { completed: 0 }
        );
        assert_eq!(
            delay(&token, &expired, Duration::from_secs(30)).unwrap_err(),
            ExecError::DeadlineExceeded { completed: 0 }
        );
    }
}
