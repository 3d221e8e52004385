use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError};
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

/// A worker's end-of-block report: `(kernel, outcome)`.
type Done = (usize, Result<(), ExecError>);

/// Everything a worker thread owns for the whole run. `outs`/`ins` are
/// indexed by [`PipelinePlan::pairs`] and hold only this kernel's pipe
/// endpoints, so a dying worker's dropped endpoints unblock its partners.
struct WorkerCtx<S: TraceSink> {
    kernel: usize,
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

/// Runs the pipe-shared design with **real concurrency**: a persistent pool
/// of one OS thread per tile kernel, alive for the whole run, connected by
/// bounded crossbeam channels that play the role of the OpenCL pipes
/// (created once per directed kernel pair and reused across every region
/// and fused block).
///
/// This is the threaded driver of the one per-kernel pipe step that
/// [`run_pipe_shared_opts`](crate::run_pipe_shared_opts) drives
/// sequentially: each worker runs its kernel's step — refresh the halo
/// ring of its persistent local window, sweep each statement and send the
/// slabs the pipes carry, gathered from the swept window, splice the
/// neighbors' slabs as they arrive,
/// and write its tile back into the spare global buffer — while the main
/// thread runs the shared barrier loop, broadcasting one order per fused
/// block. Results must be identical to the sequential driver (and
/// therefore to the reference): the protocol only moves the same values
/// through channels instead of a buffer.
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
    let (_, result) = match &opts.trace {
        Some(rec) => pool_run(program, partition, state, opts, 0, limits, None, rec),
        None => pool_run(program, partition, state, opts, 0, limits, None, &Disabled),
    };
    result
}

/// One complete pool lifecycle: spawn, run every fused block through the
/// shared barrier loop, tear down.
///
/// `opts` supplies the watchdog policy, the fault plan, and the lane
/// width; `limits` is passed separately because the supervisor anchors it
/// once for all of its attempts. `block_base` offsets the fused-block
/// indices used as fault-injection triggers, so a supervised retry
/// continues the global block numbering instead of restarting it. `ckpt`
/// is the optional durable-checkpoint writer the barrier loop offers every
/// committed barrier to.
///
/// On failure the pool is cancelled via its internal [`CancelHandle`],
/// workers are joined (or, past `policy.teardown_grace`, abandoned and
/// counted in [`DriverRun::leaked`]), and `state` receives the grid as of
/// the **last consistent fused-block barrier** — the supervisor's
/// checkpoint — along with how many iterations that checkpoint represents.
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
    let token = CancelHandle::new();
    let live = Arc::new(AtomicUsize::new(0));
    let buffers = double_buffer(state);

    // One bounded channel per directed kernel pair, for the whole run.
    let mut outs: Vec<Vec<Option<Sender<Slab>>>> =
        (0..kernels).map(|_| vec![None; plan.pairs.len()]).collect();
    let mut ins: Vec<Vec<Option<Receiver<Slab>>>> =
        (0..kernels).map(|_| vec![None; plan.pairs.len()]).collect();
    for (p, &(from, to)) in plan.pairs.iter().enumerate() {
        let (tx, rx) = bounded::<Slab>(PIPE_CAPACITY);
        outs[from][p] = Some(tx);
        ins[to][p] = Some(rx);
    }

    let (done_tx, done_rx) = unbounded::<Done>();
    let mut cmd_txs = Vec::with_capacity(kernels);
    let mut handles = Vec::with_capacity(kernels);
    for (k, (k_outs, k_ins)) in outs.into_iter().zip(ins).enumerate() {
        let (cmd_tx, cmd_rx) = unbounded::<Block>();
        let ctx = WorkerCtx {
            kernel: k,
            plan: Arc::clone(&plan),
            buffers: buffers.clone(),
            outs: k_outs,
            ins: k_ins,
            token: token.clone(),
            faults: Arc::clone(&opts.faults),
            limits: limits.clone(),
            sink: sink.clone(),
        };
        let done_tx = done_tx.clone();
        let guard = WorkerGuard::register(&live);
        let spawned = thread::Builder::new()
            .name(format!("stencil-worker-{k}"))
            .spawn(move || {
                let _guard = guard;
                worker_loop(&ctx, &cmd_rx, &done_tx);
            });
        match spawned {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                let e = ExecError::config(format!("failed to spawn worker {k}: {e}"));
                return (DriverRun::default(), Err(e));
            }
        }
        cmd_txs.push(cmd_tx);
    }
    drop(done_tx);

    let (mut run, mut outcome) =
        run_barriers(&plan, &buffers, &limits, ckpt, block_base, sink, |block| {
            for tx in &cmd_txs {
                // A send can only fail if the worker already died; the
                // collector below classifies that as a panic or surfaces
                // its error.
                let _ = tx.send(block);
            }
            collect_block(&done_rx, kernels, policy.watchdog, policy.drain, |k| {
                handles[k].is_finished()
            })
        });

    drop(cmd_txs);
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
                run.leaked += 1;
            }
        }
    }
    *state = into_barrier(buffers, run.blocks);
    (run, outcome)
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
/// wall time spent blocked on a full pipe (the step counts the slab
/// itself). A deadline hit reports `completed: 0` — workers cannot know
/// the run's progress, so the barrier loop patches in the checkpoint count.
fn pipe_send<S: TraceSink>(
    tx: &Sender<Slab>,
    mut slab: Slab,
    token: &CancelHandle,
    limits: &RunLimits,
    sink: &S,
) -> Result<(), ExecError> {
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
/// counts the wall time spent blocked on an empty pipe. See [`pipe_send`]
/// for the `completed: 0` deadline convention.
fn pipe_recv<S: TraceSink>(
    rx: &Receiver<Slab>,
    token: &CancelHandle,
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
fn sleep_cancellable(token: &CancelHandle, total: Duration) {
    let deadline = Instant::now() + total;
    while !token.is_cancelled() {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            return;
        };
        thread::sleep(left.min(TICK));
    }
}

/// Body of one pool worker: serve [`Block`] orders with this kernel's
/// [`KernelStep`] until the command channel closes. The first error is
/// reported on the done channel and ends the worker; dropping its pipe
/// endpoints unblocks any partners waiting on it. Every
/// potentially-blocking operation observes the pool's cancellation token,
/// so a teardown is never blocked on this thread. Injected faults fire
/// here, and only here.
fn worker_loop<S: TraceSink>(ctx: &WorkerCtx<S>, cmd_rx: &Receiver<Block>, done_tx: &Sender<Done>) {
    let kernel = ctx.kernel;
    let mut step = KernelStep::new(&ctx.plan, kernel, ctx.limits.integrity, &ctx.sink);
    // Idle accounting: from spawn until the first command this worker is in
    // its Launch phase; between a block's done-report and the next command
    // it sits at the fused-block Barrier. Flushed as a span at the moment
    // each command arrives (same thread, so spans stay sequential).
    let mut idle_since = S::ACTIVE.then(|| (ctx.sink.now(), TracePhase::Launch));
    while let Ok(block) = cmd_rx.recv() {
        if let Some((t0, phase)) = idle_since.take() {
            ctx.sink.span(kernel, 0, phase, t0, ctx.sink.now());
        }
        let (mut corrupt_step, mut corrupt_payload) = (false, false);
        match ctx.faults.fire(kernel, block.index) {
            None => {}
            Some(FaultKind::WorkerPanic) => {
                panic!(
                    "injected worker panic (kernel {kernel}, block {})",
                    block.index
                )
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
            Some(FaultKind::CorruptStepTag) => corrupt_step = true,
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
        let result = run_pass(ctx, &mut step, block, corrupt_step, corrupt_payload);
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

/// One worker's share of one fused block, across all of its regions: the
/// step's operations, with slabs moved over this kernel's pipes. The
/// injected corruptions are applied after the step sealed the slab.
fn run_pass<S: TraceSink>(
    ctx: &WorkerCtx<S>,
    step: &mut KernelStep<'_, S>,
    block: Block,
    corrupt_step: bool,
    corrupt_payload: bool,
) -> Result<(), ExecError> {
    let (kernel, sink, plan) = (ctx.kernel, &ctx.sink, &ctx.plan);
    let depth = &plan.depths[block.depth];
    let cur = ctx.buffers[block.src]
        .read()
        .unwrap_or_else(PoisonError::into_inner);
    for r in 0..plan.regions.len() {
        step.load(r, &cur)?;
        let ins = &depth.routes[r][kernel].ins;
        for i in 1..=depth.h {
            for s in 0..plan.stmts {
                let at = (block.step_base + i, s);
                // Produce first, so downstream kernels are fed before this
                // kernel turns to its interior...
                step.compute(depth, r, i, at, |link, mut slab| {
                    if corrupt_step {
                        slab = slab.corrupt_step();
                    }
                    // With integrity on the receiver's recompute catches a
                    // flipped payload bit; with it off this is exactly the
                    // silent corruption the checksums exist to stop.
                    if corrupt_payload {
                        slab = slab.corrupt_payload();
                    }
                    let tx = ctx.outs[link.pair].as_ref().expect("own pipe endpoint");
                    pipe_send(tx, slab, &ctx.token, &ctx.limits, sink)
                })?;
                // ...then consume the upstream slabs in plan edge order.
                let wait_t0 = sink.now();
                for link in ins {
                    let rx = ctx.ins[link.pair].as_ref().expect("own pipe endpoint");
                    let slab = pipe_recv(rx, &ctx.token, &ctx.limits, sink)?;
                    step.splice(r, link, slab, at)?;
                }
                if S::ACTIVE && !ins.is_empty() {
                    let phase = TracePhase::PipeWait { iteration: at.0 };
                    sink.span(kernel, r, phase, wait_t0, sink.now());
                }
            }
        }
        step.store(r, &ctx.buffers[1 - block.src])?;
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
    }
}
