//! Run-as-submitted-job seam: a persistent pool of job-runner threads the
//! service scheduler owns, plus the external control surface a long-running
//! daemon needs — cooperative cancellation ([`CancelHandle`]) and
//! barrier-granularity progress callbacks ([`Progress`]).
//!
//! Every `run_*` entry point in this crate blocks its caller and tears its
//! workers down when it returns; that is the right shape for a CLI run and
//! the wrong one for a multi-tenant service. [`ExecPool`] inverts the
//! ownership: the pool's runner threads are spawned once, live for the
//! daemon's lifetime, and jobs *enter the supervisor through them* — a
//! submission is one channel send, never a thread spawn. Admission control
//! (queue bounds, tenant quotas) stays with the caller; the pool only
//! bounds *concurrency* to its worker count, running excess submissions in
//! strict FIFO order as runners free up.
//!
//! Cancellation and progress ride inside [`ExecOptions`]
//! ([`ExecOptions::cancel`](crate::ExecOptions), `ExecOptions::progress`)
//! and are observed by every executor at the same cooperative points as the
//! wall-clock deadline: fused-block barriers and the blocking pipe tick. A
//! fired [`CancelHandle`] surfaces as the *permanent*
//! [`ExecError::JobCancelled`] — the supervisor stops at the last
//! consistent barrier (keeping an armed checkpoint store resumable)
//! instead of burning retries on work nobody wants anymore.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use stencilcl_grid::Partition;
use stencilcl_lang::{GridState, Program};

use crate::faults::FaultKind;
use crate::options::ExecOptions;
use crate::supervise::{dispatch, RecoveryPath, ResumeBase, RunReport};
use crate::ExecError;

/// External cooperative cancellation of one run. Clone freely: every clone
/// observes the same flag. Checked by the executors at fused-block
/// barriers and inside the blocking pipe tick, so a cancelled run drains
/// within one tick and returns [`ExecError::JobCancelled`] with the grid
/// at its last consistent barrier.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle(Arc<AtomicBool>);

impl CancelHandle {
    /// A fresh, un-fired handle.
    pub fn new() -> CancelHandle {
        CancelHandle::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Barrier-granularity progress callback: invoked with the number of
/// iterations fully completed and committed each time a fused-block
/// barrier lands. Called from the run's coordinating thread (never from
/// pipe workers), so implementations may take locks — but they sit on the
/// barrier path and should stay cheap.
#[derive(Clone)]
pub struct Progress(Arc<dyn Fn(u64) + Send + Sync>);

impl Progress {
    /// Wraps a callback.
    pub fn new(f: impl Fn(u64) + Send + Sync + 'static) -> Progress {
        Progress(Arc::new(f))
    }

    /// Invokes the callback with the committed iteration count.
    pub fn notify(&self, completed: u64) {
        (self.0)(completed);
    }
}

impl fmt::Debug for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Progress(..)")
    }
}

/// One submitted run: everything a pool runner needs, owned.
#[derive(Debug)]
pub struct JobSpec {
    /// The stencil program to run to its own iteration count.
    pub program: Program,
    /// The partition the pipe executors run over.
    pub partition: Partition,
    /// Initial grid state; the outcome returns it advanced.
    pub state: GridState,
    /// Per-job options — policy (deadline!), cancel handle,
    /// progress hook, per-job trace recorder, checkpoint policy.
    pub opts: ExecOptions,
    /// When set, the runner first tries to resume from the newest sealed
    /// checkpoint generation in this directory (replacing `state` with the
    /// restored grids); when nothing there is resumable — the previous
    /// incarnation died before its first sealed barrier — it falls back to
    /// running `state` fresh. The crash-only re-enqueue seam: a recovered
    /// job and a first-time job enter the pool through the same door.
    pub resume_dir: Option<PathBuf>,
}

/// What a runner does right before starting a job: notify the submitter
/// (schedulers move the job queued → running here).
type OnStart = Box<dyn FnOnce() + Send>;

/// What one pooled job produced: the final (or last-barrier) grid state,
/// the supervisor's attempt history, and the run outcome.
#[derive(Debug)]
pub struct JobOutcome {
    /// Grid state after the run — final on success, the last consistent
    /// barrier on failure or cancellation.
    pub state: GridState,
    /// Attempt history and recovery path.
    pub report: RunReport,
    /// `Ok(())` or the fault that ended the run.
    pub result: Result<(), ExecError>,
}

/// What a runner does after finishing a job: deliver the outcome.
type OnDone = Box<dyn FnOnce(JobOutcome) + Send>;

struct PoolJob {
    spec: Box<JobSpec>,
    on_start: Option<OnStart>,
    on_done: OnDone,
    /// Times this job was requeued after its runner died with an escaped
    /// panic. Past the pool's requeue limit the job fails instead.
    requeues: u32,
}

/// Everything a runner thread needs to run jobs, requeue a panic's victim,
/// and respawn a replacement for itself — shared by the pool and every
/// runner (original or respawned).
#[derive(Clone)]
struct RunnerCtx {
    rx: Receiver<PoolJob>,
    /// The pool's long-lived sender, used transiently by panic recovery to
    /// requeue the victim job. Taken (set to `None`) at drain so blocked
    /// `recv()`s observe channel closure — runners themselves never hold a
    /// persistent `Sender`.
    tx: Arc<Mutex<Option<Sender<PoolJob>>>>,
    busy: Arc<AtomicUsize>,
    respawned: Arc<AtomicUsize>,
    runners: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Name sequence for respawned runner threads.
    seq: Arc<AtomicUsize>,
    max_requeues: u32,
}

impl RunnerCtx {
    /// Spawns a replacement runner thread (the current one is dying with an
    /// escaped panic) and registers its handle for drain-time joining.
    fn respawn(&self) {
        let ctx = self.clone();
        let i = self.seq.fetch_add(1, Ordering::SeqCst);
        // Count before the spawn: the replacement may run, die, and deliver
        // an outcome before this dying thread resumes, and anyone that
        // delivery wakes must already observe this respawn.
        self.respawned.fetch_add(1, Ordering::SeqCst);
        match thread::Builder::new()
            .name(format!("stencil-job-runner-r{i}"))
            .spawn(move || runner_loop(&ctx))
        {
            Ok(h) => {
                self.runners
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(h);
            }
            Err(e) => {
                self.respawned.fetch_sub(1, Ordering::SeqCst);
                eprintln!("[stencilcl] failed to respawn job runner: {e}");
            }
        }
    }
}

/// A persistent pool of job-runner threads that multiplexes submitted
/// stencil runs over a fixed concurrency budget. Submission is one
/// unbounded channel send — strict FIFO, no per-job thread or pool
/// construction — and each runner drives the full supervision ladder
/// ([`run_supervised_full`](crate::run_supervised_full)) for one job at a
/// time.
///
/// Runners are themselves supervised: a runner that dies with an escaped
/// panic mid-job is detected on its own unwind path, a replacement thread
/// is spawned to keep the concurrency budget whole, and the victim job is
/// requeued — up to [`ExecPool::with_requeue_limit`]'s bound, after which
/// the job's outcome seals as [`ExecError::WorkerPanic`] instead of being
/// silently lost.
///
/// Dropping the pool (or calling [`ExecPool::shutdown`]) closes the
/// submission channel and joins every runner; jobs already submitted still
/// run to completion first. A daemon draining *faster* than that cancels
/// in-flight jobs through their [`CancelHandle`]s before shutting down.
pub struct ExecPool {
    ctx: RunnerCtx,
    workers: usize,
}

impl fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecPool")
            .field("runners", &self.workers)
            .field("busy", &self.ctx.busy.load(Ordering::SeqCst))
            .field("respawned", &self.ctx.respawned.load(Ordering::SeqCst))
            .finish()
    }
}

impl ExecPool {
    /// Spawns `workers` (≥ 1, clamped) persistent runner threads with the
    /// default panic-requeue budget of 2 per job.
    pub fn new(workers: usize) -> ExecPool {
        ExecPool::with_requeue_limit(workers, 2)
    }

    /// [`ExecPool::new`] with an explicit bound on how many times one job
    /// may be requeued after killing its runner with an escaped panic.
    pub fn with_requeue_limit(workers: usize, max_requeues: u32) -> ExecPool {
        let workers = workers.max(1);
        let (tx, rx) = unbounded::<PoolJob>();
        let ctx = RunnerCtx {
            rx,
            tx: Arc::new(Mutex::new(Some(tx))),
            busy: Arc::new(AtomicUsize::new(0)),
            respawned: Arc::new(AtomicUsize::new(0)),
            runners: Arc::new(Mutex::new(Vec::with_capacity(workers))),
            seq: Arc::new(AtomicUsize::new(0)),
            max_requeues,
        };
        {
            let mut runners = ctx.runners.lock().unwrap_or_else(PoisonError::into_inner);
            for i in 0..workers {
                let ctx = ctx.clone();
                runners.push(
                    thread::Builder::new()
                        .name(format!("stencil-job-runner-{i}"))
                        .spawn(move || runner_loop(&ctx))
                        .expect("spawn job runner"),
                );
            }
        }
        ExecPool { ctx, workers }
    }

    /// A pool sized to the host's available parallelism.
    pub fn with_host_parallelism() -> ExecPool {
        let n = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ExecPool::new(n)
    }

    /// Number of runner threads (the concurrency budget).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runners currently executing a job.
    pub fn busy(&self) -> usize {
        self.ctx.busy.load(Ordering::SeqCst)
    }

    /// Runner threads respawned after dying with an escaped panic.
    pub fn respawned(&self) -> usize {
        self.ctx.respawned.load(Ordering::SeqCst)
    }

    /// Submits a job; `on_done` runs on the runner thread right after the
    /// supervisor returns. Never blocks — excess submissions queue in FIFO
    /// order until a runner frees up.
    pub fn submit(&self, spec: JobSpec, on_done: impl FnOnce(JobOutcome) + Send + 'static) {
        self.enqueue(spec, None, Box::new(on_done));
    }

    /// [`ExecPool::submit`] with an additional `on_start` callback, run on
    /// the runner thread immediately before the supervisor is entered —
    /// the seam a scheduler uses to move a job from queued to running.
    pub fn submit_with_start(
        &self,
        spec: JobSpec,
        on_start: impl FnOnce() + Send + 'static,
        on_done: impl FnOnce(JobOutcome) + Send + 'static,
    ) {
        self.enqueue(spec, Some(Box::new(on_start)), Box::new(on_done));
    }

    fn enqueue(&self, spec: JobSpec, on_start: Option<OnStart>, on_done: OnDone) {
        let tx = self.ctx.tx.lock().unwrap_or_else(PoisonError::into_inner);
        let tx = tx.as_ref().expect("pool already shut down");
        // A send can only fail if every runner died, which only happens
        // after shutdown took `tx`; treat it as a bug loudly.
        assert!(
            tx.send(PoolJob {
                spec: Box::new(spec),
                on_start,
                on_done,
                requeues: 0,
            })
            .is_ok(),
            "job pool runners gone"
        );
    }

    /// [`ExecPool::submit`] returning a [`JobWaiter`] instead of taking a
    /// callback — the convenient shape for tests and benches.
    pub fn submit_waiter(&self, spec: JobSpec) -> JobWaiter {
        let (tx, rx) = unbounded();
        self.submit(spec, move |outcome| {
            let _ = tx.send(outcome);
        });
        JobWaiter(rx)
    }

    /// Closes the submission channel and joins every runner after the jobs
    /// already queued have finished.
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        drop(
            self.ctx
                .tx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        let me = thread::current().id();
        // Joined runners may respawn replacements on their way down (a
        // panic guard runs before the thread exits), so loop until the
        // handle list stays empty.
        loop {
            let handles = std::mem::take(
                &mut *self
                    .ctx
                    .runners
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            if handles.is_empty() {
                break;
            }
            for h in handles {
                // A runner can end up dropping the pool itself (e.g. its
                // job callback held the last reference to the pool's
                // owner); a thread cannot join itself, so that runner is
                // detached — it exits on its own once the closed channel
                // drains.
                if h.thread().id() != me {
                    let _ = h.join();
                }
            }
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

/// Blocks on one pooled job's outcome.
#[derive(Debug)]
pub struct JobWaiter(Receiver<JobOutcome>);

impl JobWaiter {
    /// Waits for the job to finish.
    ///
    /// # Panics
    ///
    /// Panics if the pool shut down without running the job (cannot happen
    /// while the pool that issued this waiter is alive).
    pub fn wait(self) -> JobOutcome {
        self.0.recv().expect("job pool dropped the job")
    }

    /// Waits up to `timeout`; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        self.0.recv_timeout(timeout).ok()
    }
}

fn runner_loop(ctx: &RunnerCtx) {
    while let Ok(job) = ctx.rx.recv() {
        ctx.busy.fetch_add(1, Ordering::SeqCst);
        let mut guard = RunGuard {
            job: Some(job),
            ctx: ctx.clone(),
        };
        run_one(&mut guard);
        ctx.busy.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one pooled job to its outcome. Called under a [`RunGuard`]: if
/// anything in here panics, the guard's `Drop` requeues (or seals) the job
/// and respawns a replacement runner.
fn run_one(guard: &mut RunGuard) {
    {
        let job = guard.job.as_mut().expect("guard holds the job");
        if let Some(f) = job.on_start.take() {
            f();
        }
        match job.spec.opts.faults.fire_job() {
            Some(FaultKind::RunnerPanicAtJob) => {
                panic!("injected fault: runner panic at job pickup")
            }
            Some(FaultKind::StallJob(ms)) => stall(&job.spec.opts, ms),
            _ => {}
        }
    }
    let (report, result) = {
        let job = guard.job.as_mut().expect("guard holds the job");
        execute(&mut job.spec)
    };
    // Past this point the job is settled: disarm the guard so a panic
    // inside `on_done` cannot re-run a finished job.
    let job = guard.job.take().expect("guard holds the job");
    let JobSpec { state, .. } = *job.spec;
    let _ = catch_unwind(AssertUnwindSafe(move || {
        (job.on_done)(JobOutcome {
            state,
            report,
            result,
        });
    }));
}

/// Dispatches one job through the supervisor — resume-first when the spec
/// carries a `resume_dir`, falling back to a fresh run when nothing there
/// is resumable yet.
fn execute(spec: &mut JobSpec) -> (RunReport, Result<(), ExecError>) {
    if let Some(dir) = spec.resume_dir.clone() {
        match crate::resume_supervised_full(&spec.program, &spec.partition, &dir, &spec.opts) {
            Ok((state, report, result)) => {
                spec.state = state;
                return (report, result);
            }
            Err(e) => {
                eprintln!("[stencilcl] job resume fell back to a fresh run: {e}");
            }
        }
    }
    dispatch(
        &spec.program,
        &spec.partition,
        &mut spec.state,
        &spec.opts,
        ResumeBase::default(),
    )
}

/// The injected [`FaultKind::StallJob`] body: go silent (no progress
/// callbacks, no barriers) for `ms`, but stay responsive to the job's
/// cancel handle so a watchdog-fired cancellation still lands promptly.
fn stall(opts: &ExecOptions, ms: u64) {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if opts.cancel.as_ref().is_some_and(CancelHandle::is_cancelled) {
            return;
        }
        thread::sleep(Duration::from_millis(2));
    }
}

/// Panic containment for one in-flight job. While armed (holding the job),
/// an unwind through the runner requeues the job — bounded by the pool's
/// requeue limit, past which the outcome seals as
/// [`ExecError::WorkerPanic`] — and respawns a replacement runner thread so
/// the concurrency budget survives the loss.
struct RunGuard {
    job: Option<PoolJob>,
    ctx: RunnerCtx,
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        let Some(mut job) = self.job.take() else {
            return;
        };
        if !thread::panicking() {
            return;
        }
        // The runner_loop's matching fetch_sub never runs on this thread
        // again — the unwind is killing it — so settle the count here.
        self.ctx.busy.fetch_sub(1, Ordering::SeqCst);
        job.requeues += 1;
        if job.requeues <= self.ctx.max_requeues {
            // Requeue through a transient clone of the pool's sender —
            // runners never hold one persistently, so a drained pool's
            // channel still closes. A `None` here means the pool is
            // draining: nothing will pick the job up, so seal it below.
            let tx = self
                .ctx
                .tx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            if let Some(tx) = tx {
                match tx.send(job) {
                    Ok(()) => {
                        self.ctx.respawn();
                        return;
                    }
                    Err(back) => job = back.0,
                }
            }
        }
        // Respawn before delivering the outcome: anyone the delivery wakes
        // must already observe the replaced runner.
        self.ctx.respawn();
        let PoolJob { spec, on_done, .. } = job;
        let JobSpec { state, .. } = *spec;
        let outcome = JobOutcome {
            state,
            report: RunReport {
                attempts: Vec::new(),
                path: RecoveryPath::Threaded,
            },
            result: Err(ExecError::WorkerPanic { kernel: 0 }),
        };
        let _ = catch_unwind(AssertUnwindSafe(move || on_done(outcome)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_supervised_full;
    use stencilcl_grid::{Design, DesignKind, Extent, Point};
    use stencilcl_lang::{programs, StencilFeatures};

    fn spec(iterations: u64) -> (Program, Partition) {
        let program = programs::jacobi_2d()
            .with_extent(Extent::new2(24, 24))
            .with_iterations(iterations);
        let features = StencilFeatures::extract(&program).unwrap();
        let design = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![6, 6]).unwrap();
        let partition = Partition::new(features.extent, &design, &features.growth).unwrap();
        (program, partition)
    }

    fn init(name: &str, p: &Point) -> f64 {
        let mut v = name.len() as f64;
        for d in 0..p.dim() {
            v = v * 31.0 + p.coord(d) as f64;
        }
        (v * 0.001).sin()
    }

    #[test]
    fn pooled_jobs_match_the_direct_supervisor_bit_exactly() {
        let (program, partition) = spec(6);
        let mut oracle = GridState::new(&program, init);
        let (_, result) =
            run_supervised_full(&program, &partition, &mut oracle, &ExecOptions::default());
        result.unwrap();

        let pool = ExecPool::new(2);
        let waiters: Vec<JobWaiter> = (0..4)
            .map(|_| {
                pool.submit_waiter(JobSpec {
                    program: program.clone(),
                    partition: partition.clone(),
                    state: GridState::new(&program, init),
                    opts: ExecOptions::default(),
                    resume_dir: None,
                })
            })
            .collect();
        for w in waiters {
            let out = w.wait();
            out.result.unwrap();
            assert_eq!(out.state.digest(), oracle.digest());
        }
        pool.shutdown();
    }

    #[test]
    fn cancel_handle_aborts_promptly_with_the_permanent_error() {
        let (program, partition) = spec(100_000);
        let cancel = CancelHandle::new();
        let observer = cancel.clone();
        let teardown = CancelHandle::new();
        assert!(!observer.is_cancelled());
        let progressed = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&progressed);
        let opts = ExecOptions::default()
            .cancel(cancel.clone())
            .progress(Progress::new(move |done| {
                seen.store(done as usize, Ordering::SeqCst);
            }));

        let pool = ExecPool::new(1);
        let waiter = pool.submit_waiter(JobSpec {
            program,
            partition,
            state: GridState::new(
                &programs::jacobi_2d().with_extent(Extent::new2(24, 24)),
                init,
            ),
            opts,
            resume_dir: None,
        });
        // Let at least one barrier land, then cancel.
        while progressed.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        cancel.cancel();
        let out = waiter.wait();
        match out.result {
            Err(ExecError::JobCancelled { completed }) => {
                assert!(completed < 100_000, "cancel landed before the end");
            }
            other => panic!("expected JobCancelled, got {other:?}"),
        }
        // Every clone observes the one flag; a separate handle — like a
        // pool's internal teardown token — does not, which keeps `Cancelled`
        // and `JobCancelled` distinct.
        assert!(observer.is_cancelled());
        assert!(!teardown.is_cancelled());
        pool.shutdown();
    }

    #[test]
    fn drop_joins_all_runners() {
        let pool = ExecPool::new(3);
        assert_eq!(pool.workers(), 3);
        // Every runner owns a clone of the shared context until it exits,
        // so once the drop has joined them all the probe is the last owner.
        // (The process-wide `live_workers` gauge is no witness here: runners
        // do not register in it, and concurrent tests move it.)
        let probe = Arc::clone(&pool.ctx.busy);
        drop(pool);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[cfg(feature = "fault-injection")]
    mod chaos {
        use super::*;
        use crate::faults::{FaultKind, FaultPlan};

        #[test]
        fn runner_panic_respawns_and_the_job_still_completes_bit_exact() {
            let (program, partition) = spec(6);
            let mut oracle = GridState::new(&program, init);
            let (_, result) =
                run_supervised_full(&program, &partition, &mut oracle, &ExecOptions::default());
            result.unwrap();

            let plan = FaultPlan::new().inject_job(FaultKind::RunnerPanicAtJob);
            let pool = ExecPool::new(1);
            let waiter = pool.submit_waiter(JobSpec {
                program,
                partition,
                state: GridState::new(
                    &programs::jacobi_2d().with_extent(Extent::new2(24, 24)),
                    init,
                ),
                opts: ExecOptions::default().faults(Arc::new(plan)),
                resume_dir: None,
            });
            let out = waiter.wait();
            out.result.unwrap();
            assert_eq!(out.state.digest(), oracle.digest());
            assert_eq!(pool.respawned(), 1, "one replacement runner spawned");
            pool.shutdown();
        }

        #[test]
        fn requeue_budget_exhaustion_seals_the_job_as_worker_panic() {
            let (program, partition) = spec(6);
            let plan = FaultPlan::new()
                .inject_job(FaultKind::RunnerPanicAtJob)
                .inject_job(FaultKind::RunnerPanicAtJob);
            // Budget of one requeue: the first panic requeues, the second
            // (the injected schedule re-fires on pickup) exhausts it.
            let pool = ExecPool::with_requeue_limit(1, 1);
            let waiter = pool.submit_waiter(JobSpec {
                program,
                partition,
                state: GridState::new(
                    &programs::jacobi_2d().with_extent(Extent::new2(24, 24)),
                    init,
                ),
                opts: ExecOptions::default().faults(Arc::new(plan)),
                resume_dir: None,
            });
            let out = waiter.wait();
            match out.result {
                Err(ExecError::WorkerPanic { .. }) => {}
                other => panic!("expected WorkerPanic after budget exhaustion, got {other:?}"),
            }
            assert_eq!(pool.respawned(), 2, "both dead runners were replaced");
            pool.shutdown();
        }

        #[test]
        fn stalled_job_stays_responsive_to_cancellation() {
            let (program, partition) = spec(100_000);
            let plan = FaultPlan::new().inject_job(FaultKind::StallJob(60_000));
            let cancel = CancelHandle::new();
            let pool = ExecPool::new(1);
            let waiter = pool.submit_waiter(JobSpec {
                program,
                partition,
                state: GridState::new(
                    &programs::jacobi_2d().with_extent(Extent::new2(24, 24)),
                    init,
                ),
                opts: ExecOptions::default()
                    .cancel(cancel.clone())
                    .faults(Arc::new(plan)),
                resume_dir: None,
            });
            // The stall fires before the first barrier; cancel must cut
            // through it long before the 60 s stall elapses.
            thread::sleep(Duration::from_millis(20));
            cancel.cancel();
            let out = waiter
                .wait_timeout(Duration::from_secs(10))
                .expect("cancel cut through the injected stall");
            match out.result {
                Err(ExecError::JobCancelled { .. }) => {}
                other => panic!("expected JobCancelled, got {other:?}"),
            }
            pool.shutdown();
        }
    }
}
