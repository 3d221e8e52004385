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
use std::sync::Arc;
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
    on_start: OnStart,
    on_done: OnDone,
}

/// A persistent pool of job-runner threads that multiplexes submitted
/// stencil runs over a fixed concurrency budget. Submission is one
/// unbounded channel send — strict FIFO, no per-job thread or pool
/// construction — and each runner drives the full supervision ladder
/// ([`run_supervised_full`](crate::run_supervised_full)) for one job at a
/// time.
///
/// A job that panics anywhere on its runner thread settles as an ordinary
/// outcome, [`ExecError::WorkerPanic`] with an empty attempt history, and
/// the same runner takes the next job. The pool never re-runs a job: the
/// submitter decides, and a scheduler re-admits it through the same door
/// as any other resume.
///
/// Dropping the pool (or calling [`ExecPool::shutdown`]) closes the
/// submission channel and joins every runner; jobs already submitted still
/// run to completion first. A daemon draining *faster* than that cancels
/// in-flight jobs through their [`CancelHandle`]s before shutting down.
pub struct ExecPool {
    /// Taken at drain so blocked `recv()`s observe channel closure.
    tx: Option<Sender<PoolJob>>,
    busy: Arc<AtomicUsize>,
    runners: Vec<JoinHandle<()>>,
}

impl fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecPool")
            .field("runners", &self.runners.len())
            .field("busy", &self.busy())
            .finish()
    }
}

impl ExecPool {
    /// Spawns `workers` (≥ 1, clamped) persistent runner threads.
    pub fn new(workers: usize) -> ExecPool {
        let (tx, rx) = unbounded::<PoolJob>();
        let busy = Arc::new(AtomicUsize::new(0));
        let runners = (0..workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let busy = Arc::clone(&busy);
                thread::Builder::new()
                    .name(format!("stencil-job-runner-{i}"))
                    .spawn(move || runner_loop(&rx, &busy))
                    .expect("spawn job runner")
            })
            .collect();
        ExecPool {
            tx: Some(tx),
            busy,
            runners,
        }
    }

    /// Number of runner threads (the concurrency budget).
    pub fn workers(&self) -> usize {
        self.runners.len()
    }

    /// Runners currently executing a job.
    pub fn busy(&self) -> usize {
        self.busy.load(Ordering::SeqCst)
    }

    /// Submits a job. `on_start` runs on the runner thread immediately
    /// before the supervisor is entered — the seam a scheduler uses to move
    /// a job from queued to running — and `on_done` right after the job
    /// settles. Never blocks: excess submissions queue in FIFO order until
    /// a runner frees up.
    pub fn submit(
        &self,
        spec: JobSpec,
        on_start: impl FnOnce() + Send + 'static,
        on_done: impl FnOnce(JobOutcome) + Send + 'static,
    ) {
        let tx = self.tx.as_ref().expect("pool already shut down");
        // Runners outlive the sender and never exit while it is open, so a
        // failed send is a bug; say so loudly.
        assert!(
            tx.send(PoolJob {
                spec: Box::new(spec),
                on_start: Box::new(on_start),
                on_done: Box::new(on_done),
            })
            .is_ok(),
            "job pool runners gone"
        );
    }

    /// Closes the submission channel and joins every runner after the jobs
    /// already queued have finished.
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        drop(self.tx.take());
        let me = thread::current().id();
        for h in self.runners.drain(..) {
            // A runner can end up dropping the pool itself (e.g. its job
            // callback held the last reference to the pool's owner); a
            // thread cannot join itself, so that runner is detached — it
            // exits on its own once the closed channel drains.
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

fn runner_loop(rx: &Receiver<PoolJob>, busy: &AtomicUsize) {
    while let Ok(PoolJob {
        mut spec,
        on_start,
        on_done,
    }) = rx.recv()
    {
        busy.fetch_add(1, Ordering::SeqCst);
        // A panic anywhere in the job — injected at pickup, or escaping the
        // supervisor — settles it as a lost runner; the thread lives on.
        let (report, result) = catch_unwind(AssertUnwindSafe(|| {
            on_start();
            run_one(&mut spec)
        }))
        .unwrap_or_else(|_| {
            let report = RunReport {
                attempts: Vec::new(),
                path: RecoveryPath::Threaded,
            };
            (report, Err(ExecError::WorkerPanic { kernel: 0 }))
        });
        let JobSpec { state, .. } = *spec;
        let _ = catch_unwind(AssertUnwindSafe(move || {
            on_done(JobOutcome {
                state,
                report,
                result,
            });
        }));
        busy.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one pooled job to its outcome: the job-level fault hook, then the
/// supervisor.
fn run_one(spec: &mut JobSpec) -> (RunReport, Result<(), ExecError>) {
    match spec.opts.faults.fire_job() {
        Some(FaultKind::RunnerPanicAtJob) => {
            panic!("injected fault: runner panic at job pickup")
        }
        Some(FaultKind::StallJob(ms)) => stall(&spec.opts, ms),
        _ => {}
    }
    execute(spec)
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

    /// A fresh 24² Jacobi job with `iterations` and `opts`.
    fn job(iterations: u64, opts: ExecOptions) -> JobSpec {
        let (program, partition) = spec(iterations);
        JobSpec {
            state: GridState::new(&program, init),
            program,
            partition,
            opts,
            resume_dir: None,
        }
    }

    /// The direct supervisor's digest for [`job`]`(iterations, default)`.
    fn oracle_digest(iterations: u64) -> u64 {
        let (program, partition) = spec(iterations);
        let mut oracle = GridState::new(&program, init);
        let (_, result) =
            run_supervised_full(&program, &partition, &mut oracle, &ExecOptions::default());
        result.unwrap();
        oracle.digest()
    }

    /// Submits `spec` and hands back a channel that yields its outcome.
    fn submit_waiting(pool: &ExecPool, spec: JobSpec) -> Receiver<JobOutcome> {
        let (tx, rx) = unbounded();
        pool.submit(
            spec,
            || {},
            move |outcome| {
                let _ = tx.send(outcome);
            },
        );
        rx
    }

    #[test]
    fn pooled_jobs_match_the_direct_supervisor_bit_exactly() {
        let expected = oracle_digest(6);
        let pool = ExecPool::new(2);
        let waiters: Vec<Receiver<JobOutcome>> = (0..4)
            .map(|_| submit_waiting(&pool, job(6, ExecOptions::default())))
            .collect();
        for w in waiters {
            let out = w.recv().unwrap();
            out.result.unwrap();
            assert_eq!(out.state.digest(), expected);
        }
        pool.shutdown();
    }

    #[test]
    fn cancel_handle_aborts_promptly_with_the_permanent_error() {
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
        let waiter = submit_waiting(&pool, job(100_000, opts));
        // Let at least one barrier land, then cancel.
        while progressed.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        cancel.cancel();
        let out = waiter.recv().unwrap();
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
        // Every runner owns a clone of the busy gauge until it exits, so
        // once the drop has joined them all the probe is the last owner.
        // (The process-wide `live_workers` gauge is no witness here: runners
        // do not register in it, and concurrent tests move it.)
        let probe = Arc::clone(&pool.busy);
        drop(pool);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[cfg(feature = "fault-injection")]
    mod chaos {
        use super::*;
        use crate::faults::{FaultKind, FaultPlan};
        use std::sync::Mutex;

        #[test]
        fn a_panicking_job_settles_as_worker_panic_and_the_runner_serves_on() {
            let pool = ExecPool::new(1);
            let runners = Arc::new(Mutex::new(Vec::new()));
            let mut waiters = Vec::new();
            for opts in [
                ExecOptions::default().faults(Arc::new(
                    FaultPlan::new().inject_job(FaultKind::RunnerPanicAtJob),
                )),
                ExecOptions::default(),
            ] {
                let (tx, rx) = unbounded();
                let seen = Arc::clone(&runners);
                pool.submit(
                    job(6, opts),
                    move || seen.lock().unwrap().push(thread::current().id()),
                    move |outcome| {
                        let _ = tx.send(outcome);
                    },
                );
                waiters.push(rx);
            }
            let panicked = waiters[0].recv().unwrap();
            assert_eq!(panicked.result, Err(ExecError::WorkerPanic { kernel: 0 }));
            assert!(panicked.report.attempts.is_empty());
            let next = waiters[1].recv().unwrap();
            next.result.unwrap();
            assert_eq!(next.state.digest(), oracle_digest(6));
            let runners = runners.lock().unwrap().clone();
            assert_eq!(runners.len(), 2);
            assert_eq!(runners[0], runners[1], "the same runner took both jobs");
            pool.shutdown();
        }

        #[test]
        fn stalled_job_stays_responsive_to_cancellation() {
            let plan = FaultPlan::new().inject_job(FaultKind::StallJob(60_000));
            let cancel = CancelHandle::new();
            let pool = ExecPool::new(1);
            let opts = ExecOptions::default()
                .cancel(cancel.clone())
                .faults(Arc::new(plan));
            let waiter = submit_waiting(&pool, job(100_000, opts));
            // The stall fires before the first barrier; cancel must cut
            // through it long before the 60 s stall elapses.
            thread::sleep(Duration::from_millis(20));
            cancel.cancel();
            let out = waiter
                .recv_timeout(Duration::from_secs(10))
                .expect("cancel cut through the injected stall");
            match out.result {
                Err(ExecError::JobCancelled { .. }) => {}
                other => panic!("expected JobCancelled, got {other:?}"),
            }
            pool.shutdown();
        }
    }
}
