//! The shared scheduler: one persistent executor pool multiplexing every
//! submitted job.
//!
//! Pool ownership is the point. The [`Scheduler`] constructs one
//! [`ExecPool`] (sized to host parallelism by default) when the daemon
//! boots and keeps it for the daemon's lifetime; admitting a job is a
//! bounded-queue check, a tenant-quota check, and one channel send — the
//! admission path never constructs a pool, a thread, or a partition
//! worker. Excess submissions queue FIFO in the pool's channel and run as
//! runners free up.
//!
//! Admission control is two gates under one lock: a global bound on jobs
//! *waiting* for a runner (`max_queue`, the 429 `queue_full` path) and a
//! per-tenant bound on jobs in flight (`quota`, the 429 `quota_exceeded`
//! path). Rejections are structured — a client can tell "back off" from
//! "you are over budget".
//!
//! Configuration layering follows the CLI's rule: the process env
//! snapshot (`EnvConfig`, frozen at first read) supplies the defaults via
//! [`ExecOptions::from_config`], then per-request knobs overwrite their
//! fields. Checkpoint policy is the exception: it comes only from the
//! request or the journal's per-job assignment, never from the env. The snapshot is read once at scheduler construction, so two
//! concurrent jobs with different `deadline_ms`/`retries` each get their own
//! [`ExecOptions`] and never bleed configuration through process state.
//!
//! Graceful drain: [`Scheduler::drain`] stops admission, fires every live
//! job's cancel handle, and waits for the pool to seal outcomes.
//! Cancelled jobs stop at their last consistent fused-block barrier; jobs
//! with an armed checkpoint directory have that barrier sealed on disk
//! (the service defaults `every_barriers` to 1), so `stencilcl resume`
//! finishes them bit-exact after the daemon is gone.
//!
//! ## Crash-only operation
//!
//! With a `state_dir` configured the scheduler is **crash-only**: every
//! admission appends an fsynced [`Journal`] record *before* the job id is
//! returned, every job gets a durable checkpoint directory under
//! `state_dir/jobs/<id>` (sealing every barrier) unless the request armed
//! its own, and a rebooted scheduler replays the journal, re-admits every
//! job not journalled `done`, and resumes each from its newest sealed
//! generation — `kill -9` and graceful drain converge on the same recovery
//! path, and the client's job id keeps resolving across incarnations.
//!
//! A `stall_timeout` arms the **stuck-job watchdog**: a scheduler-side
//! monitor thread that compares each running job's last `Progress`
//! heartbeat against the timeout, cancels silent jobs through their cancel
//! handles, and re-admits them from their latest sealed checkpoint — up to
//! `max_auto_resumes` times, after which the job seals with the structured
//! [`ExecError::JobStalled`] error.
//!
//! A job whose runner panicked settles as [`ExecError::WorkerPanic`] (the
//! supervisor retries and degrades inner worker panics, so that error can
//! only mean a lost runner) and is re-admitted the same way, from its
//! newest sealed checkpoint, under the same budget; past it the job seals
//! with the `WorkerPanic` error. Either way the resume is journalled and
//! counted in the job's `restarts`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread;
use std::time::Duration;

use stencilcl_exec::{
    live_workers, CheckpointPolicy, ExecError, ExecOptions, ExecPool, FaultPlan, HealthPolicy,
    JobOutcome, JobSpec, Progress,
};
use stencilcl_grid::Partition;
use stencilcl_lang::{GridState, Program};
use stencilcl_telemetry::{Counter, EnvConfig, Recorder, TracePhase, TraceSink};

use crate::design::{default_init, plan};
use crate::jobs::{JobDone, JobRecord, TenantBook};
use crate::journal::{Journal, Replay, SettledJob};
use crate::protocol::{Healthz, JobPhase, Metrics, SubmitRequest};

/// Scheduler sizing, admission bounds, and crash-only durability knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Pool runner threads; `0` = host parallelism.
    pub workers: usize,
    /// Maximum jobs waiting for a runner (beyond those running). Admission
    /// past this bound is rejected with `queue_full`.
    pub max_queue: usize,
    /// Maximum jobs admitted and not yet terminal, per tenant. Admission
    /// past this bound is rejected with `quota_exceeded`.
    pub quota: u64,
    /// Durable state directory. When set, admissions journal to
    /// `<state_dir>/journal.jsonl` before returning, jobs without a
    /// requested `ckpt_dir` checkpoint into `<state_dir>/jobs/<id>`, and
    /// boot replays the journal to re-admit interrupted jobs. `None`
    /// (default) runs the scheduler memory-only.
    pub state_dir: Option<PathBuf>,
    /// Stuck-job watchdog: cancel and auto-resume any running job whose
    /// progress heartbeat has been silent this long. `None` (default)
    /// disarms the watchdog.
    pub stall_timeout: Option<Duration>,
    /// How many times one job may be auto-resumed — after a watchdog stall
    /// or a lost (panicked) runner, from its newest sealed checkpoint —
    /// before it seals with a structured error instead.
    pub max_auto_resumes: u32,
    /// Deterministic job-level fault schedule shared with every submitted
    /// job — the chaos seam the resilience tests arm. A zero-sized no-op
    /// without the `fault-injection` feature.
    pub faults: Arc<FaultPlan>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            workers: 0,
            max_queue: 64,
            quota: 8,
            state_dir: None,
            stall_timeout: None,
            max_auto_resumes: 2,
            faults: Arc::new(FaultPlan::new()),
        }
    }
}

/// Why admission refused a job, with the HTTP mapping the router uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// Unparseable source or inconsistent design (HTTP 400).
    BadRequest(String),
    /// The tenant's in-flight budget is spent (HTTP 429).
    QuotaExceeded {
        /// The tenant's current in-flight count.
        in_flight: u64,
    },
    /// The global admission queue is full (HTTP 429).
    QueueFull {
        /// Jobs currently waiting for a runner.
        queued: u64,
    },
    /// The daemon is draining; no new work (HTTP 503).
    Draining,
}

impl Reject {
    /// Stable machine-readable kind for the error body.
    pub fn kind(&self) -> &'static str {
        match self {
            Reject::BadRequest(_) => "bad_request",
            Reject::QuotaExceeded { .. } => "quota_exceeded",
            Reject::QueueFull { .. } => "queue_full",
            Reject::Draining => "draining",
        }
    }

    /// Human-readable diagnostic.
    pub fn message(&self) -> String {
        match self {
            Reject::BadRequest(msg) => msg.clone(),
            Reject::QuotaExceeded { in_flight } => {
                format!("tenant quota exhausted ({in_flight} jobs in flight)")
            }
            Reject::QueueFull { queued } => {
                format!("admission queue full ({queued} jobs waiting)")
            }
            Reject::Draining => "daemon is draining; no new jobs".to_string(),
        }
    }
}

/// Seal cadence for journal-assigned checkpoint stores: a bound on how
/// much completed work a crash can cost, amortized so short jobs pay
/// nothing beyond the admission journal append.
const ASSIGNED_CKPT_WALL: Duration = Duration::from_millis(250);

/// Queue-depth accounting mutated under the admission lock.
#[derive(Debug, Default)]
struct Depth {
    /// Jobs admitted and not yet picked up by a runner.
    queued: u64,
    /// Jobs a runner is currently executing.
    running: u64,
    /// High-water mark of `queued + running` already published to the
    /// `QueueDepth` counter (counters are additive, so only increases are
    /// recorded).
    peak: u64,
}

/// The multi-tenant job scheduler. One per daemon; shared with the HTTP
/// router via `Arc`.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    env: &'static EnvConfig,
    pool: ExecPool,
    jobs: Mutex<BTreeMap<String, Arc<JobRecord>>>,
    tenants: TenantBook,
    depth: Mutex<Depth>,
    next_id: AtomicU64,
    draining: AtomicBool,
    /// The durable job journal (`Some` iff `cfg.state_dir` is set).
    journal: Option<Journal>,
    /// Open jobs' original submit bodies, kept so an auto-resume can
    /// re-plan the run without touching disk. Removed when the job seals.
    requests: Mutex<BTreeMap<String, SubmitRequest>>,
    /// Jobs settled in a *previous* incarnation, replayed from the journal
    /// so their status/result queries keep answering instead of 404ing.
    settled: Mutex<BTreeMap<String, SettledJob>>,
    /// Daemon-wide recorder: admission counters, queue-depth high-water
    /// mark, and the JobQueued/JobStart/JobDone bookkeeping spans.
    recorder: Recorder,
}

impl Scheduler {
    /// Boots the scheduler: freezes the env snapshot, spawns the
    /// persistent pool of job runners (submission never adds a runner; a
    /// runner executing a pipe job runs it on `min(cores, kernels)` pipe
    /// workers for that job's lifetime, each driving a contiguous group of
    /// kernels — or, for a small job, on the runner thread itself), opens
    /// the journal
    /// and replays it to re-admit interrupted jobs, and arms the stuck-job
    /// watchdog.
    pub fn new(cfg: SchedulerConfig) -> Arc<Scheduler> {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            cfg.workers
        };
        let pool = ExecPool::new(workers);
        let journal = cfg.state_dir.as_deref().map(|dir| {
            Journal::open(dir)
                .unwrap_or_else(|e| panic!("cannot open job journal under {}: {e}", dir.display()))
        });
        let replay = cfg
            .state_dir
            .as_deref()
            .map(Journal::replay)
            .unwrap_or_default();
        let stall = cfg.stall_timeout;
        let sched = Arc::new(Scheduler {
            cfg,
            env: EnvConfig::get(),
            pool,
            jobs: Mutex::new(BTreeMap::new()),
            tenants: TenantBook::default(),
            depth: Mutex::new(Depth::default()),
            next_id: AtomicU64::new(replay.max_job_id + 1),
            draining: AtomicBool::new(false),
            journal,
            requests: Mutex::new(BTreeMap::new()),
            settled: Mutex::new(BTreeMap::new()),
            recorder: Recorder::new(),
        });
        sched.recover(replay);
        if let Some(stall) = stall {
            spawn_watchdog(&sched, stall);
        }
        sched
    }

    /// The admission bounds and sizing this scheduler runs with.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Admits and enqueues one job. The fast path is: validate, two gate
    /// checks under the admission lock, one channel send.
    ///
    /// # Errors
    ///
    /// A structured [`Reject`] for invalid requests, spent quotas, a full
    /// queue, or a draining daemon.
    pub fn submit(self: &Arc<Scheduler>, req: &SubmitRequest) -> Result<Arc<JobRecord>, Reject> {
        if self.draining.load(Ordering::SeqCst) {
            self.tenants.note_rejected(&req.tenant);
            self.recorder.add(Counter::JobsRejected, 1);
            return Err(Reject::Draining);
        }
        // Validation (parse + partition build) happens before any slot is
        // claimed, so a malformed request never consumes quota.
        let planned = plan(&req.source, &req.design).map_err(Reject::BadRequest)?;
        let mut opts = job_options(self.env, req).map_err(Reject::BadRequest)?;

        // Admission gates, both under the depth lock so depth accounting
        // and the queue bound cannot race.
        let record = {
            let mut depth = self.depth.lock().unwrap_or_else(PoisonError::into_inner);
            if let Err(in_flight) = self.tenants.try_admit(&req.tenant, self.cfg.quota) {
                self.recorder.add(Counter::JobsRejected, 1);
                return Err(Reject::QuotaExceeded { in_flight });
            }
            if depth.queued >= self.cfg.max_queue as u64 {
                // The tenant slot was claimed by `try_admit`; give it back.
                self.tenants.release(&req.tenant);
                self.tenants.note_rejected(&req.tenant);
                self.recorder.add(Counter::JobsRejected, 1);
                return Err(Reject::QueueFull {
                    queued: depth.queued,
                });
            }
            depth.queued += 1;
            let now_active = depth.queued + depth.running;
            if now_active > depth.peak {
                // Counters are additive; publish only the increase so the
                // snapshot reads as the high-water mark.
                self.recorder
                    .add(Counter::QueueDepth, now_active - depth.peak);
                depth.peak = now_active;
            }
            self.recorder.add(Counter::JobsAdmitted, 1);
            let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::SeqCst));
            // A journal-armed daemon gives every job a durable checkpoint
            // home so crash recovery always has a resume target; an
            // explicit request dir wins.
            let ckpt_dir = req
                .options
                .ckpt_dir
                .clone()
                .or_else(|| self.assigned_ckpt_dir(&id));
            Arc::new(JobRecord::new(
                id,
                req.tenant.clone(),
                planned.program.iterations,
                ckpt_dir,
            ))
        };
        self.arm_assigned_checkpoint(&mut opts, &record, &planned.spec);

        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(record.id.clone(), Arc::clone(&record));
        self.requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(record.id.clone(), req.clone());
        // The admission is durable before the id is handed out: a crash
        // after this point replays the job; a crash before it means the
        // client never saw an id.
        if let Some(j) = &self.journal {
            j.admitted(
                &record.id,
                req,
                record.ckpt_dir.as_deref().unwrap_or(""),
                planned.program.iterations,
            );
        }

        // The send is the whole dispatch: the job runs when a persistent
        // runner picks it up, in admission order.
        self.dispatch(&record, planned.program, planned.partition, opts, None);
        Ok(record)
    }

    /// The checkpoint directory a journal-armed daemon assigns to a job
    /// that did not bring its own.
    fn assigned_ckpt_dir(&self, id: &str) -> Option<String> {
        self.cfg
            .state_dir
            .as_ref()
            .map(|dir| dir.join("jobs").join(id).display().to_string())
    }

    /// Arms checkpointing into the record's directory when the request did
    /// not arm its own. Assigned stores seal on a *wall-clock* cadence
    /// rather than every barrier: jobs that finish inside one cadence tick
    /// pay only the admission journal append, while long jobs still leave
    /// a recent generation for crash recovery to resume from. Requested
    /// stores keep whatever cadence the client armed.
    fn arm_assigned_checkpoint(
        &self,
        opts: &mut ExecOptions,
        record: &JobRecord,
        spec: &stencilcl_exec::DesignSpec,
    ) {
        if !opts.checkpoint.enabled() {
            if let Some(dir) = &record.ckpt_dir {
                opts.checkpoint.dir = Some(dir.into());
                opts.checkpoint.every_barriers = u64::MAX;
                opts.checkpoint.every_wall = Some(ASSIGNED_CKPT_WALL);
                // The journal's `done` record is the durable completion;
                // a final generation would duplicate it at a seal's cost.
                opts.checkpoint.final_seal = false;
            }
        }
        if opts.checkpoint.enabled() {
            opts.checkpoint.design = Some(spec.clone());
        }
    }

    /// Wires one (re-)admitted job into the pool: cancel handle, progress
    /// heartbeat, shared fault schedule, and the completion callback that
    /// decides between sealing and auto-resuming.
    fn dispatch(
        self: &Arc<Scheduler>,
        record: &Arc<JobRecord>,
        program: Program,
        partition: Partition,
        mut opts: ExecOptions,
        resume_dir: Option<PathBuf>,
    ) {
        opts.cancel = Some(record.cancel_handle());
        let progress_record = Arc::clone(record);
        opts.progress = Some(Progress::new(move |done| {
            progress_record.note_progress(done);
        }));
        opts.faults = Arc::clone(&self.cfg.faults);
        let state = GridState::new(&program, default_init);
        // Callbacks hold the scheduler weakly: a runner thread must never
        // own the last `Arc<Scheduler>`, or dropping it would make the
        // pool's destructor join the very thread it runs on.
        let sched = Arc::downgrade(self);
        let done_record = Arc::clone(record);
        let spec = JobSpec {
            program,
            partition,
            state,
            opts,
            resume_dir,
        };
        self.pool.submit(
            spec,
            {
                let sched = Arc::downgrade(self);
                let rec = Arc::clone(record);
                move || {
                    if let Some(s) = sched.upgrade() {
                        s.on_start(&rec);
                    }
                }
            },
            move |outcome| match sched.upgrade() {
                Some(s) => s.complete(&done_record, outcome),
                None => {
                    let digest = outcome.state.digest();
                    done_record.finish(JobDone {
                        state: outcome.state,
                        digest,
                        report: outcome.report,
                        error: outcome.result.err(),
                    });
                }
            },
        );
    }

    /// Runner picked the job up: queued → running, with the queue-wait
    /// recorded as a `JobQueued` span.
    fn on_start(&self, record: &Arc<JobRecord>) {
        {
            let mut depth = self.depth.lock().unwrap_or_else(PoisonError::into_inner);
            depth.queued = depth.queued.saturating_sub(1);
            depth.running += 1;
        }
        let waited = record.mark_running();
        let now = self.recorder.now();
        let t0 = now.saturating_sub(waited.as_nanos() as u64);
        self.recorder.span(0, 0, TracePhase::JobQueued, t0, now);
        self.recorder
            .span(0, 0, TracePhase::JobStart, now, self.recorder.now());
    }

    /// The runner returned an outcome. Either the job seals (terminal
    /// phase, journal `done`/`interrupted`, quota released) or — when the
    /// watchdog cancelled it for silence, or its runner panicked, and
    /// budget remains — it is re-admitted from its latest sealed
    /// checkpoint.
    fn complete(self: &Arc<Scheduler>, record: &Arc<JobRecord>, outcome: JobOutcome) {
        {
            let mut depth = self.depth.lock().unwrap_or_else(PoisonError::into_inner);
            depth.running = depth.running.saturating_sub(1);
        }
        let stalled = record.take_stalled();
        let watchdog_cancel =
            stalled && matches!(outcome.result, Err(ExecError::JobCancelled { .. }));
        let lost_runner = matches!(outcome.result, Err(ExecError::WorkerPanic { .. }));
        if (watchdog_cancel || lost_runner) && !self.is_draining() {
            if record.restarts() < u64::from(self.cfg.max_auto_resumes) {
                if self.resume(record) {
                    return;
                }
            } else if watchdog_cancel {
                // Auto-resume budget spent: seal with the structured
                // stall error instead of a generic cancellation.
                let completed = record.completed();
                let resumes = u32::try_from(record.restarts()).unwrap_or(u32::MAX);
                self.seal(
                    record,
                    JobDone {
                        digest: outcome.state.digest(),
                        state: outcome.state,
                        report: outcome.report,
                        error: Some(ExecError::JobStalled { completed, resumes }),
                    },
                    JobPhase::Failed,
                );
                return;
            }
        }
        let is_cancel = matches!(outcome.result, Err(ExecError::JobCancelled { .. }));
        let phase = if outcome.result.is_ok() {
            JobPhase::Done
        } else if is_cancel && self.is_draining() {
            // Drain-cancelled with its checkpoint sealed: still owed work.
            // The journal keeps it open so a reboot re-admits it.
            JobPhase::Interrupted
        } else {
            JobPhase::Failed
        };
        let digest = outcome.state.digest();
        self.seal(
            record,
            JobDone {
                state: outcome.state,
                digest,
                report: outcome.report,
                error: outcome.result.err(),
            },
            phase,
        );
    }

    /// Seals a terminal outcome: record, journal, quota, bookkeeping span.
    fn seal(&self, record: &Arc<JobRecord>, done: JobDone, phase: JobPhase) {
        if let Some(j) = &self.journal {
            match phase {
                JobPhase::Interrupted => j.interrupted(&record.id),
                _ => j.done(
                    &record.id,
                    &format!("{:#018x}", done.digest),
                    record.total_iterations.min(match &done.error {
                        None => record.total_iterations,
                        Some(
                            ExecError::DeadlineExceeded { completed }
                            | ExecError::JobCancelled { completed }
                            | ExecError::JobStalled { completed, .. },
                        ) => *completed,
                        Some(_) => record.completed(),
                    }),
                    done.error.as_ref().map(ExecError::kind),
                ),
            }
        }
        record.finish_with_phase(done, phase);
        self.requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&record.id);
        self.tenants.release(&record.tenant);
        let now = self.recorder.now();
        self.recorder
            .span(0, 0, TracePhase::JobDone, now, self.recorder.now().max(now));
    }

    /// Re-admits a watchdog-cancelled or runner-lost job from its latest
    /// sealed checkpoint generation. Returns false when the job cannot be
    /// re-planned (its request vanished — should not happen), in which
    /// case the caller seals it instead.
    fn resume(self: &Arc<Scheduler>, record: &Arc<JobRecord>) -> bool {
        let Some((program, partition, opts)) = self.replan(record) else {
            return false;
        };
        record.rearm_cancel();
        let restarts = record.mark_resumed();
        if let Some(j) = &self.journal {
            j.resumed(&record.id, restarts);
        }
        {
            let mut depth = self.depth.lock().unwrap_or_else(PoisonError::into_inner);
            depth.queued += 1;
        }
        let resume_dir = record.ckpt_dir.as_ref().map(PathBuf::from);
        self.dispatch(record, program, partition, opts, resume_dir);
        true
    }

    /// Rebuilds a job's executable plan from its stored submit body.
    fn replan(&self, record: &JobRecord) -> Option<(Program, Partition, ExecOptions)> {
        let req = self
            .requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&record.id)
            .cloned()?;
        let planned = plan(&req.source, &req.design).ok()?;
        let mut opts = job_options(self.env, &req).ok()?;
        self.arm_assigned_checkpoint(&mut opts, record, &planned.spec);
        Some((planned.program, planned.partition, opts))
    }

    /// Replays the journal at boot: settled jobs become queryable again,
    /// and every job not journalled `done` is re-admitted against its
    /// sealed checkpoint directory. Quota slots are claimed unchecked —
    /// these jobs were admitted (and journalled) by a previous incarnation.
    fn recover(self: &Arc<Scheduler>, replay: Replay) {
        if !replay.settled.is_empty() {
            *self.settled.lock().unwrap_or_else(PoisonError::into_inner) = replay.settled;
        }
        for open in replay.open {
            let t0 = self.recorder.now();
            let restarts = open.restarts + 1;
            let Ok(planned) = plan(&open.request.source, &open.request.design) else {
                // The journalled request no longer plans (it did at
                // admission); settle it as failed rather than loop.
                if let Some(j) = &self.journal {
                    j.done(&open.job, "", 0, Some("Unplannable"));
                }
                continue;
            };
            let Ok(mut opts) = job_options(self.env, &open.request) else {
                continue;
            };
            let record = Arc::new(JobRecord::recovered(
                open.job.clone(),
                open.request.tenant.clone(),
                planned.program.iterations,
                (!open.ckpt_dir.is_empty()).then(|| open.ckpt_dir.clone()),
                restarts,
            ));
            self.arm_assigned_checkpoint(&mut opts, &record, &planned.spec);
            if let Some(j) = &self.journal {
                j.resumed(&open.job, restarts);
            }
            self.tenants.admit_unchecked(&record.tenant);
            {
                let mut depth = self.depth.lock().unwrap_or_else(PoisonError::into_inner);
                depth.queued += 1;
            }
            self.recorder.add(Counter::JobsRecovered, 1);
            self.recorder
                .span(0, 0, TracePhase::JobRecover, t0, self.recorder.now());
            self.jobs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(record.id.clone(), Arc::clone(&record));
            self.requests
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(record.id.clone(), open.request.clone());
            let resume_dir = record.ckpt_dir.as_ref().map(PathBuf::from);
            self.dispatch(
                &record,
                planned.program,
                planned.partition,
                opts,
                resume_dir,
            );
        }
    }

    /// Looks a job up by id.
    pub fn job(&self, id: &str) -> Option<Arc<JobRecord>> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .cloned()
    }

    /// Requests cancellation of a job. Queued jobs abort at run start
    /// (the executors check cancellation before the first block); running
    /// jobs drain within one pipe tick. Returns whether the id exists.
    pub fn cancel(&self, id: &str) -> bool {
        match self.job(id) {
            Some(job) => {
                job.fire_cancel();
                true
            }
            None => false,
        }
    }

    /// Status of a job settled by a *previous* daemon incarnation,
    /// replayed from the journal. Lets `GET /v1/jobs/{id}` keep answering
    /// across restarts instead of 404ing on history.
    pub fn settled_status(&self, id: &str) -> Option<crate::protocol::JobStatus> {
        let settled = self.settled.lock().unwrap_or_else(PoisonError::into_inner);
        let job = settled.get(id)?;
        Some(crate::protocol::JobStatus {
            job: job.job.clone(),
            tenant: job.tenant.clone(),
            phase: if job.error.is_none() {
                JobPhase::Done
            } else {
                JobPhase::Failed
            },
            completed_iterations: job.completed,
            total_iterations: job.total_iterations,
            restarts: job.restarts,
            recovered: true,
        })
    }

    /// Terminal journal record of a job settled by a previous incarnation
    /// (digest and completion count; the grid state itself is gone).
    pub fn settled_result(&self, id: &str) -> Option<SettledJob> {
        self.settled
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .cloned()
    }

    /// Whether the daemon has begun draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop admission, cancel every live job, and wait up
    /// to `grace` for outcomes to seal. Returns the ids that were still
    /// live when the drain began, paired with their checkpoint
    /// directories (resume targets for the operator).
    pub fn drain(&self, grace: Duration) -> Vec<(String, Option<String>)> {
        self.draining.store(true, Ordering::SeqCst);
        let live: Vec<Arc<JobRecord>> = {
            let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            jobs.values()
                .filter(|j| !j.phase().is_terminal())
                .cloned()
                .collect()
        };
        for job in &live {
            job.fire_cancel();
        }
        for job in &live {
            job.wait_terminal(grace);
        }
        live.iter()
            .map(|j| (j.id.clone(), j.ckpt_dir.clone()))
            .collect()
    }

    /// Jobs admitted and not yet terminal.
    pub fn active_jobs(&self) -> u64 {
        let depth = self.depth.lock().unwrap_or_else(PoisonError::into_inner);
        depth.queued + depth.running
    }

    /// `GET /healthz` snapshot.
    pub fn healthz(&self) -> Healthz {
        Healthz {
            status: if self.is_draining() {
                "draining".to_string()
            } else {
                "ok".to_string()
            },
            live_workers: live_workers() as u64,
            busy_runners: self.pool.busy() as u64,
            active_jobs: self.active_jobs(),
        }
    }

    /// `GET /metrics` snapshot.
    pub fn metrics(&self) -> Metrics {
        let (queued, running) = {
            let depth = self.depth.lock().unwrap_or_else(PoisonError::into_inner);
            (depth.queued, depth.running)
        };
        Metrics {
            pool_workers: self.pool.workers() as u64,
            busy_runners: self.pool.busy() as u64,
            live_workers: live_workers() as u64,
            active_jobs: queued + running,
            queued_jobs: queued,
            tenants: self.tenants.snapshot(),
            counters: self.recorder.counters(),
        }
    }
}

/// Builds one job's [`ExecOptions`]: the frozen env snapshot supplies the
/// defaults, request knobs overwrite their fields (the same layering as CLI
/// flags), and the service baseline arms integrity. Checkpoint policy never
/// comes from the env: one process-wide directory would have every job
/// seal into the same store. It is armed only by the request's `ckpt_dir`
/// here, or by the journal's per-job assignment afterwards.
fn job_options(env: &EnvConfig, req: &SubmitRequest) -> Result<ExecOptions, String> {
    let mut opts = ExecOptions::from_config(env);
    opts.checkpoint = CheckpointPolicy::default();
    let knobs = &req.options;
    if let Some(ms) = knobs.deadline_ms {
        opts.policy.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(retries) = knobs.retries {
        opts.policy.max_retries = retries;
    }
    if let Some(bound) = knobs.health_bound {
        if bound.is_nan() || bound <= 0.0 {
            return Err(format!("health_bound must be positive, got {bound}"));
        }
        opts.health = HealthPolicy::bounded(bound);
    }
    // The service mirrors `stencilcl run`: slabs are sealed by default.
    opts.integrity = knobs.integrity.unwrap_or(true);
    if let Some(dir) = &knobs.ckpt_dir {
        opts.checkpoint.dir = Some(dir.into());
    }
    if let Some(every) = knobs.ckpt_every {
        if every == 0 {
            return Err("ckpt_every must be at least 1".into());
        }
        if !opts.checkpoint.enabled() {
            return Err("ckpt_every needs ckpt_dir to arm checkpointing".into());
        }
        opts.checkpoint.every_barriers = every;
    } else if opts.checkpoint.enabled() {
        // Service default: seal every barrier, so a drain mid-run always
        // leaves a current resumable generation.
        opts.checkpoint.every_barriers = 1;
    }
    Ok(opts)
}

/// Arms the stuck-job watchdog: a detached thread that scans running jobs
/// every quarter of the stall timeout (bounded to 10ms..=250ms) and
/// cancels any whose progress heartbeat has been silent longer than the
/// timeout. The cancellation surfaces in `complete`, which auto-resumes
/// from the latest sealed checkpoint generation while budget remains.
///
/// The thread holds the scheduler weakly and exits on the first tick after
/// the last `Arc<Scheduler>` drops, so it never delays daemon shutdown.
fn spawn_watchdog(sched: &Arc<Scheduler>, stall: Duration) {
    let weak: Weak<Scheduler> = Arc::downgrade(sched);
    let tick = (stall / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
    thread::Builder::new()
        .name("stencil-job-watchdog".to_string())
        .spawn(move || loop {
            thread::sleep(tick);
            let Some(s) = weak.upgrade() else { return };
            let running: Vec<Arc<JobRecord>> = {
                let jobs = s.jobs.lock().unwrap_or_else(PoisonError::into_inner);
                jobs.values()
                    .filter(|j| j.phase() == JobPhase::Running)
                    .cloned()
                    .collect()
            };
            for job in running {
                // The is_cancelled guard keeps the watchdog from firing
                // twice for one stall and from stall-marking a job the
                // client (or a drain) already cancelled.
                if !job.cancel_handle().is_cancelled() && job.idle_for() > stall {
                    job.note_stalled();
                    job.fire_cancel();
                    s.recorder.add(Counter::JobsStalled, 1);
                }
            }
        })
        .expect("spawn stencil-job-watchdog");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(options: &str) -> SubmitRequest {
        serde_json::from_str(&format!(
            r#"{{"source":"","design":{{"fused":1,"parallelism":[1],"tile":[1]}},
                "options":{options}}}"#
        ))
        .expect("request parses")
    }

    #[test]
    fn job_options_never_take_checkpoints_from_the_env() {
        let (env, warnings) = EnvConfig::parse(|var| {
            match var {
                "STENCILCL_CKPT_DIR" => Some("/tmp/shared-ckpt"),
                "STENCILCL_CKPT_EVERY" => Some("5"),
                "STENCILCL_DEADLINE_MS" => Some("900"),
                _ => None,
            }
            .map(String::from)
        });
        assert!(warnings.is_empty());
        // Without a request directory the job is unarmed, so a journal
        // daemon assigns it its own store.
        let opts = job_options(&env, &request("{}")).unwrap();
        assert!(!opts.checkpoint.enabled());
        assert_eq!(opts.policy.deadline, Some(Duration::from_millis(900)));
        assert!(opts.integrity);
        // A request directory seals every barrier unless the request sets
        // a cadence; the env cadence is ignored either way.
        let opts = job_options(&env, &request(r#"{"ckpt_dir":"/tmp/mine"}"#)).unwrap();
        assert_eq!(
            opts.checkpoint.dir.as_deref(),
            Some(std::path::Path::new("/tmp/mine"))
        );
        assert_eq!(opts.checkpoint.every_barriers, 1);
        let opts =
            job_options(&env, &request(r#"{"ckpt_dir":"/tmp/mine","ckpt_every":3}"#)).unwrap();
        assert_eq!(opts.checkpoint.every_barriers, 3);
        // `ckpt_every` alone cannot lean on the env directory.
        assert!(job_options(&env, &request(r#"{"ckpt_every":3}"#)).is_err());
    }
}
