//! Supervised execution: checkpointed retry with graceful degradation.
//!
//! [`run_supervised_opts`] wraps the threaded pipe executor in a recovery
//! loop. The double-buffered global grid already *is* a checkpoint: workers
//! only ever read the `cur` buffer of a fused block and write the spare
//! one, so when a block fails, `cur` still holds the exact grid as of the
//! last fused-block barrier. The supervisor tears the pool down through
//! the pool's own cooperative [`CancelHandle`](crate::CancelHandle) (no
//! worker thread outlives the run), rolls back to that barrier, and
//! retries the remaining iterations with bounded exponential backoff.
//! After [`ExecPolicy::max_retries`] failed retries it degrades to the
//! same driver on one worker with no injected faults
//! ([`run_pipe_shared_opts`](crate::run_pipe_shared_opts)) — provably
//! equivalent, since every worker count is bit-exact against the reference
//! for any iteration count, and stencil iteration composes:
//! `reference(n − k) ∘ reference(k) = reference(n)`.
//!
//! The degraded attempt is the same pool lifecycle, so it is booked like
//! any other attempt: it continues the global block numbering, seals
//! checkpoint generations at its own barriers on the run's cadence, and
//! its blocks count in the final manifest.
//!
//! Every attempt is recorded in the returned [`RunReport`]: which executor
//! ran, from which iteration, what fault ended it, wall time, and whether
//! any worker thread had to be abandoned (with cooperative cancellation
//! none should be).

use std::thread;
use std::time::{Duration, Instant};

use stencilcl_grid::Partition;
use stencilcl_lang::{GridState, Program};
use stencilcl_telemetry::{Counter, Disabled, EnvConfig, TraceSink};

use crate::options::ExecOptions;
use crate::persist::CheckpointWriter;
use crate::threaded::{one_worker, pool_run};
use crate::ExecError;

/// Deadlines, recovery limits, and the worker count governing the pipe
/// executor and [`run_supervised_opts`] — the replacement for the
/// watchdog/drain constants that used to be hardcoded in the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPolicy {
    /// How long the collector waits for any worker to report a fused block
    /// before declaring the pipeline wedged
    /// ([`ExecError::PipeStall`](crate::ExecError)).
    pub watchdog: Duration,
    /// After one worker has already failed, how long to wait for the
    /// cascade to flush the remaining workers' reports.
    pub drain: Duration,
    /// On error teardown, how long to wait for cancelled workers to exit
    /// before abandoning (leaking) the stragglers.
    pub teardown_grace: Duration,
    /// Checkpointed retries allowed after the first failed threaded
    /// attempt before degrading (or giving up).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_max: Duration,
    /// Whether to degrade to one worker with no injected faults (the
    /// [`run_pipe_shared_opts`](crate::run_pipe_shared_opts)
    /// configuration) once retries are exhausted; when `false`,
    /// [`run_supervised_opts`] returns
    /// [`ExecError::RetriesExhausted`](crate::ExecError) instead.
    pub sequential_fallback: bool,
    /// Wall-clock budget for the whole run, shared across supervised
    /// retries (the clock starts once, before the first attempt). Checked
    /// cooperatively at fused-block barriers and inside the pipe tick;
    /// when it elapses the run fails with the permanent
    /// [`ExecError::DeadlineExceeded`](crate::ExecError) carrying the
    /// completed-iteration count. `None` (the default) means unbounded.
    pub deadline: Option<Duration>,
    /// Seed for the decorrelated-jitter retry backoff. `None` (the
    /// default) seeds from process entropy — concurrent supervisors desync
    /// their retry storms; `Some(seed)` makes the sleep sequence
    /// reproducible for tests.
    pub jitter_seed: Option<u64>,
    /// Worker threads of a pipe run. `None` (the default) means
    /// `min(available_parallelism, kernels)`, cut to one worker per 8 Ki
    /// cells a statement sweeps (at least one); `Some(w)` pins `w`, clamped
    /// to `1..=kernels`, so tests can cover every worker count on any
    /// host. A library seam only — no env knob, CLI flag, or job option
    /// sets it — and outside the checkpoint's policy fingerprint, because
    /// results are bit-identical for every count.
    pub workers: Option<usize>,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            watchdog: Duration::from_secs(30),
            drain: Duration::from_secs(2),
            teardown_grace: Duration::from_secs(5),
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(1),
            sequential_fallback: true,
            deadline: None,
            jitter_seed: None,
            workers: None,
        }
    }
}

impl ExecPolicy {
    /// Deterministic exponential backoff before 0-based retry `retry`,
    /// clamped to [`Self::backoff_max`] — the *envelope* of the jittered
    /// backoff the supervisor actually sleeps (see [`DecorrelatedJitter`]).
    pub fn backoff(&self, retry: u32) -> Duration {
        (self.backoff_base * (1u32 << retry.min(20))).min(self.backoff_max)
    }

    /// Defaults overridden by an [`EnvConfig`] snapshot
    /// (`STENCILCL_WATCHDOG_MS`, `STENCILCL_DRAIN_MS`,
    /// `STENCILCL_MAX_RETRIES`, `STENCILCL_DEADLINE_MS`). Callers layering
    /// CLI flags on top overwrite fields after this call, so a flag always
    /// beats the env.
    pub fn from_config(cfg: &EnvConfig) -> ExecPolicy {
        let mut policy = ExecPolicy::default();
        if let Some(ms) = cfg.watchdog_ms {
            policy.watchdog = Duration::from_millis(ms);
        }
        if let Some(ms) = cfg.drain_ms {
            policy.drain = Duration::from_millis(ms);
        }
        if let Some(n) = cfg.max_retries {
            policy.max_retries = n;
        }
        if let Some(ms) = cfg.deadline_ms {
            policy.deadline = Some(Duration::from_millis(ms));
        }
        policy
    }
}

/// Decorrelated-jitter retry backoff (the AWS architecture-blog variant):
/// each sleep is drawn uniformly from `[backoff_base, min(backoff_max,
/// 3 × previous_sleep)]`. Pure exponential backoff keeps lock-step
/// supervisors colliding on every retry round; decorrelating the sleeps
/// spreads them out while preserving the bounded-growth envelope
/// (`sleep ∈ [backoff_base, backoff_max]` always).
///
/// Randomness is a self-contained xorshift64\* — no RNG dependency — and
/// [`ExecPolicy::jitter_seed`] pins the sequence for deterministic tests.
#[derive(Debug)]
pub struct DecorrelatedJitter {
    prev: Duration,
    state: u64,
}

impl DecorrelatedJitter {
    /// A jitter sequence for `policy`, seeded from
    /// [`ExecPolicy::jitter_seed`] or process entropy.
    pub fn new(policy: &ExecPolicy) -> Self {
        let seed = policy.jitter_seed.unwrap_or_else(|| {
            // RandomState carries the process's hash entropy; hashing a
            // fixed value extracts a cheap per-instance seed without any
            // RNG dependency.
            use std::hash::{BuildHasher, Hasher};
            let mut h = std::collections::hash_map::RandomState::new().build_hasher();
            h.write_u64(0x5741_4b45);
            h.finish()
        });
        // Splitmix64 scramble: adjacent seeds (41, 42, 43…) must yield
        // unrelated sequences, and xorshift's zero fixed point is avoided.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        DecorrelatedJitter {
            prev: policy.backoff_base,
            state: z.max(1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The next sleep: uniform in `[base, min(max, 3 × previous)]`, with
    /// the drawn value feeding the next interval's upper bound.
    pub fn next_sleep(&mut self, policy: &ExecPolicy) -> Duration {
        let hi = (self.prev * 3).min(policy.backoff_max);
        let lo = policy.backoff_base.min(hi);
        let span = hi.saturating_sub(lo).as_nanos() as u64;
        let offset = if span == 0 {
            0
        } else {
            self.next_u64() % (span + 1)
        };
        let sleep = lo + Duration::from_nanos(offset);
        self.prev = sleep;
        sleep
    }
}

/// Which executor a supervised attempt ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptMode {
    /// The worker pool at its configured worker count.
    Threaded,
    /// One worker with no injected faults (degradation path).
    Sequential,
}

/// One attempt of a supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Which executor ran.
    pub mode: AttemptMode,
    /// Global iteration the attempt resumed from (its checkpoint).
    pub start_iteration: u64,
    /// Iterations the attempt completed and checkpointed.
    pub iterations_completed: u64,
    /// The classified fault that ended the attempt, `None` on success.
    pub fault: Option<ExecError>,
    /// Wall time of the attempt, including pool teardown.
    pub wall: Duration,
    /// Worker threads that outlived the teardown grace period and were
    /// abandoned (zero under cooperative cancellation).
    pub leaked_workers: usize,
}

/// How a supervised run ultimately completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPath {
    /// The first threaded attempt succeeded.
    Threaded,
    /// A checkpointed threaded retry succeeded.
    Retried,
    /// The run degraded to one worker.
    Sequential,
}

/// The full story of one supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Every attempt, in order; the last one completed the run.
    pub attempts: Vec<Attempt>,
    /// Which rung of the degradation ladder finished the run.
    pub path: RecoveryPath,
}

impl RunReport {
    /// Failed attempts that the run recovered from.
    pub fn recoveries(&self) -> usize {
        self.attempts.iter().filter(|a| a.fault.is_some()).count()
    }

    /// The classified faults of the failed attempts, in order.
    pub fn faults_seen(&self) -> Vec<&ExecError> {
        self.attempts
            .iter()
            .filter_map(|a| a.fault.as_ref())
            .collect()
    }

    /// Whether the run fell back to one worker.
    pub fn degraded(&self) -> bool {
        self.path == RecoveryPath::Sequential
    }

    /// Worker threads abandoned across all attempts.
    pub fn leaked_workers(&self) -> usize {
        self.attempts.iter().map(|a| a.leaked_workers).sum()
    }

    /// Total wall time across all attempts (excluding retry backoff).
    pub fn total_wall(&self) -> Duration {
        self.attempts.iter().map(|a| a.wall).sum()
    }
}

// Structured JSON for `--report-json`: stable lower-case tags for the
// enums, durations flattened to `wall_ms` floats (the vendored serde has no
// `Duration` representation, and milliseconds are what report consumers
// plot anyway).

impl serde::Serialize for AttemptMode {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                AttemptMode::Threaded => "threaded",
                AttemptMode::Sequential => "sequential",
            }
            .to_string(),
        )
    }
}

impl serde::Serialize for RecoveryPath {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                RecoveryPath::Threaded => "threaded",
                RecoveryPath::Retried => "retried",
                RecoveryPath::Sequential => "sequential",
            }
            .to_string(),
        )
    }
}

impl serde::Serialize for Attempt {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("mode".to_string(), self.mode.to_value()),
            (
                "start_iteration".to_string(),
                serde::Value::UInt(self.start_iteration),
            ),
            (
                "iterations_completed".to_string(),
                serde::Value::UInt(self.iterations_completed),
            ),
            ("fault".to_string(), self.fault.to_value()),
            (
                "wall_ms".to_string(),
                serde::Value::Float(self.wall.as_secs_f64() * 1e3),
            ),
            (
                "leaked_workers".to_string(),
                serde::Value::UInt(self.leaked_workers as u64),
            ),
        ])
    }
}

impl serde::Serialize for RunReport {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("path".to_string(), self.path.to_value()),
            (
                "recoveries".to_string(),
                serde::Value::UInt(self.recoveries() as u64),
            ),
            ("degraded".to_string(), serde::Value::Bool(self.degraded())),
            (
                "leaked_workers".to_string(),
                serde::Value::UInt(self.leaked_workers() as u64),
            ),
            (
                "total_wall_ms".to_string(),
                serde::Value::Float(self.total_wall().as_secs_f64() * 1e3),
            ),
            ("attempts".to_string(), self.attempts.to_value()),
        ])
    }
}

/// Runs the pipe design under supervision and always returns the
/// [`RunReport`], even when the run fails: threaded execution with
/// checkpointed retry on transient faults, then graceful degradation to one
/// worker (see the module docs for the recovery ladder). The report's
/// attempts record how far the run got and what ended it (e.g.
/// the last healthy checkpoint preserved in `state` after a
/// [`ExecError::NumericDivergence`](crate::ExecError) abort, or the
/// progress made before [`ExecError::DeadlineExceeded`](crate::ExecError)).
///
/// The grid in `state` is identical to what
/// [`run_threaded_opts`](crate::run_threaded_opts) would have produced
/// fault-free — recovery never changes the computed values, only how they
/// are computed. Each checkpointed retry bumps the recorder's `retries`
/// counter; the degradation path keeps the same lane width and sink, so a
/// traced run stays observable end to end. [`ExecOptions::faults`] reaches
/// both the worker pool and the checkpoint store.
///
/// Non-transient errors (bad configuration, diagonal stencils, evaluation
/// failures) end the run immediately — retrying cannot fix them. Transient
/// faults ([`ExecError::WorkerPanic`](crate::ExecError),
/// [`ExecError::PipeStall`](crate::ExecError), pipe-protocol skew) only
/// surface as [`ExecError::RetriesExhausted`](crate::ExecError) when the
/// retry budget is spent and [`ExecPolicy::sequential_fallback`] is off.
pub fn run_supervised_full(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
) -> (RunReport, Result<(), ExecError>) {
    dispatch(program, partition, state, opts, ResumeBase::default())
}

/// [`run_supervised_full`] that returns the [`RunReport`] only on success.
///
/// # Errors
///
/// The run's error, as described on [`run_supervised_full`].
pub fn run_supervised_opts(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
) -> Result<RunReport, ExecError> {
    let (report, result) = run_supervised_full(program, partition, state, opts);
    result.map(|()| report)
}

/// Global progress already banked before this supervision loop starts —
/// zero for a fresh run; the checkpoint's cursor when resuming, so fault
/// triggers, slab sequence numbers, and new checkpoint manifests all
/// continue the original run's coordinates.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ResumeBase {
    /// Iterations sealed in the checkpoint the run resumes from.
    pub iterations: u64,
    /// Fused-block sequence base.
    pub blocks: u64,
}

/// Monomorphizes the supervision loop against the chosen sink. `base` is
/// zero for a fresh run; resumed runs re-enter here with the checkpoint's
/// cursor.
pub(crate) fn dispatch(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
    base: ResumeBase,
) -> (RunReport, Result<(), ExecError>) {
    match &opts.trace {
        Some(rec) => supervised(program, partition, state, opts, base, rec),
        None => supervised(program, partition, state, opts, base, &Disabled),
    }
}

/// The supervision loop. The run's integrity envelope (deadline clock,
/// health policy, checksum switch) is anchored here, once, so every retry
/// shares the same wall-clock budget. Every attempt — at the configured
/// worker count or the degraded one-worker one — is booked the same way:
/// it starts from the last checkpoint, continues the global block
/// numbering, offers its barriers to the checkpoint writer, and banks its
/// `(iterations, blocks)`.
fn supervised<S: TraceSink>(
    program: &Program,
    partition: &Partition,
    state: &mut GridState,
    opts: &ExecOptions,
    base: ResumeBase,
    sink: &S,
) -> (RunReport, Result<(), ExecError>) {
    let limits = opts.limits();
    let writer = CheckpointWriter::from_options(program, opts, &base, limits.deadline);
    let ckpt = writer.as_ref();
    let policy = &opts.policy;
    let total = program.iterations;
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut done = 0u64; // iterations completed and checkpointed in `state`
    let mut blocks = base.blocks; // global fused-block index for fault triggers
    let mut failures = 0u32;
    let mut mode = AttemptMode::Threaded;
    let mut jitter = DecorrelatedJitter::new(policy);
    loop {
        let rest = program.with_iterations(total - done);
        let start = Instant::now();
        if let Some(w) = ckpt {
            w.begin_attempt(done);
        }
        // Degraded: finish the remaining iterations on one worker from the
        // checkpoint, keeping the run's lane width, sink, and checkpoint
        // writer. No pipes to wedge, no injected faults.
        let degraded;
        let attempt_opts = match mode {
            AttemptMode::Threaded => opts,
            AttemptMode::Sequential => {
                degraded = one_worker(opts);
                &degraded
            }
        };
        let (run, result) = pool_run(
            &rest,
            partition,
            state,
            attempt_opts,
            blocks,
            limits.clone(),
            ckpt,
            sink,
        );
        // Attempt-local progress coordinates become run-global ones before
        // anything is recorded or returned.
        let fault = result.err().map(|mut e| {
            globalize(&mut e, done);
            e
        });
        if let (None, Some(w)) = (&fault, ckpt) {
            w.finalize(state, blocks + run.blocks, sink);
        }
        attempts.push(Attempt {
            mode,
            start_iteration: done,
            iterations_completed: run.iterations,
            fault: fault.clone(),
            wall: start.elapsed(),
            leaked_workers: run.leaked,
        });
        done += run.iterations;
        blocks += run.blocks;
        let path = match (mode, failures) {
            (AttemptMode::Sequential, _) => RecoveryPath::Sequential,
            (AttemptMode::Threaded, 0) => RecoveryPath::Threaded,
            (AttemptMode::Threaded, _) => RecoveryPath::Retried,
        };
        let Some(e) = fault else {
            return (RunReport { attempts, path }, Ok(()));
        };
        if mode == AttemptMode::Sequential || !transient(&e) {
            // Permanent faults (divergence, deadline, bad config) must not
            // burn retries: deterministic recompute would reproduce them
            // and deadlines cannot be retried into more time. `state`
            // keeps the last healthy checkpoint.
            return (RunReport { attempts, path }, Err(e));
        }
        if failures >= policy.max_retries {
            if !policy.sequential_fallback {
                let err = ExecError::RetriesExhausted {
                    attempts: failures + 1,
                    last: Box::new(e),
                };
                return (RunReport { attempts, path }, Err(err));
            }
            mode = AttemptMode::Sequential;
            continue;
        }
        failures += 1;
        if S::ACTIVE {
            sink.add(Counter::Retries, 1);
        }
        // Decorrelated jitter instead of pure doubling: concurrent
        // supervisors retrying the same contended resource desync instead
        // of colliding again in lock-step.
        thread::sleep(jitter.next_sleep(policy));
    }
}

/// Rebases an error's attempt-local progress coordinates onto the global
/// iteration counter (`base` = the attempt's start iteration).
pub(crate) fn globalize(e: &mut ExecError, base: u64) {
    match e {
        ExecError::NumericDivergence { iteration, .. } => *iteration += base,
        ExecError::DeadlineExceeded { completed } | ExecError::JobCancelled { completed } => {
            *completed += base;
        }
        _ => {}
    }
}

/// Whether a failure is plausibly transient — worth a checkpointed retry.
/// Configuration, geometry, and interpreter errors are deterministic and
/// retrying them would reproduce the same failure; numeric divergence is
/// deterministic too, and a blown deadline cannot be retried into more
/// wall-clock time. Slab corruption *is* transient: the corruption happened
/// in flight, so recomputing the block from the checkpoint repairs it.
fn transient(e: &ExecError) -> bool {
    match e {
        ExecError::WorkerPanic { .. }
        | ExecError::PipeStall { .. }
        | ExecError::Cancelled
        | ExecError::SlabCorrupt { .. } => true,
        ExecError::BadConfiguration { detail } => {
            detail.contains("protocol skew") || detail.contains("hung up")
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_reference_opts;
    use stencilcl_grid::{Design, DesignKind, Extent, Point};
    use stencilcl_lang::{programs, StencilFeatures};

    fn init(name: &str, p: &Point) -> f64 {
        let mut v = name.len() as f64 + 2.0;
        for d in 0..p.dim() {
            v = v * 23.0 + p.coord(d) as f64;
        }
        (v * 0.004).sin()
    }

    #[test]
    fn fault_free_supervision_is_a_single_threaded_attempt() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(7);
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::PipeShared, 3, vec![2, 2], vec![8, 8]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        let mut expect = GridState::new(&p, init);
        run_reference_opts(&p, &mut expect, &ExecOptions::new()).unwrap();
        let mut got = GridState::new(&p, init);
        let report = run_supervised_opts(&p, &partition, &mut got, &ExecOptions::new()).unwrap();
        assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
        assert_eq!(report.path, RecoveryPath::Threaded);
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.recoveries(), 0);
        assert!(!report.degraded());
        assert_eq!(report.leaked_workers(), 0);
        assert_eq!(report.attempts[0].iterations_completed, 7);
        assert_eq!(report.attempts[0].mode, AttemptMode::Threaded);
    }

    #[test]
    fn single_iteration_supervision_matches_reference() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(32))
            .with_iterations(1);
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2], vec![8]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        let mut expect = GridState::new(&p, init);
        run_reference_opts(&p, &mut expect, &ExecOptions::new()).unwrap();
        let mut got = GridState::new(&p, init);
        let report = run_supervised_opts(&p, &partition, &mut got, &ExecOptions::new()).unwrap();
        assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
        assert_eq!(report.attempts[0].iterations_completed, 1);
    }

    #[test]
    fn configuration_errors_are_not_retried() {
        let p = stencilcl_lang::parse(
            "stencil d { grid A[16][16] : f32; iterations 2;
             A[i][j] = 0.5 * (A[i-1][j-1] + A[i+1][j+1]); }",
        )
        .unwrap();
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![4, 4]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        let mut s = GridState::uniform(&p, 0.0);
        let (report, result) = run_supervised_full(&p, &partition, &mut s, &ExecOptions::new());
        assert!(matches!(result, Err(ExecError::DiagonalAccess { .. })));
        assert_eq!(report.attempts.len(), 1);
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let policy = ExecPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(35),
            ..ExecPolicy::default()
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
        assert_eq!(policy.backoff(1), Duration::from_millis(20));
        assert_eq!(policy.backoff(2), Duration::from_millis(35));
        assert_eq!(policy.backoff(31), Duration::from_millis(35));
    }

    #[test]
    fn jittered_backoff_stays_inside_its_envelope_and_is_seedable() {
        let policy = ExecPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(200),
            jitter_seed: Some(42),
            ..ExecPolicy::default()
        };
        let mut jitter = DecorrelatedJitter::new(&policy);
        let mut prev = policy.backoff_base;
        let mut sleeps = Vec::new();
        for _ in 0..200 {
            let s = jitter.next_sleep(&policy);
            // Bounds: never below the base, never above the max, and never
            // above 3x the previous sleep (the decorrelated growth cap).
            assert!(s >= policy.backoff_base, "{s:?} under base");
            assert!(s <= policy.backoff_max, "{s:?} over max");
            assert!(
                s <= (prev * 3).min(policy.backoff_max),
                "{s:?} over 3x{prev:?}"
            );
            prev = s;
            sleeps.push(s);
        }
        // Same seed reproduces the exact sequence...
        let mut again = DecorrelatedJitter::new(&policy);
        let replay: Vec<_> = (0..200).map(|_| again.next_sleep(&policy)).collect();
        assert_eq!(sleeps, replay);
        // ...a different seed diverges, and the sleeps actually vary
        // (decorrelated, not a deterministic ladder).
        let mut other = DecorrelatedJitter::new(&ExecPolicy {
            jitter_seed: Some(43),
            ..policy.clone()
        });
        let diverged: Vec<_> = (0..200).map(|_| other.next_sleep(&policy)).collect();
        assert_ne!(sleeps, diverged);
        let distinct: std::collections::BTreeSet<_> = sleeps.iter().collect();
        assert!(
            distinct.len() > 20,
            "only {} distinct sleeps",
            distinct.len()
        );
    }

    #[test]
    fn zero_width_jitter_interval_degenerates_to_the_base() {
        // base == max pins every sleep to that single value.
        let policy = ExecPolicy {
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(5),
            jitter_seed: Some(7),
            ..ExecPolicy::default()
        };
        let mut jitter = DecorrelatedJitter::new(&policy);
        for _ in 0..10 {
            assert_eq!(jitter.next_sleep(&policy), Duration::from_millis(5));
        }
    }

    #[test]
    fn reports_serialize_to_structured_json() {
        let report = RunReport {
            attempts: vec![
                Attempt {
                    mode: AttemptMode::Threaded,
                    start_iteration: 0,
                    iterations_completed: 3,
                    fault: Some(ExecError::WorkerPanic { kernel: 2 }),
                    wall: Duration::from_millis(12),
                    leaked_workers: 0,
                },
                Attempt {
                    mode: AttemptMode::Sequential,
                    start_iteration: 3,
                    iterations_completed: 4,
                    fault: None,
                    wall: Duration::from_millis(40),
                    leaked_workers: 1,
                },
            ],
            path: RecoveryPath::Sequential,
        };
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("\"path\":\"sequential\""), "{json}");
        assert!(json.contains("\"recoveries\":1"), "{json}");
        assert!(json.contains("\"degraded\":true"), "{json}");
        assert!(json.contains("\"kind\":\"WorkerPanic\""), "{json}");
        assert!(json.contains("\"fault\":null"), "{json}");
        assert!(json.contains("\"leaked_workers\":1"), "{json}");
        assert!(json.contains("wall_ms"), "{json}");
    }

    #[test]
    fn transient_classification_matches_the_fault_taxonomy() {
        assert!(transient(&ExecError::PipeStall { kernel: 0 }));
        assert!(transient(&ExecError::WorkerPanic { kernel: 1 }));
        assert!(transient(&ExecError::Cancelled));
        assert!(transient(&ExecError::config(
            "kernel 2: pipe protocol skew"
        )));
        assert!(transient(&ExecError::config("pipe producer hung up")));
        assert!(transient(&ExecError::SlabCorrupt {
            kernel: 0,
            step: (1, 0)
        }));
        assert!(!transient(&ExecError::config("bad partition")));
        assert!(!transient(&ExecError::DiagonalAccess {
            statement: "A".into()
        }));
        // Deterministic recompute reproduces divergence, and a blown
        // deadline cannot be retried into more time: both are permanent.
        assert!(!transient(&ExecError::NumericDivergence {
            kernel: 0,
            iteration: 1,
            cell: vec![0],
            value: f64::NAN
        }));
        assert!(!transient(&ExecError::DeadlineExceeded { completed: 0 }));
        // External cancellation is final: retrying would re-run work the
        // client already abandoned.
        assert!(!transient(&ExecError::JobCancelled { completed: 0 }));
    }

    #[test]
    fn globalize_rebases_progress_coordinates() {
        let mut e = ExecError::NumericDivergence {
            kernel: 2,
            iteration: 3,
            cell: vec![1, 1],
            value: f64::INFINITY,
        };
        globalize(&mut e, 10);
        assert!(matches!(
            e,
            ExecError::NumericDivergence { iteration: 13, .. }
        ));
        let mut d = ExecError::DeadlineExceeded { completed: 4 };
        globalize(&mut d, 6);
        assert_eq!(d, ExecError::DeadlineExceeded { completed: 10 });
        let mut c = ExecError::JobCancelled { completed: 2 };
        globalize(&mut c, 5);
        assert_eq!(c, ExecError::JobCancelled { completed: 7 });
        let mut other = ExecError::Cancelled;
        globalize(&mut other, 99);
        assert_eq!(other, ExecError::Cancelled);
    }
}
