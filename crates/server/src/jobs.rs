//! Job records and tenant bookkeeping — the state the scheduler multiplexes.
//!
//! A [`JobRecord`] is the service-side shadow of one pooled run: lifecycle
//! phase, barrier-granularity progress (fed by the executor's
//! [`Progress`](stencilcl_exec::Progress) hook), the cancel handle, and the
//! sealed terminal outcome. Every observable change bumps a version
//! counter, so event streams poll cheaply and emit only on change.
//! [`TenantBook`] tracks per-tenant in-flight counts under one lock — the
//! quota half of admission control.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use stencilcl_exec::{CancelHandle, ExecError, RunReport};
use stencilcl_lang::GridState;

use crate::protocol::{JobPhase, JobStatus, TenantMetrics};

/// The sealed terminal outcome of a job.
#[derive(Debug)]
pub struct JobDone {
    /// Final (or last-barrier) grid state, kept for `?grid=1` payloads.
    pub state: GridState,
    /// [`GridState::digest`] of `state` (the CLI-comparable fingerprint).
    pub digest: u64,
    /// Supervision attempt history.
    pub report: RunReport,
    /// The fault that ended a failed run.
    pub error: Option<ExecError>,
}

/// One submitted job's service-side record. Shared between the admission
/// path, the pool runner's callbacks, and every HTTP handler via `Arc`.
#[derive(Debug)]
pub struct JobRecord {
    /// Job id (`job-N`).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// The program's total iteration count.
    pub total_iterations: u64,
    /// When admission accepted the job (start of the queue-wait span).
    pub queued_at: Instant,
    /// Checkpoint directory armed for this job, if any — reported so a
    /// drained client knows where to point `stencilcl resume`.
    pub ckpt_dir: Option<String>,
    /// Whether this record was rebuilt from the journal at daemon boot.
    pub recovered: bool,
    /// External cancellation handle, behind a lock so an auto-resume can
    /// re-arm a fresh one (the watchdog fires the old handle to stop the
    /// stalled run; the resumed run must not see it already cancelled).
    cancel: Mutex<CancelHandle>,
    /// Times this job was re-admitted (stall, lost runner, daemon reboot).
    restarts: AtomicU64,
    /// Set by the watchdog when it cancels this job for silence; consumed
    /// by the completion path to distinguish a stall-cancel (auto-resume)
    /// from a client cancel (terminal).
    stalled: AtomicBool,
    /// Last observed sign of life: admission, runner pickup, or a
    /// committed barrier. The watchdog compares this against its timeout.
    touched: Mutex<Instant>,
    phase: Mutex<JobPhase>,
    completed: AtomicU64,
    version: AtomicU64,
    outcome: Mutex<Option<JobDone>>,
    terminal: Condvar,
}

impl JobRecord {
    /// A freshly admitted (queued) record.
    pub fn new(
        id: String,
        tenant: String,
        total_iterations: u64,
        ckpt_dir: Option<String>,
    ) -> JobRecord {
        JobRecord {
            id,
            tenant,
            total_iterations,
            cancel: Mutex::new(CancelHandle::new()),
            queued_at: Instant::now(),
            ckpt_dir,
            recovered: false,
            restarts: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            touched: Mutex::new(Instant::now()),
            phase: Mutex::new(JobPhase::Queued),
            completed: AtomicU64::new(0),
            version: AtomicU64::new(0),
            outcome: Mutex::new(None),
            terminal: Condvar::new(),
        }
    }

    /// A record rebuilt from the journal at daemon boot: already restarted
    /// `restarts` times, entering the pool as [`JobPhase::Resumed`].
    pub fn recovered(
        id: String,
        tenant: String,
        total_iterations: u64,
        ckpt_dir: Option<String>,
        restarts: u64,
    ) -> JobRecord {
        let mut r = JobRecord::new(id, tenant, total_iterations, ckpt_dir);
        r.recovered = true;
        r.restarts = AtomicU64::new(restarts);
        r.phase = Mutex::new(JobPhase::Resumed);
        r
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> JobPhase {
        *self.phase.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A clone of the current cancel handle (wire it into the run's
    /// options; fire it to stop the run).
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Fires the current cancel handle.
    pub fn fire_cancel(&self) {
        self.cancel
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .cancel();
    }

    /// Replaces the (fired) cancel handle with a fresh one for the next
    /// incarnation of the run, returning the new handle.
    pub fn rearm_cancel(&self) -> CancelHandle {
        let fresh = CancelHandle::new();
        *self.cancel.lock().unwrap_or_else(PoisonError::into_inner) = fresh.clone();
        fresh
    }

    /// Times this job was re-admitted.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// Marks the watchdog's stall verdict; the completion path consumes it
    /// with [`JobRecord::take_stalled`].
    pub fn note_stalled(&self) {
        self.stalled.store(true, Ordering::SeqCst);
    }

    /// Consumes the stall flag (true at most once per watchdog firing).
    pub fn take_stalled(&self) -> bool {
        self.stalled.swap(false, Ordering::SeqCst)
    }

    /// Time since the job last showed a sign of life.
    pub fn idle_for(&self) -> Duration {
        self.touched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .elapsed()
    }

    fn touch(&self) {
        *self.touched.lock().unwrap_or_else(PoisonError::into_inner) = Instant::now();
    }

    /// Re-admits the job after a stall-cancel: bumps the restart count,
    /// resets the heartbeat clock, and moves the phase to
    /// [`JobPhase::Resumed`].
    pub fn mark_resumed(&self) -> u64 {
        let restarts = self.restarts.fetch_add(1, Ordering::SeqCst) + 1;
        self.touch();
        *self.phase.lock().unwrap_or_else(PoisonError::into_inner) = JobPhase::Resumed;
        self.version.fetch_add(1, Ordering::SeqCst);
        restarts
    }

    /// Monotonic change counter: bumped on every phase transition and
    /// committed barrier. Event streams sleep until it moves.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Iterations committed at the last fused-block barrier.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }

    /// Records a committed barrier (the executor's progress hook).
    pub fn note_progress(&self, completed: u64) {
        self.completed.store(completed, Ordering::SeqCst);
        self.touch();
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks the job running (a pool runner dequeued it). Returns the
    /// queue-wait duration for the `JobQueued` span.
    pub fn mark_running(&self) -> Duration {
        *self.phase.lock().unwrap_or_else(PoisonError::into_inner) = JobPhase::Running;
        self.touch();
        self.version.fetch_add(1, Ordering::SeqCst);
        self.queued_at.elapsed()
    }

    /// Seals the terminal outcome and wakes every waiter, deriving the
    /// phase from the outcome (`Done` / `Failed`).
    pub fn finish(&self, done: JobDone) {
        let phase = if done.error.is_none() {
            JobPhase::Done
        } else {
            JobPhase::Failed
        };
        self.finish_with_phase(done, phase);
    }

    /// Seals the terminal outcome under an explicit terminal phase (the
    /// drain path uses [`JobPhase::Interrupted`]).
    pub fn finish_with_phase(&self, done: JobDone, phase: JobPhase) {
        assert!(phase.is_terminal(), "finish needs a terminal phase");
        self.completed
            .store(self.terminal_completed(&done), Ordering::SeqCst);
        *self.outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(done);
        let mut p = self.phase.lock().unwrap_or_else(PoisonError::into_inner);
        *p = phase;
        self.version.fetch_add(1, Ordering::SeqCst);
        self.terminal.notify_all();
    }

    fn terminal_completed(&self, done: &JobDone) -> u64 {
        match &done.error {
            None => self.total_iterations,
            Some(
                ExecError::DeadlineExceeded { completed } | ExecError::JobCancelled { completed },
            ) => *completed,
            Some(_) => self.completed.load(Ordering::SeqCst),
        }
    }

    /// Runs `f` over the sealed outcome, if terminal.
    pub fn with_outcome<R>(&self, f: impl FnOnce(&JobDone) -> R) -> Option<R> {
        self.outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(f)
    }

    /// Blocks until the job is terminal or `timeout` elapses; returns
    /// whether it is terminal.
    pub fn wait_terminal(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut phase = self.phase.lock().unwrap_or_else(PoisonError::into_inner);
        while !phase.is_terminal() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (p, _) = self
                .terminal
                .wait_timeout(phase, left)
                .unwrap_or_else(PoisonError::into_inner);
            phase = p;
        }
        true
    }

    /// The externally visible status snapshot.
    pub fn status(&self) -> JobStatus {
        JobStatus {
            job: self.id.clone(),
            tenant: self.tenant.clone(),
            phase: self.phase(),
            completed_iterations: self.completed(),
            total_iterations: self.total_iterations,
            restarts: self.restarts(),
            recovered: self.recovered,
        }
    }
}

#[derive(Debug, Default)]
struct TenantEntry {
    in_flight: u64,
    rejected: u64,
}

/// Per-tenant in-flight accounting — the quota half of admission control.
/// All mutation happens under the scheduler's admission lock; this type
/// adds its own lock so metrics reads never contend with job execution.
#[derive(Debug, Default)]
pub struct TenantBook {
    entries: Mutex<BTreeMap<String, TenantEntry>>,
}

impl TenantBook {
    /// Admits one job for `tenant` if its in-flight count is below
    /// `quota`; on refusal, bumps the tenant's rejection count.
    pub fn try_admit(&self, tenant: &str, quota: u64) -> Result<(), u64> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let e = entries.entry(tenant.to_string()).or_default();
        if e.in_flight >= quota {
            e.rejected += 1;
            Err(e.in_flight)
        } else {
            e.in_flight += 1;
            Ok(())
        }
    }

    /// Claims one in-flight slot without a quota check — for journal
    /// recovery at boot, where the job was already admitted (and counted)
    /// by a previous daemon incarnation.
    pub fn admit_unchecked(&self, tenant: &str) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.entry(tenant.to_string()).or_default().in_flight += 1;
    }

    /// Releases one in-flight slot (the job reached a terminal phase).
    pub fn release(&self, tenant: &str) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = entries.get_mut(tenant) {
            e.in_flight = e.in_flight.saturating_sub(1);
        }
    }

    /// Counts a rejection that happened before quota accounting (queue
    /// full, draining) against the tenant.
    pub fn note_rejected(&self, tenant: &str) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.entry(tenant.to_string()).or_default().rejected += 1;
    }

    /// One tenant's current in-flight count.
    pub fn in_flight(&self, tenant: &str) -> u64 {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.get(tenant).map_or(0, |e| e.in_flight)
    }

    /// Every tenant's row, sorted by tenant id.
    pub fn snapshot(&self) -> Vec<TenantMetrics> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries
            .iter()
            .map(|(tenant, e)| TenantMetrics {
                tenant: tenant.clone(),
                in_flight: e.in_flight,
                rejected: e.rejected,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_exec::{RecoveryPath, RunReport};

    fn record() -> JobRecord {
        JobRecord::new("job-1".into(), "acme".into(), 10, None)
    }

    fn empty_report() -> RunReport {
        RunReport {
            attempts: Vec::new(),
            path: RecoveryPath::Threaded,
        }
    }

    fn dummy_state() -> GridState {
        let program = stencilcl_lang::parse(
            "stencil t { grid A[4][4] : f32; iterations 1; A[i][j] = A[i][j]; }",
        )
        .unwrap();
        GridState::uniform(&program, 0.0)
    }

    #[test]
    fn lifecycle_bumps_the_version_and_seals_the_outcome() {
        let r = record();
        assert_eq!(r.phase(), JobPhase::Queued);
        let v0 = r.version();
        r.mark_running();
        assert_eq!(r.phase(), JobPhase::Running);
        r.note_progress(4);
        assert_eq!(r.completed(), 4);
        assert!(r.version() > v0);
        let state = dummy_state();
        let digest = state.digest();
        r.finish(JobDone {
            state,
            digest,
            report: empty_report(),
            error: None,
        });
        assert_eq!(r.phase(), JobPhase::Done);
        // Success forces the committed count to the program total.
        assert_eq!(r.completed(), 10);
        assert_eq!(r.with_outcome(|d| d.digest), Some(digest));
        assert!(r.wait_terminal(Duration::from_millis(1)));
    }

    #[test]
    fn cancellation_outcome_keeps_the_barrier_count() {
        let r = record();
        r.mark_running();
        r.note_progress(3);
        r.finish(JobDone {
            state: dummy_state(),
            digest: 0,
            report: empty_report(),
            error: Some(ExecError::JobCancelled { completed: 3 }),
        });
        assert_eq!(r.phase(), JobPhase::Failed);
        assert_eq!(r.completed(), 3);
    }

    #[test]
    fn wait_terminal_times_out_on_a_live_job() {
        let r = record();
        assert!(!r.wait_terminal(Duration::from_millis(5)));
    }

    #[test]
    fn stall_resume_lifecycle_rearms_cancel_and_counts_restarts() {
        let r = record();
        r.mark_running();
        let first = r.cancel_handle();
        r.note_stalled();
        r.fire_cancel();
        assert!(first.is_cancelled());
        assert!(r.take_stalled());
        assert!(!r.take_stalled(), "the flag is consumed once");
        let fresh = r.rearm_cancel();
        assert!(!fresh.is_cancelled(), "the resumed run starts un-cancelled");
        assert!(!r.cancel_handle().is_cancelled());
        assert_eq!(r.mark_resumed(), 1);
        assert_eq!(r.phase(), JobPhase::Resumed);
        assert_eq!(r.restarts(), 1);
        let s = r.status();
        assert_eq!(s.restarts, 1);
        assert!(!s.recovered);
    }

    #[test]
    fn recovered_records_boot_resumed_with_their_restart_count() {
        let r = JobRecord::recovered("job-7".into(), "acme".into(), 10, Some("/tmp/c".into()), 3);
        assert!(r.recovered);
        assert_eq!(r.restarts(), 3);
        assert_eq!(r.phase(), JobPhase::Resumed);
        assert!(r.status().recovered);
    }

    #[test]
    fn interrupted_phase_seals_and_wakes_waiters() {
        let r = record();
        r.mark_running();
        r.note_progress(4);
        r.finish_with_phase(
            JobDone {
                state: dummy_state(),
                digest: 0,
                report: empty_report(),
                error: Some(ExecError::JobCancelled { completed: 4 }),
            },
            JobPhase::Interrupted,
        );
        assert_eq!(r.phase(), JobPhase::Interrupted);
        assert!(r.wait_terminal(Duration::from_millis(1)));
        assert_eq!(r.completed(), 4);
    }

    #[test]
    fn heartbeat_clock_resets_on_progress() {
        let r = record();
        std::thread::sleep(Duration::from_millis(15));
        assert!(r.idle_for() >= Duration::from_millis(10));
        r.note_progress(1);
        assert!(r.idle_for() < Duration::from_millis(10));
    }

    #[test]
    fn tenant_quota_admits_then_rejects_then_releases() {
        let book = TenantBook::default();
        assert!(book.try_admit("acme", 2).is_ok());
        assert!(book.try_admit("acme", 2).is_ok());
        assert_eq!(book.try_admit("acme", 2), Err(2));
        // An independent tenant has its own budget.
        assert!(book.try_admit("zen", 2).is_ok());
        book.release("acme");
        assert!(book.try_admit("acme", 2).is_ok());
        let rows = book.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tenant, "acme");
        assert_eq!(rows[0].in_flight, 2);
        assert_eq!(rows[0].rejected, 1);
        assert_eq!(book.in_flight("zen"), 1);
    }

    #[test]
    fn unchecked_admission_bypasses_the_quota_gate() {
        let book = TenantBook::default();
        book.admit_unchecked("acme");
        book.admit_unchecked("acme");
        assert_eq!(book.in_flight("acme"), 2);
        // Over quota now, so checked admission refuses…
        assert_eq!(book.try_admit("acme", 2), Err(2));
        // …but release still frees the recovered slots.
        book.release("acme");
        assert!(book.try_admit("acme", 2).is_ok());
    }
}
