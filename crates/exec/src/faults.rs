//! Deterministic fault injection for the threaded pipe executor.
//!
//! A [`FaultPlan`] triggers faults by **kernel id × fused-block index** —
//! no randomness, no seeds: the same plan reproduces the same failure in
//! every run, which is what makes supervised-recovery tests meaningful.
//! Each injected fault fires exactly **once**: a retried attempt observes
//! the fault on first encounter and a clean pipeline afterwards, the
//! transient-fault shape [`run_supervised_opts`](crate::run_supervised_opts) is
//! built to absorb (inject the same trigger several times to fail several
//! consecutive attempts).
//!
//! The armed implementation is compiled only under the `fault-injection`
//! cargo feature. Without it [`FaultPlan`] is a zero-sized type whose
//! trigger check inlines to `None`, so production builds pay nothing for
//! the hooks threaded through the executor.

use std::fmt;

/// What an injected fault makes the targeted worker do at the start of the
/// triggering fused block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// The worker thread panics — the watchdog must classify the silent,
    /// dead worker as [`ExecError::WorkerPanic`](crate::ExecError).
    WorkerPanic,
    /// The worker wedges silently (never reports the block) until the pool
    /// is cancelled — the executor-level shape of a stuck FIFO, classified
    /// as [`ExecError::PipeStall`](crate::ExecError).
    PipeStall,
    /// The worker delays the block by this many milliseconds before
    /// computing. Below the watchdog deadline the run must absorb the
    /// delay without any recovery; above it, the delay is indistinguishable
    /// from a stall and handled as one.
    DelayedSlab(u64),
    /// The worker corrupts the `(iteration, statement)` step tag of every
    /// slab it emits during the block, tripping the receiving kernel's
    /// pipe-protocol check.
    CorruptStepTag,
    /// The worker flips a payload bit in every slab it emits during the
    /// block *after* sealing — the step tag stays valid, so only the
    /// receiver's checksum verification
    /// ([`ExecOptions::integrity`](crate::ExecOptions)) can catch it. With
    /// integrity off this models exactly the silent data corruption the
    /// checksum layer exists to stop.
    CorruptPayload,
    /// Checkpoint I/O fault: the next checkpoint generation written is torn
    /// after this many bytes (the sealed file is truncated mid-payload), so
    /// its trailing digest can never validate — the resume ladder must skip
    /// it and fall back to the previous generation.
    TornWrite(usize),
    /// Checkpoint I/O fault: the next checkpoint generation loaded is read
    /// back truncated to half its length, modeling a short `read(2)` the
    /// caller failed to retry — validation must reject it and fall back.
    ShortRead,
    /// Checkpoint I/O fault: one byte of this on-disk generation is flipped
    /// *after* its atomic rename — sealed-then-rotted media corruption that
    /// only the trailing digest can catch.
    CorruptCheckpoint(u64),
    /// Checkpoint I/O fault: the next checkpoint `fsync` fails. The write
    /// protocol must abort before the atomic rename, leaving no new
    /// generation (and every old generation intact).
    FsyncFail,
    /// Job-level fault: the pool runner that picks the job up panics
    /// before entering the supervisor. [`ExecPool`](crate::ExecPool) must
    /// catch the dead runner, respawn it, and requeue the victim job —
    /// the service-plane twin of [`FaultKind::WorkerPanic`].
    RunnerPanicAtJob,
    /// Job-level fault: the pool runner wedges for this many milliseconds
    /// before entering the supervisor, emitting no `Progress` heartbeat —
    /// the trigger shape a scheduler-side stuck-job watchdog must detect
    /// and cancel. The wedge is cancellation-aware, so a watchdog's
    /// `CancelHandle` drains it promptly.
    StallJob(u64),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::WorkerPanic => f.write_str("worker panic"),
            FaultKind::PipeStall => f.write_str("pipe stall"),
            FaultKind::DelayedSlab(ms) => write!(f, "delayed slab ({ms} ms)"),
            FaultKind::CorruptStepTag => f.write_str("corrupted slab step tag"),
            FaultKind::CorruptPayload => f.write_str("corrupted slab payload"),
            FaultKind::TornWrite(bytes) => write!(f, "torn checkpoint write ({bytes} bytes)"),
            FaultKind::ShortRead => f.write_str("short checkpoint read"),
            FaultKind::CorruptCheckpoint(generation) => {
                write!(f, "corrupted checkpoint generation {generation}")
            }
            FaultKind::FsyncFail => f.write_str("checkpoint fsync failure"),
            FaultKind::RunnerPanicAtJob => f.write_str("runner panic at job pickup"),
            FaultKind::StallJob(ms) => write!(f, "stalled job ({ms} ms silent)"),
        }
    }
}

/// Which checkpoint I/O operation is consulting the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoOp {
    /// Sealing a new generation (fires torn writes, fsync failures, and
    /// post-rename corruption).
    Write,
    /// Loading an existing generation (fires short reads).
    Read,
}

#[cfg(feature = "fault-injection")]
mod plan {
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::{FaultKind, IoOp};

    /// One armed fault: a one-shot `fired` latch on its trigger.
    #[derive(Debug)]
    struct Armed {
        kernel: usize,
        block: u64,
        kind: FaultKind,
        fired: AtomicBool,
    }

    /// One armed checkpoint I/O fault: fires on the next matching store
    /// operation ([`FaultKind::CorruptCheckpoint`] additionally keys on its
    /// generation).
    #[derive(Debug)]
    struct ArmedIo {
        kind: FaultKind,
        fired: AtomicBool,
    }

    /// One armed job-level fault: fires when a pool runner picks a job up,
    /// once, in insertion order.
    #[derive(Debug)]
    struct ArmedJob {
        kind: FaultKind,
        fired: AtomicBool,
    }

    /// A deterministic schedule of executor faults (see the module docs).
    ///
    /// Built with [`FaultPlan::inject`] and handed to an executor through
    /// [`ExecOptions::faults`](crate::ExecOptions::faults); workers consult
    /// it at every fused-block start. Duplicate triggers are
    /// legitimate: each entry fires once, in insertion order.
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        faults: Vec<Armed>,
        io_faults: Vec<ArmedIo>,
        job_faults: Vec<ArmedJob>,
    }

    impl FaultPlan {
        /// An empty plan: no faults ever fire.
        pub fn new() -> Self {
            Self::default()
        }

        /// Adds a one-shot fault fired by worker `kernel` when it begins
        /// global fused block `block` (block indices count from 0 across
        /// the whole supervised run, surviving checkpointed retries).
        #[must_use]
        pub fn inject(mut self, kernel: usize, block: u64, kind: FaultKind) -> Self {
            self.faults.push(Armed {
                kernel,
                block,
                kind,
                fired: AtomicBool::new(false),
            });
            self
        }

        /// Number of injected faults.
        pub fn len(&self) -> usize {
            self.faults.len()
        }

        /// Whether the plan is empty.
        pub fn is_empty(&self) -> bool {
            self.faults.is_empty()
        }

        /// How many faults have fired so far.
        pub fn fired(&self) -> usize {
            self.faults
                .iter()
                .filter(|f| f.fired.load(Ordering::SeqCst))
                .count()
        }

        /// One-shot trigger check, called by worker `kernel` at the start
        /// of fused block `block`. At most one armed entry fires per call.
        pub(crate) fn fire(&self, kernel: usize, block: u64) -> Option<FaultKind> {
            self.faults.iter().find_map(|f| {
                (f.kernel == kernel
                    && f.block == block
                    && f.fired
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok())
                .then_some(f.kind)
            })
        }

        /// Arms a one-shot checkpoint I/O fault
        /// ([`FaultKind::TornWrite`], [`FaultKind::ShortRead`],
        /// [`FaultKind::CorruptCheckpoint`], [`FaultKind::FsyncFail`]).
        /// Non-I/O kinds are rejected at arm time so a misrouted trigger
        /// cannot silently never fire.
        ///
        /// # Panics
        ///
        /// Panics when `kind` is not a checkpoint I/O fault.
        #[must_use]
        pub fn inject_io(mut self, kind: FaultKind) -> Self {
            assert!(
                matches!(
                    kind,
                    FaultKind::TornWrite(_)
                        | FaultKind::ShortRead
                        | FaultKind::CorruptCheckpoint(_)
                        | FaultKind::FsyncFail
                ),
                "inject_io takes checkpoint I/O fault kinds, got {kind:?}"
            );
            self.io_faults.push(ArmedIo {
                kind,
                fired: AtomicBool::new(false),
            });
            self
        }

        /// How many checkpoint I/O faults have fired so far.
        pub fn io_fired(&self) -> usize {
            self.io_faults
                .iter()
                .filter(|f| f.fired.load(Ordering::SeqCst))
                .count()
        }

        /// Arms a one-shot job-level fault ([`FaultKind::RunnerPanicAtJob`],
        /// [`FaultKind::StallJob`]), fired by the pool runner that picks the
        /// next job up. Non-job kinds are rejected at arm time so a
        /// misrouted trigger cannot silently never fire.
        ///
        /// # Panics
        ///
        /// Panics when `kind` is not a job-level fault.
        #[must_use]
        pub fn inject_job(mut self, kind: FaultKind) -> Self {
            assert!(
                matches!(kind, FaultKind::RunnerPanicAtJob | FaultKind::StallJob(_)),
                "inject_job takes job-level fault kinds, got {kind:?}"
            );
            self.job_faults.push(ArmedJob {
                kind,
                fired: AtomicBool::new(false),
            });
            self
        }

        /// How many job-level faults have fired so far.
        pub fn job_fired(&self) -> usize {
            self.job_faults
                .iter()
                .filter(|f| f.fired.load(Ordering::SeqCst))
                .count()
        }

        /// One-shot trigger check at job pickup. At most one armed entry
        /// fires per call, in insertion order.
        pub(crate) fn fire_job(&self) -> Option<FaultKind> {
            self.job_faults.iter().find_map(|f| {
                f.fired
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                    .then_some(f.kind)
            })
        }

        /// One-shot trigger check for checkpoint I/O: `op` is what the
        /// store is doing and `generation` the generation it touches. At
        /// most one armed entry fires per call, in insertion order.
        pub(crate) fn fire_io(&self, op: IoOp, generation: u64) -> Option<FaultKind> {
            self.io_faults.iter().find_map(|f| {
                let matches_op = match (op, f.kind) {
                    (IoOp::Write, FaultKind::TornWrite(_) | FaultKind::FsyncFail) => true,
                    (IoOp::Write, FaultKind::CorruptCheckpoint(g)) => g == generation,
                    (IoOp::Read, FaultKind::ShortRead) => true,
                    _ => false,
                };
                (matches_op
                    && f.fired
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok())
                .then_some(f.kind)
            })
        }
    }
}

#[cfg(not(feature = "fault-injection"))]
mod plan {
    use super::{FaultKind, IoOp};

    /// Zero-cost stand-in compiled without the `fault-injection` feature:
    /// the trigger check inlines to `None` and the whole fault path folds
    /// away.
    #[derive(Debug, Default)]
    pub struct FaultPlan;

    impl FaultPlan {
        /// An empty plan: no faults ever fire.
        pub fn new() -> Self {
            FaultPlan
        }

        #[inline]
        pub(crate) fn fire(&self, _kernel: usize, _block: u64) -> Option<FaultKind> {
            None
        }

        #[inline]
        pub(crate) fn fire_io(&self, _op: IoOp, _generation: u64) -> Option<FaultKind> {
            None
        }

        #[inline]
        pub(crate) fn fire_job(&self) -> Option<FaultKind> {
            None
        }
    }
}

pub use plan::FaultPlan;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kinds_display() {
        assert_eq!(FaultKind::PipeStall.to_string(), "pipe stall");
        assert!(FaultKind::DelayedSlab(40).to_string().contains("40 ms"));
        assert_eq!(
            FaultKind::CorruptPayload.to_string(),
            "corrupted slab payload"
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn faults_fire_exactly_once_on_their_trigger() {
        let plan = FaultPlan::new().inject(1, 2, FaultKind::PipeStall).inject(
            1,
            2,
            FaultKind::WorkerPanic,
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.fire(0, 2), None);
        assert_eq!(plan.fire(1, 0), None);
        // Duplicate triggers fire in insertion order, one per call.
        assert_eq!(plan.fire(1, 2), Some(FaultKind::PipeStall));
        assert_eq!(plan.fire(1, 2), Some(FaultKind::WorkerPanic));
        assert_eq!(plan.fire(1, 2), None);
        assert_eq!(plan.fired(), 2);
    }

    #[test]
    fn io_fault_kinds_display() {
        assert!(FaultKind::TornWrite(128).to_string().contains("128 bytes"));
        assert_eq!(FaultKind::ShortRead.to_string(), "short checkpoint read");
        assert!(FaultKind::CorruptCheckpoint(5)
            .to_string()
            .contains("generation 5"));
        assert!(FaultKind::FsyncFail.to_string().contains("fsync"));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn io_faults_fire_once_on_their_matching_operation() {
        let plan = FaultPlan::new()
            .inject_io(FaultKind::FsyncFail)
            .inject_io(FaultKind::CorruptCheckpoint(2))
            .inject_io(FaultKind::ShortRead);
        // Reads never trip write-side faults and vice versa.
        assert_eq!(plan.fire_io(IoOp::Read, 0), Some(FaultKind::ShortRead));
        assert_eq!(plan.fire_io(IoOp::Read, 1), None);
        // Generation-keyed corruption waits for its generation.
        assert_eq!(plan.fire_io(IoOp::Write, 1), Some(FaultKind::FsyncFail));
        assert_eq!(plan.fire_io(IoOp::Write, 1), None);
        assert_eq!(
            plan.fire_io(IoOp::Write, 2),
            Some(FaultKind::CorruptCheckpoint(2))
        );
        assert_eq!(plan.io_fired(), 3);
        // Block-trigger accounting is untouched.
        assert_eq!(plan.fired(), 0);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    #[should_panic(expected = "checkpoint I/O fault")]
    fn non_io_kinds_are_rejected_at_arm_time() {
        let _ = FaultPlan::new().inject_io(FaultKind::WorkerPanic);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn job_faults_fire_once_in_insertion_order() {
        let plan = FaultPlan::new()
            .inject_job(FaultKind::StallJob(50))
            .inject_job(FaultKind::RunnerPanicAtJob);
        assert_eq!(plan.fire_job(), Some(FaultKind::StallJob(50)));
        assert_eq!(plan.fire_job(), Some(FaultKind::RunnerPanicAtJob));
        assert_eq!(plan.fire_job(), None);
        assert_eq!(plan.job_fired(), 2);
        // Block and I/O accounting are untouched.
        assert_eq!(plan.fired(), 0);
        assert_eq!(plan.io_fired(), 0);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    #[should_panic(expected = "job-level fault")]
    fn non_job_kinds_are_rejected_at_arm_time() {
        let _ = FaultPlan::new().inject_job(FaultKind::FsyncFail);
    }

    #[test]
    fn job_fault_kinds_display() {
        assert!(FaultKind::RunnerPanicAtJob.to_string().contains("runner"));
        assert!(FaultKind::StallJob(75).to_string().contains("75 ms"));
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::new();
        assert_eq!(plan.fire(0, 0), None);
        assert_eq!(plan.fire(3, 7), None);
        assert_eq!(plan.fire_io(IoOp::Write, 0), None);
        assert_eq!(plan.fire_io(IoOp::Read, 0), None);
        assert_eq!(plan.fire_job(), None);
    }
}
