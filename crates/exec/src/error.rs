use std::fmt;

use stencilcl_grid::GridError;
use stencilcl_lang::LangError;

/// Errors produced by the functional executors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// An underlying language/interpreter error.
    Lang(LangError),
    /// An underlying geometry error.
    Grid(GridError),
    /// The stencil reads diagonal offsets, which face-only pipe exchange
    /// cannot serve (see the crate-level limitations).
    DiagonalAccess {
        /// The offending statement's target grid.
        statement: String,
    },
    /// The run cannot proceed as configured: geometry that disagrees with
    /// the program (a window or tile that does not fit), a pipe-protocol
    /// skew, a hung-up pipe partner, or a worker thread that failed to
    /// spawn.
    BadConfiguration {
        /// Human-readable description.
        detail: String,
    },
    /// A worker thread of the threaded executor panicked.
    WorkerPanic {
        /// Kernel id of the failed worker.
        kernel: usize,
    },
    /// The threaded executor's watchdog saw no progress: a worker failed to
    /// report its pass within the deadline, indicating a wedged pipe
    /// exchange. The pool is then cancelled cooperatively and joined, so
    /// the stall does not leak worker threads.
    PipeStall {
        /// Kernel id of the first worker that failed to report.
        kernel: usize,
    },
    /// A worker exited because its pool was cancelled during teardown.
    /// Never the root cause of a failure — the error that triggered the
    /// teardown is reported instead.
    Cancelled,
    /// Supervised execution spent its whole retry budget on transient
    /// faults and was configured without a sequential fallback.
    RetriesExhausted {
        /// Threaded attempts made (first attempt plus retries).
        attempts: u32,
        /// The classified fault of the final attempt (also available via
        /// [`std::error::Error::source`]).
        last: Box<ExecError>,
    },
    /// A boundary slab failed checksum or sequence verification at splice
    /// time: the payload was corrupted somewhere between send and receive.
    /// Classified transient — a deterministic recompute from the last
    /// fused-block checkpoint repairs it.
    SlabCorrupt {
        /// Kernel id of the receiver that detected the mismatch.
        kernel: usize,
        /// The `(iteration, statement)` step tag the corrupt slab carried.
        step: (u64, usize),
    },
    /// The numerical-health watchdog sampled a non-finite or out-of-bound
    /// value at a fused-block barrier. Classified permanent — deterministic
    /// recompute reproduces the same divergence, so the supervisor must not
    /// burn retries on it. The output buffer keeps the last healthy
    /// checkpoint.
    NumericDivergence {
        /// Kernel whose tile contains the divergent cell (0 for the
        /// unpartitioned executors).
        kernel: usize,
        /// Number of iterations fully completed before the unhealthy
        /// barrier (the divergence appeared in the following block).
        iteration: u64,
        /// Coordinates of the first divergent cell in scan order.
        cell: Vec<i64>,
        /// The offending value, for the diagnostic. NaN compares unequal,
        /// so comparisons go through `to_bits`.
        value: f64,
    },
    /// The wall-clock deadline from [`ExecPolicy::deadline`] elapsed before
    /// the run finished. Checked cooperatively at fused-block barriers and
    /// inside the pipe tick, so workers join instead of wedging. Classified
    /// permanent — retrying cannot create more time.
    ///
    /// [`ExecPolicy::deadline`]: crate::ExecPolicy
    DeadlineExceeded {
        /// Iterations fully completed before the deadline fired.
        completed: u64,
    },
    /// The run was cancelled from outside through a
    /// [`CancelHandle`](crate::CancelHandle) — a client abort, a service
    /// drain. Unlike [`ExecError::Cancelled`] (the *internal* teardown
    /// marker workers exit with), this is the run's root-cause outcome and
    /// is classified permanent: the supervisor must stop at the last
    /// consistent barrier instead of retrying work nobody wants anymore.
    /// `state` keeps that barrier's grid, so an armed checkpoint store
    /// stays resumable.
    JobCancelled {
        /// Iterations fully completed and checkpointed before the
        /// cancellation was observed.
        completed: u64,
    },
    /// The scheduler's stuck-job watchdog saw the job's `Progress`
    /// heartbeat go silent past its stall timeout, cancelled the run, and
    /// spent the whole auto-resume budget without the job ever finishing.
    /// Unlike [`ExecError::PipeStall`] (one attempt's wedged pipe, absorbed
    /// by the supervisor's retry ladder), this is the *job-level* terminal
    /// verdict: every resume from the latest sealed generation stalled
    /// again.
    JobStalled {
        /// Iterations fully completed and checkpointed across all attempts.
        completed: u64,
        /// Auto-resume attempts spent before giving up.
        resumes: u32,
    },
    /// No checkpoint generation in the store could be resumed: either the
    /// newest intact manifest describes a different program (its sealed
    /// program hash does not match the one being resumed), or every
    /// generation failed digest/decoding validation. Classified permanent —
    /// the on-disk state can never become compatible by retrying.
    CheckpointMismatch {
        /// Per-generation diagnostics from the fallback ladder.
        detail: String,
    },
}

impl ExecError {
    /// Stable machine-readable tag, identical to the `kind` field of the
    /// serialized JSON shape. Job-history consumers match on this without
    /// re-parsing diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::Lang(_) => "Lang",
            ExecError::Grid(_) => "Grid",
            ExecError::DiagonalAccess { .. } => "DiagonalAccess",
            ExecError::BadConfiguration { .. } => "BadConfiguration",
            ExecError::WorkerPanic { .. } => "WorkerPanic",
            ExecError::PipeStall { .. } => "PipeStall",
            ExecError::Cancelled => "Cancelled",
            ExecError::RetriesExhausted { .. } => "RetriesExhausted",
            ExecError::SlabCorrupt { .. } => "SlabCorrupt",
            ExecError::NumericDivergence { .. } => "NumericDivergence",
            ExecError::DeadlineExceeded { .. } => "DeadlineExceeded",
            ExecError::JobCancelled { .. } => "JobCancelled",
            ExecError::JobStalled { .. } => "JobStalled",
            ExecError::CheckpointMismatch { .. } => "CheckpointMismatch",
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Lang(e) => write!(f, "language error: {e}"),
            ExecError::Grid(e) => write!(f, "geometry error: {e}"),
            ExecError::DiagonalAccess { statement } => write!(
                f,
                "statement updating `{statement}` reads diagonal offsets; \
                 pipe-based execution exchanges face slabs only"
            ),
            ExecError::BadConfiguration { detail } => write!(f, "bad configuration: {detail}"),
            ExecError::WorkerPanic { kernel } => {
                write!(f, "worker thread for kernel {kernel} panicked")
            }
            ExecError::PipeStall { kernel } => {
                write!(
                    f,
                    "pipe executor stalled: worker for kernel {kernel} made no \
                     progress before the watchdog deadline"
                )
            }
            ExecError::Cancelled => {
                write!(f, "worker exited on pool cancellation during teardown")
            }
            ExecError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "supervised execution failed after {attempts} threaded \
                     attempt(s); last fault: {last}"
                )
            }
            ExecError::SlabCorrupt { kernel, step } => {
                write!(
                    f,
                    "slab integrity violation: kernel {kernel} received a slab \
                     for iteration {} statement {} whose checksum or sequence \
                     number does not match its payload",
                    step.0, step.1
                )
            }
            ExecError::NumericDivergence {
                kernel,
                iteration,
                cell,
                value,
            } => {
                write!(
                    f,
                    "numerical divergence: kernel {kernel} produced {value} at \
                     cell {cell:?} after {iteration} completed iteration(s)"
                )
            }
            ExecError::DeadlineExceeded { completed } => {
                write!(
                    f,
                    "run deadline exceeded after {completed} completed iteration(s)"
                )
            }
            ExecError::JobCancelled { completed } => {
                write!(f, "job cancelled after {completed} completed iteration(s)")
            }
            ExecError::JobStalled { completed, resumes } => {
                write!(
                    f,
                    "job stalled: no progress heartbeat within the watchdog \
                     timeout after {completed} completed iteration(s) and \
                     {resumes} auto-resume(s)"
                )
            }
            ExecError::CheckpointMismatch { detail } => {
                write!(f, "no resumable checkpoint generation: {detail}")
            }
        }
    }
}

// Structured JSON shape for `RunReport` serialization (`--report-json`):
// a stable `kind` tag plus the human-readable message — job-history
// consumers match on the tag without re-parsing diagnostics.
impl serde::Serialize for ExecError {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "kind".to_string(),
                serde::Value::Str(self.kind().to_string()),
            ),
            ("message".to_string(), serde::Value::Str(self.to_string())),
        ])
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Lang(e) => Some(e),
            ExecError::Grid(e) => Some(e),
            ExecError::RetriesExhausted { last, .. } => Some(&**last),
            _ => None,
        }
    }
}

impl From<LangError> for ExecError {
    fn from(e: LangError) -> Self {
        ExecError::Lang(e)
    }
}

impl From<GridError> for ExecError {
    fn from(e: GridError) -> Self {
        ExecError::Grid(e)
    }
}

impl ExecError {
    /// Convenience constructor for configuration errors.
    pub fn config(detail: impl Into<String>) -> Self {
        ExecError::BadConfiguration {
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error;
        let e = ExecError::from(GridError::EmptyExtent);
        assert!(e.source().is_some());
        let d = ExecError::DiagonalAccess {
            statement: "A".into(),
        };
        assert!(d.to_string().contains("diagonal"));
        assert!(d.source().is_none());
        assert!(ExecError::config("x").to_string().contains('x'));
        let stall = ExecError::PipeStall { kernel: 3 };
        assert!(stall.to_string().contains("kernel 3"));
        assert!(stall.source().is_none());
    }

    #[test]
    fn retries_exhausted_chains_to_the_last_fault() {
        use std::error::Error;
        let e = ExecError::RetriesExhausted {
            attempts: 3,
            last: Box::new(ExecError::PipeStall { kernel: 1 }),
        };
        assert!(e.to_string().contains("3 threaded attempt"));
        assert!(e.to_string().contains("kernel 1"));
        let src = e.source().expect("chained source");
        assert!(src.to_string().contains("stalled"));
        assert!(ExecError::Cancelled.to_string().contains("cancellation"));
        assert!(ExecError::Cancelled.source().is_none());
    }

    #[test]
    fn integrity_errors_display_their_coordinates() {
        use std::error::Error;
        let c = ExecError::SlabCorrupt {
            kernel: 2,
            step: (5, 1),
        };
        let msg = c.to_string();
        assert!(msg.contains("kernel 2"));
        assert!(msg.contains("iteration 5"));
        assert!(msg.contains("statement 1"));
        assert!(c.source().is_none());

        let d = ExecError::NumericDivergence {
            kernel: 1,
            iteration: 3,
            cell: vec![4, 7],
            value: f64::NAN,
        };
        let msg = d.to_string();
        assert!(msg.contains("kernel 1"));
        assert!(msg.contains("[4, 7]"));
        assert!(msg.contains("NaN"));
        assert!(msg.contains("3 completed"));
        assert!(d.source().is_none());

        let t = ExecError::DeadlineExceeded { completed: 9 };
        assert!(t.to_string().contains("deadline"));
        assert!(t.to_string().contains('9'));
        assert!(t.source().is_none());
    }

    #[test]
    fn job_stalled_reports_its_budget() {
        use std::error::Error;
        let e = ExecError::JobStalled {
            completed: 12,
            resumes: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("stalled"));
        assert!(msg.contains("12 completed"));
        assert!(msg.contains("2 auto-resume"));
        assert!(e.source().is_none());
        let json = serde_json::to_string(&e).expect("serialize");
        assert!(json.contains("\"kind\":\"JobStalled\""), "{json}");
    }

    #[test]
    fn checkpoint_mismatch_carries_its_diagnostics() {
        use std::error::Error;
        let e = ExecError::CheckpointMismatch {
            detail: "generation 3: digest mismatch".into(),
        };
        assert!(e.to_string().contains("generation 3"));
        assert!(e.source().is_none());
    }

    #[test]
    fn errors_serialize_with_a_stable_kind_tag() {
        let json = serde_json::to_string(&ExecError::DeadlineExceeded { completed: 4 })
            .expect("serialize");
        assert!(json.contains("\"kind\":\"DeadlineExceeded\""), "{json}");
        assert!(json.contains("4 completed"), "{json}");
        let json = serde_json::to_string(&ExecError::CheckpointMismatch { detail: "x".into() })
            .expect("serialize");
        assert!(json.contains("CheckpointMismatch"), "{json}");
    }
}
