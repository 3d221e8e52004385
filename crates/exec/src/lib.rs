//! Functional executors validating stencil design semantics.
//!
//! The OpenCL designs the framework generates are only useful if they compute
//! the *same values* as the original stencil algorithm. This crate executes
//! each accelerator architecture functionally, on real grids, with one
//! entry point per role:
//!
//! * [`run_reference_opts`] — the naive algorithm: every iteration updates
//!   the whole grid with a global synchronization (Figure 3 of the paper);
//! * [`run_overlapped_opts`] — the baseline (Nacci et al.): each tile loads
//!   its expanded cone footprint and computes all fused iterations
//!   independently, recomputing the overlap with its neighbors;
//! * [`run_pipe_shared_opts`] — the paper's design: tiles of one region
//!   advance in lockstep and exchange boundary slabs after every statement,
//!   exactly what the OpenCL pipes carry (works for both equal and
//!   heterogeneous tilings);
//! * [`run_threaded_opts`] — the pipe design again, but with a persistent
//!   pool of one OS thread per kernel and bounded crossbeam channels as the
//!   pipes: a live concurrent execution of the dataflow, not a
//!   re-simulation.
//!
//! Both pipe executors share one per-run pipeline plan: geometry is
//! planned once, each tile keeps a persistent local window whose halo ring
//! is refreshed incrementally between fused blocks, and the global grid is
//! double-buffered instead of snapshot-cloned per block. The threaded
//! executor keeps its workers and channels alive for the whole run, guarded
//! by a watchdog that turns a wedged pipeline into [`ExecError::PipeStall`];
//! its deadlines come from an [`ExecPolicy`] and a failed pool is torn down
//! through a cooperative cancellation token, so worker threads never
//! outlive the call.
//!
//! On top of the threaded executor, [`run_supervised_opts`] (and
//! [`run_supervised_full`], which also reports failed runs) adds
//! production robustness: the double-buffered grid is a checkpoint at every
//! fused-block barrier, transient faults (panics, stalls, pipe-protocol
//! skew) trigger checkpointed retries with exponential backoff, and once
//! [`ExecPolicy::max_retries`] is spent the run degrades to the sequential
//! executor — every attempt recorded in a [`RunReport`].
//! [`resume_supervised_full`] restarts a dead run from its newest durable
//! checkpoint. The `fault-injection` cargo feature arms a deterministic
//! fault plan ([`ExecOptions::faults`]) for chaos-testing these paths;
//! without the feature the hooks compile to nothing.
//!
//! Every executor must produce results identical to
//! [`run_reference_opts`] — the crate's test suite and
//! `tests/equivalence.rs` enforce bit-equality, since each grid cell's
//! update expression is evaluated with the same operation order in every
//! mode.
//!
//! Every executor evaluates update statements through flat bytecode
//! kernels (`stencilcl_lang::CompiledProgram`) compiled once per run — per
//! (region, kernel) for the pipe executors — that walk each row in chunks
//! of [`ExecOptions::lanes`] cells per tape pass (256 by default; the
//! lanes run across cells, never within one, so every width is
//! bit-exact). The tree-walking `stencilcl_lang::Interpreter` stays in the
//! language crate as the differential-test oracle.
//!
//! [`ExecOptions`] is the only configuration channel: the crate never reads
//! the process environment. Binaries map the `STENCILCL_*` knobs once
//! through [`ExecOptions::from_config`] and layer their flags on top.
//!
//! # Observability
//!
//! Passing [`ExecOptions::trace`] a [`Recorder`] records per-(kernel,
//! region) phase spans (launch, halo read, compute, pipe wait, write-back,
//! barrier) and event counters (halo bytes, slabs sent/received, cells
//! computed, pipe-stall nanoseconds, retries) from inside every executor,
//! lock-free. The executors are generic over the [`TraceSink`], so the
//! default untraced run monomorphizes against a zero-sized no-op sink and
//! pays nothing. The `ablation_trace` bench bin and the CLI `trace`
//! subcommand export Chrome-tracing JSON and calibration reports.
//!
//! # Limitations
//!
//! Pipe-based executors exchange data across tile *faces* only. Stencils
//! whose statements read diagonal offsets (more than one nonzero coordinate)
//! would need corner exchanges and are rejected with
//! [`ExecError::DiagonalAccess`]; all seven paper benchmarks are star
//! stencils. (The baseline executor handles any shape.)
//!
//! # Example
//!
//! ```
//! use stencilcl_exec::{run_pipe_shared_opts, run_reference_opts, ExecOptions};
//! use stencilcl_grid::{Design, DesignKind, Extent, Partition};
//! use stencilcl_lang::{programs, GridState, StencilFeatures};
//!
//! let program = programs::jacobi_2d().with_extent(Extent::new2(32, 32)).with_iterations(6);
//! let features = StencilFeatures::extract(&program)?;
//! let design = Design::equal(DesignKind::PipeShared, 3, vec![2, 2], vec![8, 8])?;
//! let partition = Partition::new(features.extent, &design, &features.growth)?;
//!
//! let init = |_: &str, p: &stencilcl_grid::Point| (p.coord(0) * 31 + p.coord(1)) as f64;
//! let opts = ExecOptions::new();
//! let mut expect = GridState::new(&program, init);
//! run_reference_opts(&program, &mut expect, &opts)?;
//! let mut got = GridState::new(&program, init);
//! run_pipe_shared_opts(&program, &partition, &mut got, &opts)?;
//! assert_eq!(expect.max_abs_diff(&got)?, 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod domains;
mod error;
mod faults;
mod integrity;
mod jobs;
mod options;
mod overlapped;
mod persist;
mod pipeshare;
mod pool;
mod reference;
mod supervise;
mod threaded;
mod verify;
mod window;

pub use domains::DomainPlan;
pub use error::ExecError;
pub use faults::{FaultKind, FaultPlan};
pub use integrity::{HealthMode, HealthPolicy};
pub use jobs::{CancelHandle, ExecPool, JobOutcome, JobSpec, JobWaiter, Progress};
pub use options::ExecOptions;
pub use overlapped::run_overlapped_opts;
pub use persist::{
    load_latest, policy_fingerprint, program_hash, resume_supervised_full, CheckpointManifest,
    CheckpointPolicy, CheckpointStore, DesignSpec, DirStore, GridMeta, LoadedCheckpoint,
};
pub use pipeshare::run_pipe_shared_opts;
pub use reference::run_reference_opts;
pub use supervise::{
    run_supervised_full, run_supervised_opts, Attempt, AttemptMode, DecorrelatedJitter, ExecPolicy,
    RecoveryPath, RunReport,
};
pub use threaded::{live_workers, run_threaded_opts};
pub use verify::{verify_design, ExecMode};
pub use window::{copy_slab, extract_window, halo_ring, refresh_ring, write_back};

// Telemetry vocabulary re-exported so executor callers need not depend on
// the telemetry crate directly for the common case.
pub use stencilcl_telemetry::{Counter, Disabled, MeasuredTrace, Recorder, TraceSink};
