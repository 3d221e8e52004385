//! Functional executors validating stencil design semantics.
//!
//! The OpenCL designs the framework generates are only useful if they compute
//! the *same values* as the original stencil algorithm. This crate executes
//! each accelerator architecture functionally, on real grids, with one
//! entry point per role:
//!
//! * [`run_reference_opts`] — the naive algorithm: every iteration updates
//!   the whole grid with a global synchronization (Figure 3 of the paper);
//! * [`run_pipe_shared_opts`] — every tiled design on one worker: under
//!   the paper's pipe designs (equal and heterogeneous tilings) the tiles of
//!   one region advance in lockstep and exchange boundary slabs after every
//!   statement, exactly what the OpenCL pipes carry; under the baseline
//!   (Nacci et al.) each tile computes its full expanded cone and exchanges
//!   nothing, recomputing the overlap with its neighbors;
//! * [`run_threaded_opts`] — the same designs on real threads: a fixed set
//!   of `min(cores, kernels)` workers (one for a sweep too small to split;
//!   it runs on the calling thread), each driving a contiguous group of
//!   tile kernels in lockstep, with bounded crossbeam channels as the pipes
//!   between groups — a live concurrent execution of the dataflow, not a
//!   re-simulation. [`run_pipe_shared_opts`] is its one-worker case.
//!
//! One driver runs **one** per-kernel tiled step for every design kind and
//! worker count: load the kernel's window, sweep a statement over its
//! domain and commit it, gather and emit its slabs from the committed
//! window, splice the neighbors' slabs, store the tile. A baseline plan
//! routes no slab, so its step is load, sweep, store. Slabs between two
//! kernels of one worker go through its edge buffer, slabs between workers
//! through a channel, and every receiver splices in plan edge order, so a
//! halo corner covered by two neighbors gets the same last writer for
//! every worker count. Geometry and routing are planned once per run,
//! each tile keeps a persistent local window whose halo ring is refreshed
//! incrementally between fused blocks, and the global grid is
//! double-buffered instead of snapshot-cloned per block. The barrier loop
//! checks the deadline, scans health before committing, swaps the
//! buffers, and offers every committed barrier to the durable checkpoint
//! writer. Workers report their own failures, panics included; a watchdog
//! turns a silent, wedged pipeline into [`ExecError::PipeStall`], its
//! deadlines come from an [`ExecPolicy`], and a failed pool is torn down
//! through its own cooperative [`CancelHandle`], so worker threads never
//! outlive the call.
//!
//! On top of the tiled executor, [`run_supervised_opts`] (and
//! [`run_supervised_full`], which also reports failed runs) adds
//! production robustness: the double-buffered grid is a checkpoint at every
//! fused-block barrier, transient faults (panics, stalls, pipe-protocol
//! skew) trigger checkpointed retries with exponential backoff, and once
//! [`ExecPolicy::max_retries`] is spent the run degrades to one worker —
//! which keeps sealing checkpoint generations at its own barriers — every
//! attempt recorded in a [`RunReport`].
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
//! (region, kernel) for the tiled executors — that walk each row in chunks
//! of [`ExecOptions::lanes`] cells per tape pass (256 by default; the
//! lanes run across cells, never within one, so every width is
//! bit-exact). The reference and the tiled step run the same
//! line-buffered sweep (`CompiledProgram::apply_statement_with`). The
//! tree-walking `stencilcl_lang::Interpreter` stays in the
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
//! lock-free. `RedundantCells` counts the evaluations outside a kernel's
//! own tile: a baseline cone's overlap, a pipe design's region-boundary
//! halo. The executors are generic over the [`TraceSink`], so the
//! default untraced run monomorphizes against a zero-sized no-op sink and
//! pays nothing. The `ablation_trace` bench bin and the CLI `trace`
//! subcommand export Chrome-tracing JSON and calibration reports.
//!
//! # Limitations
//!
//! Pipe designs exchange data across tile *faces* only. Under a pipe
//! design, stencils whose statements read diagonal offsets (more than one
//! nonzero coordinate) would need corner exchanges and are rejected with
//! [`ExecError::DiagonalAccess`]; all seven paper benchmarks are star
//! stencils. A baseline design exchanges nothing and runs any shape.
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

pub use error::ExecError;
pub use faults::{FaultKind, FaultPlan};
pub use integrity::{HealthMode, HealthPolicy};
pub use jobs::{CancelHandle, ExecPool, JobOutcome, JobSpec, Progress};
pub use options::ExecOptions;
pub use persist::{
    load_latest, policy_fingerprint, program_hash, resume_supervised_full, write_generation,
    CheckpointManifest, CheckpointPolicy, DesignSpec, DirStore, GridMeta, LoadedCheckpoint,
};
pub use pipeshare::run_pipe_shared_opts;
pub use reference::run_reference_opts;
pub use supervise::{
    run_supervised_full, run_supervised_opts, Attempt, AttemptMode, DecorrelatedJitter, ExecPolicy,
    RecoveryPath, RunReport,
};
pub use threaded::{live_workers, run_threaded_opts};
pub use verify::{verify_design, ExecMode};

// Telemetry vocabulary re-exported so executor callers need not depend on
// the telemetry crate directly for the common case.
pub use stencilcl_telemetry::{Counter, Disabled, MeasuredTrace, Recorder, TraceSink};
