//! `stencilcl` — a framework for synthesizing iterative stencil algorithms
//! on FPGAs using the OpenCL model.
//!
//! This crate is the facade over the full reproduction of the DAC'17 paper
//! *"A Comprehensive Framework for Synthesizing Stencil Algorithms on FPGAs
//! using OpenCL Model"* (Wang & Liang). It wires the subsystem crates into
//! the paper's Figure 5 tool flow:
//!
//! ```text
//!  stencil DSL source ──► feature extractor ──► performance optimizer
//!        (lang)                (lang)           (opt: model + HLS estimates)
//!                                                        │ optimal h, f_d^k
//!                                                        ▼
//!  functional validation ◄── simulator ◄── automatic code generator
//!        (exec)                (sim)             (codegen: OpenCL + host)
//! ```
//!
//! * [`Framework`] runs the whole flow for one stencil program;
//! * [`suite`] provides the paper's Table 2 benchmarks with their Table 3
//!   search configurations;
//! * [`SynthesisReport`] carries everything a Table 3 row needs: optimal
//!   parameters, resource utilization, predicted and simulated latency, and
//!   the generated OpenCL design.
//!
//! # Quickstart
//!
//! ```
//! use stencilcl::{Framework, suite};
//!
//! // Synthesize a scaled-down Jacobi-2D (fast enough for a doc test).
//! let bench = suite::by_name("jacobi_2d").unwrap();
//! let program = bench.scaled(512, 64);
//! let report = Framework::new().synthesize(&program, &bench.search)?;
//! assert!(report.speedup_simulated() > 1.0);
//! println!("{}", report.summary());
//! # Ok::<(), stencilcl::FrameworkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod error;
mod framework;
mod report;
pub mod suite;

pub use error::FrameworkError;
pub use framework::Framework;
pub use report::{DesignEval, SynthesisReport};

/// Commonly used types from every subsystem crate, re-exported.
pub mod prelude {
    pub use stencilcl_codegen::{generate, CodegenOptions, GeneratedCode};
    pub use stencilcl_exec::{
        live_workers, load_latest, resume_supervised_full, run_pipe_shared_opts,
        run_reference_opts, run_supervised_full, run_supervised_opts, run_threaded_opts,
        verify_design, CheckpointManifest, CheckpointPolicy, DesignSpec, DirStore, ExecMode,
        ExecOptions, ExecPolicy, HealthMode, HealthPolicy, LoadedCheckpoint, RecoveryPath,
        RunReport,
    };
    pub use stencilcl_grid::{
        Cone, Design, DesignKind, Extent, Grid, Growth, Partition, Point, Rect,
    };
    pub use stencilcl_hls::{
        estimate_resources, schedule, synthesize, CostModel, Device, HlsReport, ResourceUsage,
    };
    pub use stencilcl_lang::{
        parse, programs, CompiledProgram, GridState, Interpreter, Program, StencilFeatures,
    };
    pub use stencilcl_model::{predict, ModelInputs, Prediction};
    pub use stencilcl_opt::{
        balance_tiles, optimize_baseline, optimize_heterogeneous, optimize_pair, DesignPoint,
        OptimizedPair, SearchConfig,
    };
    pub use stencilcl_sim::{simulate, Breakdown, SimReport};
    pub use stencilcl_telemetry::{
        CalibrationReport, Counter, Disabled, EnvConfig, MeasuredTrace, Recorder, TraceSink,
    };

    pub use crate::{Framework, FrameworkError, SynthesisReport};
}
