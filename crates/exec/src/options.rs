//! Per-run executor options: engine selection, supervision policy, and the
//! telemetry sink — all decided **at plan time**, before any worker spawns.
//!
//! Environment variables are only the outermost default (parsed once per
//! process by `stencilcl_telemetry::EnvConfig`); anything driving executors
//! programmatically — the bench A/B harness, tests, the CLI — passes an
//! explicit [`ExecOptions`] instead of mutating process env.

use std::sync::Arc;

use stencilcl_telemetry::{EnvConfig, Recorder};

use crate::faults::FaultPlan;
use crate::integrity::HealthPolicy;
use crate::jobs::{CancelHandle, Progress};
use crate::persist::CheckpointPolicy;
use crate::supervise::ExecPolicy;

/// Which statement evaluator a run uses. Both are bit-exact; see the
/// crate-level docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Flat bytecode kernels compiled once per (region, kernel) — the
    /// default.
    #[default]
    Compiled,
    /// The tree-walking AST interpreter — the differential-test oracle.
    Interpreted,
}

impl EngineKind {
    /// The process default: [`EngineKind::Interpreted`] when
    /// `STENCILCL_INTERPRET` is truthy (non-empty and not `"0"`), read once
    /// per process.
    pub fn from_env() -> EngineKind {
        if EnvConfig::get().interpret {
            EngineKind::Interpreted
        } else {
            EngineKind::Compiled
        }
    }
}

/// Everything an executor run can be configured with. Build with the
/// chained setters:
///
/// ```
/// use stencilcl_exec::{EngineKind, ExecOptions};
/// use stencilcl_telemetry::Recorder;
///
/// let rec = Recorder::new();
/// let opts = ExecOptions::new()
///     .engine(EngineKind::Compiled)
///     .trace(rec.clone());
/// assert!(opts.trace.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Statement evaluator ([`EngineKind::from_env`] default comes via
    /// [`ExecOptions::from_env`]; plain `default()` is the compiled
    /// engine).
    pub engine: EngineKind,
    /// Deadlines and retry limits for the threaded/supervised executors.
    pub policy: ExecPolicy,
    /// Telemetry sink: `Some(recorder)` records spans and counters into it;
    /// `None` runs with the zero-cost disabled sink. The choice happens
    /// here — at plan time — so the executors' hot loops monomorphize
    /// against one sink type and pay nothing when tracing is off.
    pub trace: Option<Recorder>,
    /// Numerical-health watchdog: scans the updated grids at every
    /// fused-block barrier for NaN/Inf/out-of-bound values. Disarmed by
    /// default.
    pub health: HealthPolicy,
    /// Seal every boundary slab with an FNV-1a checksum + sequence number
    /// at send and verify at splice, turning silent payload corruption
    /// into the retryable
    /// [`ExecError::SlabCorrupt`](crate::ExecError::SlabCorrupt). Off by
    /// default (zero cost when off — the checksum is never computed).
    pub integrity: bool,
    /// Lane width of the compiled vectorized tape walk: `Some(1)` forces
    /// the scalar walk, `Some(w)` a `w`-lane sweep, `None` defers to
    /// `STENCILCL_LANES` / the compiler default. Every width is bit-exact.
    pub lanes: Option<usize>,
    /// Durable-checkpoint persistence: when armed with a directory, every
    /// k-th fused-block barrier seals a crash-safe generation that
    /// [`resume_supervised`](crate::resume_supervised) can restart from.
    /// Disarmed by default (zero cost when off).
    pub checkpoint: CheckpointPolicy,
    /// External cooperative cancellation for submitted jobs: checked at
    /// the same points as the deadline, fires as the permanent
    /// [`ExecError::JobCancelled`](crate::ExecError::JobCancelled). `None`
    /// (the default) costs nothing.
    pub cancel: Option<CancelHandle>,
    /// Barrier-granularity progress callback, invoked with the committed
    /// iteration count each time a fused-block barrier lands — the feed
    /// behind the service's streamed job events. `None` by default.
    pub progress: Option<Progress>,
    /// Deterministic fault schedule riding with the job into
    /// [`ExecPool`](crate::ExecPool) runners — the chaos-testing seam for
    /// job-level faults (runner panics, silent stalls). Empty by default;
    /// without the `fault-injection` feature this is a zero-sized no-op.
    pub faults: Arc<FaultPlan>,
}

impl ExecOptions {
    /// Options with library defaults: compiled engine, default policy, no
    /// tracing.
    pub fn new() -> ExecOptions {
        ExecOptions::default()
    }

    /// Options seeded from the process environment (parsed once):
    /// `STENCILCL_INTERPRET` selects the engine, `STENCILCL_WATCHDOG_MS` /
    /// `STENCILCL_DRAIN_MS` / `STENCILCL_MAX_RETRIES` /
    /// `STENCILCL_DEADLINE_MS` override the policy, `STENCILCL_TRACE` arms
    /// a fresh [`Recorder`], `STENCILCL_HEALTH_BOUND` /
    /// `STENCILCL_HEALTH_STRIDE` arm the health watchdog, and
    /// `STENCILCL_INTEGRITY` arms slab checksums.
    pub fn from_env() -> ExecOptions {
        ExecOptions::from_config(EnvConfig::get())
    }

    /// Options seeded from an explicit [`EnvConfig`] — the testable seam
    /// behind [`ExecOptions::from_env`]. The process snapshot is frozen on
    /// first read, so callers layering CLI flags on top (the `stencilcl`
    /// binary) build from the snapshot here and then overwrite fields from
    /// their flags: a flag always beats the frozen env.
    pub fn from_config(cfg: &EnvConfig) -> ExecOptions {
        let mut health = match cfg.health_bound {
            Some(bound) => HealthPolicy::bounded(bound),
            None => HealthPolicy::default(),
        };
        if let Some(stride) = cfg.health_stride {
            health = health.stride(stride);
        }
        ExecOptions {
            engine: if cfg.interpret {
                EngineKind::Interpreted
            } else {
                EngineKind::Compiled
            },
            policy: ExecPolicy::from_config(cfg),
            trace: cfg.trace.then(Recorder::new),
            health,
            integrity: cfg.integrity,
            lanes: cfg.lanes,
            checkpoint: CheckpointPolicy::from_config(cfg),
            cancel: None,
            progress: None,
            faults: Arc::new(FaultPlan::new()),
        }
    }

    /// Replaces the engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> ExecOptions {
        self.engine = engine;
        self
    }

    /// Replaces the supervision policy.
    #[must_use]
    pub fn policy(mut self, policy: ExecPolicy) -> ExecOptions {
        self.policy = policy;
        self
    }

    /// Arms span/counter recording into `recorder` (keep a clone to call
    /// `finish()` afterwards).
    #[must_use]
    pub fn trace(mut self, recorder: Recorder) -> ExecOptions {
        self.trace = Some(recorder);
        self
    }

    /// Replaces the numerical-health policy.
    #[must_use]
    pub fn health(mut self, health: HealthPolicy) -> ExecOptions {
        self.health = health;
        self
    }

    /// Arms (or disarms) slab checksum sealing and verification.
    #[must_use]
    pub fn integrity(mut self, on: bool) -> ExecOptions {
        self.integrity = on;
        self
    }

    /// Sets the compiled tape-walk lane width (`1` = scalar; bit-exact at
    /// every width).
    #[must_use]
    pub fn lanes(mut self, lanes: usize) -> ExecOptions {
        self.lanes = Some(lanes);
        self
    }

    /// Replaces the durable-checkpoint policy.
    #[must_use]
    pub fn checkpoint(mut self, checkpoint: CheckpointPolicy) -> ExecOptions {
        self.checkpoint = checkpoint;
        self
    }

    /// Attaches an external cancellation handle (keep a clone to fire it).
    #[must_use]
    pub fn cancel(mut self, handle: CancelHandle) -> ExecOptions {
        self.cancel = Some(handle);
        self
    }

    /// Attaches a barrier-granularity progress callback.
    #[must_use]
    pub fn progress(mut self, progress: Progress) -> ExecOptions {
        self.progress = Some(progress);
        self
    }

    /// Attaches a deterministic fault schedule for pooled runs.
    #[must_use]
    pub fn faults(mut self, faults: Arc<FaultPlan>) -> ExecOptions {
        self.faults = faults;
        self
    }

    /// The run-limits envelope for one run, with the deadline clock
    /// anchored at this call.
    pub(crate) fn limits(&self) -> crate::integrity::RunLimits {
        crate::integrity::RunLimits::start(self.policy.deadline, self.health, self.integrity)
            .with_controls(self.cancel.clone(), self.progress.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_compiled_untraced() {
        let opts = ExecOptions::new();
        assert_eq!(opts.engine, EngineKind::Compiled);
        assert_eq!(opts.policy, ExecPolicy::default());
        assert!(opts.trace.is_none());
        assert!(!opts.health.enabled());
        assert!(!opts.integrity);
        assert!(!opts.limits().any_active());
    }

    #[test]
    fn health_and_integrity_setters_chain() {
        let opts = ExecOptions::new()
            .health(HealthPolicy::bounded(1e9).stride(3))
            .integrity(true);
        assert!(opts.health.enabled());
        assert_eq!(opts.health.stride, 3);
        assert!(opts.integrity);
        assert!(opts.limits().any_active());
    }

    #[test]
    fn from_config_maps_every_knob() {
        let (cfg, warnings) = EnvConfig::parse(|var| {
            match var {
                "STENCILCL_INTERPRET" => Some("1"),
                "STENCILCL_DEADLINE_MS" => Some("1500"),
                "STENCILCL_HEALTH_BOUND" => Some("1e9"),
                "STENCILCL_HEALTH_STRIDE" => Some("5"),
                "STENCILCL_INTEGRITY" => Some("1"),
                "STENCILCL_LANES" => Some("4"),
                "STENCILCL_CKPT_DIR" => Some("/tmp/stencilcl-ckpt"),
                "STENCILCL_CKPT_EVERY" => Some("6"),
                _ => None,
            }
            .map(String::from)
        });
        assert!(warnings.is_empty());
        let opts = ExecOptions::from_config(&cfg);
        assert_eq!(opts.engine, EngineKind::Interpreted);
        assert_eq!(
            opts.policy.deadline,
            Some(std::time::Duration::from_millis(1500))
        );
        assert!(opts.health.enabled());
        assert_eq!(opts.health.stride, 5);
        assert!(opts.integrity);
        assert_eq!(opts.lanes, Some(4));
        assert!(opts.checkpoint.enabled());
        assert_eq!(
            opts.checkpoint.dir.as_deref(),
            Some(std::path::Path::new("/tmp/stencilcl-ckpt"))
        );
        assert_eq!(opts.checkpoint.every_barriers, 6);
    }

    #[test]
    fn checkpointing_is_off_by_default_and_chains() {
        let opts = ExecOptions::new();
        assert!(!opts.checkpoint.enabled());
        let opts = opts.checkpoint(CheckpointPolicy::at("/tmp/x").every_barriers(4));
        assert!(opts.checkpoint.enabled());
        assert_eq!(opts.checkpoint.every_barriers, 4);
        assert_eq!(opts.checkpoint.keep_generations, 3);
    }

    #[test]
    fn setters_chain() {
        let rec = Recorder::with_capacity(4);
        let opts = ExecOptions::new()
            .engine(EngineKind::Interpreted)
            .trace(rec);
        assert_eq!(opts.engine, EngineKind::Interpreted);
        assert!(opts.trace.is_some());
    }
}
