//! Per-run executor options: supervision policy, guards, fault plan, and
//! the telemetry sink — all decided **at plan time**, before any worker
//! spawns.
//!
//! [`ExecOptions`] is the only way to configure an executor: the library
//! never reads the process environment. A binary maps the `STENCILCL_*`
//! knobs once, through [`ExecOptions::from_config`] over the parsed-once
//! `stencilcl_telemetry::EnvConfig` snapshot, and layers its flags on top.

use std::sync::Arc;

use stencilcl_telemetry::{EnvConfig, Recorder};

use crate::faults::FaultPlan;
use crate::integrity::HealthPolicy;
use crate::jobs::{CancelHandle, Progress};
use crate::persist::CheckpointPolicy;
use crate::supervise::ExecPolicy;

/// Everything an executor run can be configured with. Build with the
/// chained setters:
///
/// ```
/// use stencilcl_exec::ExecOptions;
/// use stencilcl_telemetry::Recorder;
///
/// let rec = Recorder::new();
/// let opts = ExecOptions::new().lanes(4).trace(rec.clone());
/// assert!(opts.trace.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
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
    /// Cells per tape pass of the compiled row walk: `Some(w)` walks each
    /// row in chunks of exactly `w` cells (the last chunk shorter),
    /// `Some(1)` one cell per pass, `None` the compiler default
    /// (`stencilcl_lang::LANE_WIDTH`). Every width is bit-exact.
    pub lanes: Option<usize>,
    /// Durable-checkpoint persistence: when armed with a directory, every
    /// k-th fused-block barrier seals a crash-safe generation that
    /// [`resume_supervised_full`](crate::resume_supervised_full) can
    /// restart from.
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
    /// Deterministic fault schedule — the chaos-testing seam. Worker
    /// faults reach the threaded pool, I/O faults the checkpoint store,
    /// and job-level faults (runner panics, silent stalls) the
    /// [`ExecPool`](crate::ExecPool) runners. Empty by default; without the
    /// `fault-injection` feature this is a zero-sized no-op.
    pub faults: Arc<FaultPlan>,
}

impl ExecOptions {
    /// Options with library defaults: default policy, no guards, no
    /// tracing.
    pub fn new() -> ExecOptions {
        ExecOptions::default()
    }

    /// Options seeded from an [`EnvConfig`] snapshot:
    /// `STENCILCL_WATCHDOG_MS` / `STENCILCL_DRAIN_MS` /
    /// `STENCILCL_MAX_RETRIES` / `STENCILCL_DEADLINE_MS` override the
    /// policy, `STENCILCL_TRACE` arms a fresh [`Recorder`],
    /// `STENCILCL_HEALTH_BOUND` / `STENCILCL_HEALTH_STRIDE` arm the health
    /// watchdog, `STENCILCL_LANES` sets the cells per tape pass, and
    /// `STENCILCL_CKPT_DIR` / `STENCILCL_CKPT_EVERY` arm checkpoints.
    /// Binaries call this once on the process snapshot and then overwrite
    /// fields from their flags, so a flag always beats the env.
    pub fn from_config(cfg: &EnvConfig) -> ExecOptions {
        let mut health = match cfg.health_bound {
            Some(bound) => HealthPolicy::bounded(bound),
            None => HealthPolicy::default(),
        };
        if let Some(stride) = cfg.health_stride {
            health = health.stride(stride);
        }
        ExecOptions {
            policy: ExecPolicy::from_config(cfg),
            trace: cfg.trace.then(Recorder::new),
            health,
            lanes: cfg.lanes,
            checkpoint: CheckpointPolicy::from_config(cfg),
            ..ExecOptions::default()
        }
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

    /// Sets the cells per tape pass of the compiled row walk (`1` = one
    /// cell per pass; bit-exact at every width).
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
        assert_eq!(opts.lanes, None);
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
                "STENCILCL_DEADLINE_MS" => Some("1500"),
                "STENCILCL_HEALTH_BOUND" => Some("1e9"),
                "STENCILCL_HEALTH_STRIDE" => Some("5"),
                "STENCILCL_LANES" => Some("4"),
                "STENCILCL_CKPT_DIR" => Some("/tmp/stencilcl-ckpt"),
                "STENCILCL_CKPT_EVERY" => Some("6"),
                _ => None,
            }
            .map(String::from)
        });
        assert!(warnings.is_empty());
        let opts = ExecOptions::from_config(&cfg);
        assert_eq!(
            opts.policy.deadline,
            Some(std::time::Duration::from_millis(1500))
        );
        assert!(opts.health.enabled());
        assert_eq!(opts.health.stride, 5);
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
        let opts = ExecOptions::new().lanes(3).trace(rec);
        assert_eq!(opts.lanes, Some(3));
        assert!(opts.trace.is_some());
    }
}
