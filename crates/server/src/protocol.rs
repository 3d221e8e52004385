//! Wire types of the job service: JSON request/response bodies.
//!
//! Requests get hand-written [`Deserialize`] impls so clients may omit any
//! optional field entirely (the derived impl would demand an explicit
//! `null`); responses derive [`Serialize`] and reuse the executor/telemetry
//! types' existing JSON shapes (`RunReport`, `CounterSnapshot`), so a
//! service client and a `--report-json` consumer parse the same objects.

use serde::{DeError, Deserialize, Serialize, Value};
use stencilcl_exec::RunReport;
use stencilcl_telemetry::CounterSnapshot;

/// An explicit design point, spelled exactly like the CLI flags and the
/// checkpoint manifest's `DesignSpec`: `kind` + `fused` + per-dimension
/// `parallelism`/`tile`.
#[derive(Debug, Clone, Serialize)]
pub struct DesignRequest {
    /// `"pipe"` (default) or `"hetero"` — the supervised pipe executors.
    pub kind: String,
    /// Iterations fused per pass (≥ 1).
    pub fused: u64,
    /// Kernels per dimension.
    pub parallelism: Vec<usize>,
    /// Tile edge per dimension.
    pub tile: Vec<usize>,
}

impl Deserialize for DesignRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = match v {
            Value::Object(_) => v,
            other => return Err(DeError::expected("design object", other)),
        };
        Ok(DesignRequest {
            kind: match obj.get("kind") {
                None | Some(Value::Null) => "pipe".to_string(),
                Some(k) => String::from_value(k)?,
            },
            fused: u64::from_value(
                obj.get("fused")
                    .ok_or_else(|| DeError::new("missing field `fused` of design"))?,
            )?,
            parallelism: Vec::from_value(
                obj.get("parallelism")
                    .ok_or_else(|| DeError::new("missing field `parallelism` of design"))?,
            )?,
            tile: Vec::from_value(
                obj.get("tile")
                    .ok_or_else(|| DeError::new("missing field `tile` of design"))?,
            )?,
        })
    }
}

/// Per-job execution knobs layered over the daemon's frozen env snapshot —
/// the same override seam the CLI flags use (`ExecOptions::from_config`
/// first, explicit values after), so a request knob always beats the env
/// and two concurrent jobs never bleed configuration into each other.
#[derive(Debug, Clone, Default, Serialize)]
pub struct JobOptions {
    /// Wall-clock deadline for the whole run, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Supervised retry budget.
    pub retries: Option<u32>,
    /// Arms the numerical-health watchdog with a magnitude bound.
    pub health_bound: Option<f64>,
    /// Slab checksum sealing/verification (service default: on).
    pub integrity: Option<bool>,
    /// Arms durable checkpointing into this directory — every sealed
    /// barrier generation is `stencilcl resume`-able after a kill/drain.
    pub ckpt_dir: Option<String>,
    /// Seal every k-th fused-block barrier (default 1 when armed).
    pub ckpt_every: Option<u64>,
}

impl Deserialize for JobOptions {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = match v {
            Value::Object(_) => v,
            Value::Null => return Ok(JobOptions::default()),
            other => return Err(DeError::expected("options object", other)),
        };
        fn opt<T: Deserialize>(obj: &Value, key: &str) -> Result<Option<T>, DeError> {
            match obj.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => T::from_value(v).map(Some),
            }
        }
        Ok(JobOptions {
            deadline_ms: opt(obj, "deadline_ms")?,
            retries: opt(obj, "retries")?,
            health_bound: opt(obj, "health_bound")?,
            integrity: opt(obj, "integrity")?,
            ckpt_dir: opt(obj, "ckpt_dir")?,
            ckpt_every: opt(obj, "ckpt_every")?,
        })
    }
}

/// `POST /v1/jobs` body: a stencil program (DSL source), a design point,
/// and optional per-job knobs, submitted under a tenant identity.
#[derive(Debug, Clone, Serialize)]
pub struct SubmitRequest {
    /// Quota accounting identity; `"default"` when omitted.
    pub tenant: String,
    /// Stencil DSL source text (`stencil name { ... }`).
    pub source: String,
    /// The design point to execute.
    pub design: DesignRequest,
    /// Per-job knob overrides.
    pub options: JobOptions,
}

impl Deserialize for SubmitRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = match v {
            Value::Object(_) => v,
            other => return Err(DeError::expected("submit object", other)),
        };
        Ok(SubmitRequest {
            tenant: match obj.get("tenant") {
                None | Some(Value::Null) => "default".to_string(),
                Some(t) => String::from_value(t)?,
            },
            source: String::from_value(
                obj.get("source")
                    .ok_or_else(|| DeError::new("missing field `source` of submit"))?,
            )?,
            design: DesignRequest::from_value(
                obj.get("design")
                    .ok_or_else(|| DeError::new("missing field `design` of submit"))?,
            )?,
            options: match obj.get("options") {
                None => JobOptions::default(),
                Some(o) => JobOptions::from_value(o)?,
            },
        })
    }
}

/// `POST /v1/jobs` success body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// The new job's id (`job-N`), the handle for every other endpoint.
    pub job: String,
    /// Jobs admitted and not yet terminal, *including* this one — the
    /// client's view of its queue position upper bound.
    pub active: u64,
}

/// One job's externally visible lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Admitted, waiting for a pool runner.
    Queued,
    /// A pool runner is executing it.
    Running,
    /// Re-admitted after a stall, runner loss, or daemon restart; waiting
    /// for a runner to pick it back up from its last sealed checkpoint.
    Resumed,
    /// Terminal: finished successfully.
    Done,
    /// Terminal: aborted (fault, deadline, or cancellation).
    Failed,
    /// Terminal *for this daemon incarnation*: the drain cancelled it with
    /// its checkpoint sealed. A reboot over the same `--state-dir` replays
    /// the journal and re-admits it as [`JobPhase::Resumed`].
    Interrupted,
}

impl JobPhase {
    /// Whether the phase is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Failed | JobPhase::Interrupted
        )
    }
}

/// `GET /v1/jobs/<id>` (and the payload of each streamed event).
#[derive(Debug, Clone, Serialize)]
pub struct JobStatus {
    /// Job id.
    pub job: String,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Iterations committed at the last fused-block barrier.
    pub completed_iterations: u64,
    /// The program's total iteration count.
    pub total_iterations: u64,
    /// Times this job was re-admitted after a stall, a lost runner, or a
    /// daemon restart. `0` for an undisturbed run.
    pub restarts: u64,
    /// Whether this record was rebuilt from the journal by a rebooted
    /// daemon (as opposed to admitted over HTTP by this incarnation).
    pub recovered: bool,
}

/// `GET /v1/jobs/<id>/result` body: the terminal outcome.
#[derive(Debug, Clone, Serialize)]
pub struct JobResult {
    /// Job id.
    pub job: String,
    /// Terminal phase ([`JobPhase::Done`] or [`JobPhase::Failed`]).
    pub phase: JobPhase,
    /// `GridState::digest` of the final grid state, formatted `{:#018x}` —
    /// byte-identical to the digest the CLI prints, so a service result is
    /// directly comparable against a direct `stencilcl run`.
    pub digest: String,
    /// Iterations committed when the run ended.
    pub completed_iterations: u64,
    /// Supervision attempt history.
    pub report: RunReport,
    /// The fault that ended a failed run (`null` on success).
    pub error: Option<String>,
    /// Grid payload (`?grid=1` only): name → row-major values.
    pub grids: Option<Value>,
}

/// `GET /healthz` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Healthz {
    /// `"ok"` while serving, `"draining"` after shutdown began.
    pub status: String,
    /// Executor worker threads currently alive process-wide.
    pub live_workers: u64,
    /// Pool runners currently executing a job.
    pub busy_runners: u64,
    /// Jobs admitted and not yet terminal.
    pub active_jobs: u64,
}

/// One tenant's row in `GET /metrics`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantMetrics {
    /// Tenant id.
    pub tenant: String,
    /// Jobs admitted and not yet terminal.
    pub in_flight: u64,
    /// Jobs refused at admission for this tenant.
    pub rejected: u64,
}

/// `GET /metrics` body.
#[derive(Debug, Clone, Serialize)]
pub struct Metrics {
    /// Pool runner threads (the concurrency budget).
    pub pool_workers: u64,
    /// Pool runners currently executing a job.
    pub busy_runners: u64,
    /// Executor worker threads currently alive process-wide
    /// (`stencilcl_exec::live_workers`).
    pub live_workers: u64,
    /// Jobs admitted and not yet terminal.
    pub active_jobs: u64,
    /// Jobs waiting for a runner right now.
    pub queued_jobs: u64,
    /// Per-tenant in-flight/rejection counts.
    pub tenants: Vec<TenantMetrics>,
    /// The daemon recorder's counter snapshot (jobs_admitted,
    /// jobs_rejected, queue_depth high-water mark, plus every executor
    /// counter aggregated across jobs traced by the daemon).
    pub counters: CounterSnapshot,
}

/// Error body every non-2xx response carries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Stable machine-readable kind (`bad_request`, `quota_exceeded`,
    /// `queue_full`, `draining`, `not_found`, `not_finished`).
    pub kind: String,
    /// Human-readable diagnostic.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_request_fills_defaults_for_absent_fields() {
        let req: SubmitRequest = serde_json::from_str(
            r#"{"source":"stencil x { grid A[8][8] : f32; iterations 1; A[i][j] = A[i][j]; }",
                "design":{"fused":1,"parallelism":[2,2],"tile":[4,4]}}"#,
        )
        .expect("parses");
        assert_eq!(req.tenant, "default");
        assert_eq!(req.design.kind, "pipe");
        assert!(req.options.deadline_ms.is_none());
        assert!(req.options.integrity.is_none());
    }

    #[test]
    fn submit_request_requires_source_and_design() {
        let err = serde_json::from_str::<SubmitRequest>(r#"{"tenant":"a"}"#).unwrap_err();
        assert!(err.to_string().contains("source"), "{err}");
        let err = serde_json::from_str::<SubmitRequest>(r#"{"source":"s"}"#).unwrap_err();
        assert!(err.to_string().contains("design"), "{err}");
    }

    #[test]
    fn job_options_parse_explicit_values() {
        let opts: JobOptions = serde_json::from_str(
            r#"{"deadline_ms":250,"lanes":4,"retries":2,"integrity":false,
                "ckpt_dir":"/tmp/x","ckpt_every":3}"#,
        )
        .expect("parses");
        assert_eq!(opts.deadline_ms, Some(250));
        // `lanes` is no longer a job knob; requests and journals that
        // still carry it parse and ignore it.
        assert!(!serde_json::to_string(&opts).unwrap().contains("lanes"));
        assert_eq!(opts.retries, Some(2));
        assert_eq!(opts.integrity, Some(false));
        assert_eq!(opts.ckpt_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(opts.ckpt_every, Some(3));
    }

    #[test]
    fn phase_serializes_as_a_string_and_terminality_is_correct() {
        assert_eq!(
            serde_json::to_string(&JobPhase::Queued).unwrap(),
            "\"Queued\""
        );
        assert!(!JobPhase::Queued.is_terminal());
        assert!(!JobPhase::Running.is_terminal());
        assert!(!JobPhase::Resumed.is_terminal());
        assert!(JobPhase::Done.is_terminal());
        assert!(JobPhase::Failed.is_terminal());
        assert!(JobPhase::Interrupted.is_terminal());
    }
}
