//! `stencilcl-server` — a multi-tenant stencil job service.
//!
//! The daemon behind `stencilcl serve`: a hand-rolled HTTP/1.1 + JSON
//! front end ([`http`]) over one shared [`Scheduler`] that owns a
//! persistent executor pool sized to host parallelism. Jobs are admitted
//! through a bounded FIFO queue with per-tenant quotas, run as pooled
//! supervised executions (submission is one channel send — no per-job
//! pool construction), stream barrier-granularity progress events, honour
//! external cancellation, and drain to resumable checkpoints on graceful
//! shutdown.
//!
//! Layering: [`protocol`] is the wire contract, [`design`] turns a
//! request into an executable partition, [`jobs`] holds per-job and
//! per-tenant state, [`scheduler`] multiplexes the pool, and [`http`]
//! serves it all over `std::net` — no crates.io dependencies anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod design;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod protocol;
pub mod scheduler;

pub use design::{build_design, default_init, parse_kind, plan, PlannedJob, MAX_VOLUME};
pub use http::{IngressLimits, Server};
pub use jobs::{JobDone, JobRecord, TenantBook};
pub use journal::{Journal, OpenJob, Replay, SettledJob};
pub use protocol::{
    DesignRequest, ErrorBody, Healthz, JobOptions, JobPhase, JobResult, JobStatus, Metrics,
    SubmitRequest, SubmitResponse, TenantMetrics,
};
pub use scheduler::{Reject, Scheduler, SchedulerConfig};
