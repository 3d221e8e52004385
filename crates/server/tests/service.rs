//! End-to-end service tests: a real `Server` on an ephemeral loopback
//! port, driven through the HTTP client, checked against the direct
//! `run_supervised_full` oracle for bit-exactness.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::Value;
use stencilcl_exec::{resume_supervised_full, run_supervised_full, ExecOptions};
use stencilcl_lang::GridState;
use stencilcl_server::client::{get, post};
use stencilcl_server::{default_init, plan, DesignRequest, Scheduler, SchedulerConfig, Server};
use stencilcl_telemetry::EnvConfig;

const BLUR: &str = "stencil blur { grid A[32][32] : f32; iterations 6;
    A[i][j] = 0.5 * A[i][j] + 0.125 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }";

const HEAT: &str = "stencil heat { grid T[32][32] : f32; iterations 8;
    T[i][j] = 0.6 * T[i][j] + 0.1 * (T[i-1][j] + T[i+1][j] + T[i][j-1] + T[i][j+1]); }";

/// A job long enough to be observably in flight: many fused-block
/// barriers, so cancel/drain always lands mid-run.
const LONG: &str = "stencil slow { grid G[64][64] : f32; iterations 400;
    G[i][j] = 0.5 * G[i][j] + 0.125 * (G[i-1][j] + G[i+1][j] + G[i][j-1] + G[i][j+1]); }";

fn design_json() -> &'static str {
    r#"{"kind":"pipe","fused":2,"parallelism":[2,2],"tile":[8,8]}"#
}

fn submit_body(tenant: &str, source: &str, options: &str) -> String {
    let src = serde_json::to_string(&source.to_string()).expect("encode source");
    format!(
        r#"{{"tenant":"{tenant}","source":{src},"design":{},"options":{options}}}"#,
        design_json()
    )
}

/// Direct (no service) oracle digest for `source` under the same design
/// and the same env-derived options the scheduler hands out.
fn oracle_digest(source: &str) -> u64 {
    let req = DesignRequest {
        kind: "pipe".to_string(),
        fused: 2,
        parallelism: vec![2, 2],
        tile: vec![8, 8],
    };
    let planned = plan(source, &req).expect("oracle plan");
    let mut state = GridState::new(&planned.program, default_init);
    let mut opts = ExecOptions::from_config(EnvConfig::get());
    opts.integrity = true;
    let (_report, result) =
        run_supervised_full(&planned.program, &planned.partition, &mut state, &opts);
    result.expect("oracle run");
    state.digest()
}

fn parse(body: &str) -> Value {
    serde_json::parse_value(body).unwrap_or_else(|e| panic!("bad JSON `{body}`: {e}"))
}

fn field_str(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("field `{key}` is {other:?}"),
    }
}

fn field_u64(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) => u64::try_from(*n).expect("non-negative"),
        other => panic!("field `{key}` is {other:?}"),
    }
}

fn boot(cfg: SchedulerConfig) -> (Server, SocketAddr) {
    let server = Server::bind("127.0.0.1:0", Scheduler::new(cfg)).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

fn submit_ok(addr: SocketAddr, body: &str) -> String {
    let resp = post(addr, "/v1/jobs", body).expect("submit");
    assert_eq!(resp.status, 200, "submit failed: {}", resp.body);
    field_str(&parse(&resp.body), "job")
}

/// Polls status until the job reports barrier progress (it is genuinely
/// mid-run), failing after `limit`.
fn wait_for_progress(addr: SocketAddr, job: &str, limit: Duration) -> u64 {
    let deadline = Instant::now() + limit;
    loop {
        let resp = get(addr, &format!("/v1/jobs/{job}")).expect("status");
        assert_eq!(resp.status, 200);
        let v = parse(&resp.body);
        let done = field_u64(&v, "completed_iterations");
        if done > 0 && field_str(&v, "phase") == "Running" {
            return done;
        }
        if field_str(&v, "phase") == "Done" || field_str(&v, "phase") == "Failed" {
            panic!(
                "job went terminal before progress was observed: {}",
                resp.body
            );
        }
        assert!(Instant::now() < deadline, "no progress within {limit:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "stencilcl-serve-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn eight_concurrent_jobs_from_two_tenants_match_the_direct_oracle() {
    let (server, addr) = boot(SchedulerConfig {
        workers: 3,
        max_queue: 64,
        quota: 8,
        ..SchedulerConfig::default()
    });
    let blur_digest = format!("{:#018x}", oracle_digest(BLUR));
    let heat_digest = format!("{:#018x}", oracle_digest(HEAT));

    // Eight jobs, two tenants, two distinct programs, all through one
    // shared pool of three runners.
    let mut jobs = Vec::new();
    for i in 0..8 {
        let tenant = if i % 2 == 0 { "acme" } else { "zen" };
        let source = if i % 4 < 2 { BLUR } else { HEAT };
        let id = submit_ok(addr, &submit_body(tenant, source, "{}"));
        jobs.push((id, source));
    }

    for (id, source) in &jobs {
        let resp = get(addr, &format!("/v1/jobs/{id}/result?wait_ms=30000")).expect("result");
        assert_eq!(resp.status, 200, "job {id} not done: {}", resp.body);
        let v = parse(&resp.body);
        assert_eq!(field_str(&v, "phase"), "Done");
        let expect = if *source == BLUR {
            &blur_digest
        } else {
            &heat_digest
        };
        assert_eq!(&field_str(&v, "digest"), expect, "digest drift on {id}");
        let total = field_u64(&v, "completed_iterations");
        assert_eq!(total, if *source == BLUR { 6 } else { 8 });
    }

    // One grid payload round-trip: the served values are the real state.
    let resp = get(addr, &format!("/v1/jobs/{}/result?grid=1", jobs[0].0)).expect("grid result");
    let v = parse(&resp.body);
    let grids = v.get("grids").expect("grids payload");
    let a = grids.get("A").expect("grid A");
    match a {
        Value::Array(vals) => assert_eq!(vals.len(), 32 * 32),
        other => panic!("grid payload is {other:?}"),
    }

    // Health + metrics reflect the shared pool and both tenants.
    let health = parse(&get(addr, "/healthz").expect("healthz").body);
    assert_eq!(field_str(&health, "status"), "ok");
    // All jobs are done, so no executor workers are live and nothing is
    // active; the fields must still be present and parseable.
    assert_eq!(field_u64(&health, "active_jobs"), 0);
    let _ = field_u64(&health, "live_workers");
    let metrics = parse(&get(addr, "/metrics").expect("metrics").body);
    assert_eq!(field_u64(&metrics, "pool_workers"), 3);
    let counters = metrics.get("counters").expect("counters");
    assert_eq!(field_u64(counters, "jobs_admitted"), 8);
    assert_eq!(field_u64(counters, "jobs_rejected"), 0);
    assert!(field_u64(counters, "queue_depth") >= 1, "high-water mark");
    match metrics.get("tenants") {
        Some(Value::Array(rows)) => {
            let names: Vec<String> = rows.iter().map(|r| field_str(r, "tenant")).collect();
            assert_eq!(names, ["acme", "zen"]);
        }
        other => panic!("tenants is {other:?}"),
    }

    server.stop(Duration::from_secs(5));
}

#[test]
fn events_stream_emits_progress_and_a_terminal_event() {
    let (server, addr) = boot(SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    });
    let id = submit_ok(addr, &submit_body("acme", LONG, "{}"));
    let resp = get(addr, &format!("/v1/jobs/{id}/events")).expect("events");
    assert_eq!(resp.status, 200);
    let lines: Vec<&str> = resp.body.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 3, "expected several events, got {lines:?}");
    let last = parse(lines.last().expect("terminal event"));
    assert_eq!(field_str(&last, "phase"), "Done");
    assert_eq!(field_u64(&last, "completed_iterations"), 400);
    // Progress arrived monotonically.
    let counts: Vec<u64> = lines
        .iter()
        .map(|l| field_u64(&parse(l), "completed_iterations"))
        .collect();
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    server.stop(Duration::from_secs(5));
}

#[test]
fn cancel_mid_run_stops_at_a_barrier_with_a_structured_failure() {
    let (server, addr) = boot(SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    });
    let id = submit_ok(addr, &submit_body("acme", LONG, "{}"));
    wait_for_progress(addr, &id, Duration::from_secs(20));
    let resp = post(addr, &format!("/v1/jobs/{id}/cancel"), "").expect("cancel");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let resp = get(addr, &format!("/v1/jobs/{id}/result?wait_ms=20000")).expect("result");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse(&resp.body);
    assert_eq!(field_str(&v, "phase"), "Failed");
    assert!(
        field_str(&v, "error").contains("cancelled"),
        "unexpected error: {}",
        resp.body
    );
    let done = field_u64(&v, "completed_iterations");
    assert!(done < 400, "cancel landed after completion ({done})");
    server.stop(Duration::from_secs(5));
}

#[test]
fn quota_and_queue_rejections_are_structured() {
    let (server, addr) = boot(SchedulerConfig {
        workers: 1,
        max_queue: 1,
        quota: 2,
        ..SchedulerConfig::default()
    });
    // Two long jobs fill tenant `acme`'s in-flight budget (one running,
    // one queued — which also fills the global queue bound).
    let first = submit_ok(addr, &submit_body("acme", LONG, "{}"));
    wait_for_progress(addr, &first, Duration::from_secs(20));
    let second = submit_ok(addr, &submit_body("acme", LONG, "{}"));

    let resp = post(addr, "/v1/jobs", &submit_body("acme", BLUR, "{}")).expect("over quota");
    assert_eq!(resp.status, 429, "{}", resp.body);
    let v = parse(&resp.body);
    assert_eq!(field_str(&v, "kind"), "quota_exceeded");
    assert!(field_str(&v, "error").contains("2 jobs in flight"));

    // A different tenant has budget, but the global queue is full.
    let resp = post(addr, "/v1/jobs", &submit_body("zen", BLUR, "{}")).expect("queue full");
    assert_eq!(resp.status, 429, "{}", resp.body);
    let v = parse(&resp.body);
    assert_eq!(field_str(&v, "kind"), "queue_full");

    // A malformed program is a 400, not a quota hit.
    let resp =
        post(addr, "/v1/jobs", &submit_body("zen", "not a stencil", "{}")).expect("bad request");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert_eq!(field_str(&parse(&resp.body), "kind"), "bad_request");

    for id in [first, second] {
        let _ = post(addr, &format!("/v1/jobs/{id}/cancel"), "");
    }
    let metrics = parse(&get(addr, "/metrics").expect("metrics").body);
    let counters = metrics.get("counters").expect("counters");
    assert_eq!(field_u64(counters, "jobs_rejected"), 2);
    server.stop(Duration::from_secs(10));
}

#[test]
fn per_job_options_do_not_bleed_between_concurrent_jobs() {
    let (server, addr) = boot(SchedulerConfig {
        workers: 2,
        ..SchedulerConfig::default()
    });
    // Job A: generous settings, must finish bit-exact. Job B: a 1 ms
    // deadline and a different retry budget, must fail on ITS deadline
    // while A (running concurrently on the same pool) is untouched.
    let a = submit_ok(addr, &submit_body("acme", LONG, r#"{"retries":3}"#));
    let b = submit_ok(
        addr,
        &submit_body("zen", LONG, r#"{"deadline_ms":1,"retries":0}"#),
    );

    let resp = get(addr, &format!("/v1/jobs/{b}/result?wait_ms=30000")).expect("b result");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse(&resp.body);
    assert_eq!(field_str(&v, "phase"), "Failed");
    assert!(
        field_str(&v, "error").contains("deadline"),
        "unexpected error: {}",
        resp.body
    );

    let resp = get(addr, &format!("/v1/jobs/{a}/result?wait_ms=60000")).expect("a result");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse(&resp.body);
    assert_eq!(field_str(&v, "phase"), "Done", "{}", resp.body);
    assert_eq!(
        field_str(&v, "digest"),
        format!("{:#018x}", oracle_digest(LONG)),
        "deadline bled into job A"
    );
    server.stop(Duration::from_secs(5));
}

#[test]
fn drain_seals_checkpoints_that_resume_bit_exact() {
    let dir = scratch_dir("drain");
    let (server, addr) = boot(SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    });
    let options = format!(
        r#"{{"ckpt_dir":{}}}"#,
        serde_json::to_string(&dir.display().to_string(),).expect("encode dir")
    );
    let id = submit_ok(addr, &submit_body("acme", LONG, &options));
    wait_for_progress(addr, &id, Duration::from_secs(20));

    // Graceful shutdown: drain cancels the job at its next barrier and the
    // armed store (every_barriers = 1) has that barrier sealed on disk.
    let resp = post(addr, "/v1/shutdown?grace_ms=20000", "").expect("shutdown");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse(&resp.body);
    assert_eq!(field_str(&v, "status"), "draining");
    match v.get("drained_jobs") {
        Some(Value::Array(rows)) => {
            assert_eq!(rows.len(), 1);
            assert_eq!(field_str(&rows[0], "job"), id);
            assert_eq!(field_str(&rows[0], "ckpt_dir"), dir.display().to_string());
        }
        other => panic!("drained_jobs is {other:?}"),
    }
    server.wait();

    // The daemon is gone; resume the sealed generation and finish the run.
    let req = DesignRequest {
        kind: "pipe".to_string(),
        fused: 2,
        parallelism: vec![2, 2],
        tile: vec![8, 8],
    };
    let planned = plan(LONG, &req).expect("replan");
    let mut opts = ExecOptions::from_config(EnvConfig::get());
    opts.integrity = true;
    opts.checkpoint.design = Some(planned.spec.clone());
    let (state, _report, result) =
        resume_supervised_full(&planned.program, &planned.partition, &dir, &opts)
            .expect("a resumable generation survived the drain");
    result.expect("resumed run completes");
    assert_eq!(
        state.digest(),
        oracle_digest(LONG),
        "resume after drain is not bit-exact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_daemon_refuses_new_work_with_503() {
    let (server, addr) = boot(SchedulerConfig::default());
    server.scheduler().drain(Duration::from_secs(1));
    let resp = post(addr, "/v1/jobs", &submit_body("acme", BLUR, "{}")).expect("submit");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(field_str(&parse(&resp.body), "kind"), "draining");
    let health = parse(&get(addr, "/healthz").expect("healthz").body);
    assert_eq!(field_str(&health, "status"), "draining");
    server.stop(Duration::from_secs(1));
}

/// Tentpole round-trip: a journal-armed daemon drains mid-job, reboots
/// over the same state dir, auto-resumes the interrupted job, and the
/// final digest matches the uninterrupted oracle bit for bit.
#[test]
fn a_rebooted_daemon_resumes_drained_jobs_bit_exact() {
    let state = scratch_dir("journal-reboot");
    let expected = format!("{:#018x}", oracle_digest(LONG));

    // First incarnation: admit, observe progress, drain (crash-with-
    // checkpoint analogue; the SIGKILL analogue lives in the core crate's
    // process-level test).
    let (server, addr) = boot(SchedulerConfig {
        workers: 1,
        state_dir: Some(state.clone()),
        ..SchedulerConfig::default()
    });
    let job = submit_ok(addr, &submit_body("acme", LONG, "{}"));
    wait_for_progress(addr, &job, Duration::from_secs(20));
    server.scheduler().drain(Duration::from_secs(20));
    let resp = get(addr, &format!("/v1/jobs/{job}")).expect("status");
    assert_eq!(field_str(&parse(&resp.body), "phase"), "Interrupted");
    drop(server);

    // Second incarnation over the same state dir: the journal re-admits
    // the job without any client involvement.
    let (server, addr) = boot(SchedulerConfig {
        workers: 1,
        state_dir: Some(state),
        ..SchedulerConfig::default()
    });
    let resp = get(addr, &format!("/v1/jobs/{job}")).expect("recovered status");
    assert_eq!(resp.status, 200, "recovered daemon 404ed: {}", resp.body);
    let v = parse(&resp.body);
    assert_eq!(
        v.get("recovered"),
        Some(&Value::Bool(true)),
        "{}",
        resp.body
    );
    assert!(field_u64(&v, "restarts") >= 1, "{}", resp.body);

    let resp = get(addr, &format!("/v1/jobs/{job}/result?wait_ms=60000")).expect("result");
    assert_eq!(
        resp.status, 200,
        "resumed job did not finish: {}",
        resp.body
    );
    let v = parse(&resp.body);
    assert_eq!(field_str(&v, "phase"), "Done", "{}", resp.body);
    assert_eq!(field_str(&v, "digest"), expected, "resume diverged");
    drop(server);
}

/// Satellite: jobs settled before a restart keep answering status and
/// result queries from the journal instead of 404ing.
#[test]
fn settled_job_history_survives_a_reboot() {
    let state = scratch_dir("journal-history");
    let (server, addr) = boot(SchedulerConfig {
        workers: 1,
        state_dir: Some(state.clone()),
        ..SchedulerConfig::default()
    });
    let job = submit_ok(addr, &submit_body("acme", BLUR, "{}"));
    let resp = get(addr, &format!("/v1/jobs/{job}/result?wait_ms=30000")).expect("result");
    assert_eq!(resp.status, 200);
    let digest = field_str(&parse(&resp.body), "digest");
    drop(server);

    let (server, addr) = boot(SchedulerConfig {
        workers: 1,
        state_dir: Some(state),
        ..SchedulerConfig::default()
    });
    let resp = get(addr, &format!("/v1/jobs/{job}")).expect("historic status");
    assert_eq!(resp.status, 200, "history 404ed: {}", resp.body);
    let v = parse(&resp.body);
    assert_eq!(field_str(&v, "phase"), "Done", "{}", resp.body);
    assert_eq!(
        v.get("recovered"),
        Some(&Value::Bool(true)),
        "{}",
        resp.body
    );

    let resp = get(addr, &format!("/v1/jobs/{job}/result")).expect("historic result");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(field_str(&parse(&resp.body), "digest"), digest);
    drop(server);
}

#[cfg(feature = "fault-injection")]
mod chaos {
    use super::*;
    use std::sync::Arc;
    use stencilcl_exec::{FaultKind, FaultPlan};

    /// The watchdog cancels a job whose heartbeat goes silent and the
    /// scheduler auto-resumes it; the client only sees a restart count.
    #[test]
    fn a_stalled_job_is_cancelled_and_auto_resumed() {
        let (server, addr) = boot(SchedulerConfig {
            workers: 1,
            stall_timeout: Some(Duration::from_millis(200)),
            faults: Arc::new(FaultPlan::new().inject_job(FaultKind::StallJob(30_000))),
            ..SchedulerConfig::default()
        });
        let expected = format!("{:#018x}", oracle_digest(BLUR));
        let job = submit_ok(addr, &submit_body("acme", BLUR, "{}"));
        let resp = get(addr, &format!("/v1/jobs/{job}/result?wait_ms=60000")).expect("result");
        assert_eq!(resp.status, 200, "stalled job never sealed: {}", resp.body);
        let v = parse(&resp.body);
        assert_eq!(field_str(&v, "phase"), "Done", "{}", resp.body);
        assert_eq!(field_str(&v, "digest"), expected);

        let resp = get(addr, &format!("/v1/jobs/{job}")).expect("status");
        assert!(
            field_u64(&parse(&resp.body), "restarts") >= 1,
            "{}",
            resp.body
        );

        let resp = get(addr, "/metrics").expect("metrics");
        let m = parse(&resp.body);
        let stalled = m
            .get("counters")
            .and_then(|c| c.get("jobs_stalled"))
            .cloned();
        assert!(
            matches!(stalled, Some(Value::UInt(1..)) | Some(Value::Int(1..))),
            "jobs_stalled missing: {}",
            resp.body
        );
        drop(server);
    }

    /// With a zero auto-resume budget the stall seals as a structured
    /// `JobStalled` failure instead of retrying forever.
    #[test]
    fn an_exhausted_resume_budget_seals_the_job_as_stalled() {
        let (server, addr) = boot(SchedulerConfig {
            workers: 1,
            stall_timeout: Some(Duration::from_millis(200)),
            max_auto_resumes: 0,
            faults: Arc::new(FaultPlan::new().inject_job(FaultKind::StallJob(30_000))),
            ..SchedulerConfig::default()
        });
        let job = submit_ok(addr, &submit_body("acme", BLUR, "{}"));
        let resp = get(addr, &format!("/v1/jobs/{job}/result?wait_ms=60000")).expect("result");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = parse(&resp.body);
        assert_eq!(field_str(&v, "phase"), "Failed", "{}", resp.body);
        let error = field_str(&v, "error");
        assert!(error.contains("stalled"), "unexpected error: {error}");
        drop(server);
    }

    /// Every journal record the daemon under `state` wrote for `job`.
    fn journal_events(state: &std::path::Path, job: &str) -> Vec<Value> {
        std::fs::read_to_string(state.join("journal.jsonl"))
            .expect("journal exists")
            .lines()
            .map(parse)
            .filter(|v| v.get("job") == Some(&Value::Str(job.to_string())))
            .collect()
    }

    /// A job whose runner panicked comes back the way a stalled one does:
    /// the scheduler re-admits it from its checkpoint, journals `resumed`,
    /// counts the restart, and the job completes bit-exact.
    #[test]
    fn a_runner_panic_re_admits_the_job_through_resume() {
        let state = scratch_dir("runner-panic");
        let (server, addr) = boot(SchedulerConfig {
            workers: 1,
            state_dir: Some(state.clone()),
            faults: Arc::new(FaultPlan::new().inject_job(FaultKind::RunnerPanicAtJob)),
            ..SchedulerConfig::default()
        });
        let expected = format!("{:#018x}", oracle_digest(HEAT));
        let job = submit_ok(addr, &submit_body("acme", HEAT, "{}"));
        let resp = get(addr, &format!("/v1/jobs/{job}/result?wait_ms=60000")).expect("result");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = parse(&resp.body);
        assert_eq!(field_str(&v, "phase"), "Done", "{}", resp.body);
        assert_eq!(field_str(&v, "digest"), expected);

        let resp = get(addr, &format!("/v1/jobs/{job}")).expect("status");
        assert!(
            field_u64(&parse(&resp.body), "restarts") >= 1,
            "{}",
            resp.body
        );
        drop(server);
        let events = journal_events(&state, &job);
        assert!(
            events
                .iter()
                .any(|e| e.get("event") == Some(&Value::Str("resumed".into()))),
            "no `resumed` record: {events:?}"
        );
        let _ = std::fs::remove_dir_all(&state);
    }

    /// With a zero auto-resume budget a lost runner seals the job as a
    /// structured `WorkerPanic` failure instead of re-admitting it.
    #[test]
    fn an_exhausted_resume_budget_seals_a_runner_panic_as_worker_panic() {
        let state = scratch_dir("runner-panic-budget");
        let (server, addr) = boot(SchedulerConfig {
            workers: 1,
            state_dir: Some(state.clone()),
            max_auto_resumes: 0,
            faults: Arc::new(FaultPlan::new().inject_job(FaultKind::RunnerPanicAtJob)),
            ..SchedulerConfig::default()
        });
        let job = submit_ok(addr, &submit_body("acme", HEAT, "{}"));
        let resp = get(addr, &format!("/v1/jobs/{job}/result?wait_ms=60000")).expect("result");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = parse(&resp.body);
        assert_eq!(field_str(&v, "phase"), "Failed", "{}", resp.body);
        let error = field_str(&v, "error");
        assert!(error.contains("panicked"), "unexpected error: {error}");
        drop(server);
        let done = journal_events(&state, &job)
            .into_iter()
            .find(|e| e.get("event") == Some(&Value::Str("done".into())))
            .expect("journalled `done`");
        assert_eq!(field_str(&done, "error"), "WorkerPanic");
        let _ = std::fs::remove_dir_all(&state);
    }
}
