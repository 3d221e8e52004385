//! The serve workloads: a `stencilcl serve` daemon in its own process,
//! driven by one client thread over one connection at a time (a closed
//! loop with one tenant).
//!
//! A run is a sequence of daemon incarnations. Each incarnation gets a
//! fresh daemon and fresh state, is warmed up with a fixed number of ops,
//! and then serves a fixed number of measured ops: the daemon keeps every
//! settled job, so its memory grows with the number of jobs it has seen,
//! and a fixed op count per incarnation keeps `rss_mb` independent of
//! speed. Incarnations repeat until the run's time is used.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use stencilcl_server::client;

use crate::host;
use crate::inputs::Job;

/// A workload's fixed shape.
pub struct Shape {
    /// Ops run after boot and counted into `setup_s`.
    pub warmup_ops: usize,
    /// Measured ops per daemon incarnation.
    pub ops: usize,
    /// Whether the daemon journals under a `--state-dir`.
    pub durable: bool,
}

pub fn shape(workload: &str) -> Shape {
    match workload {
        "serve_compute" => Shape {
            warmup_ops: 1,
            ops: 4,
            durable: false,
        },
        "serve_control" => Shape {
            warmup_ops: 100,
            ops: 1500,
            durable: false,
        },
        _ => Shape {
            warmup_ops: 5,
            ops: 40,
            durable: true,
        },
    }
}

/// What one incarnation measured.
#[derive(Default)]
pub struct Incarnation {
    pub setup_s: f64,
    pub op_ms: Vec<f64>,
    pub measured_s: f64,
    pub cpu_ms: f64,
    pub hwm_kb: u64,
    /// VmRSS growth from the end of warm-up to the end, per measured job.
    pub retained_kb_per_job: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// A running daemon; killed and reaped on drop if not shut down first.
pub struct Daemon {
    child: Child,
    reader: Option<std::thread::JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Daemon {
    pub fn spawn(bin: &Path, state_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        // The daemon sees only the generated inputs, never the caller's knobs.
        for (k, _) in std::env::vars() {
            if k.starts_with("STENCILCL_") {
                cmd.env_remove(k);
            }
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        // A reader thread keeps draining the daemon's stdout for its whole
        // life: a closed pipe would make its later prints fail.
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = rx.recv_timeout(Duration::from_secs(20)).unwrap_or_default();
        match line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
        {
            Some(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            None => Err(format!(
                "daemon did not announce its address: `{}`",
                line.trim()
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful drain; falls back to a kill after 20 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = client::post(self.addr, "/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not stop after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn parse(body: &str) -> Result<Value, String> {
    serde_json::parse_value(body).map_err(|e| format!("bad JSON `{body}`: {e}"))
}

fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

pub fn field_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::Int(i)) => u64::try_from(*i).ok(),
        Some(Value::UInt(u)) => Some(*u),
        _ => None,
    }
}

/// Submits one job and long-polls its result; checks phase, iteration
/// count and digest. Returns the error that makes the op fail.
pub fn run_job(
    addr: SocketAddr,
    job: &Job,
    ckpt_dir: Option<&str>,
    expected: &str,
) -> Result<(), String> {
    let resp = client::post(addr, "/v1/jobs", &job.submit_body(ckpt_dir))?;
    if resp.status != 200 {
        return Err(format!("submit: HTTP {} {}", resp.status, resp.body));
    }
    let id = field_str(&parse(&resp.body)?, "job")
        .ok_or("submit reply without a job id")?
        .to_string();
    let resp = client::get(addr, &format!("/v1/jobs/{id}/result?wait_ms=60000"))?;
    if resp.status != 200 {
        return Err(format!("{id} result: HTTP {} {}", resp.status, resp.body));
    }
    let result = parse(&resp.body)?;
    if field_str(&result, "phase") != Some("Done") {
        return Err(format!("{id} did not finish: {}", resp.body));
    }
    if field_u64(&result, "completed_iterations") != Some(job.iterations) {
        return Err(format!(
            "{id} completed {:?} of {} iterations",
            field_u64(&result, "completed_iterations"),
            job.iterations
        ));
    }
    let digest = field_str(&result, "digest").unwrap_or("");
    if digest != expected {
        return Err(format!(
            "{id} ({}) digest {digest}, expected {expected}",
            job.prog.name()
        ));
    }
    Ok(())
}

/// One op: every job of the bundle, submitted and awaited in turn; jobs
/// that checkpoint get the next store under `ckpt_root`.
pub fn run_op(
    addr: SocketAddr,
    jobs: &[Job],
    expected: &[String],
    ckpt_root: &Path,
    next_store: &mut usize,
) -> Result<(), String> {
    for (job, exp) in jobs.iter().zip(expected) {
        let store = job.ckpt_every.map(|_| {
            *next_store += 1;
            ckpt_root
                .join(format!("job-{next_store}"))
                .to_string_lossy()
                .into_owned()
        });
        run_job(addr, job, store.as_deref(), exp)?;
    }
    Ok(())
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match client::get(addr, "/healthz") {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_micros(200)),
            other => return Err(format!("daemon never became healthy: {other:?}")),
        }
    }
}

fn fail(inc: &mut Incarnation, e: String) {
    inc.failed += 1;
    if inc.errors.len() < 5 {
        inc.errors.push(e);
    }
}

/// Boots a fresh daemon over fresh state in `tmp`, warms it up, runs the
/// measured ops, checks `/metrics` and the journal, and tears it all down.
pub fn incarnation(
    bin: &Path,
    tmp: &Path,
    jobs: &[Job],
    expected: &[String],
    sh: &Shape,
) -> Incarnation {
    let mut inc = Incarnation::default();
    let state_dir = tmp.join("state");
    let ckpt_root = tmp.join("ckpt");
    let _ = std::fs::create_dir_all(&ckpt_root);
    let mut next_store = 0usize;
    let t0 = Instant::now();
    let daemon = match Daemon::spawn(bin, sh.durable.then_some(state_dir.as_path())) {
        Ok(d) => d,
        Err(e) => {
            inc.attempted = 1;
            inc.failed = 1;
            inc.errors.push(e);
            return inc;
        }
    };
    if let Err(e) = wait_healthy(daemon.addr) {
        inc.attempted += 1;
        fail(&mut inc, e);
        return inc;
    }
    for _ in 0..sh.warmup_ops {
        inc.attempted += 1;
        if let Err(e) = run_op(daemon.addr, jobs, expected, &ckpt_root, &mut next_store) {
            fail(&mut inc, e);
        }
    }
    inc.setup_s = t0.elapsed().as_secs_f64();
    let pid = daemon.pid();
    let cpu0 = host::proc_cpu_ms(pid).unwrap_or(0.0);
    let rss0 = host::proc_status_kb(pid, "VmRSS").unwrap_or(0);
    let m0 = Instant::now();
    for _ in 0..sh.ops {
        inc.attempted += 1;
        let t = Instant::now();
        match run_op(daemon.addr, jobs, expected, &ckpt_root, &mut next_store) {
            Ok(()) => inc.op_ms.push(t.elapsed().as_secs_f64() * 1e3),
            Err(e) => fail(&mut inc, e),
        }
    }
    inc.measured_s = m0.elapsed().as_secs_f64();
    inc.cpu_ms = host::proc_cpu_ms(pid).unwrap_or(0.0) - cpu0;
    inc.hwm_kb = host::proc_status_kb(pid, "VmHWM").unwrap_or(0);
    let rss1 = host::proc_status_kb(pid, "VmRSS").unwrap_or(0);
    inc.retained_kb_per_job = (rss1 as f64 - rss0 as f64) / (sh.ops * jobs.len()) as f64;

    // The post-run checks count as attempted operations of their own.
    inc.attempted += if sh.durable { 3 } else { 2 };
    let submitted = ((sh.warmup_ops + sh.ops) * jobs.len()) as u64;
    let cells: u64 =
        jobs.iter().map(Job::cell_updates).sum::<u64>() * (sh.warmup_ops + sh.ops) as u64;
    if let Err(e) = check_metrics(daemon.addr, submitted, cells) {
        fail(&mut inc, e);
    }
    if sh.durable {
        if let Err(e) = check_durable(&state_dir, &ckpt_root, submitted) {
            fail(&mut inc, e);
        }
    }
    if let Err(e) = daemon.shutdown() {
        fail(&mut inc, e);
    }
    // Deleted after the last timed op: on a disk mounted with `discard`
    // each unlink waits for the device (about 40 ms per file).
    let _ = std::fs::remove_dir_all(&ckpt_root);
    let _ = std::fs::remove_dir_all(&state_dir);
    inc
}

/// The daemon's own counters must agree with what the client did.
///
/// `cells_computed` is checked only when the daemon records executor
/// counters at all: a daemon that attaches no recorder to its jobs reports
/// 0, and the exact cell identity is then checked in the traced run, where
/// the executors are given a recorder.
fn check_metrics(addr: SocketAddr, submitted: u64, cells: u64) -> Result<(), String> {
    let resp = client::get(addr, "/metrics")?;
    if resp.status != 200 {
        return Err(format!("/metrics: HTTP {}", resp.status));
    }
    let m = parse(&resp.body)?;
    let counters = m.get("counters").ok_or("/metrics without counters")?;
    let get = |k: &str| field_u64(counters, k).unwrap_or(u64::MAX);
    if get("jobs_rejected") != 0 {
        return Err(format!("/metrics: jobs_rejected {}", get("jobs_rejected")));
    }
    if get("jobs_admitted") != submitted {
        return Err(format!(
            "/metrics: jobs_admitted {} != {submitted} submitted",
            get("jobs_admitted")
        ));
    }
    let computed = get("cells_computed");
    if computed != 0 && computed != cells {
        return Err(format!("/metrics: cells_computed {computed} != {cells}"));
    }
    if field_u64(&m, "active_jobs") != Some(0) {
        return Err("/metrics: jobs still active after the run".into());
    }
    Ok(())
}

/// Every job is journalled twice (admitted, done) and each store holds
/// its two sealed generations.
fn check_durable(state_dir: &Path, ckpt_root: &Path, submitted: u64) -> Result<(), String> {
    let journal = std::fs::read_to_string(state_dir.join("journal.jsonl"))
        .map_err(|e| format!("journal: {e}"))?;
    let records = journal.lines().filter(|l| !l.trim().is_empty()).count() as u64;
    if records != 2 * submitted {
        return Err(format!(
            "journal holds {records} records for {submitted} jobs"
        ));
    }
    let stores: Vec<PathBuf> = std::fs::read_dir(ckpt_root)
        .map_err(|e| format!("checkpoint root: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    if stores.len() as u64 != submitted {
        return Err(format!(
            "{} checkpoint stores for {submitted} jobs",
            stores.len()
        ));
    }
    for s in &stores {
        let gens = std::fs::read_dir(s)
            .map(|d| {
                d.filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".stckpt"))
                    .count()
            })
            .unwrap_or(0);
        if gens != 2 {
            return Err(format!(
                "{} holds {gens} generations, expected 2",
                s.display()
            ));
        }
    }
    Ok(())
}
