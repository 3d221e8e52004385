//! The traced run: per-layer metrics from calls into each layer's public
//! functions, made in-process, and each workload's op decomposed into
//! layer self times plus the remainder no layer explains.
//!
//! Spans are recorded by this file around the calls it makes (name,
//! start, end, parent, op id), kept in memory and printed at the end.
//! `run_supervised_opts` is given a `Recorder`, so executor counters are
//! read where the work happens. End-to-end figures never come from here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use stencilcl::suite;
use stencilcl::Framework;
use stencilcl_codegen::{generate, CodegenOptions};
use stencilcl_exec::{run_reference_opts, run_supervised_opts, CheckpointPolicy, ExecOptions};
use stencilcl_grid::Partition;
use stencilcl_hls::schedule;
use stencilcl_lang::{GridState, Program, StencilFeatures};
use stencilcl_model::{predict, ModelInputs};
use stencilcl_opt::{fused_candidates, optimize_pair, tile_candidates, SearchConfig};
use stencilcl_server::{
    client, default_init, plan, JobOptions, Journal, Scheduler, SchedulerConfig, Server,
    SubmitRequest,
};
use stencilcl_telemetry::{Counter, Recorder};

use crate::inputs::{self, Job, Prog, PROGS};
use crate::{metric, serve, stats, Args, Metric};

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u32,
}

/// The in-memory span store.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, parent: Option<usize>, op: u32) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Self time (µs) per span name within op `op`, excluding the root:
    /// each span's duration minus the part its children cover.
    fn self_us(&self, op: u32) -> BTreeMap<&'static str, f64> {
        // An op's spans are contiguous: they are recorded while it runs.
        let first = self.spans.iter().position(|s| s.op == op).unwrap_or(0);
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(first) {
            if s.op != op || s.parent.is_none() {
                continue;
            }
            let children: u64 = self.spans[first..]
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e3;
        }
        out
    }

    fn root_us(&self, op: u32) -> f64 {
        self.spans
            .iter()
            .find(|s| s.op == op && s.parent.is_none())
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e3)
    }

    fn to_json(&self, ops: &[u32]) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .filter(|s| ops.contains(&s.op))
            .map(|s| {
                format!(
                    r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}"#,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.op
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// Samples per metric name; the reported value is their median.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    fn med(&self, name: &str) -> f64 {
        let mut v = self.0.get(name).cloned().unwrap_or_default();
        stats::median(&mut v)
    }
}

/// Median wall time (µs) of `reps` calls of `f`.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&mut v)
}

fn service_opts() -> ExecOptions {
    // The service seals slabs by default, so the traced executor does too.
    ExecOptions::new().integrity(true)
}

fn submit_request(job: &Job) -> SubmitRequest {
    SubmitRequest {
        tenant: "bench".into(),
        source: job.source.clone(),
        design: job.design_request(),
        options: JobOptions::default(),
    }
}

/// Grid bytes one cell update of `program` must move at least: every
/// distinct grid a statement reads, plus the grid it writes.
fn bytes_per_update(program: &Program) -> Result<f64, String> {
    let f = StencilFeatures::extract(program).map_err(|e| e.to_string())?;
    let total: usize = f
        .statements
        .iter()
        .map(|s| {
            let mut grids: Vec<&str> = s.accesses.iter().map(|(g, _)| g.as_str()).collect();
            grids.push(&s.target);
            grids.sort_unstable();
            grids.dedup();
            grids.len() + 1
        })
        .sum();
    Ok(8.0 * total as f64 / f.statements.len() as f64)
}

/// What the replay of one op in-process measured.
struct Replay {
    digest_ok: bool,
    cells_identity: Option<String>,
}

/// Replays `job` as the daemon runs it — plan, grid init, supervised run,
/// digest — under spans of op `op`, plus the two HTTP exchanges priced by
/// a `/healthz` round trip each. With `traced` false, no span and no
/// recorder is attached. Counters go into `samples` under `prefix`.
#[allow(clippy::too_many_arguments)]
fn replay_job(
    tr: &mut Tracer,
    root: Option<usize>,
    op: u32,
    addr: SocketAddr,
    job: &Job,
    opts: ExecOptions,
    traced: bool,
    journal: Option<&Journal>,
    samples: &mut Samples,
    prefix: Option<&str>,
) -> Result<Replay, String> {
    let span = |tr: &mut Tracer, name: &'static str| traced.then(|| tr.enter(name, root, op));
    let close = |tr: &mut Tracer, s: Option<usize>| {
        if let Some(s) = s {
            tr.exit(s);
        }
    };
    let s = span(tr, "server.http");
    client::get(addr, "/healthz")?;
    client::get(addr, "/healthz")?;
    close(tr, s);
    let s = span(tr, "server.plan");
    let planned = plan(&job.source, &job.design_request())?;
    close(tr, s);
    if let Some(j) = journal {
        let s = span(tr, "server.journal");
        j.admitted("job-trace", &submit_request(job), "", job.iterations);
        close(tr, s);
    }
    let s = span(tr, "lang.grid_init");
    let mut state = GridState::new(&planned.program, default_init);
    close(tr, s);
    let rec = Recorder::new();
    let opts = if traced {
        opts.trace(rec.clone())
    } else {
        opts
    };
    let s = span(tr, "exec.run_supervised");
    let t = Instant::now();
    run_supervised_opts(&planned.program, &planned.partition, &mut state, &opts)
        .map_err(|e| format!("{}: {e}", job.prog.name()))?;
    let wall_ns = t.elapsed().as_nanos() as f64;
    close(tr, s);
    let s = span(tr, "lang.digest");
    let digest = format!("{:#018x}", state.digest());
    close(tr, s);
    if let Some(j) = journal {
        let s = span(tr, "server.journal");
        j.done("job-trace", &digest, job.iterations, None);
        close(tr, s);
    }
    let mut cells_identity = None;
    if traced {
        let computed = rec.counter(Counter::CellsComputed);
        let redundant = rec.counter(Counter::RedundantCells);
        if computed.checked_sub(redundant) != Some(job.cell_updates()) {
            cells_identity = Some(format!(
                "{}: CellsComputed {computed} - RedundantCells {redundant} != {} cell updates",
                job.prog.name(),
                job.cell_updates()
            ));
        }
        if let Some(p) = prefix {
            let kernels = planned.partition.kernel_count() as f64;
            samples.push(
                format!("exec.pipe_ns_per_cell.{p}"),
                wall_ns / job.cell_updates() as f64,
            );
            samples.push(
                format!("exec.stall_frac.{p}"),
                rec.counter(Counter::StallNs) as f64 / (kernels * wall_ns),
            );
            samples.push(
                format!("exec.halo_bytes_per_cell.{p}"),
                rec.counter(Counter::HaloBytes) as f64 / computed.max(1) as f64,
            );
            samples.push(
                format!("exec.useful_cell_frac.{p}"),
                1.0 - redundant as f64 / computed.max(1) as f64,
            );
        }
        if rec.counter(Counter::CkptGenerations) > 0 {
            samples.push(
                "persist.ckpt_mb_per_op",
                rec.counter(Counter::CkptBytes) as f64 / 1e6,
            );
        }
    }
    Ok(Replay {
        digest_ok: digest == job.expected_digest,
        cells_identity,
    })
}

/// The op decomposition of one workload.
struct Decomp {
    workload: &'static str,
    first_op: Option<u32>,
    op_us: Vec<f64>,
    traced_us: Vec<f64>,
    untraced_replay_us: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Decomp {
    fn new(workload: &'static str) -> Decomp {
        Decomp {
            workload,
            first_op: None,
            op_us: Vec::new(),
            traced_us: Vec::new(),
            untraced_replay_us: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    fn add_layers(&mut self, layers: BTreeMap<&'static str, f64>) {
        for (k, v) in layers {
            self.layers.entry(k).or_default().push(v);
        }
    }

    fn to_json(&self) -> String {
        let op = stats::median(&mut self.op_us.clone());
        let traced = stats::median(&mut self.traced_us.clone());
        let untraced = stats::median(&mut self.untraced_replay_us.clone());
        let layers: Vec<(&str, f64)> = self
            .layers
            .iter()
            .map(|(k, v)| (*k, stats::median(&mut v.clone())))
            .collect();
        let sum: f64 = layers.iter().map(|(_, v)| v).sum();
        let body: Vec<String> = layers
            .iter()
            .map(|(k, v)| {
                format!(
                    r#""{k}":{{"self_us":{v:.1},"share":{:.4}}}"#,
                    v / op.max(1e-9)
                )
            })
            .collect();
        format!(
            r#"{{"workload":"{}","op_us":{op:.1},"layers":{{{}}},"remainder_us":{:.1},"remainder_share":{:.4},"traced_replay_us":{traced:.1},"untraced_replay_us":{untraced:.1},"tracing_overhead_us":{:.1},"tracing_overhead_share":{:.4}}}"#,
            self.workload,
            body.join(","),
            op - sum,
            (op - sum) / op.max(1e-9),
            traced - untraced,
            (traced - untraced) / untraced.max(1e-9),
        )
    }
}

struct Ctx<'a> {
    args: &'a Args,
    tr: Tracer,
    s: Samples,
    next_op: u32,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Ctx<'_> {
    fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }

    fn op(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }
}

fn bundle(workload: &str, seed: u64) -> Vec<Job> {
    let mut jobs = inputs::serve_bundle(workload, seed).expect("serve workload");
    for j in &mut jobs {
        j.compute_expected();
    }
    jobs
}

/// Replays one op of a serve workload traced and untraced, and times
/// the same op through the in-process server.
#[allow(clippy::too_many_arguments)]
fn decompose_serve(
    cx: &mut Ctx,
    d: &mut Decomp,
    addr: SocketAddr,
    jobs: &[Job],
    reps: usize,
    opts: &dyn Fn() -> ExecOptions,
    journal: Option<&Journal>,
    ckpt_root: &Path,
    store_n: &mut usize,
) {
    let expected: Vec<String> = jobs.iter().map(|j| j.expected_digest.clone()).collect();
    for _ in 0..reps {
        let op = cx.op();
        d.first_op.get_or_insert(op);
        let root = cx.tr.enter("op", None, op);
        let mut res = Ok(());
        for job in jobs {
            let prefix = (d.workload == "serve_compute").then(|| job.prog.name());
            let r = replay_job(
                &mut cx.tr,
                Some(root),
                op,
                addr,
                job,
                opts(),
                true,
                journal,
                &mut cx.s,
                prefix,
            );
            res = res.and_then(|_| {
                let r = r?;
                if !r.digest_ok {
                    return Err(format!(
                        "{}: replayed digest differs from the reference",
                        job.prog.name()
                    ));
                }
                r.cells_identity.map_or(Ok(()), Err)
            });
        }
        cx.tr.exit(root);
        cx.check(res);
        d.traced_us.push(cx.tr.root_us(op));
        d.add_layers(cx.tr.self_us(op));

        let t = Instant::now();
        let mut res = Ok(());
        for job in jobs {
            let r = replay_job(
                &mut cx.tr,
                None,
                0,
                addr,
                job,
                opts(),
                false,
                journal,
                &mut cx.s,
                None,
            );
            res = res.and_then(|_| r.map(|_| ()));
        }
        d.untraced_replay_us.push(t.elapsed().as_secs_f64() * 1e6);
        cx.check(res);

        let t = Instant::now();
        let r = serve::run_op(addr, jobs, &expected, ckpt_root, store_n);
        d.op_us.push(t.elapsed().as_secs_f64() * 1e6);
        cx.check(r);
    }
}

fn host_section(cx: &mut Ctx) {
    cx.s.push("host.spin_ms", crate::host::spin_ms());
    cx.s.push("host.copy_gbps.8MiB", crate::host::copy_gbps(8 << 20, 20));
    cx.s.push(
        "host.copy_gbps.128MiB",
        crate::host::copy_gbps(128 << 20, 3),
    );
}

/// serve_compute: the three 1024² programs, reference sweep and pipe run.
fn compute_section(cx: &mut Ctx, d: &mut Decomp, addr: SocketAddr) -> Result<(), String> {
    let jobs = bundle("serve_compute", cx.args.seed);
    let copy_gbps = cx.s.med("host.copy_gbps.8MiB");
    for job in &jobs {
        let p = job.prog.name();
        let state0 = GridState::new(&job.program, default_init);
        let cells = (job.n * job.n * job.program.grids.len()) as f64;
        if job.prog == Prog::Jacobi {
            let t = time_us(3, || {
                black_box(GridState::new(&job.program, default_init));
            });
            cx.s.push("lang.grid_init_ns_per_cell", t * 1e3 / cells);
            let t = time_us(5, || {
                black_box(state0.digest());
            });
            cx.s.push("lang.digest_ns_per_cell", t * 1e3 / cells);
        }
        let mut st = state0.clone();
        let t = Instant::now();
        run_reference_opts(&job.program, &mut st, &ExecOptions::new())
            .map_err(|e| e.to_string())?;
        let ref_s = t.elapsed().as_secs_f64();
        let ok = format!("{:#018x}", st.digest()) == job.expected_digest;
        cx.check(
            ok.then_some(())
                .ok_or_else(|| format!("{p}: reference digest changed")),
        );
        let updates = job.cell_updates() as f64;
        cx.s.push(format!("exec.ref_ns_per_cell.{p}"), ref_s * 1e9 / updates);
        cx.s.push(
            format!("exec.sweep_bw_frac.{p}"),
            bytes_per_update(&job.program)? * updates / ref_s / (copy_gbps * 1e9),
        );
    }
    let mut n = 0;
    let args = cx.args;
    decompose_serve(
        cx,
        d,
        addr,
        &jobs,
        1,
        &service_opts,
        None,
        &args.tmp,
        &mut n,
    );
    Ok(())
}

/// serve_control: the small job, the HTTP front end and the scheduler.
fn control_section(cx: &mut Ctx, d: &mut Decomp, addr: SocketAddr) -> Result<(), String> {
    let jobs = bundle("serve_control", cx.args.seed);
    let job = &jobs[0];
    let planned = plan(&job.source, &job.design_request())?;
    let state0 = GridState::new(&job.program, default_init);
    let small = time_us(200, || {
        let mut st = state0.clone();
        black_box(
            run_supervised_opts(
                &planned.program,
                &planned.partition,
                &mut st,
                &service_opts(),
            )
            .is_ok(),
        );
    });
    let reference = time_us(200, || {
        let mut st = state0.clone();
        black_box(run_reference_opts(&planned.program, &mut st, &ExecOptions::new()).is_ok());
    });
    cx.s.push("exec.small_job_us", small);
    cx.s.push("exec.small_job_compute_frac", reference / small);
    cx.s.push(
        "server.plan_us",
        time_us(200, || {
            black_box(plan(&job.source, &job.design_request()).is_ok());
        }),
    );
    cx.s.push(
        "server.http_rtt_us",
        time_us(200, || {
            black_box(client::get(addr, "/healthz").is_ok());
        }),
    );
    let body = job.submit_body(None);
    let mut submit = Vec::new();
    let mut result = Vec::new();
    for _ in 0..100 {
        let t = Instant::now();
        let r = client::post(addr, "/v1/jobs", &body);
        submit.push(t.elapsed().as_secs_f64() * 1e6);
        let id = match r {
            Ok(r) if r.status == 200 => serde_json::parse_value(&r.body).ok().and_then(|v| match v
                .get("job")
            {
                Some(serde::Value::Str(s)) => Some(s.clone()),
                _ => None,
            }),
            _ => None,
        };
        let Some(id) = id else {
            cx.check(Err("in-process submit failed".into()));
            continue;
        };
        let waited = client::get(addr, &format!("/v1/jobs/{id}/result?wait_ms=10000"));
        let t = Instant::now();
        let r = client::get(addr, &format!("/v1/jobs/{id}/result"));
        result.push(t.elapsed().as_secs_f64() * 1e6);
        let ok = matches!((&waited, &r), (Ok(a), Ok(b)) if a.status == 200 && b.status == 200
            && b.body.contains(&job.expected_digest));
        cx.check(
            ok.then_some(())
                .ok_or_else(|| format!("in-process result of {id} is wrong")),
        );
    }
    cx.s.push("server.submit_us", stats::median(&mut submit));
    cx.s.push("server.result_us", stats::median(&mut result));

    let sched = Scheduler::new(SchedulerConfig::default());
    let req = submit_request(job);
    let e2e = time_us(100, || {
        if let Ok(rec) = sched.submit(&req) {
            rec.wait_terminal(Duration::from_secs(10));
        }
    });
    drop(sched);
    cx.s.push("server.sched_overhead_us", e2e - small);
    let mut n = 0;
    let args = cx.args;
    decompose_serve(
        cx,
        d,
        addr,
        &jobs,
        100,
        &service_opts,
        None,
        &args.tmp,
        &mut n,
    );
    Ok(())
}

/// serve_durable: journal appends, checkpoint seals and prunes, and the
/// journalled op.
fn durable_section(cx: &mut Ctx, d: &mut Decomp) -> Result<(), String> {
    let jobs = bundle("serve_durable", cx.args.seed);
    let job = &jobs[0];
    let root = cx.args.tmp.join("durable");
    let jdir = root.join("journal");
    let journal = Journal::open(&jdir).map_err(|e| e.to_string())?;
    let req = submit_request(job);
    cx.s.push(
        "server.journal_append_us",
        time_us(50, || {
            journal.admitted("job-bench", &req, "", job.iterations);
            journal.done("job-bench", &job.expected_digest, job.iterations, None);
        }),
    );

    let planned = plan(&job.source, &job.design_request())?;
    let state0 = GridState::new(&job.program, default_init);
    // (run time ms, generations) of the serve_durable run sealing every
    // `every` barriers and keeping `keep` generations; `None` seals nothing.
    let run = |policy: Option<(u64, usize)>| -> Result<(f64, u64), String> {
        let dir = root.join("store");
        let rec = Recorder::new();
        let mut opts = service_opts().trace(rec.clone());
        if let Some((every, keep)) = policy {
            opts = opts.checkpoint(
                CheckpointPolicy::at(&dir)
                    .every_barriers(every)
                    .keep_generations(keep)
                    .design(planned.spec.clone()),
            );
        }
        let mut st = state0.clone();
        let t = Instant::now();
        run_supervised_opts(&planned.program, &planned.partition, &mut st, &opts)
            .map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if format!("{:#018x}", st.digest()) != job.expected_digest {
            return Err("checkpointed run changed the digest".into());
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok((ms, rec.counter(Counter::CkptGenerations)))
    };
    let every = job.ckpt_every.expect("durable job checkpoints");
    let mut t = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut gens = [0u64; 4];
    let policies = [None, Some((every, 3)), Some((2, 16)), Some((2, 3))];
    for _ in 0..5 {
        for (i, p) in policies.iter().enumerate() {
            let (ms, g) = run(*p)?;
            t[i].push(ms);
            gens[i] = g;
        }
    }
    let [plain, served, four, pruned] = t.map(|mut v| stats::median(&mut v));
    // As served: the serve_durable policy, two seals and no prune.
    cx.s.push("persist.seal_ms", (served - plain) / gens[1].max(1) as f64);
    // Four seals every second barrier, all generations kept.
    cx.s.push(
        "persist.seal_ms_disk",
        (four - plain) / gens[2].max(1) as f64,
    );
    // The same four seals keeping three: one prune, and the fsync after it.
    cx.s.push("persist.prune_stall_ms", pruned - four);

    let sched = Scheduler::new(SchedulerConfig {
        state_dir: Some(root.join("state")),
        ..SchedulerConfig::default()
    });
    let server = Server::bind("127.0.0.1:0", sched).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let ckpt_root = root.join("ckpt");
    let mut n = 0;
    // A fresh store per replayed run, as each served job gets its own.
    let stores = std::cell::Cell::new(0);
    let jopts = || {
        stores.set(stores.get() + 1);
        service_opts().checkpoint(
            CheckpointPolicy::at(root.join(format!("replay-store-{}", stores.get())))
                .every_barriers(every)
                .design(planned.spec.clone()),
        )
    };
    decompose_serve(
        cx,
        d,
        addr,
        &jobs,
        10,
        &jopts,
        Some(&journal),
        &ckpt_root,
        &mut n,
    );
    server.stop(Duration::from_secs(5));
    drop(journal);
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

/// `server.retained_kb_per_job`: measured on the real daemon the way the
/// end-to-end runs do, over one serve_control incarnation.
fn retained_section(cx: &mut Ctx) {
    let jobs = bundle("serve_control", cx.args.seed);
    let expected: Vec<String> = jobs.iter().map(|j| j.expected_digest.clone()).collect();
    let sh = serve::Shape {
        warmup_ops: 50,
        ops: 1000,
        durable: false,
    };
    let inc = serve::incarnation(
        &cx.args.bin,
        &cx.args.tmp.join("retained"),
        &jobs,
        &expected,
        &sh,
    );
    cx.attempted += inc.attempted;
    cx.failed += inc.failed;
    cx.errors.extend(inc.errors);
    cx.s.push("server.retained_kb_per_job", inc.retained_kb_per_job);
}

/// synth_cli: the optimizer, model, HLS schedule, simulator, code
/// generator, and what the CLI process adds around them.
fn synth_section(cx: &mut Ctx, d: &mut Decomp) -> Result<(), String> {
    let fw = Framework::new();
    let srcs = crate::synth::write_sources(&cx.args.tmp, cx.args.seed)?;
    let expected = crate::synth::Expected::load(&cx.args.bench_dir.join("expected_synth.json"))?;
    let out = cx.args.tmp.join("synth-out");
    let op = cx.op();
    d.first_op.get_or_insert(op);
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut op_us = 0.0;
    for (prog, path) in &srcs {
        let p = prog.name();
        let source = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let program = stencilcl_lang::parse(&source).map_err(|e| e.to_string())?;
        let cfg = suite::by_name(p).map_or_else(|| SearchConfig::for_dim(2), |b| b.search);
        let features = StencilFeatures::extract(&program).map_err(|e| e.to_string())?;

        let s = cx.tr.enter("opt.optimize_pair", None, op);
        let pair =
            optimize_pair(&program, &fw.device, &fw.cost, &cfg).map_err(|e| e.to_string())?;
        cx.tr.exit(s);
        let opt_ms = (cx.tr.spans[s].end_ns - cx.tr.spans[s].start_ns) as f64 / 1e6;
        let tiles: usize = (0..features.dim)
            .map(|dd| {
                tile_candidates(features.extent.len(dd), cfg.parallelism[dd], cfg.min_tile).len()
            })
            .product();
        let points = (fused_candidates(&features, cfg.max_fused).len()
            * tiles
            * cfg.unroll_candidates.len()) as f64;
        cx.s.push(format!("opt.optimize_pair_ms.{p}"), opt_ms);
        cx.s.push(format!("opt.points.{p}"), points);
        cx.s.push(format!("opt.us_per_point.{p}"), opt_ms * 1e3 / points);

        let s = cx.tr.enter("sim.simulate", None, op);
        let b = fw
            .evaluate(&program, pair.baseline.clone())
            .map_err(|e| e.to_string())?;
        let h = fw
            .evaluate(&program, pair.heterogeneous.clone())
            .map_err(|e| e.to_string())?;
        cx.tr.exit(s);
        let sim_ms = (cx.tr.spans[s].end_ns - cx.tr.spans[s].start_ns) as f64 / 1e6;
        let partition = Partition::new(features.extent, &h.point.design, &features.growth)
            .map_err(|e| e.to_string())?;
        let copts = CodegenOptions {
            unroll: h.point.hls.unroll,
            ..fw.codegen.clone()
        };
        let s = cx.tr.enter("codegen.generate", None, op);
        let code = generate(&program, &partition, &copts).map_err(|e| e.to_string())?;
        cx.tr.exit(s);
        let gen_ms = (cx.tr.spans[s].end_ns - cx.tr.spans[s].start_ns) as f64 / 1e6;
        black_box((&b, &code));
        *layers.entry("opt.optimize_pair").or_default() += opt_ms * 1e3;
        *layers.entry("sim.simulate").or_default() += sim_ms * 1e3;
        *layers.entry("codegen.generate").or_default() += gen_ms * 1e3;

        if *prog == Prog::Jacobi {
            cx.s.push("sim.simulate_ms", sim_ms);
            cx.s.push("codegen.generate_ms", gen_ms);
            let point = &pair.heterogeneous;
            let hp = Partition::new(features.extent, &point.design, &features.growth)
                .map_err(|e| e.to_string())?;
            let inputs = ModelInputs::gather(&features, &hp, &point.hls, &fw.device);
            let t = Instant::now();
            for _ in 0..100_000 {
                black_box(predict(black_box(&inputs)));
            }
            cx.s.push("model.predict_ns", t.elapsed().as_secs_f64() * 1e9 / 1e5);
            let t = Instant::now();
            for _ in 0..2_000 {
                black_box(schedule(black_box(&program), &fw.cost, point.hls.unroll));
            }
            cx.s.push("hls.schedule_us", t.elapsed().as_secs_f64() * 1e6 / 2e3);
        }

        let t = Instant::now();
        let rep = fw.synthesize(&program, &cfg).map_err(|e| e.to_string())?;
        let inproc_ms = t.elapsed().as_secs_f64() * 1e3;
        black_box(rep);
        let t = Instant::now();
        let r = crate::synth::run_one(&cx.args.bin, path, &out, *prog, &expected);
        let proc_ms = t.elapsed().as_secs_f64() * 1e3;
        cx.check(r);
        op_us += proc_ms * 1e3;
        cx.s.push(format!("core.cli_overhead_ms.{p}"), proc_ms - inproc_ms);
    }
    d.op_us.push(op_us);
    d.add_layers(layers);
    Ok(())
}

pub fn run(args: &Args) -> Result<(), String> {
    let mut cx = Ctx {
        args,
        tr: Tracer::new(),
        s: Samples::default(),
        next_op: 0,
        errors: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut decomps = [
        Decomp::new("serve_compute"),
        Decomp::new("serve_control"),
        Decomp::new("serve_durable"),
        Decomp::new("synth_cli"),
    ];
    let server = Server::bind("127.0.0.1:0", Scheduler::new(SchedulerConfig::default()))
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    // Rounds repeat while the next one is expected to end within the
    // run's time; the first always runs.
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0
        || start.elapsed().as_secs_f64() * (rounds + 1) as f64 / rounds as f64 <= args.seconds
    {
        rounds += 1;
        host_section(&mut cx);
        let [compute, control, durable, synth] = &mut decomps;
        compute_section(&mut cx, compute, addr)?;
        control_section(&mut cx, control, addr)?;
        durable_section(&mut cx, durable)?;
        retained_section(&mut cx);
        synth_section(&mut cx, synth)?;
    }
    server.stop(Duration::from_secs(5));
    for p in PROGS.map(Prog::name) {
        let pipe = cx.s.med(&format!("exec.pipe_ns_per_cell.{p}"));
        let reference = cx.s.med(&format!("exec.ref_ns_per_cell.{p}"));
        cx.s.push(format!("exec.pipe_speedup.{p}"), reference / pipe);
    }

    // The spans of each workload's first traced op; the rest only feed
    // the medians, which keeps the printed list short.
    let first: Vec<u32> = decomps.iter().filter_map(|d| d.first_op).collect();
    let spans = cx.tr.to_json(&first);
    let decomp: Vec<String> = decomps.iter().map(Decomp::to_json).collect();
    let errors: Vec<String> = cx.errors.iter().map(|e| inputs::json_str(e)).collect();
    println!(
        r#"{{"spans_recorded":{},"spans":{spans}}}"#,
        cx.tr.spans.len()
    );
    let diag = format!(
        r#"{{"workload":"{}","seed":{},"trace_rounds":{rounds},"decomposition":[{}],"errors":[{}]}}"#,
        args.workload,
        args.seed,
        decomp.join(","),
        errors.join(",")
    );
    let mut metrics: Vec<Metric> = Vec::new();
    for name in per_layer_names() {
        let unit = unit_of(&name);
        metrics.push(metric(name.clone(), cx.s.med(&name), unit));
    }
    let missing: Vec<&Metric> = metrics
        .iter()
        .filter(|m| !cx.s.0.contains_key(&m.name))
        .collect();
    let complete = missing.is_empty();
    if !complete {
        eprintln!(
            "perfbench: traced run lacks {:?}",
            missing.iter().map(|m| &m.name).collect::<Vec<_>>()
        );
    }
    crate::report(
        &diag,
        cx.attempted,
        cx.failed,
        cx.failed == 0 && complete,
        &metrics,
    );
    Ok(())
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn per_layer_names() -> Vec<String> {
    let mut v: Vec<String> = [
        "server.http_rtt_us",
        "server.submit_us",
        "server.result_us",
        "server.plan_us",
        "server.sched_overhead_us",
        "server.retained_kb_per_job",
        "server.journal_append_us",
        "lang.grid_init_ns_per_cell",
        "lang.digest_ns_per_cell",
    ]
    .map(String::from)
    .to_vec();
    for m in [
        "exec.ref_ns_per_cell",
        "exec.pipe_ns_per_cell",
        "exec.pipe_speedup",
        "exec.sweep_bw_frac",
        "exec.stall_frac",
        "exec.halo_bytes_per_cell",
        "exec.useful_cell_frac",
    ] {
        v.extend(PROGS.iter().map(|p| format!("{m}.{}", p.name())));
    }
    v.extend(
        [
            "exec.small_job_us",
            "exec.small_job_compute_frac",
            "persist.seal_ms",
            "persist.ckpt_mb_per_op",
            "persist.seal_ms_disk",
            "persist.prune_stall_ms",
        ]
        .map(String::from),
    );
    for m in ["opt.optimize_pair_ms", "opt.points", "opt.us_per_point"] {
        v.extend(PROGS.iter().map(|p| format!("{m}.{}", p.name())));
    }
    v.extend(
        [
            "model.predict_ns",
            "hls.schedule_us",
            "sim.simulate_ms",
            "codegen.generate_ms",
        ]
        .map(String::from),
    );
    v.extend(
        PROGS
            .iter()
            .map(|p| format!("core.cli_overhead_ms.{}", p.name())),
    );
    v.extend(
        [
            "host.copy_gbps.8MiB",
            "host.copy_gbps.128MiB",
            "host.spin_ms",
        ]
        .map(String::from),
    );
    v
}

pub fn unit_of(name: &str) -> &'static str {
    match name.split('.').nth(1).unwrap_or("") {
        "http_rtt_us" | "submit_us" | "result_us" | "plan_us" | "sched_overhead_us"
        | "journal_append_us" | "small_job_us" | "us_per_point" | "schedule_us" => "us",
        "seal_ms" | "seal_ms_disk" | "prune_stall_ms" | "optimize_pair_ms" | "simulate_ms"
        | "generate_ms" | "cli_overhead_ms" | "spin_ms" => "ms",
        "grid_init_ns_per_cell"
        | "digest_ns_per_cell"
        | "ref_ns_per_cell"
        | "pipe_ns_per_cell"
        | "predict_ns" => "ns",
        "retained_kb_per_job" => "kB",
        "ckpt_mb_per_op" => "MB",
        "copy_gbps" => "GB/s",
        "points" | "halo_bytes_per_cell" => "count",
        _ => "ratio",
    }
}
