//! `stencilcl` — command-line front end to the framework.
//!
//! ```text
//! stencilcl features <file.stencil>
//!     Parse a stencil program and print the extracted features.
//!
//! stencilcl synth <file.stencil> [--parallelism 4x4] [--max-fused N]
//!                 [--unroll N[,N..]] [--min-tile N] [--out DIR]
//!     Run the full framework (DSE + codegen + simulation); print the
//!     Table-3-style summary and write kernels.cl / host.cpp under DIR.
//!
//! stencilcl codegen <file.stencil> --kind baseline|pipe|hetero
//!                 --fused N --parallelism KxK --tile WxW [--out DIR]
//!     Generate the OpenCL design for an explicit design point.
//!
//! stencilcl validate <file.stencil> --fused N --parallelism KxK --tile WxW
//!                    [--kind baseline|pipe|hetero]
//!     Execute the design functionally on one worker and on the threaded
//!     pool and compare both against the naive reference (use small
//!     inputs).
//!
//! stencilcl trace <file.stencil> --fused N --parallelism KxK --tile WxW
//!                 [--kind baseline|pipe|hetero] [--out FILE.json]
//!     Run the threaded executor with the lock-free recorder attached and
//!     print the calibration report (measured phase totals vs the analytical
//!     model's terms vs the simulated schedule) plus both Gantt charts;
//!     `--out` additionally writes the Chrome-tracing JSON.
//!
//! stencilcl run <file.stencil> --fused N --parallelism KxK --tile WxW
//!               [--kind baseline|pipe|hetero] [--deadline-ms N] [--health-bound X]
//!               [--health-stride N] [--integrity on|off] [--retries N]
//!               [--ckpt-dir DIR] [--ckpt-every N] [--report-json FILE]
//!     Execute under full supervision: slab checksums at every pipe splice
//!     (on by default), an optional numerical-health watchdog
//!     (`--health-bound`), and an optional wall-clock deadline
//!     (`--deadline-ms`). `--ckpt-dir` arms durable checkpointing: every
//!     `--ckpt-every` fused-block barriers (default 1) a crash-safe
//!     generation is sealed under DIR, resumable after a
//!     SIGKILL with `stencilcl resume`. Prints the recovery report —
//!     attempts, faults, degradation path — plus a grid digest, writes it
//!     as JSON to `--report-json`, and exits nonzero if the run was
//!     aborted.
//!
//! stencilcl resume <ckpt-dir> [--health-bound X] [--health-stride N]
//!                  [--integrity on|off] [--retries N] [--ckpt-every N]
//!                  [--report-json FILE]
//!     Resume a killed run from the newest valid checkpoint generation in
//!     <ckpt-dir>. The program and design are rebuilt from the sealed
//!     manifest — no source file needed. The resumed run continues
//!     checkpointing into the same store, inherits the original absolute
//!     deadline (an expired one fails instead of granting new time), and
//!     produces the same grid digest an uninterrupted run would have. The
//!     store and the deadline come from the manifest, so `resume` takes no
//!     `--ckpt-dir` or `--deadline-ms`.
//!
//! stencilcl serve [--addr HOST:PORT] [--max-jobs N] [--max-queue N]
//!                 [--quota N] [--state-dir DIR] [--stall-timeout-ms N]
//!                 [--max-auto-resumes N]
//!     Run the multi-tenant job daemon: one persistent executor pool
//!     (`--max-jobs` runners; 0 = host parallelism) shared by every
//!     submitted job, a bounded admission queue (`--max-queue`), and a
//!     per-tenant in-flight quota (`--quota`). HTTP/1.1 + JSON on
//!     `--addr` (default 127.0.0.1:7245): POST /v1/jobs submits a stencil
//!     source + design point, GET /v1/jobs/<id> polls, GET
//!     /v1/jobs/<id>/result fetches the terminal report + grid digest,
//!     GET /v1/jobs/<id>/events streams progress, POST /v1/jobs/<id>/cancel
//!     aborts, GET /healthz and /metrics observe, POST /v1/shutdown drains
//!     gracefully — in-flight checkpointed jobs seal their last barrier so
//!     `stencilcl resume` finishes them bit-exact. With `--state-dir` the
//!     daemon is crash-only: every admission is journalled (fsync) before
//!     the job id is returned, jobs without a requested checkpoint dir
//!     checkpoint under the state dir, and a reboot over the same
//!     directory replays the journal, re-admits every unfinished job from
//!     its last sealed generation, and keeps answering queries for jobs
//!     that settled before the crash. `--stall-timeout-ms` arms a
//!     watchdog that cancels any job whose progress heartbeat goes silent
//!     and auto-resumes it up to `--max-auto-resumes` times.
//!
//! Every `STENCILCL_*` environment knob supplies a default; an explicit
//! flag always wins over the env value, which is frozen at first read.
//! Every command rejects a flag it does not read.
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stencilcl::prelude::*;
use stencilcl::Framework;
use stencilcl_server::{build_design, default_init, parse_kind, MAX_VOLUME};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  stencilcl features <file.stencil>
  stencilcl synth    <file.stencil> [--parallelism 4x4] [--max-fused N] [--unroll 4,8] [--min-tile N] [--out DIR]
  stencilcl codegen  <file.stencil> --kind baseline|pipe|hetero --fused N --parallelism KxK --tile WxW [--out DIR]
  stencilcl validate <file.stencil> --fused N --parallelism KxK --tile WxW [--kind K]
  stencilcl trace    <file.stencil> --fused N --parallelism KxK --tile WxW [--kind K]
                     [--out FILE.json]
  stencilcl run      <file.stencil> --fused N --parallelism KxK --tile WxW [--kind K]
                     [--deadline-ms N] [--health-bound X] [--health-stride N]
                     [--integrity on|off] [--retries N]
                     [--ckpt-dir DIR] [--ckpt-every N] [--report-json FILE]
  stencilcl resume   <ckpt-dir> [--health-bound X] [--health-stride N] [--integrity on|off]
                     [--retries N] [--ckpt-every N] [--report-json FILE]
  stencilcl serve    [--addr HOST:PORT] [--max-jobs N] [--max-queue N] [--quota N]
                     [--state-dir DIR] [--stall-timeout-ms N] [--max-auto-resumes N]";

fn run(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    match cmd.as_str() {
        "features" => features(rest),
        "synth" => synth(rest),
        "codegen" => codegen_cmd(rest),
        "validate" => validate(rest),
        "trace" => trace_cmd(rest),
        "run" => run_cmd(rest),
        "resume" => resume_cmd(rest),
        "serve" => serve_cmd(rest),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The explicit design-point flags (`codegen`, `validate`, `trace`, `run`).
const DESIGN_FLAGS: &[&str] = &["kind", "fused", "parallelism", "tile"];

/// The supervision flags `run` reads through [`supervised_options`] and
/// [`write_report_json`].
const SUPERVISION_FLAGS: &[&str] = &[
    "deadline-ms",
    "health-bound",
    "health-stride",
    "integrity",
    "retries",
    "ckpt-dir",
    "ckpt-every",
    "report-json",
];

/// The supervision flags `resume` reads: those of `run` except
/// `--deadline-ms` and `--ckpt-dir`, which the manifest's deadline
/// remainder and the resumed store replace.
const RESUME_FLAGS: &[&str] = &[
    "health-bound",
    "health-stride",
    "integrity",
    "retries",
    "ckpt-every",
    "report-json",
];

/// Parses `--flag value` pairs after the input path.
struct Opts {
    path: PathBuf,
    flags: Vec<(String, String)>,
}

impl Opts {
    /// Parses `args`, rejecting any flag not in `accepts` — the flags the
    /// subcommand reads — so a typo or a retired flag fails loudly instead
    /// of running with defaults.
    fn parse(args: &[String], accepts: &[&str]) -> Result<Opts, String> {
        let (path, rest) = args.split_first().ok_or("missing input file")?;
        let mut flags = Vec::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
            if !accepts.contains(&name) {
                return Err(format!("unknown flag `{flag}` for this command"));
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Opts {
            path: PathBuf::from(path),
            flags,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn dims(&self, name: &str, dim: usize) -> Result<Option<Vec<usize>>, String> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        let v = parse_dims(raw)?;
        if v.len() != dim {
            return Err(format!(
                "--{name} `{raw}` has {} fields, program is {dim}-D",
                v.len()
            ));
        }
        Ok(Some(v))
    }

    fn program(&self) -> Result<Program, String> {
        let src = std::fs::read_to_string(&self.path)
            .map_err(|e| format!("cannot read {}: {e}", self.path.display()))?;
        parse(&src).map_err(|e| e.to_string())
    }
}

/// Parses `4x2x2` (or `16`) into a per-dimension vector.
fn parse_dims(raw: &str) -> Result<Vec<usize>, String> {
    raw.split(['x', 'X'])
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| format!("bad dimension list `{raw}`"))
        })
        .collect()
}

fn features(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse(args, &[])?;
    let program = opts.program()?;
    let f = StencilFeatures::extract(&program).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "stencil `{}`", f.name);
    let _ = writeln!(out, "  dimensions : {} {}", f.dim, f.extent);
    let _ = writeln!(out, "  iterations : {}", f.iterations);
    let _ = writeln!(out, "  element    : {} bytes", f.elem_bytes);
    let _ = writeln!(out, "  growth/iter: {}", f.growth);
    let _ = writeln!(
        out,
        "  arrays     : {} updated + {} read-only",
        f.updated_arrays, f.read_only_arrays
    );
    let _ = writeln!(out, "  flops/elem : {}", f.ops.flops());
    for (i, s) in f.statements.iter().enumerate() {
        let _ = writeln!(
            out,
            "  statement {i}: {} = f({} reads, growth {})",
            s.target, s.reads, s.growth
        );
    }
    Ok(out)
}

fn search_config(opts: &Opts, dim: usize) -> Result<SearchConfig, String> {
    let mut cfg = SearchConfig::for_dim(dim);
    if let Some(par) = opts.dims("parallelism", dim)? {
        cfg.parallelism = par;
    }
    if let Some(v) = opts.get("max-fused") {
        cfg.max_fused = v.parse().map_err(|_| "bad --max-fused")?;
    }
    if let Some(v) = opts.get("min-tile") {
        cfg.min_tile = v.parse().map_err(|_| "bad --min-tile")?;
    }
    if let Some(v) = opts.get("unroll") {
        cfg.unroll_candidates = v
            .split(',')
            .map(|p| p.parse::<u64>().map_err(|_| "bad --unroll".to_string()))
            .collect::<Result<_, _>>()?;
        cfg.unroll = *cfg.unroll_candidates.first().ok_or("empty --unroll")?;
    }
    Ok(cfg)
}

fn write_design(out_dir: Option<&str>, code: &GeneratedCode) -> Result<String, String> {
    let Some(dir) = out_dir else {
        return Ok(String::new());
    };
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("kernels.cl"), &code.kernels).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("host.cpp"), &code.host).map_err(|e| e.to_string())?;
    Ok(format!("wrote {}/kernels.cl and host.cpp\n", dir.display()))
}

fn synth(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse(
        args,
        &["parallelism", "max-fused", "unroll", "min-tile", "out"],
    )?;
    let program = opts.program()?;
    let cfg = search_config(&opts, program.dim())?;
    let report = Framework::new()
        .synthesize(&program, &cfg)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "{}", report.summary());
    let _ = writeln!(
        out,
        "simulated: baseline {:.3e} cy, heterogeneous {:.3e} cy",
        report.baseline.sim.total_cycles, report.heterogeneous.sim.total_cycles
    );
    out.push_str(&write_design(opts.get("out"), &report.code)?);
    Ok(out)
}

fn explicit_design(
    opts: &Opts,
    program: &Program,
) -> Result<(Design, Partition, DesignSpec), String> {
    let dim = program.dim();
    let fused: u64 = opts
        .get("fused")
        .ok_or("--fused required")?
        .parse()
        .map_err(|_| "bad --fused")?;
    let par = opts
        .dims("parallelism", dim)?
        .ok_or("--parallelism required")?;
    let tile = opts.dims("tile", dim)?.ok_or("--tile required")?;
    let kind = parse_kind(opts.get("kind").unwrap_or("pipe"))?;
    build_design(program, kind, fused, &par, &tile)
}

fn codegen_cmd(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse(args, &[DESIGN_FLAGS, &["out"]].concat())?;
    let program = opts.program()?;
    let (_, partition, _) = explicit_design(&opts, &program)?;
    let code =
        generate(&program, &partition, &CodegenOptions::default()).map_err(|e| e.to_string())?;
    let mut out = write_design(opts.get("out"), &code)?;
    if out.is_empty() {
        out = code.kernels;
    }
    Ok(out)
}

fn validate(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse(args, DESIGN_FLAGS)?;
    let program = opts.program()?;
    if program.extent().volume() > MAX_VOLUME {
        return Err("input too large for functional validation; shrink the grid".into());
    }
    let (_, partition, _) = explicit_design(&opts, &program)?;
    let mut out = String::new();
    let exec_opts = ExecOptions::from_config(EnvConfig::get());
    for (label, mode) in [
        ("one-worker", ExecMode::PipeShared),
        ("threaded", ExecMode::Threaded),
    ] {
        let diff = verify_design(&program, &partition, mode, &exec_opts, default_init)
            .map_err(|e| e.to_string())?;
        let verdict = if diff == 0.0 { "EXACT" } else { "DIVERGED" };
        let _ = writeln!(
            out,
            "{label:<12} max |diff| vs reference: {diff} [{verdict}]"
        );
        if diff != 0.0 {
            return Err(out);
        }
    }
    Ok(out)
}

fn trace_cmd(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse(args, &[DESIGN_FLAGS, &["out"]].concat())?;
    let program = opts.program()?;
    if program.extent().volume() > MAX_VOLUME {
        return Err("input too large for host-side tracing; shrink the grid".into());
    }
    let (design, partition, _) = explicit_design(&opts, &program)?;
    let features = StencilFeatures::extract(&program).map_err(|e| e.to_string())?;

    let rec = Recorder::new();
    let mut state = GridState::new(&program, default_init);
    let exec_opts = ExecOptions::new().trace(rec.clone());
    run_threaded_opts(&program, &partition, &mut state, &exec_opts).map_err(|e| e.to_string())?;
    let measured = rec.finish();

    let fw = Framework::new();
    let point = stencilcl_opt::evaluate(&program, &features, design, &fw.device, &fw.cost, 1)
        .map_err(|e| e.to_string())?;
    let plans = stencilcl_sim::build_plans(&features, &partition);
    let (_, sim_trace) =
        stencilcl_sim::simulate_pass_traced(&plans, &point.hls.schedule(), &fw.device);
    let report = CalibrationReport::build(
        &features.name,
        "threaded",
        &measured,
        Some(&sim_trace),
        &point.prediction.terms(),
        Some(point.prediction.total),
    );

    let mut out = String::new();
    let _ = writeln!(out, "{}", report.render());
    let _ = writeln!(out, "measured schedule (wall clock):");
    let _ = writeln!(out, "{}", measured.to_trace().gantt(100));
    let _ = writeln!(out, "simulated schedule (device cycles):");
    let _ = writeln!(out, "{}", sim_trace.gantt(100));
    if let Some(path) = opts.get("out") {
        std::fs::write(path, measured.chrome_trace_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "wrote Chrome-tracing JSON to {path}");
    }
    Ok(out)
}

/// Builds the supervised-run [`ExecOptions`]: the process env snapshot
/// (`cfg`) supplies every default, then explicit flags overwrite their
/// fields. `EnvConfig::get` freezes the snapshot at first read, so flag
/// precedence cannot come from re-reading the environment — the only
/// correct order is [`ExecOptions::from_config`] first, flags after.
/// Absent flags leave the env-derived value intact (an env-armed health
/// watchdog stays armed); `--integrity` alone defaults to on, the `run`
/// command's documented baseline. `store` is the checkpoint store a
/// resume continues into; it stands in for `--ckpt-dir`.
fn supervised_options(
    cfg: &EnvConfig,
    opts: &Opts,
    store: Option<&Path>,
) -> Result<ExecOptions, String> {
    let mut exec_opts = ExecOptions::from_config(cfg);
    if let Some(v) = opts.get("deadline-ms") {
        let ms: u64 = v.parse().map_err(|_| format!("bad --deadline-ms `{v}`"))?;
        exec_opts.policy.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(v) = opts.get("retries") {
        exec_opts.policy.max_retries = v.parse().map_err(|_| format!("bad --retries `{v}`"))?;
    }
    if let Some(v) = opts.get("health-bound") {
        exec_opts.health = match v {
            "nan" | "non-finite" => HealthPolicy::non_finite(),
            _ => {
                let bound: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --health-bound `{v}` (number, or `nan`)"))?;
                if bound.is_nan() || bound <= 0.0 {
                    return Err(format!("--health-bound must be positive, got `{v}`"));
                }
                HealthPolicy::bounded(bound)
            }
        };
    }
    if let Some(v) = opts.get("health-stride") {
        if !exec_opts.health.enabled() {
            return Err("--health-stride needs --health-bound to arm the watchdog".into());
        }
        let stride: usize = v
            .parse()
            .map_err(|_| format!("bad --health-stride `{v}`"))?;
        if stride == 0 {
            return Err("--health-stride must be at least 1".into());
        }
        exec_opts.health = exec_opts.health.stride(stride);
    }
    exec_opts.integrity = match opts.get("integrity").unwrap_or("on") {
        "on" | "true" | "1" => true,
        "off" | "false" | "0" => false,
        other => return Err(format!("bad --integrity `{other}` (on|off)")),
    };
    if let Some(dir) = store.or_else(|| opts.get("ckpt-dir").map(Path::new)) {
        exec_opts.checkpoint.dir = Some(dir.to_path_buf());
    }
    if let Some(v) = opts.get("ckpt-every") {
        let every: u64 = v.parse().map_err(|_| format!("bad --ckpt-every `{v}`"))?;
        if every == 0 {
            return Err("--ckpt-every must be at least 1".into());
        }
        if !exec_opts.checkpoint.enabled() {
            return Err("--ckpt-every needs --ckpt-dir (or STENCILCL_CKPT_DIR) \
                        to arm checkpointing"
                .into());
        }
        exec_opts.checkpoint.every_barriers = every;
    }
    Ok(exec_opts)
}

/// Renders the attempt history shared by `run` and `resume`.
fn render_report(out: &mut String, report: &RunReport) {
    for (i, a) in report.attempts.iter().enumerate() {
        let _ = writeln!(
            out,
            "attempt {i}: {:?} from iteration {}, completed {}{}",
            a.mode,
            a.start_iteration,
            a.iterations_completed,
            a.fault
                .as_ref()
                .map_or(String::new(), |f| format!(" — fault: {f}")),
        );
    }
    let _ = writeln!(
        out,
        "path: {:?}, recoveries: {}, leaked workers: {}",
        report.path,
        report.recoveries(),
        report.leaked_workers(),
    );
}

/// Writes the machine-readable run report when `--report-json` asks for
/// one — on success *and* on failure, where it matters most.
fn write_report_json(opts: &Opts, report: &RunReport) -> Result<(), String> {
    let Some(path) = opts.get("report-json") else {
        return Ok(());
    };
    let json = serde_json::to_string(report).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

fn run_cmd(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse(args, &[DESIGN_FLAGS, SUPERVISION_FLAGS].concat())?;
    let program = opts.program()?;
    if program.extent().volume() > MAX_VOLUME {
        return Err("input too large for host-side execution; shrink the grid".into());
    }
    let (design, partition, spec) = explicit_design(&opts, &program)?;

    let mut exec_opts = supervised_options(EnvConfig::get(), &opts, None)?;
    if exec_opts.checkpoint.enabled() {
        // Seal the resolved design into every manifest so `stencilcl
        // resume <dir>` needs neither the source file nor the flags.
        exec_opts.checkpoint.design = Some(spec);
    }
    let integrity = exec_opts.integrity;

    let mut state = GridState::new(&program, default_init);
    let (report, result) = run_supervised_full(&program, &partition, &mut state, &exec_opts);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "run `{}`: {} iterations on {} ({} kernels, fused {})",
        program.name,
        program.iterations,
        design.kind(),
        partition.kernel_count(),
        design.fused(),
    );
    let guards = format!(
        "integrity {}, health {:?} (stride {}), deadline {}",
        if integrity { "on" } else { "off" },
        exec_opts.health.mode,
        exec_opts.health.stride,
        exec_opts
            .policy
            .deadline
            .map_or("none".to_string(), |d| format!("{} ms", d.as_millis())),
    );
    let _ = writeln!(out, "guards: {guards}");
    if let Some(dir) = &exec_opts.checkpoint.dir {
        let _ = writeln!(
            out,
            "checkpoints: every {} barrier(s) into {} (keep {})",
            exec_opts.checkpoint.every_barriers.max(1),
            dir.display(),
            exec_opts.checkpoint.keep_generations,
        );
    }
    render_report(&mut out, &report);
    write_report_json(&opts, &report)?;
    match result {
        Ok(()) => {
            let _ = writeln!(out, "grid digest: {:#018x}", state.digest());
            let _ = writeln!(out, "run completed");
            Ok(out)
        }
        Err(e) => Err(format!("{out}run aborted: {e}")),
    }
}

fn resume_cmd(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse(args, RESUME_FLAGS)?;
    let dir = opts.path.clone();
    // Peek at the newest valid manifest to rebuild the program and the
    // partition; the resume entry point re-validates on its own load.
    let loaded = load_latest(&DirStore::new(&dir), None).map_err(|e| e.to_string())?;
    for note in &loaded.fallback_notes {
        eprintln!("warning: {note}");
    }
    let manifest = loaded.manifest;
    let program = manifest.program.clone();
    let spec = manifest.design.clone().ok_or(
        "checkpoint manifest records no design (a library-driven run?); \
         resume it programmatically via resume_supervised_full",
    )?;
    let kind = parse_kind(&spec.kind)?;
    let (design, partition, _) =
        build_design(&program, kind, spec.fused, &spec.parallelism, &spec.tile)?;
    let mut exec_opts = supervised_options(EnvConfig::get(), &opts, Some(&dir))?;
    exec_opts.checkpoint.design = Some(spec);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "resume `{}` from {}: generation {}, {} of {} iterations done ({} kernels, fused {})",
        program.name,
        dir.display(),
        manifest.generation,
        manifest.completed_iterations,
        program.iterations,
        partition.kernel_count(),
        design.fused(),
    );
    let (state, report, result) = resume_supervised_full(&program, &partition, &dir, &exec_opts)
        .map_err(|e| {
            let _ = writeln!(out, "no resumable generation");
            format!("{out}resume failed: {e}")
        })?;
    render_report(&mut out, &report);
    write_report_json(&opts, &report)?;
    match result {
        Ok(()) => {
            let _ = writeln!(out, "grid digest: {:#018x}", state.digest());
            let _ = writeln!(out, "resume completed");
            Ok(out)
        }
        Err(e) => Err(format!("{out}resume aborted: {e}")),
    }
}

/// `stencilcl serve`: boot the multi-tenant job daemon and block until a
/// graceful shutdown (`POST /v1/shutdown`) drains it.
fn serve_cmd(args: &[String]) -> Result<String, String> {
    use stencilcl_server::{Scheduler, SchedulerConfig, Server};

    let mut addr = "127.0.0.1:7245".to_string();
    let mut cfg = SchedulerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--addr" => addr = value.to_string(),
            "--max-jobs" => {
                cfg.workers = value
                    .parse()
                    .map_err(|_| format!("--max-jobs wants a count, got `{value}`"))?;
            }
            "--max-queue" => {
                cfg.max_queue = value
                    .parse()
                    .map_err(|_| format!("--max-queue wants a count, got `{value}`"))?;
            }
            "--quota" => {
                cfg.quota = value
                    .parse()
                    .map_err(|_| format!("--quota wants a count, got `{value}`"))?;
            }
            "--state-dir" => cfg.state_dir = Some(PathBuf::from(value)),
            "--stall-timeout-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("--stall-timeout-ms wants milliseconds, got `{value}`"))?;
                if ms == 0 {
                    return Err("--stall-timeout-ms must be at least 1".to_string());
                }
                cfg.stall_timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--max-auto-resumes" => {
                cfg.max_auto_resumes = value
                    .parse()
                    .map_err(|_| format!("--max-auto-resumes wants a count, got `{value}`"))?;
            }
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    let scheduler = Scheduler::new(cfg);
    let server = Server::bind(&addr, scheduler).map_err(|e| format!("bind {addr}: {e}"))?;
    let cfg = server.scheduler().config().clone();
    // The listening line goes out immediately (not through the collected
    // output) so wrappers can scrape the resolved ephemeral port.
    println!(
        "stencilcl serve: listening on http://{}",
        server.local_addr()
    );
    println!(
        "  runners {} (0 = host parallelism), queue bound {}, tenant quota {}",
        cfg.workers, cfg.max_queue, cfg.quota
    );
    match (&cfg.state_dir, cfg.stall_timeout) {
        (Some(dir), Some(stall)) => println!(
            "  crash-only: journal under {}, stall watchdog {}ms, {} auto-resume(s)",
            dir.display(),
            stall.as_millis(),
            cfg.max_auto_resumes
        ),
        (Some(dir), None) => println!(
            "  crash-only: journal under {}, watchdog disarmed, {} auto-resume(s)",
            dir.display(),
            cfg.max_auto_resumes
        ),
        (None, Some(stall)) => println!(
            "  stall watchdog {}ms, {} auto-resume(s), no journal (memory-only)",
            stall.as_millis(),
            cfg.max_auto_resumes
        ),
        (None, None) => {}
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    Ok("serve: drained and stopped\n".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_parse_both_separators_and_scalars() {
        assert_eq!(parse_dims("4x2X2").unwrap(), vec![4, 2, 2]);
        assert_eq!(parse_dims("16").unwrap(), vec![16]);
        assert!(parse_dims("4xx2").is_err());
        assert!(parse_dims("abc").is_err());
    }

    #[test]
    fn opts_collects_flags_and_last_wins() {
        let args: Vec<String> = ["f.stencil", "--fused", "4", "--fused", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Opts::parse(&args, &["fused"]).unwrap();
        assert_eq!(o.get("fused"), Some("8"));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn opts_rejects_dangling_flags() {
        let args: Vec<String> = ["f.stencil", "--fused"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(Opts::parse(&args, &["fused"]).is_err());
        let args: Vec<String> = ["f.stencil", "fused", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(Opts::parse(&args, &["fused"]).is_err());
    }

    #[test]
    fn unknown_command_reports_usage_error() {
        for cmd in ["fly", "blocked"] {
            let err = run(&[cmd.to_string()]).unwrap_err();
            assert!(err.contains("unknown command"), "{err}");
        }
    }

    fn stencil_args(cmd: &str, path: &str, extra: &[&str]) -> Vec<String> {
        let mut v = vec![
            cmd.into(),
            path.into(),
            "--fused".into(),
            "3".into(),
            "--parallelism".into(),
            "2x2".into(),
            "--tile".into(),
            "8x8".into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    }

    fn temp_stencil(name: &str) -> String {
        let dir = std::env::temp_dir().join("stencilcl-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join(name);
        std::fs::write(
            &file,
            "stencil blur { grid A[32][32] : f32; iterations 6;
             A[i][j] = 0.5 * A[i][j] + 0.125 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }",
        )
        .unwrap();
        file.to_string_lossy().to_string()
    }

    fn frozen_config(pairs: &[(&str, &str)]) -> EnvConfig {
        let (cfg, warnings) = EnvConfig::parse(|var| {
            pairs
                .iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        });
        assert!(warnings.is_empty(), "{warnings:?}");
        cfg
    }

    fn flag_opts(flags: &[&str]) -> Opts {
        let mut args = vec!["f.stencil".to_string()];
        args.extend(flags.iter().map(|s| s.to_string()));
        Opts::parse(&args, SUPERVISION_FLAGS).unwrap()
    }

    #[test]
    fn cli_flags_override_the_frozen_env_config() {
        // Simulates a process whose OnceLock froze these env values before
        // the CLI parsed its flags: every explicit flag must still win.
        let cfg = frozen_config(&[
            ("STENCILCL_DEADLINE_MS", "1000"),
            ("STENCILCL_MAX_RETRIES", "7"),
        ]);
        let opts = flag_opts(&[
            "--deadline-ms",
            "250",
            "--retries",
            "1",
            "--integrity",
            "off",
        ]);
        let exec = supervised_options(&cfg, &opts, None).unwrap();
        assert_eq!(
            exec.policy.deadline,
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(exec.policy.max_retries, 1);
        assert!(!exec.integrity);
    }

    #[test]
    fn absent_flags_keep_the_env_derived_defaults() {
        let cfg = frozen_config(&[
            ("STENCILCL_DEADLINE_MS", "1000"),
            ("STENCILCL_HEALTH_BOUND", "1e9"),
            ("STENCILCL_HEALTH_STRIDE", "3"),
        ]);
        let exec = supervised_options(&cfg, &flag_opts(&[]), None).unwrap();
        assert_eq!(
            exec.policy.deadline,
            Some(std::time::Duration::from_millis(1000))
        );
        // The env-armed health watchdog survives a flagless invocation
        // (it used to be clobbered by a disarmed default).
        assert!(exec.health.enabled());
        assert_eq!(exec.health.stride, 3);
        // `run` seals slabs by default.
        assert!(exec.integrity);
    }

    #[test]
    fn health_stride_flag_refines_an_env_armed_watchdog() {
        let cfg = frozen_config(&[("STENCILCL_HEALTH_BOUND", "1e9")]);
        let exec = supervised_options(&cfg, &flag_opts(&["--health-stride", "9"]), None).unwrap();
        assert!(exec.health.enabled());
        assert_eq!(exec.health.stride, 9);
        // Without any bound the stride flag still has nothing to refine.
        let err = supervised_options(
            &frozen_config(&[]),
            &flag_opts(&["--health-stride", "9"]),
            None,
        )
        .unwrap_err();
        assert!(err.contains("--health-bound"), "{err}");
    }

    #[test]
    fn fused_zero_is_rejected_with_a_diagnostic() {
        let path = temp_stencil("fused0.stencil");
        let mut args = stencil_args("validate", &path, &[]);
        args[3] = "0".into();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--fused 0"), "{err}");
    }

    #[test]
    fn run_command_reports_the_guards_and_the_recovery_path() {
        let path = temp_stencil("run.stencil");
        let out = run(&stencil_args(
            "run",
            &path,
            &["--health-bound", "1e6", "--deadline-ms", "60000"],
        ))
        .unwrap();
        assert!(out.contains("integrity on"), "{out}");
        assert!(out.contains("deadline 60000 ms"), "{out}");
        assert!(out.contains("run completed"), "{out}");
        assert!(out.contains("leaked workers: 0"), "{out}");
    }

    #[test]
    fn run_command_surfaces_an_expired_deadline_as_an_error() {
        let path = temp_stencil("deadline.stencil");
        let err = run(&stencil_args("run", &path, &["--deadline-ms", "0"])).unwrap_err();
        assert!(err.contains("run aborted"), "{err}");
        assert!(err.contains("deadline"), "{err}");
    }

    #[test]
    fn ckpt_flags_override_env_and_validate() {
        let cfg = frozen_config(&[
            ("STENCILCL_CKPT_DIR", "/tmp/env-ckpt"),
            ("STENCILCL_CKPT_EVERY", "5"),
        ]);
        let exec = supervised_options(
            &cfg,
            &flag_opts(&["--ckpt-dir", "/tmp/flag-ckpt", "--ckpt-every", "2"]),
            None,
        )
        .unwrap();
        assert_eq!(
            exec.checkpoint.dir.as_deref(),
            Some("/tmp/flag-ckpt".as_ref())
        );
        assert_eq!(exec.checkpoint.every_barriers, 2);
        // Env alone arms checkpointing; flags alone arm it; cadence without
        // a directory is a usage error.
        let exec = supervised_options(&cfg, &flag_opts(&[]), None).unwrap();
        assert_eq!(
            exec.checkpoint.dir.as_deref(),
            Some("/tmp/env-ckpt".as_ref())
        );
        assert_eq!(exec.checkpoint.every_barriers, 5);
        let bare = frozen_config(&[]);
        assert!(!supervised_options(&bare, &flag_opts(&[]), None)
            .unwrap()
            .checkpoint
            .enabled());
        let err = supervised_options(&bare, &flag_opts(&["--ckpt-every", "2"]), None).unwrap_err();
        assert!(err.contains("--ckpt-dir"), "{err}");
        let err = supervised_options(
            &bare,
            &flag_opts(&["--ckpt-dir", "/tmp/x", "--ckpt-every", "0"]),
            None,
        )
        .unwrap_err();
        assert!(err.contains("--ckpt-every"), "{err}");
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stencilcl-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn run_checkpoints_and_resume_reproduces_the_same_digest() {
        let path = temp_stencil("ckpt.stencil");
        let dir = scratch_dir("ckpt");
        let report_path = dir.join("report.json");
        std::fs::create_dir_all(&dir).unwrap();

        // An uninterrupted run prints the reference digest.
        let clean = run(&stencil_args("run", &path, &[])).unwrap();
        let digest_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("grid digest:"))
                .map(str::to_string)
                .unwrap_or_else(|| panic!("no digest in: {out}"))
        };
        let expect = digest_line(&clean);

        // A checkpointed run seals generations and matches the digest.
        let ckpt_dir = dir.join("store");
        let out = run(&stencil_args(
            "run",
            &path,
            &[
                "--ckpt-dir",
                ckpt_dir.to_str().unwrap(),
                "--ckpt-every",
                "1",
                "--report-json",
                report_path.to_str().unwrap(),
            ],
        ))
        .unwrap();
        assert!(out.contains("checkpoints: every 1 barrier(s)"), "{out}");
        assert_eq!(digest_line(&out), expect);
        let json = std::fs::read_to_string(&report_path).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(matches!(parsed, serde_json::Value::Object(_)), "{json}");
        assert!(json.contains("\"path\":\"threaded\""), "{json}");
        assert!(json.contains("\"attempts\""), "{json}");

        // Simulate a crash that lost the final generations: resume from an
        // intermediate one must land on the identical digest.
        let store = DirStore::new(&ckpt_dir);
        let generations = store.generations().unwrap();
        assert!(generations.len() >= 2, "{generations:?}");
        for g in &generations[generations.len() - 1..] {
            store.remove(*g).unwrap();
        }
        let out = run(&["resume".to_string(), ckpt_dir.to_string_lossy().to_string()]).unwrap();
        assert!(out.contains("resume completed"), "{out}");
        assert_eq!(digest_line(&out), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_the_flags_its_manifest_overrides() {
        // The manifest's deadline remainder and the resumed store replace
        // both, so accepting them would silently ignore the caller.
        let dir = scratch_dir("resumeflags");
        let store = dir.to_string_lossy().to_string();
        for extra in [["--deadline-ms", "0"], ["--ckpt-dir", "X"]] {
            let mut args = vec!["resume".to_string(), store.clone()];
            args.extend(extra.iter().map(|s| s.to_string()));
            let err = run(&args).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag `{}`", extra[0])),
                "{err}"
            );
        }
    }

    #[test]
    fn resume_of_an_empty_store_is_a_clean_error() {
        let dir = scratch_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run(&["resume".to_string(), dir.to_string_lossy().to_string()]).unwrap_err();
        assert!(err.contains("no checkpoint generations"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_command_rejects_malformed_guard_flags() {
        let path = temp_stencil("badflags.stencil");
        for extra in [
            &["--health-bound", "zero"][..],
            &["--health-bound", "-4.0"][..],
            &["--health-stride", "2"][..],
            &["--integrity", "maybe"][..],
            &["--deadline-ms", "fast"][..],
        ] {
            let err = run(&stencil_args("run", &path, extra)).unwrap_err();
            assert!(err.contains("--"), "no flag named in: {err}");
        }
    }

    #[test]
    fn run_command_rejects_flags_it_does_not_read() {
        // `--lanes` was retired; `--retires` is a typo of `--retries`.
        let path = temp_stencil("unknownflags.stencil");
        for extra in [&["--lanes", "8"][..], &["--retires", "3"][..]] {
            let err = run(&stencil_args("run", &path, extra)).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag `{}`", extra[0])),
                "{err}"
            );
        }
    }

    #[test]
    fn end_to_end_on_a_temp_file() {
        let dir = std::env::temp_dir().join("stencilcl-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("blur.stencil");
        std::fs::write(
            &file,
            "stencil blur { grid A[32][32] : f32; iterations 6;
             A[i][j] = 0.5 * A[i][j] + 0.125 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }",
        )
        .unwrap();
        let path = file.to_string_lossy().to_string();

        let out = run(&[String::from("features"), path.clone()]).unwrap();
        assert!(out.contains("dimensions : 2"));

        for kind in ["pipe", "baseline"] {
            let flags = ["--fused", "3", "--parallelism", "2x2", "--tile", "8x8"];
            let design: Vec<String> = flags
                .into_iter()
                .chain(["--kind", kind])
                .map(String::from)
                .collect();
            let out =
                run(&[vec!["validate".into(), path.clone()], design.clone()].concat()).unwrap();
            assert!(
                out.contains("one-worker") && out.contains("threaded"),
                "{out}"
            );
            assert_eq!(out.matches("EXACT").count(), 2, "{out}");

            let out = run(&[vec!["trace".into(), path.clone()], design].concat()).unwrap();
            assert!(out.contains("calibration:"), "{out}");
            assert!(out.contains("measured schedule"), "{out}");
        }

        let out = run(&[
            "codegen".into(),
            path,
            "--kind".into(),
            "baseline".into(),
            "--fused".into(),
            "2".into(),
            "--parallelism".into(),
            "2x2".into(),
            "--tile".into(),
            "8x8".into(),
        ])
        .unwrap();
        assert!(out.contains("__kernel"), "{out}");
    }
}
