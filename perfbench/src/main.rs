//! `perfbench`: the repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           --stencilcl PATH --tmp DIR [--rustc V] [--git-rev R]
//!           [--poison-expected]
//! ```
//!
//! `--trace 0` runs workload W end to end against the `stencilcl` binary
//! and prints the end-to-end metrics; `--trace 1` runs the traced
//! per-layer pass in-process. The last stdout line is the result object;
//! the line before it carries diagnostics (host fingerprint, drift probe,
//! tail latencies, errors). `--poison-expected` corrupts every expected
//! digest and synth design, to show that wrong outputs fail ops.
//! See `perfbench/README.md`.

mod host;
mod inputs;
mod serve;
mod stats;
mod synth;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "serve_compute",
    "serve_control",
    "serve_durable",
    "synth_cli",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin: PathBuf,
    pub tmp: PathBuf,
    pub bench_dir: PathBuf,
    pub rustc: String,
    pub git_rev: String,
    pub poison: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == name)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, name: &str| v.ok_or_else(|| format!("missing {name}"));
    let workload = need(get("--workload"), "--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let num = |v: String, name: &str| v.parse::<u64>().map_err(|_| format!("bad {name} `{v}`"));
    let seed = num(need(get("--seed"), "--seed")?, "--seed")?;
    let seconds = num(need(get("--seconds"), "--seconds")?, "--seconds")?.max(1) as f64;
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bin: PathBuf::from(need(get("--stencilcl"), "--stencilcl")?),
        tmp: PathBuf::from(need(get("--tmp"), "--tmp")?),
        bench_dir: PathBuf::from(get("--bench-dir").unwrap_or_else(|| "perfbench".into())),
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
        git_rev: get("--git-rev").unwrap_or_else(|| "unknown".into()),
        poison: std::env::args().any(|a| a == "--poison-expected"),
    })
}

/// One named metric of the result object.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Prints the diagnostics line and the result line (always last).
pub fn report(diag: &str, attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) {
    println!("{diag}");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {{{}}}}}"#,
        attempted.max(1),
        body.join(", ")
    );
}

/// Aggregates of an end-to-end run.
#[derive(Default)]
struct Totals {
    setups: Vec<f64>,
    op_ms: Vec<f64>,
    measured_s: f64,
    cpu_ms: f64,
    hwm_kb: Vec<f64>,
    retained_kb: Vec<f64>,
    /// Ops per second of each incarnation, for spotting drift within a run.
    inc_rate: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn run_serve(args: &Args) -> Result<Totals, String> {
    let mut jobs = inputs::serve_bundle(&args.workload, args.seed).expect("serve workload");
    for j in &mut jobs {
        j.compute_expected();
    }
    let expected: Vec<String> = jobs
        .iter()
        .map(|j| {
            if args.poison {
                inputs::poison_digest(&j.expected_digest)
            } else {
                j.expected_digest.clone()
            }
        })
        .collect();
    let sh = serve::shape(&args.workload);
    let mut t = Totals::default();
    // Incarnations repeat while the next one is expected to end within
    // the run's time; the first always runs.
    let start = Instant::now();
    while t.setups.is_empty()
        || start.elapsed().as_secs_f64() * (t.setups.len() + 1) as f64 / t.setups.len() as f64
            <= args.seconds
    {
        let inc = serve::incarnation(&args.bin, &args.tmp, &jobs, &expected, &sh);
        t.setups.push(inc.setup_s);
        t.op_ms.extend(&inc.op_ms);
        t.measured_s += inc.measured_s;
        t.cpu_ms += inc.cpu_ms;
        t.hwm_kb.push(inc.hwm_kb as f64);
        t.retained_kb.push(inc.retained_kb_per_job);
        t.inc_rate
            .push(inc.op_ms.len() as f64 / inc.measured_s.max(1e-9));
        t.attempted += inc.attempted;
        t.failed += inc.failed;
        t.errors.extend(inc.errors);
        if inc.measured_s == 0.0 {
            break; // the daemon never came up; do not spin on it
        }
    }
    Ok(t)
}

fn run_synth(args: &Args) -> Result<Totals, String> {
    let mut expected = synth::Expected::load(&args.bench_dir.join("expected_synth.json"))?;
    if args.poison {
        expected.poison();
    }
    let srcs = synth::write_sources(&args.tmp, args.seed)?;
    let setup_src = synth::write_setup_source(&args.tmp, args.seed)?;
    let out = args.tmp.join("synth-out");
    let mut t = Totals::default();
    for _ in 0..11 {
        let s = Instant::now();
        t.attempted += 1;
        match synth::run_setup(&args.bin, &setup_src, &out) {
            Ok(()) => t.setups.push(s.elapsed().as_secs_f64()),
            Err(e) => {
                t.failed += 1;
                t.errors.push(e);
            }
        }
    }
    let (cpu0, _) = host::children_rusage();
    let start = Instant::now();
    let mut ops = 0u32;
    while ops == 0
        || start.elapsed().as_secs_f64() * f64::from(ops + 1) / f64::from(ops) <= args.seconds
    {
        ops += 1;
        t.attempted += 1;
        let s = Instant::now();
        let r = srcs
            .iter()
            .try_for_each(|(p, src)| synth::run_one(&args.bin, src, &out, *p, &expected));
        match r {
            Ok(()) => t.op_ms.push(s.elapsed().as_secs_f64() * 1e3),
            Err(e) => {
                t.failed += 1;
                if t.errors.len() < 5 {
                    t.errors.push(e);
                }
            }
        }
    }
    t.measured_s = start.elapsed().as_secs_f64();
    let (cpu1, maxrss) = host::children_rusage();
    t.cpu_ms = cpu1 - cpu0;
    t.hwm_kb.push(maxrss as f64);
    Ok(t)
}

fn end_to_end(args: &Args) -> Result<(), String> {
    let spin_before = host::spin_ms();
    let steal0 = host::steal_ms();
    let t = if args.workload == "synth_cli" {
        run_synth(args)?
    } else {
        run_serve(args)?
    };
    let steal_ms = host::steal_ms() - steal0;
    let spin_after = host::spin_ms();
    let ok_ops = t.op_ms.len();
    let mut lat = t.op_ms.clone();
    let (p50, p90, p99) = (
        stats::median(&mut lat),
        stats::percentile(&mut lat, 0.9),
        stats::percentile(&mut lat, 0.99),
    );
    let beyond = |q: f64| ok_ops - (q * ok_ops as f64).ceil().min(ok_ops as f64) as usize;
    let mut setups = t.setups.clone();
    let mut hwm = t.hwm_kb.clone();
    let mut retained = t.retained_kb.clone();
    let fp = host::fingerprint(
        &args.rustc,
        &args.git_rev,
        &[
            ("journal", &args.tmp.join("state")),
            ("ckpt", &args.tmp.join("ckpt")),
        ],
    );
    let errors: Vec<String> = t.errors.iter().map(|e| inputs::json_str(e)).collect();
    let diag = format!(
        r#"{{"workload":"{}","seed":{},"host":{fp},"spin_ms_before":{spin_before:.2},"spin_ms_after":{spin_after:.2},"steal_ms":{steal_ms:.0},"ops_ok":{ok_ops},"op_latency_ms":{{"p50":{p50:.4},"p90":{p90:.4},"p90_samples_beyond":{},"p99":{p99:.4},"p99_samples_beyond":{}}},"incarnations":{},"incarnation_ops_per_s":{:.3?},"setup_s_all":{:.4?},"retained_kb_per_job":{:.2},"errors":[{}]}}"#,
        args.workload,
        args.seed,
        beyond(0.9),
        beyond(0.99),
        t.setups.len(),
        t.inc_rate,
        t.setups,
        stats::median(&mut retained),
        errors.join(",")
    );
    let ops = ok_ops.max(1) as f64;
    let metrics = [
        metric("ops_per_s", ok_ops as f64 / t.measured_s.max(1e-9), "1/s"),
        metric("op_latency_p50_ms", p50, "ms"),
        metric("cpu_ms_per_op", t.cpu_ms / ops, "ms"),
        metric("rss_mb", stats::median(&mut hwm) * 1024.0 / 1e6, "MB"),
        metric("setup_s", stats::median(&mut setups), "s"),
    ];
    report(
        &diag,
        t.attempted,
        t.failed,
        t.failed == 0 && ok_ops > 0,
        &metrics,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&args.bin).is_file() {
        eprintln!("perfbench: no stencilcl binary at {}", args.bin.display());
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("perfbench: {}: {e}", args.tmp.display());
        return ExitCode::from(2);
    }
    let r = if args.trace {
        trace::run(&args)
    } else {
        end_to_end(&args)
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
