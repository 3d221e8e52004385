//! Ablation / calibration: **measured telemetry vs the analytical model vs
//! the simulator** — the repo's host-side analogue of the paper's Figure 7.
//!
//! The threaded executor runs each benchmark in alternating pairs, once
//! with the zero-cost disabled sink and once with a live lock-free
//! recorder (the shared harness in `stencilcl_bench::ab`). The recorded
//! spans (launch, halo read, compute, pipe wait, write-back, barrier per
//! (kernel, region)) are folded into a `CalibrationReport` against the
//! analytical model's per-term cycle breakdown and the event-driven
//! simulator's schedule for the same `Design`. The binary asserts that
//! recording never perturbs the grid (bit-exact against the untraced run),
//! drops no span, and that every kernel shows nonzero Compute/PipeWait/
//! Barrier totals; it reports the recording overhead with its 95% interval
//! (ungated — CI runs it on small grids where fixed costs dominate) and
//! writes `results/BENCH_trace.json` plus one Chrome-tracing JSON
//! (`chrome://tracing` / Perfetto) and one calibration report per benchmark.
//!
//! Knobs (environment): `STENCILCL_BENCH_N` (grid side, default 256),
//! `STENCILCL_BENCH_ITERS` (iterations, default 16),
//! `STENCILCL_BENCH_SAMPLES` (timing pairs, default 21).

use stencilcl::Framework;
use stencilcl_bench::ab::{grid_cases, knobs, report, time_grid_pairs, timed, AbRow};
use stencilcl_bench::runner::{write_json, write_text};
use stencilcl_exec::{run_threaded_opts, ExecOptions, ExecPolicy, Recorder};
use stencilcl_lang::{GridState, StencilFeatures};
use stencilcl_opt::evaluate;
use stencilcl_sim::{build_plans, simulate_pass_traced};
use stencilcl_telemetry::{CalibrationReport, EnvConfig};

fn main() {
    let (n, iters, pairs) = knobs(16);
    let plain = ExecOptions::new().policy(ExecPolicy::from_config(EnvConfig::get()));
    let fw = Framework::new();

    let mut rows = Vec::new();
    for (name, p, part) in &grid_cases(n, iters) {
        eprintln!("[ablation_trace] {name} ...");

        // Measure: disabled sink vs live recorder, bit-exactness enforced.
        let run = |s: &mut GridState, opts: &ExecOptions| {
            timed(|| run_threaded_opts(p, part, s, opts).expect("threaded run"))
        };
        let mut last = None;
        let (samples, diff) = time_grid_pairs(
            p,
            pairs,
            |s| run(s, &plain),
            |s| {
                let rec = Recorder::new();
                let ms = run(s, &plain.clone().trace(rec.clone()));
                last = Some(rec.finish());
                ms
            },
        );
        let measured = last.expect("traced side ran");
        assert_eq!(diff, 0.0, "{name}: recording perturbed the computation");
        assert_eq!(measured.dropped, 0, "{name}: recorder slab overflowed");
        measured.validate_spans().expect("well-formed span nesting");

        // References for the same design: the analytical model's per-term
        // breakdown and the simulator's pipe-synchronized schedule.
        let features = StencilFeatures::extract(p).expect("star stencil features");
        let point = evaluate(p, &features, part.design().clone(), &fw.device, &fw.cost, 1)
            .expect("model evaluation");
        let plans = build_plans(&features, part);
        let (_, sim_trace) = simulate_pass_traced(&plans, &point.hls.schedule(), &fw.device);

        let calibration = CalibrationReport::build(
            name,
            "threaded",
            &measured,
            Some(&sim_trace),
            &point.prediction.terms(),
            Some(point.prediction.total),
        );
        for k in &calibration.kernels {
            let (kernel, m) = (k.kernel, &k.measured);
            assert!(m.compute > 0.0, "{name} kernel {kernel}: no compute");
            assert!(m.pipe_wait > 0.0, "{name} kernel {kernel}: no pipe wait");
            assert!(m.barrier > 0.0, "{name} kernel {kernel}: no barrier");
        }
        println!("\n{}", calibration.render());
        println!("measured schedule (wall clock):");
        println!("{}", measured.to_trace().gantt(100));
        println!("simulated schedule (device cycles):");
        println!("{}", sim_trace.gantt(100));

        let slug = name.split(' ').next().unwrap_or(name);
        write_text(
            &format!("TRACE_{slug}.chrome.json"),
            &measured.chrome_trace_json(),
        );
        write_json(&format!("TRACE_{slug}.calibration.json"), &calibration);

        let row = AbRow::new(name, ["plain", "traced"], &samples, None, diff);
        rows.push(row.with("spans", measured.spans.len()));
    }
    report(
        "Ablation: telemetry recording vs the zero-cost disabled sink.",
        "BENCH_trace.json",
        &rows,
    );
}
