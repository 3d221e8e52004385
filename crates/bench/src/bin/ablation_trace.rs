//! Ablation / calibration: **measured telemetry vs the analytical model vs
//! the simulator** — the repo's host-side analogue of the paper's Figure 7.
//!
//! The threaded executor runs each benchmark twice, once with the zero-cost
//! disabled sink and once with a live lock-free recorder. The recorded
//! spans (launch, halo read, compute, pipe wait, write-back, barrier per
//! (kernel, region)) are folded into a `CalibrationReport` against the
//! analytical model's per-term cycle breakdown and the event-driven
//! simulator's schedule for the same `Design`. The binary asserts that
//! recording never perturbs the grid (bit-exact against the untraced run)
//! and that every kernel shows nonzero Compute/PipeWait/Barrier totals,
//! prints the recording overhead (target ≤ 5% of median wall time), and
//! writes `results/BENCH_trace.json` plus one Chrome-tracing JSON
//! (`chrome://tracing` / Perfetto) and one calibration text report per
//! benchmark.
//!
//! Knobs (environment): `STENCILCL_BENCH_N` (grid side, default 256),
//! `STENCILCL_BENCH_ITERS` (iterations, default 16),
//! `STENCILCL_BENCH_SAMPLES` (timing samples, default 5) — lowered by CI to
//! smoke-test the binary on small grids.

use stencilcl::Framework;
use stencilcl_bench::runner::{time_traced_ab, write_json, write_text, TraceTiming};
use stencilcl_bench::table::Table;
use stencilcl_exec::ExecPolicy;
use stencilcl_grid::{Design, DesignKind, Extent, Partition};
use stencilcl_lang::{programs, Program, StencilFeatures};
use stencilcl_opt::evaluate;
use stencilcl_sim::{build_plans, simulate_pass_traced};
use stencilcl_telemetry::{CalibrationReport, EnvConfig};

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn main() {
    let n = env_usize("STENCILCL_BENCH_N", 256);
    let iters = env_usize("STENCILCL_BENCH_ITERS", 16) as u64;
    let samples = env_usize("STENCILCL_BENCH_SAMPLES", 5);
    let policy = ExecPolicy::from_config(EnvConfig::get());
    let fw = Framework::new();

    let benches: Vec<(&str, &str, Program)> = vec![
        (
            "hotspot_2d (heat)",
            "hotspot_2d",
            programs::hotspot_2d()
                .with_extent(Extent::new2(n, n))
                .with_iterations(iters),
        ),
        (
            "jacobi_2d (blur)",
            "jacobi_2d",
            programs::jacobi_2d()
                .with_extent(Extent::new2(n, n))
                .with_iterations(iters),
        ),
    ];

    let mut rows: Vec<TraceTiming> = Vec::new();
    let mut t = Table::new(vec![
        "Benchmark",
        "Plain (ms)",
        "Traced (ms)",
        "Overhead",
        "Spans",
        "Max |diff|",
    ]);
    for (name, slug, program) in &benches {
        eprintln!("[ablation_trace] {name} ...");
        let features = StencilFeatures::extract(program).expect("star stencil features");
        let tile = (n / 4).max(1);
        let design = Design::equal(
            DesignKind::PipeShared,
            4.min(iters),
            vec![2, 2],
            vec![tile, tile],
        )
        .expect("pipe design");
        let partition =
            Partition::new(features.extent, &design, &features.growth).expect("partition");

        // Measure: disabled sink vs live recorder, bit-exactness enforced.
        let (row, measured) = time_traced_ab(name, program, &partition, samples, &policy)
            .expect("traced executor run");
        assert_eq!(
            row.max_abs_diff, 0.0,
            "{name}: recording perturbed the computation"
        );
        assert_eq!(row.dropped, 0, "{name}: recorder slab overflowed");
        measured.validate_spans().expect("well-formed span nesting");

        // References for the same design: the analytical model's per-term
        // breakdown and the simulator's pipe-synchronized schedule.
        let point = evaluate(program, &features, design.clone(), &fw.device, &fw.cost, 1)
            .expect("model evaluation");
        let plans = build_plans(&features, &partition);
        let (_, sim_trace) = simulate_pass_traced(&plans, &point.hls.schedule(), &fw.device);

        let report = CalibrationReport::build(
            name,
            "threaded",
            &measured,
            Some(&sim_trace),
            &point.prediction.terms(),
            Some(point.prediction.total),
        );
        for k in &report.kernels {
            assert!(
                k.measured.compute > 0.0,
                "{name}: kernel {} recorded no compute",
                k.kernel
            );
            assert!(
                k.measured.pipe_wait > 0.0,
                "{name}: kernel {} recorded no pipe waits",
                k.kernel
            );
            assert!(
                k.measured.barrier > 0.0,
                "{name}: kernel {} recorded no barrier idles",
                k.kernel
            );
        }
        println!("\n{}", report.render());
        println!("measured schedule (wall clock):");
        println!("{}", measured.to_trace().gantt(100));
        println!("simulated schedule (device cycles):");
        println!("{}", sim_trace.gantt(100));

        write_text(
            &format!("TRACE_{slug}.chrome.json"),
            &measured.chrome_trace_json(),
        );
        write_json(&format!("TRACE_{slug}.calibration.json"), &report);

        t.row(vec![
            row.name.clone(),
            format!("{:.3}", row.plain_ms),
            format!("{:.3}", row.traced_ms),
            format!("{:+.1}%", row.overhead() * 100.0),
            format!("{}", row.spans),
            format!("{:.1e}", row.max_abs_diff),
        ]);
        rows.push(row);
    }

    println!("Ablation: telemetry recording vs the zero-cost disabled sink.\n");
    println!("{}", t.render());
    let worst = rows
        .iter()
        .map(|r| r.overhead())
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "worst recording overhead: {:+.1}% of median wall time (target <= 5%)",
        worst * 100.0
    );
    write_json("BENCH_trace.json", &rows);
}
