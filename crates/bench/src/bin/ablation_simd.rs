//! Ablation: **scalar vs vectorized tape walk** in the compiled engine.
//!
//! The compiled kernels can evaluate W contiguous row cells per tape pass
//! (lane-parallel evaluation stacks — cross-cell vectorization, so each
//! cell still sees its exact scalar op order and every width is bit-exact).
//! This binary A/B-times the scalar walk (`lanes = 1`) against the
//! vectorized walk on the same programs and executors, checks the final
//! grids are identical to the bit, and writes `results/BENCH_simd.json`.
//!
//! Knobs (environment): `STENCILCL_BENCH_N` (grid side, default 256),
//! `STENCILCL_BENCH_ITERS` (iterations, default 16),
//! `STENCILCL_BENCH_SAMPLES` (timing samples, default 5),
//! `STENCILCL_BENCH_LANES` (vector width, default 8) — lowered by CI to
//! smoke-test the binary on small grids.

use stencilcl_bench::runner::{exec_policy_from_env, time_simd_ab, write_json, SimdTiming};
use stencilcl_bench::table::{ratio, Table};
use stencilcl_exec::{run_pipe_shared_opts, run_reference_opts, run_threaded_opts, ExecOptions};
use stencilcl_grid::{Design, DesignKind, Extent, Partition};
use stencilcl_lang::{programs, Program, StencilFeatures};

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
    let lanes = env_usize("STENCILCL_BENCH_LANES", 8).clamp(2, 16);
    let policy = exec_policy_from_env();

    // The paper's 2-D heat benchmark (HotSpot) and the Jacobi blur — the
    // same pair `ablation_compiled` times, so the JSON rows are directly
    // comparable with `results/BENCH_compiled.json`.
    let benches: Vec<(&str, Program)> = vec![
        (
            "hotspot_2d (heat)",
            programs::hotspot_2d()
                .with_extent(Extent::new2(n, n))
                .with_iterations(iters),
        ),
        (
            "jacobi_2d (blur)",
            programs::jacobi_2d()
                .with_extent(Extent::new2(n, n))
                .with_iterations(iters),
        ),
    ];

    let mut rows: Vec<SimdTiming> = Vec::new();
    let mut t = Table::new(vec![
        "Benchmark",
        "Executor",
        "Scalar (ms)",
        "Vector (ms)",
        "Speedup",
        "Max |diff|",
    ]);
    for (name, program) in &benches {
        eprintln!("[ablation_simd] {name} ...");
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
        let timings = [
            time_simd_ab(name, "reference", program, samples, lanes, |p, s, w| {
                run_reference_opts(p, s, &ExecOptions::new().lanes(w))
            }),
            time_simd_ab(name, "pipe_shared", program, samples, lanes, |p, s, w| {
                run_pipe_shared_opts(p, &partition, s, &ExecOptions::new().lanes(w))
            }),
            time_simd_ab(name, "threaded", program, samples, lanes, |p, s, w| {
                let opts = ExecOptions::new().lanes(w).policy(policy.clone());
                run_threaded_opts(p, &partition, s, &opts)
            }),
        ];
        for timing in timings {
            let row = timing.expect("executor run");
            assert_eq!(
                row.max_abs_diff, 0.0,
                "{} via {} diverged between lane widths",
                row.name, row.executor
            );
            t.row(vec![
                row.name.clone(),
                row.executor.clone(),
                format!("{:.3}", row.scalar_ms),
                format!("{:.3}", row.vector_ms),
                ratio(row.speedup()),
                format!("{:.1e}", row.max_abs_diff),
            ]);
            rows.push(row);
        }
    }
    println!("Ablation: vectorized ({lanes}-lane) tape walk vs the scalar walk.\n");
    println!("{}", t.render());
    write_json("BENCH_simd.json", &rows);
}
