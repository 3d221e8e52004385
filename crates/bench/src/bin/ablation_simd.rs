//! Ablation: **scalar vs vectorized tape walk** in the compiled engine.
//!
//! The compiled kernels can evaluate W contiguous row cells per tape pass
//! (lane-parallel evaluation stacks — cross-cell vectorization, so each
//! cell still sees its exact scalar op order and every width is bit-exact).
//! This binary A/B-times the scalar walk (`lanes = 1`) against the 8-lane
//! walk on the same programs and executors with the shared harness in
//! `stencilcl_bench::ab`, asserts the final grids are identical to the bit,
//! and writes `results/BENCH_simd.json`. The rows carry no budget: the
//! change is a speedup, reported with its 95% interval.
//!
//! Knobs (environment): `STENCILCL_BENCH_N` (grid side, default 256),
//! `STENCILCL_BENCH_ITERS` (iterations, default 16),
//! `STENCILCL_BENCH_SAMPLES` (timing pairs, default 21).

use stencilcl_bench::ab::{grid_cases, knobs, report, time_grid_pairs, timed, AbRow};
use stencilcl_exec::{
    run_pipe_shared_opts, run_reference_opts, run_threaded_opts, ExecOptions, ExecPolicy,
};
use stencilcl_lang::GridState;
use stencilcl_telemetry::EnvConfig;

/// Lane width of the vectorized side.
const LANES: usize = 8;

fn main() {
    let (n, iters, pairs) = knobs(16);
    let opts = ExecOptions::new().policy(ExecPolicy::from_config(EnvConfig::get()));

    let mut rows = Vec::new();
    for (name, p, part) in &grid_cases(n, iters) {
        for executor in ["reference", "pipe_shared", "threaded"] {
            eprintln!("[ablation_simd] {name} via {executor} ...");
            let run = |s: &mut GridState, lanes: usize| {
                let opts = opts.clone().lanes(lanes);
                timed(|| {
                    match executor {
                        "reference" => run_reference_opts(p, s, &opts),
                        "pipe_shared" => run_pipe_shared_opts(p, part, s, &opts),
                        _ => run_threaded_opts(p, part, s, &opts),
                    }
                    .expect("executor run");
                })
            };
            let (samples, diff) = time_grid_pairs(p, pairs, |s| run(s, 1), |s| run(s, LANES));
            assert_eq!(diff, 0.0, "{name} via {executor}: lane widths diverged");
            let row_name = format!("{name} / {executor}");
            let row = AbRow::new(&row_name, ["scalar", "8-lane"], &samples, None, diff);
            rows.push(row.with("lanes", LANES));
        }
    }
    report(
        "Ablation: vectorized (8-lane) tape walk vs the scalar walk (change < 0 is a speedup).",
        "BENCH_simd.json",
        &rows,
    );
}
