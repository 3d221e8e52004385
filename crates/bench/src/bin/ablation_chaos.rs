//! Ablation: **supervised execution under injected faults** (requires the
//! `chaos` feature: `cargo run -p stencilcl-bench --features chaos --bin
//! ablation_chaos`).
//!
//! Exercises the robustness ladder of `run_supervised_opts` on Jacobi-2D:
//! a clean threaded run, fault-free supervision (its overhead), a
//! checkpointed retry after a pipe stall, recovery from a worker panic,
//! and forced degradation to one worker — each checked
//! bit-exactly against `run_reference_opts` and timed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use stencilcl_bench::runner::write_json;
use stencilcl_bench::table::Table;
use stencilcl_exec::{
    run_reference_opts, run_supervised_opts, ExecOptions, ExecPolicy, FaultKind, FaultPlan,
    RunReport,
};
use stencilcl_grid::{Design, DesignKind, Extent, Partition};
use stencilcl_lang::{programs, GridState, StencilFeatures};
use stencilcl_server::default_init;

/// One chaos scenario's outcome, serialized to `ablation_chaos.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ChaosRow {
    scenario: String,
    wall_ms: f64,
    attempts: usize,
    recoveries: usize,
    path: String,
    leaked_workers: usize,
    bit_exact: bool,
}

fn main() {
    // Injected worker panics are the point of the exercise — keep their
    // backtraces out of the report while leaving real panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected worker panic"));
        if !injected {
            default_hook(info);
        }
    }));
    // Short deadlines so the stall scenarios classify in milliseconds, not
    // the production 30-second watchdog.
    let policy = ExecPolicy {
        watchdog: Duration::from_millis(400),
        drain: Duration::from_millis(150),
        max_retries: 2,
        backoff_base: Duration::from_millis(5),
        ..ExecPolicy::default()
    };
    let program = programs::jacobi_2d()
        .with_extent(Extent::new2(96, 96))
        .with_iterations(8);
    let features = StencilFeatures::extract(&program).expect("extract features");
    let design =
        Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![24, 24]).expect("build design");
    let partition = Partition::new(program.extent(), &design, &features.growth).expect("partition");
    let mut expect = GridState::new(&program, default_init);
    run_reference_opts(&program, &mut expect, &ExecOptions::new()).expect("reference run");

    let stall_every_attempt = || {
        let mut plan = FaultPlan::new();
        for _ in 0..=policy.max_retries {
            plan = plan.inject(0, 0, FaultKind::PipeStall);
        }
        plan
    };
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("supervised, fault-free", FaultPlan::new()),
        (
            "pipe stall at block 1 (checkpointed retry)",
            FaultPlan::new().inject(0, 1, FaultKind::PipeStall),
        ),
        (
            "worker panic at block 0 (full retry)",
            FaultPlan::new().inject(3, 0, FaultKind::WorkerPanic),
        ),
        (
            "stall on every attempt (degrades to sequential)",
            stall_every_attempt(),
        ),
    ];

    let mut rows: Vec<ChaosRow> = Vec::new();
    let mut t = Table::new(vec![
        "Scenario",
        "Wall (ms)",
        "Attempts",
        "Recoveries",
        "Path",
        "Leaked",
        "Bit-exact",
    ]);
    for (name, plan) in scenarios {
        eprintln!("[ablation_chaos] {name} ...");
        let opts = ExecOptions::new()
            .policy(policy.clone())
            .faults(Arc::new(plan));
        let mut got = GridState::new(&program, default_init);
        let start = Instant::now();
        let report: RunReport =
            run_supervised_opts(&program, &partition, &mut got, &opts).expect("supervised run");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let bit_exact = expect.max_abs_diff(&got).expect("comparable grids") == 0.0;
        let row = ChaosRow {
            scenario: name.to_string(),
            wall_ms,
            attempts: report.attempts.len(),
            recoveries: report.recoveries(),
            path: format!("{:?}", report.path),
            leaked_workers: report.leaked_workers(),
            bit_exact,
        };
        t.row(vec![
            row.scenario.clone(),
            format!("{:.1}", row.wall_ms),
            row.attempts.to_string(),
            row.recoveries.to_string(),
            row.path.clone(),
            row.leaked_workers.to_string(),
            if row.bit_exact { "yes" } else { "NO" }.to_string(),
        ]);
        rows.push(row);
    }

    println!("Ablation: supervised execution under deterministic faults.\n");
    println!("{}", t.render());
    if rows.iter().any(|r| !r.bit_exact || r.leaked_workers > 0) {
        eprintln!("[ablation_chaos] FAILURE: a scenario diverged or leaked workers");
        std::process::exit(1);
    }
    write_json("ablation_chaos.json", &rows);
}
