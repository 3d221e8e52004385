//! Ablation: **the data-plane integrity layer on vs off** — slab checksums
//! at every pipe splice, the numerical-health watchdog at every fused-block
//! barrier, and a (generous, never-firing) run deadline, all armed at once
//! against the plain threaded executor.
//!
//! Two invariants are asserted, matching the robustness acceptance criteria:
//!
//! 1. **Bit-exactness** — the guarded grid equals the unguarded grid exactly
//!    (`max_abs_diff == 0`): the guards observe the data plane, they never
//!    touch it.
//! 2. **Overhead ≤ 3%** of unguarded wall time on the default 256² grids
//!    (best interleaved A/B pair ratio — see `runner::time_integrity_ab`
//!    for why that estimator survives noisy shared CI machines), with the
//!    checksum and scan counters proving both guards actually ran (no
//!    vacuous pass).
//!
//! Writes `results/BENCH_integrity.json`.
//!
//! Knobs (environment): `STENCILCL_BENCH_N` (grid side, default 256),
//! `STENCILCL_BENCH_ITERS` (iterations, default 48 — long enough that
//! per-run scheduling jitter sits well below the asserted 3%),
//! `STENCILCL_BENCH_SAMPLES` (timing samples, default 5),
//! `STENCILCL_BENCH_SCAN_STRIDE` (health-scan stride, default 4). CI runs
//! the defaults, so the asserted budget is the acceptance number itself; on
//! much smaller grids fixed costs dominate and the 3% bar is not meaningful.

use stencilcl_bench::runner::{time_integrity_ab, write_json, IntegrityTiming};
use stencilcl_bench::table::Table;
use stencilcl_exec::ExecPolicy;
use stencilcl_grid::{Design, DesignKind, Extent, Partition};
use stencilcl_lang::{programs, Program, StencilFeatures};
use stencilcl_telemetry::EnvConfig;

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn main() {
    let n = env_usize("STENCILCL_BENCH_N", 256);
    let iters = env_usize("STENCILCL_BENCH_ITERS", 48) as u64;
    let samples = env_usize("STENCILCL_BENCH_SAMPLES", 5);
    let stride = env_usize("STENCILCL_BENCH_SCAN_STRIDE", 4);
    let policy = ExecPolicy::from_config(EnvConfig::get());

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

    let mut rows: Vec<IntegrityTiming> = Vec::new();
    let mut t = Table::new(vec![
        "Benchmark",
        "Plain (ms)",
        "Guarded (ms)",
        "Overhead",
        "Checksums",
        "Cells scanned",
        "Max |diff|",
    ]);
    for (name, program) in &benches {
        eprintln!("[ablation_integrity] {name} ...");
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

        let row = time_integrity_ab(name, program, &partition, samples, stride, &policy)
            .expect("guarded executor run");
        assert_eq!(
            row.max_abs_diff, 0.0,
            "{name}: the integrity layer perturbed the computation"
        );
        assert!(
            row.checksums_verified > 0,
            "{name}: no slab checksum was verified — the guard never ran"
        );
        assert!(
            row.cells_scanned > 0,
            "{name}: the health watchdog scanned nothing — the guard never ran"
        );

        t.row(vec![
            row.name.clone(),
            format!("{:.3}", row.plain_ms),
            format!("{:.3}", row.guarded_ms),
            format!("{:+.1}%", row.overhead() * 100.0),
            format!("{}", row.checksums_verified),
            format!("{}", row.cells_scanned),
            format!("{:.1e}", row.max_abs_diff),
        ]);
        rows.push(row);
    }

    println!("Ablation: slab checksums + health watchdog + deadline vs no guards.\n");
    println!("{}", t.render());
    let worst = rows
        .iter()
        .map(|r| r.overhead())
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "worst integrity+health overhead: {:+.1}% of unguarded wall time (target <= 3%)",
        worst * 100.0
    );
    write_json("BENCH_integrity.json", &rows);
    assert!(
        worst <= 0.03,
        "integrity layer overhead {:.1}% exceeds the 3% budget",
        worst * 100.0
    );
}
