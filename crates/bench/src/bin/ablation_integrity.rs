//! Ablation: **the data-plane integrity layer on vs off** — slab checksums
//! at every pipe splice, the numerical-health watchdog (every 4th row) at
//! every fused-block barrier, and a (generous, never-firing) run deadline,
//! all armed at once against the plain threaded executor.
//!
//! Asserted on every run:
//!
//! 1. **Bit-exactness** — the guarded grid equals the unguarded grid exactly
//!    (`max_abs_diff == 0`): the guards observe the data plane, they never
//!    touch it.
//! 2. **Live guards** — the checksum and scan counters of one extra
//!    recorded guarded run are nonzero (no vacuous pass).
//!
//! The overhead is the paired-median change of the shared harness in
//! `stencilcl_bench::ab`, judged against a 3% budget: the binary exits 1
//! if and only if the 95% interval lies wholly over it. Writes
//! `results/BENCH_integrity.json`.
//!
//! Knobs (environment): `STENCILCL_BENCH_N` (grid side, default 256),
//! `STENCILCL_BENCH_ITERS` (iterations, default 48 — long enough that
//! per-run scheduling jitter sits well below the budget),
//! `STENCILCL_BENCH_SAMPLES` (timing pairs, default 21). On much smaller
//! grids fixed costs dominate and the 3% budget is not meaningful.

use std::time::Duration;

use stencilcl_bench::ab::{grid_cases, knobs, report, time_grid_pairs, timed, AbRow};
use stencilcl_exec::{run_threaded_opts, ExecOptions, ExecPolicy, HealthPolicy, Recorder};
use stencilcl_lang::GridState;
use stencilcl_server::default_init;
use stencilcl_telemetry::EnvConfig;

/// Rows between health-scanned rows.
const SCAN_STRIDE: usize = 4;

fn main() {
    let (n, iters, pairs) = knobs(48);
    let policy = ExecPolicy::from_config(EnvConfig::get());
    let plain = ExecOptions::new().policy(policy.clone());
    let guarded = ExecOptions::new()
        .policy(ExecPolicy {
            deadline: Some(Duration::from_secs(3600)),
            ..policy
        })
        .integrity(true)
        .health(HealthPolicy::bounded(1e12).stride(SCAN_STRIDE));

    let mut rows = Vec::new();
    for (name, p, part) in &grid_cases(n, iters) {
        eprintln!("[ablation_integrity] {name} ...");
        let run = |s: &mut GridState, opts: &ExecOptions| {
            timed(|| run_threaded_opts(p, part, s, opts).expect("threaded run"))
        };
        let (samples, diff) = time_grid_pairs(p, pairs, |s| run(s, &plain), |s| run(s, &guarded));
        assert_eq!(diff, 0.0, "{name}: the integrity layer perturbed the grid");

        // Counter collection: one untimed guarded run with a live recorder.
        let rec = Recorder::new();
        let counted = guarded.clone().trace(rec.clone());
        run(&mut GridState::new(p, default_init), &counted);
        let counters = rec.finish().counters;
        let (checksums, scanned) = (counters.checksums_verified, counters.cells_scanned);
        assert!(checksums > 0, "{name}: no slab checksum was verified");
        assert!(scanned > 0, "{name}: the health watchdog scanned nothing");

        let row = AbRow::new(name, ["plain", "guarded"], &samples, Some(0.03), diff)
            .with("scan_stride", SCAN_STRIDE)
            .with("checksums_verified", checksums)
            .with("cells_scanned", scanned);
        rows.push(row);
    }
    report(
        "Ablation: slab checksums + health watchdog + deadline vs no guards.",
        "BENCH_integrity.json",
        &rows,
    );
}
