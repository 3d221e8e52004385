//! Ablation: **service round-trip vs direct supervised execution** — what
//! the `stencilcl serve` front end costs on top of the computation it
//! schedules.
//!
//! One in-process daemon (single pool runner, loopback HTTP) runs the same
//! job the direct `run_supervised_full` call executes, in alternating pairs
//! of the shared harness in `stencilcl_bench::ab`: the direct leg plans
//! the design from source, fills the grid, runs supervised and digests the
//! result — everything the service does per job — so the change isolates
//! the HTTP + scheduler machinery. Every serve run must land on the digest
//! of the direct run (the service is an orchestration layer, never a
//! numeric one). The overhead is judged against a 5% budget: the binary
//! exits 1 if and only if the 95% interval lies wholly over it. Writes
//! `results/BENCH_serve.json`.
//!
//! Knobs (environment): `STENCILCL_BENCH_N` (grid side, default 256),
//! `STENCILCL_BENCH_ITERS` (iterations, default 32 — long enough that the
//! computation dominates the service's ~2-3 ms fixed per-job cost),
//! `STENCILCL_BENCH_SAMPLES` (timing pairs, default 21).

use std::time::Duration;

use stencilcl_bench::ab::{bench_daemon, knobs, report, time_pairs, AbRow, BlurJob};
use stencilcl_server::SchedulerConfig;

fn main() {
    let (n, iters, pairs) = knobs(32);
    let job = BlurJob::new(n, iters);
    let server = bench_daemon(SchedulerConfig::default());
    let addr = server.local_addr();

    eprintln!("[ablation_serve] {} ...", job.name);
    let samples = time_pairs(pairs, || job.time_direct(), || job.serve_once(addr));
    server.stop(Duration::from_secs(5));

    let row = AbRow::new(&job.name, ["direct", "serve"], &samples, Some(0.05), 0.0);
    report(
        "Ablation: `stencilcl serve` round-trip vs direct supervised execution.",
        "BENCH_serve.json",
        &[row.with("digest", &job.digest)],
    );
}
