//! Ablation: **crash-only machinery vs the plain service** — what the
//! durable job journal, the assigned per-job checkpoint store, and the
//! armed stall watchdog cost on the jobs that never need them.
//!
//! Two in-process daemons run the identical job in alternating pairs of
//! the shared harness in `stencilcl_bench::ab`, over loopback HTTP: the
//! *baseline* is the memory-only scheduler, the *armed* daemon journals
//! every admission (fsync), checkpoints the job into its assigned
//! `<state_dir>/jobs/<id>` store, and runs the stuck-job watchdog with a
//! timeout far above the job's runtime (armed but never firing — the
//! steady-state configuration). Both must land on the digest of a direct
//! in-process run. The overhead is judged against a 5% budget: the binary
//! exits 1 if and only if the 95% interval lies wholly over it. Writes
//! `results/BENCH_resilience.json`.
//!
//! Knobs (environment): `STENCILCL_BENCH_N` (grid side, default 256),
//! `STENCILCL_BENCH_ITERS` (iterations, default 32),
//! `STENCILCL_BENCH_SAMPLES` (timing pairs, default 21).

use std::time::Duration;

use stencilcl_bench::ab::{bench_daemon, knobs, report, scratch_dir, time_pairs, AbRow, BlurJob};
use stencilcl_server::SchedulerConfig;

fn main() {
    let (n, iters, pairs) = knobs(32);
    let job = BlurJob::new(n, iters);
    // Baseline: no journal, no watchdog, no assigned checkpoint store.
    let baseline = bench_daemon(SchedulerConfig::default());
    // Armed: fsynced journal + per-job checkpoint store + live watchdog
    // thread whose timeout the job never approaches.
    let state_dir = scratch_dir("resilience");
    let armed = bench_daemon(SchedulerConfig {
        state_dir: Some(state_dir.clone()),
        stall_timeout: Some(Duration::from_secs(300)),
        ..SchedulerConfig::default()
    });
    let (base_addr, armed_addr) = (baseline.local_addr(), armed.local_addr());

    eprintln!("[ablation_resilience] {} ...", job.name);
    let samples = time_pairs(
        pairs,
        || job.serve_once(base_addr),
        || job.serve_once(armed_addr),
    );
    baseline.stop(Duration::from_secs(5));
    armed.stop(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&state_dir);

    let labels = ["baseline", "journal+watchdog"];
    let row = AbRow::new(&job.name, labels, &samples, Some(0.05), 0.0);
    report(
        "Ablation: crash-only machinery (journal + watchdog) vs the plain service.",
        "BENCH_resilience.json",
        &[row.with("digest", &job.digest)],
    );
}
