//! Chaos suite (requires the `fault-injection` feature): every injected
//! fault kind is recovered from, recovery never changes the computed grid,
//! and no worker thread outlives a supervised run.
#![cfg(feature = "fault-injection")]

use std::path::PathBuf;
use std::sync::{Arc, Once};
use std::time::Duration;

use proptest::prelude::*;
use stencilcl_exec::{
    load_latest, resume_supervised_full, run_reference_opts, run_supervised_full,
    run_supervised_opts, run_threaded_opts, AttemptMode, CheckpointPolicy, CheckpointStore,
    DirStore, ExecError, ExecOptions, ExecPolicy, FaultKind, FaultPlan, HealthPolicy, Recorder,
    RecoveryPath,
};
use stencilcl_grid::{Design, DesignKind, Extent, Partition, Point};
use stencilcl_lang::{programs, GridState, Program, StencilFeatures};

/// Keeps injected worker panics out of the test output without hiding real
/// ones (assertion failures, executor bugs).
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected worker panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// A chaos-test policy: deadlines short enough to classify injected stalls
/// quickly, backoff short enough to keep the suite fast.
fn chaos_policy() -> ExecPolicy {
    ExecPolicy {
        watchdog: Duration::from_millis(250),
        drain: Duration::from_millis(100),
        teardown_grace: Duration::from_secs(2),
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
        sequential_fallback: true,
        deadline: None,
        jitter_seed: Some(7),
    }
}

/// [`chaos_policy`] options carrying the fault schedule `faults`.
fn chaos_opts(faults: &Arc<FaultPlan>) -> ExecOptions {
    ExecOptions::new()
        .policy(chaos_policy())
        .faults(Arc::clone(faults))
}

fn init(name: &str, p: &Point) -> f64 {
    let mut v = name.len() as f64 + 3.0;
    for d in 0..p.dim() {
        v = v * 19.0 + p.coord(d) as f64;
    }
    (v * 0.0019).cos()
}

/// Jacobi-2D, 6 iterations fused 2 (3 fused blocks), 2×2 kernels.
fn scenario() -> (Program, Partition) {
    let p = programs::jacobi_2d()
        .with_extent(Extent::new2(32, 32))
        .with_iterations(6);
    let f = StencilFeatures::extract(&p).unwrap();
    let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![8, 8]).unwrap();
    let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
    (p, partition)
}

fn reference_grid(p: &Program) -> GridState {
    let mut expect = GridState::new(p, init);
    run_reference_opts(p, &mut expect, &ExecOptions::new()).unwrap();
    expect
}

/// A unique, empty scratch directory per call (no tempfile dependency).
fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "stencilcl-chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ckpt_opts(dir: &std::path::Path) -> ExecOptions {
    ExecOptions::new().policy(chaos_policy()).checkpoint(
        CheckpointPolicy::at(dir)
            .every_barriers(1)
            .keep_generations(8),
    )
}

#[test]
fn pipe_stall_at_block_1_recovers_checkpointed_and_bit_exact() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let faults = Arc::new(FaultPlan::new().inject(0, 1, FaultKind::PipeStall));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &chaos_opts(&faults)).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(faults.fired(), 1);
    assert!(report.recoveries() >= 1, "no recovery recorded: {report:?}");
    assert_eq!(report.path, RecoveryPath::Retried);
    // The first attempt completed block 0 (2 iterations) and checkpointed
    // there; the retry resumed from iteration 2, not from scratch.
    assert_eq!(report.attempts[0].iterations_completed, 2);
    assert!(matches!(
        report.attempts[0].fault,
        Some(ExecError::PipeStall { .. })
    ));
    assert_eq!(report.attempts[1].start_iteration, 2);
    // Cooperative cancellation: the stalled pool was joined, not abandoned.
    assert_eq!(
        report.leaked_workers(),
        0,
        "worker threads outlived the run"
    );
}

#[test]
fn worker_panic_is_classified_and_recovered() {
    quiet_injected_panics();
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let faults = Arc::new(FaultPlan::new().inject(2, 0, FaultKind::WorkerPanic));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &chaos_opts(&faults)).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(report.path, RecoveryPath::Retried);
    assert!(report
        .faults_seen()
        .iter()
        .any(|e| matches!(e, ExecError::WorkerPanic { .. })));
    // The panic hit block 0: nothing was checkpointed before the retry.
    assert_eq!(report.attempts[0].iterations_completed, 0);
    assert_eq!(report.leaked_workers(), 0);
}

#[test]
fn the_options_fault_plan_reaches_the_unsupervised_threaded_pool() {
    quiet_injected_panics();
    let (p, partition) = scenario();
    let faults = Arc::new(FaultPlan::new().inject(1, 1, FaultKind::WorkerPanic));
    let mut got = GridState::new(&p, init);
    let err = run_threaded_opts(&p, &partition, &mut got, &chaos_opts(&faults)).unwrap_err();
    assert_eq!(err, ExecError::WorkerPanic { kernel: 1 });
    assert_eq!(faults.fired(), 1);
    // No supervisor: the pool rolls back to the block-0 barrier and stops.
    let mut barrier = GridState::new(&p, init);
    run_reference_opts(&p.with_iterations(2), &mut barrier, &ExecOptions::new()).unwrap();
    assert_eq!(barrier.max_abs_diff(&got).unwrap(), 0.0);
}

#[test]
fn delayed_slab_below_the_watchdog_is_absorbed_without_recovery() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let faults = Arc::new(FaultPlan::new().inject(1, 1, FaultKind::DelayedSlab(60)));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &chaos_opts(&faults)).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(faults.fired(), 1);
    // 60 ms < 250 ms watchdog: the delay is ordinary pipeline jitter.
    assert_eq!(report.recoveries(), 0);
    assert_eq!(report.path, RecoveryPath::Threaded);
}

#[test]
fn injected_delay_is_conserved_as_recorded_pipe_idle() {
    // Pipe-stall conservation: a forced slab delay cannot vanish from the
    // telemetry. The sleeping worker's neighbours wedge on their pipes for
    // the duration, so the recorded idle time (PipeWait + Barrier spans
    // plus blocked-send stall nanoseconds) must account for a substantial
    // fraction of the injected delay.
    let delay_ms = 120u64;
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let faults = Arc::new(FaultPlan::new().inject(1, 1, FaultKind::DelayedSlab(delay_ms)));
    let rec = Recorder::new();
    let opts = ExecOptions::new()
        .policy(chaos_policy())
        .trace(rec.clone())
        .faults(Arc::clone(&faults));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &opts).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(faults.fired(), 1);
    // 120 ms < 250 ms watchdog: absorbed, no retry — the delay must show up
    // in the trace, not in the recovery log.
    assert_eq!(report.recoveries(), 0);
    let trace = rec.finish();
    trace.validate_spans().unwrap();
    let idle_ns: f64 = (0..trace.kernels)
        .map(|k| {
            let t = trace.phase_totals(k);
            t.pipe_wait + t.barrier
        })
        .sum::<f64>()
        + trace.counters.stall_ns as f64;
    let delay_ns = delay_ms as f64 * 1e6;
    assert!(
        idle_ns >= 0.6 * delay_ns,
        "only {:.1} ms of recorded idle for a {delay_ms} ms injected delay",
        idle_ns / 1e6
    );
}

#[test]
fn delayed_slab_past_the_watchdog_is_handled_as_a_stall() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let faults = Arc::new(FaultPlan::new().inject(1, 1, FaultKind::DelayedSlab(2_000)));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &chaos_opts(&faults)).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(report.path, RecoveryPath::Retried);
    // Which kernel the watchdog blames depends on scheduling (neighbours of
    // the sleeping worker wedge on full pipes too) — the class is what
    // matters.
    assert!(matches!(
        report.attempts[0].fault,
        Some(ExecError::PipeStall { .. })
    ));
    assert_eq!(report.leaked_workers(), 0);
}

#[test]
fn corrupted_step_tag_trips_the_protocol_check_and_recovers() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let faults = Arc::new(FaultPlan::new().inject(0, 0, FaultKind::CorruptStepTag));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &chaos_opts(&faults)).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(report.path, RecoveryPath::Retried);
    assert!(
        report
            .faults_seen()
            .iter()
            .any(|e| e.to_string().contains("protocol skew")),
        "expected a protocol-skew fault, saw {:?}",
        report.faults_seen()
    );
    assert_eq!(report.leaked_workers(), 0);
}

#[test]
fn corrupted_payload_is_caught_by_checksums_and_recovered_bit_exact() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let faults = Arc::new(FaultPlan::new().inject(0, 1, FaultKind::CorruptPayload));
    let opts = ExecOptions::new()
        .policy(chaos_policy())
        .integrity(true)
        .faults(Arc::clone(&faults));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &opts).unwrap();
    // Detected, retried from the block-1 checkpoint, and bit-exact after.
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(faults.fired(), 1);
    assert_eq!(report.path, RecoveryPath::Retried);
    assert!(
        report
            .faults_seen()
            .iter()
            .any(|e| matches!(e, ExecError::SlabCorrupt { .. })),
        "expected a SlabCorrupt fault, saw {:?}",
        report.faults_seen()
    );
    // The fault hit block 1: block 0 (2 iterations) was checkpointed.
    assert_eq!(report.attempts[0].iterations_completed, 2);
    assert_eq!(report.attempts[1].start_iteration, 2);
    assert_eq!(report.leaked_workers(), 0);
}

#[test]
fn supervised_retry_rebases_slab_sequences_with_no_integrity_false_positives() {
    // Regression guard for the retry/integrity interaction: every attempt
    // builds a fresh pool, and both ends of every pipe must restart their
    // slab sequence counters from zero. If a retry inherited (or skipped)
    // sequence numbers, the very first sealed slab of the second attempt
    // would checksum-mismatch and surface as a spurious SlabCorrupt —
    // turning one transient stall into an unrecoverable corruption loop.
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let faults = Arc::new(FaultPlan::new().inject(0, 1, FaultKind::PipeStall));
    let rec = Recorder::new();
    let opts = ExecOptions::new()
        .policy(chaos_policy())
        .integrity(true)
        .trace(rec.clone())
        .faults(Arc::clone(&faults));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &opts).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(faults.fired(), 1);
    assert_eq!(report.path, RecoveryPath::Retried);
    // The one injected stall is the only fault: the retry's re-based
    // sequences must produce zero SlabCorrupt false positives.
    assert!(
        report
            .faults_seen()
            .iter()
            .all(|e| !matches!(e, ExecError::SlabCorrupt { .. })),
        "retry raised a spurious SlabCorrupt: {:?}",
        report.faults_seen()
    );
    assert!(report
        .faults_seen()
        .iter()
        .any(|e| matches!(e, ExecError::PipeStall { .. })));
    // Checkpointed recovery, not a restart: the retry resumed past block 0.
    assert_eq!(report.attempts[0].iterations_completed, 2);
    assert_eq!(report.attempts[1].start_iteration, 2);
    assert_eq!(report.leaked_workers(), 0);
    // Integrity was genuinely armed across the retry: slabs were verified.
    let trace = rec.finish();
    assert!(trace.counters.checksums_verified > 0);
}

#[test]
fn corrupted_payload_without_integrity_goes_undetected() {
    // The negative control: with checksums off the same bit flip raises no
    // error at all — exactly the silent-corruption gap the integrity layer
    // closes. (The run "succeeds"; its grid is quietly wrong.)
    let (p, partition) = scenario();
    let faults = Arc::new(FaultPlan::new().inject(0, 1, FaultKind::CorruptPayload));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &chaos_opts(&faults)).unwrap();
    assert_eq!(faults.fired(), 1);
    assert_eq!(report.recoveries(), 0);
    assert_eq!(report.path, RecoveryPath::Threaded);
}

#[test]
fn numeric_divergence_aborts_at_the_right_coordinates_without_retries() {
    // A pointwise doubling stencil blows up deterministically: from uniform
    // 1.0 the grid holds 2^k after k iterations, crossing bound 10 at
    // iteration 4 (16.0). With fused depth 2 the barrier after the second
    // block (iterations 3–4) sees 16.0, so the last healthy checkpoint is
    // the first barrier — 2 completed iterations.
    let src = "stencil blowup { grid A[16][16] : f32; iterations 6; A[i][j] = 2.0 * A[i][j]; }";
    let p = stencilcl_lang::parse(src).unwrap();
    let f = StencilFeatures::extract(&p).unwrap();
    let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![4, 4]).unwrap();
    let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
    let mut got = GridState::uniform(&p, 1.0);
    let opts = ExecOptions::new()
        .policy(chaos_policy())
        .health(HealthPolicy::bounded(10.0));
    let (report, result) = run_supervised_full(&p, &partition, &mut got, &opts);
    let err = result.unwrap_err();
    match err {
        ExecError::NumericDivergence {
            kernel,
            iteration,
            cell,
            value,
        } => {
            assert_eq!(kernel, 0, "first divergent cell in row-major order");
            assert_eq!(iteration, 2, "last healthy barrier had 2 iterations");
            assert_eq!(cell, vec![0, 0]);
            assert_eq!(value, 16.0);
        }
        other => panic!("expected NumericDivergence, got {other}"),
    }
    // Permanent: exactly one attempt — no retries burned — and the pool
    // was joined, not abandoned.
    assert_eq!(report.attempts.len(), 1);
    assert_eq!(report.leaked_workers(), 0);
    // The output buffer holds the last healthy checkpoint: 2 iterations.
    let mut expect = GridState::uniform(&p, 1.0);
    run_reference_opts(&p.with_iterations(2), &mut expect, &ExecOptions::new()).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
}

#[test]
fn expired_deadline_fails_fast_with_progress_and_joined_workers() {
    let (p, partition) = scenario();
    let mut got = GridState::new(&p, init);
    let opts = ExecOptions::new().policy(ExecPolicy {
        deadline: Some(Duration::ZERO),
        ..chaos_policy()
    });
    let (report, result) = run_supervised_full(&p, &partition, &mut got, &opts);
    assert_eq!(
        result.unwrap_err(),
        ExecError::DeadlineExceeded { completed: 0 }
    );
    // Permanent — a deadline cannot be retried into more wall clock, so
    // exactly one attempt.
    assert_eq!(report.attempts.len(), 1);
    assert_eq!(report.leaked_workers(), 0);
    // Zero completed iterations: the grid is untouched.
    let untouched = GridState::new(&p, init);
    assert_eq!(untouched.max_abs_diff(&got).unwrap(), 0.0);
}

#[test]
fn deadline_hit_inside_a_wedged_pipe_is_detected_by_the_tick_loop() {
    // A 400 ms injected delay wedges kernel 1's neighbours on their pipes;
    // the 60 ms run deadline expires while they sit in the 10 ms tick loop,
    // which must surface DeadlineExceeded without waiting for the watchdog
    // (250 ms) or the delay to finish.
    let (p, partition) = scenario();
    let faults = Arc::new(FaultPlan::new().inject(1, 0, FaultKind::DelayedSlab(400)));
    let opts = ExecOptions::new()
        .policy(ExecPolicy {
            deadline: Some(Duration::from_millis(60)),
            ..chaos_policy()
        })
        .faults(Arc::clone(&faults));
    let mut got = GridState::new(&p, init);
    let (report, result) = run_supervised_full(&p, &partition, &mut got, &opts);
    assert_eq!(
        result.unwrap_err(),
        ExecError::DeadlineExceeded { completed: 0 }
    );
    assert_eq!(
        report.attempts.len(),
        1,
        "deadlines must not burn retries: {report:?}"
    );
    assert_eq!(report.leaked_workers(), 0);
}

#[test]
fn persistent_stalls_degrade_gracefully_to_the_sequential_executor() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let policy = chaos_policy();
    // One stall per allowed threaded attempt (1 + max_retries), always at
    // the first block the attempt runs: no threaded attempt ever finishes.
    let mut plan = FaultPlan::new();
    for _ in 0..=policy.max_retries {
        plan = plan.inject(3, 0, FaultKind::PipeStall);
    }
    let faults = Arc::new(plan);
    let opts = ExecOptions::new()
        .policy(policy.clone())
        .faults(Arc::clone(&faults));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &opts).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(report.path, RecoveryPath::Sequential);
    assert!(report.degraded());
    assert_eq!(
        report.attempts.len() as u32,
        policy.max_retries + 2,
        "threaded attempts plus the sequential fallback"
    );
    let last = report.attempts.last().unwrap();
    assert_eq!(last.mode, AttemptMode::Sequential);
    assert_eq!(last.iterations_completed, 6);
    assert_eq!(report.leaked_workers(), 0);
}

#[test]
fn without_fallback_the_retry_budget_surfaces_as_retries_exhausted() {
    let (p, partition) = scenario();
    let policy = ExecPolicy {
        max_retries: 1,
        sequential_fallback: false,
        ..chaos_policy()
    };
    let faults = Arc::new(FaultPlan::new().inject(0, 0, FaultKind::PipeStall).inject(
        0,
        0,
        FaultKind::PipeStall,
    ));
    let opts = ExecOptions::new()
        .policy(policy.clone())
        .faults(Arc::clone(&faults));
    let mut got = GridState::new(&p, init);
    let err = run_supervised_opts(&p, &partition, &mut got, &opts).unwrap_err();
    let ExecError::RetriesExhausted { attempts, last } = &err else {
        panic!("expected RetriesExhausted, got {err}");
    };
    assert_eq!(*attempts, 2);
    assert!(matches!(**last, ExecError::PipeStall { .. }));
    // source() chains to the final classified fault.
    let source = std::error::Error::source(&err).expect("chained source");
    assert!(source.to_string().contains("stalled"));
}

#[test]
fn worker_panic_mid_run_is_retried_from_the_checkpoint_and_counted() {
    quiet_injected_panics();
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    // Kill kernel 3 in fused block 1 — mid-run, with block 0 already
    // committed. The retry must resume from that barrier, not from scratch.
    let faults = Arc::new(FaultPlan::new().inject(3, 1, FaultKind::WorkerPanic));
    let rec = Recorder::new();
    let opts = ExecOptions::new()
        .policy(chaos_policy())
        .trace(rec.clone())
        .faults(Arc::clone(&faults));
    let mut got = GridState::new(&p, init);
    let report = run_supervised_opts(&p, &partition, &mut got, &opts).unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(faults.fired(), 1);
    assert_eq!(report.path, RecoveryPath::Retried);
    assert_eq!(report.attempts[0].iterations_completed, 2);
    assert_eq!(report.attempts[1].start_iteration, 2);
    let t = rec.finish();
    assert!(
        t.counters.retries >= 1,
        "no retry recorded: {:?}",
        t.counters
    );
}

#[test]
fn retry_exhaustion_leaves_a_whole_barrier_state() {
    quiet_injected_panics();
    // Block 0 commits its barrier, then every attempt at block 1 panics
    // until the budget dies. The surviving state must be the exact grid
    // after the last committed barrier — 2 whole iterations, not a torn mix.
    let (p, partition) = scenario();
    let policy = ExecPolicy {
        sequential_fallback: false,
        ..chaos_policy()
    };
    let mut plan = FaultPlan::new();
    for _ in 0..=policy.max_retries {
        plan = plan.inject(0, 1, FaultKind::WorkerPanic);
    }
    let faults = Arc::new(plan);
    let opts = ExecOptions::new()
        .policy(policy.clone())
        .faults(Arc::clone(&faults));
    let mut got = GridState::new(&p, init);
    let err = run_supervised_opts(&p, &partition, &mut got, &opts).unwrap_err();
    let ExecError::RetriesExhausted { attempts, last } = &err else {
        panic!("expected RetriesExhausted, got {err}");
    };
    assert_eq!(*attempts, policy.max_retries + 1);
    assert!(matches!(**last, ExecError::WorkerPanic { .. }));
    assert_eq!(faults.fired(), 3);
    let mut barrier = GridState::new(&p, init);
    run_reference_opts(&p.with_iterations(2), &mut barrier, &ExecOptions::new()).unwrap();
    assert_eq!(barrier.max_abs_diff(&got).unwrap(), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The robustness property: under arbitrary injected faults, supervised
    // execution still produces the reference grid bit for bit — recovery
    // and degradation never corrupt the computation — and never leaks a
    // worker thread.
    #[test]
    fn supervised_runs_under_random_faults_stay_bit_exact(
        iters in 2u64..=6,
        fused in 1u64..=3,
        n_faults in 1usize..=3,
        kind_sel in prop::collection::vec(0usize..5, 3),
        kernel_sel in prop::collection::vec(0usize..4, 3),
        block_sel in prop::collection::vec(0u64..3, 3),
        seed in 0i64..1000,
    ) {
        quiet_injected_panics();
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(iters);
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::PipeShared, fused, vec![2, 2], vec![8, 8]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        let init = |name: &str, pt: &Point| {
            let mut v = (name.len() as i64 + seed) as f64;
            for dd in 0..pt.dim() {
                v = v * 11.0 + pt.coord(dd) as f64;
            }
            (v * 0.0023).sin()
        };
        let mut plan = FaultPlan::new();
        let blocks = iters.div_ceil(fused);
        for i in 0..n_faults {
            let kind = match kind_sel[i] {
                0 => FaultKind::WorkerPanic,
                1 => FaultKind::PipeStall,
                2 => FaultKind::DelayedSlab(40),
                3 => FaultKind::CorruptStepTag,
                _ => FaultKind::CorruptPayload,
            };
            plan = plan.inject(kernel_sel[i], block_sel[i] % blocks, kind);
        }
        let faults = Arc::new(plan);
        // Enough retries that even three hard faults cannot exhaust the
        // budget; the sequential fallback stays armed regardless. Integrity
        // is on: payload corruption is only recoverable when it is
        // *detectable*, and checksums must never perturb a clean result.
        let policy = ExecPolicy { max_retries: 3, ..chaos_policy() };
        let opts = ExecOptions::new().policy(policy).integrity(true).faults(Arc::clone(&faults));
        let mut expect = GridState::new(&p, init);
        run_reference_opts(&p, &mut expect, &ExecOptions::new()).unwrap();
        let mut got = GridState::new(&p, init);
        let report =
            run_supervised_opts(&p, &partition, &mut got, &opts).unwrap();
        prop_assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
        prop_assert_eq!(report.leaked_workers(), 0);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint I/O faults: the storage layer lies, the run must not.
// ---------------------------------------------------------------------------

#[test]
fn fsync_failure_skips_one_generation_and_the_run_stays_bit_exact() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let dir = scratch("fsync");
    // The first save fails before anything reaches disk; later barriers
    // keep sealing. 3 barriers - 1 failed save = 2 generations, with a
    // numbering gap where the failed generation 0 would have been.
    let faults = Arc::new(FaultPlan::new().inject_io(FaultKind::FsyncFail));
    let mut got = GridState::new(&p, init);
    let (report, result) = run_supervised_full(
        &p,
        &partition,
        &mut got,
        &ckpt_opts(&dir).faults(Arc::clone(&faults)),
    );
    result.unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(faults.io_fired(), 1);
    assert_eq!(report.leaked_workers(), 0);
    let store = DirStore::new(&dir);
    assert_eq!(store.generations().unwrap(), vec![1, 2]);
    let loaded = load_latest(&store, None).unwrap();
    assert_eq!(loaded.manifest.completed_iterations, 6);
    assert!(loaded.fallback_notes.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_rot_in_the_newest_generation_falls_back_and_resumes_bit_exact() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let dir = scratch("rot");
    // Prefix run: 4 of 6 iterations, sealing generation 0 (2 iters done)
    // and generation 1 (4 iters done) — with post-seal bit rot injected
    // into generation 1.
    let prefix = p.with_iterations(4);
    let faults = Arc::new(FaultPlan::new().inject_io(FaultKind::CorruptCheckpoint(1)));
    let mut got = GridState::new(&p, init);
    run_supervised_opts(
        &prefix,
        &partition,
        &mut got,
        &ckpt_opts(&dir).faults(Arc::clone(&faults)),
    )
    .unwrap();
    assert_eq!(faults.io_fired(), 1);
    // The ladder detects the rot by digest and falls back one generation.
    let loaded = load_latest(&DirStore::new(&dir), None).unwrap();
    assert_eq!(loaded.manifest.generation, 0);
    assert_eq!(loaded.manifest.completed_iterations, 2);
    assert_eq!(
        loaded.fallback_notes.len(),
        1,
        "{:?}",
        loaded.fallback_notes
    );
    assert!(loaded.fallback_notes[0].contains("generation 1"));
    // Resuming toward the full 6-iteration target redoes iterations 2..6
    // from generation 0 and lands bit-exact on the reference.
    let (state, report, result) =
        resume_supervised_full(&p, &partition, &dir, &ckpt_opts(&dir)).unwrap();
    result.unwrap();
    assert_eq!(expect.max_abs_diff(&state).unwrap(), 0.0);
    assert_eq!(report.attempts[0].start_iteration, 2);
    assert_eq!(report.leaked_workers(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_read_at_resume_drops_to_the_previous_generation() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let dir = scratch("shortread");
    let mut got = GridState::new(&p, init);
    run_supervised_opts(&p, &partition, &mut got, &ckpt_opts(&dir)).unwrap();
    // The newest generation (2, finished) comes back truncated at read
    // time; the one-shot fault leaves generation 1 (4 iters) readable.
    let faults = Arc::new(FaultPlan::new().inject_io(FaultKind::ShortRead));
    let (state, report, result) = resume_supervised_full(
        &p,
        &partition,
        &dir,
        &ckpt_opts(&dir).faults(Arc::clone(&faults)),
    )
    .unwrap();
    result.unwrap();
    assert_eq!(faults.io_fired(), 1);
    assert_eq!(expect.max_abs_diff(&state).unwrap(), 0.0);
    assert_eq!(
        report.attempts[0].start_iteration, 4,
        "resume should have restarted from generation 1: {report:?}"
    );
    assert_eq!(report.leaked_workers(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fully_rotted_store_is_a_permanent_mismatch_with_diagnostics() {
    let (p, partition) = scenario();
    let expect = reference_grid(&p);
    let dir = scratch("allrot");
    let faults = Arc::new(
        FaultPlan::new()
            .inject_io(FaultKind::CorruptCheckpoint(0))
            .inject_io(FaultKind::CorruptCheckpoint(1))
            .inject_io(FaultKind::CorruptCheckpoint(2)),
    );
    let mut got = GridState::new(&p, init);
    // Bit rot happens after each seal, so the run itself is untouched.
    run_supervised_opts(
        &p,
        &partition,
        &mut got,
        &ckpt_opts(&dir).faults(Arc::clone(&faults)),
    )
    .unwrap();
    assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);
    assert_eq!(faults.io_fired(), 3);
    // Every generation fails its digest: the resume is a permanent
    // mismatch carrying one diagnostic per generation tried.
    let err = resume_supervised_full(&p, &partition, &dir, &ckpt_opts(&dir)).unwrap_err();
    let ExecError::CheckpointMismatch { detail } = &err else {
        panic!("expected CheckpointMismatch, got {err}");
    };
    assert!(detail.contains("all 3 generation(s)"), "{detail}");
    assert!(detail.contains("generation 0"), "{detail}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_write_seals_a_generation_only_the_digest_can_reject() {
    let (p, partition) = scenario();
    let dir = scratch("torn");
    // The first save (generation 0, 2 iters done) is acknowledged but
    // truncated to 64 bytes; generation 1 (4 iters done) lands intact.
    let prefix = p.with_iterations(4);
    let faults = Arc::new(FaultPlan::new().inject_io(FaultKind::TornWrite(64)));
    let mut got = GridState::new(&p, init);
    run_supervised_opts(
        &prefix,
        &partition,
        &mut got,
        &ckpt_opts(&dir).faults(Arc::clone(&faults)),
    )
    .unwrap();
    assert_eq!(faults.io_fired(), 1);
    let store = DirStore::new(&dir);
    // Both generations exist on disk: the torn one was renamed into place.
    assert_eq!(store.generations().unwrap(), vec![0, 1]);
    assert!(store.load(0).unwrap().len() <= 64);
    // The intact generation 1 resumes cleanly without a fallback note.
    let loaded = load_latest(&store, None).unwrap();
    assert_eq!(loaded.manifest.generation, 1);
    assert!(loaded.fallback_notes.is_empty());
    // Lose generation 1 (crash before it was written): only the torn
    // generation remains, and its digest — not the filesystem — rejects it.
    store.remove(1).unwrap();
    let err = load_latest(&store, None).unwrap_err();
    let ExecError::CheckpointMismatch { detail } = &err else {
        panic!("expected CheckpointMismatch, got {err}");
    };
    assert!(detail.contains("generation 0"), "{detail}");
    let _ = std::fs::remove_dir_all(&dir);
}
