//! Ablation: **durable checkpoint persistence on vs off** — the supervised
//! executor sealing a crash-safe generation (temp-file → fsync → atomic
//! rename, lane digest over the whole file) every 4th fused-block
//! barrier, against the same supervised executor with persistence
//! disabled. The store is wiped before every checkpointed run so each pays
//! the same first-write cost.
//!
//! Asserted on every run:
//!
//! 1. **Bit-exactness** — the checkpointed grid equals the plain grid
//!    exactly (`max_abs_diff == 0`): the writer reads the committed buffer
//!    at the barrier, it never touches the computation.
//! 2. **Live persistence** — one extra recorded checkpointed run seals
//!    generations and writes bytes (no vacuous pass), and the store is
//!    pruned to its retention cap of 3.
//!
//! Each row also carries `save_ms` and `remove_ms`: the median of a few
//! `DirStore::save` calls with one generation-sized buffer, and of
//! `remove`, on the same scratch directory — the store's share of a seal —
//! and `seal_cpu_ms`: the median of a few `write_generation` calls that
//! stream one sealed generation (encode + digest) into `io::sink()`, the
//! seal's CPU share with no disk.
//!
//! The overhead is the paired-median change of the shared harness in
//! `stencilcl_bench::ab`, judged against a 5% budget: the binary exits 1
//! if and only if the 95% interval lies wholly over it. Writes
//! `results/BENCH_checkpoint.json`.
//!
//! Knobs (environment): `STENCILCL_BENCH_N` (grid side, default 256),
//! `STENCILCL_BENCH_ITERS` (iterations, default 48),
//! `STENCILCL_BENCH_SAMPLES` (timing pairs, default 21). On much smaller
//! grids fixed costs dominate and the 5% budget is not meaningful.

use std::path::Path;

use stencilcl_bench::ab::{
    grid_cases, knobs, report, scratch_dir, time_grid_pairs, timed, AbRow, Spread,
};
use stencilcl_exec::{
    load_latest, run_supervised_opts, write_generation, CheckpointPolicy, DirStore, ExecOptions,
    ExecPolicy, Recorder,
};
use stencilcl_lang::{GridState, Program};
use stencilcl_server::default_init;
use stencilcl_telemetry::EnvConfig;

/// Fused-block barriers between sealed generations.
const EVERY_BARRIERS: u64 = 4;

/// Store and encode calls timed per row for the `save_ms` / `remove_ms` /
/// `seal_cpu_ms` evidence.
const STORE_SAMPLES: u64 = 5;

/// Median wall time, in ms, of one `DirStore::save` of a `len`-byte
/// generation and of one `remove`, in `dir`.
fn store_costs(dir: &Path, len: usize) -> (f64, f64) {
    let store = DirStore::new(dir);
    let buf: Vec<u8> = (0..len).map(|i| i as u8).collect();
    let save: Vec<f64> = (0..STORE_SAMPLES)
        .map(|g| timed(|| store.save(g, &buf).expect("checkpoint save")))
        .collect();
    let remove: Vec<f64> = (0..STORE_SAMPLES)
        .map(|g| timed(|| store.remove(g).expect("checkpoint remove")))
        .collect();
    (Spread::of(&save).median, Spread::of(&remove).median)
}

/// Median wall time, in ms, of streaming the newest generation in `dir`
/// back through `write_generation` into a sink: encode + digest, no disk.
fn seal_cpu_ms(dir: &Path, program: &Program) -> f64 {
    let loaded = load_latest(&DirStore::new(dir), None).expect("a sealed generation");
    let state = GridState::from_grids(program, loaded.grids).expect("the run's own grids");
    let encode: Vec<f64> = (0..STORE_SAMPLES)
        .map(|_| {
            timed(|| {
                write_generation(&mut std::io::sink(), &loaded.manifest, &state)
                    .expect("encode into a sink");
            })
        })
        .collect();
    Spread::of(&encode).median
}

fn main() {
    let (n, iters, pairs) = knobs(48);
    let plain = ExecOptions::new().policy(ExecPolicy::from_config(EnvConfig::get()));
    let dir = scratch_dir("ckpt");
    let wipe = || scratch_dir("ckpt");
    let policy = CheckpointPolicy::at(&dir).every_barriers(EVERY_BARRIERS);
    let ckpt = plain.clone().checkpoint(policy);

    let mut rows = Vec::new();
    for (name, p, part) in &grid_cases(n, iters) {
        eprintln!("[ablation_checkpoint] {name} ...");
        let run = |s: &mut GridState, opts: &ExecOptions| {
            timed(|| {
                run_supervised_opts(p, part, s, opts).expect("supervised run");
            })
        };
        let (samples, diff) = time_grid_pairs(
            p,
            pairs,
            |s| run(s, &plain),
            |s| {
                wipe();
                run(s, &ckpt)
            },
        );
        assert_eq!(diff, 0.0, "{name}: checkpointing perturbed the grid");

        // Counter collection: one untimed checkpointed run, fresh store.
        wipe();
        let rec = Recorder::new();
        let counted = ckpt.clone().trace(rec.clone());
        run(&mut GridState::new(p, default_init), &counted);
        let counters = rec.finish().counters;
        let kept = DirStore::new(&dir).generations().map_or(0, |g| g.len());
        let seal_cpu_ms = seal_cpu_ms(&dir, p);
        wipe();
        let (sealed, bytes) = (counters.ckpt_generations, counters.ckpt_bytes);
        assert!(sealed > 0, "{name}: no generation was sealed");
        assert!(bytes > 0, "{name}: no checkpoint bytes were written");
        assert!(kept <= 3, "{name}: {kept} generations kept, cap is 3");
        let (save_ms, remove_ms) = store_costs(&dir, (bytes / sealed) as usize);
        wipe();

        let row = AbRow::new(name, ["plain", "checkpointed"], &samples, Some(0.05), diff)
            .with("every_barriers", EVERY_BARRIERS)
            .with("generations_sealed", sealed)
            .with("bytes_written", bytes)
            .with("generations_kept", kept)
            .with("seal_cpu_ms", seal_cpu_ms)
            .with("save_ms", save_ms)
            .with("remove_ms", remove_ms);
        rows.push(row);
    }
    report(
        "Ablation: durable checkpoint generations vs no persistence.",
        "BENCH_checkpoint.json",
        &rows,
    );
}
