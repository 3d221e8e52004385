//! Criterion microbench: functional executor throughput (reference vs
//! the baseline design vs pipe-shared vs threaded on a small grid), the
//! per-cell cost of the row sweep at 1024² (the reference and the
//! one-worker pipe step), and the three per-cell passes around a job's
//! sweep at 512² — grid init, the result digest, and the checkpoint seal's
//! encode + digest.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use stencilcl::prelude::*;
use stencilcl_exec::{policy_fingerprint, program_hash, write_generation, ExecError, GridMeta};
use stencilcl_server::default_init;
use stencilcl_telemetry::CounterSnapshot;

/// Jacobi-2D at 64² over `iters` iterations, partitioned by a `kind`
/// design of 2×2 kernels on 16² tiles at fused depth 4.
fn setup(iters: u64, kind: DesignKind) -> (Program, Partition) {
    let program = programs::jacobi_2d()
        .with_extent(Extent::new2(64, 64))
        .with_iterations(iters);
    let f = StencilFeatures::extract(&program).unwrap();
    let design = Design::equal(kind, 4, vec![2, 2], vec![16, 16]).unwrap();
    let partition = Partition::new(f.extent, &design, &f.growth).unwrap();
    (program, partition)
}

type Run = fn(&Program, &Partition, &mut GridState, &ExecOptions) -> Result<(), ExecError>;

fn bench_executors(c: &mut Criterion) {
    let (program, pipe) = setup(8, DesignKind::PipeShared);
    let (_, base) = setup(8, DesignKind::Baseline);
    // Deep run: 32 iterations at depth 4 = 8 fused blocks. This is where the
    // persistent-pool rework pays: the old executors cloned the full grid and
    // re-extracted every tile window once per block; the reworked ones plan
    // once, keep windows alive (halo-ring refresh only), and double-buffer the
    // global grid.
    let (deep, deep_pipe) = setup(32, DesignKind::PipeShared);
    let reference: Run = |p, _, s, opts| run_reference_opts(p, s, opts);
    let cases: [(&str, &Program, &Partition, Run); 6] = [
        ("reference/jacobi2d_64x64_h8", &program, &pipe, reference),
        (
            "baseline/jacobi2d_64x64_h8",
            &program,
            &base,
            run_pipe_shared_opts,
        ),
        (
            "pipe_shared/jacobi2d_64x64_h8",
            &program,
            &pipe,
            run_pipe_shared_opts,
        ),
        (
            "threaded/jacobi2d_64x64_h8",
            &program,
            &pipe,
            run_threaded_opts,
        ),
        (
            "pipe_shared/jacobi2d_64x64_i32_h4",
            &deep,
            &deep_pipe,
            run_pipe_shared_opts,
        ),
        (
            "threaded/jacobi2d_64x64_i32_h4",
            &deep,
            &deep_pipe,
            run_threaded_opts,
        ),
    ];
    let opts = ExecOptions::new();
    for (name, program, partition, run) in cases {
        c.bench_function(&format!("exec/{name}"), |b| {
            b.iter(|| {
                let mut s = GridState::new(program, default_init);
                run(black_box(program), partition, &mut s, &opts).unwrap();
                s
            })
        });
    }
}

/// Grid init, digest and checkpoint encode of a 512² Jacobi state: the
/// passes a served job runs besides its sweep, priced per call.
fn bench_per_cell_passes(c: &mut Criterion) {
    let program = programs::jacobi_2d().with_extent(Extent::new2(512, 512));
    c.bench_function("init/default_512", |b| {
        b.iter(|| GridState::new(black_box(&program), default_init))
    });
    let state = GridState::new(&program, default_init);
    c.bench_function("digest/grid_512", |b| b.iter(|| black_box(&state).digest()));
    let manifest = CheckpointManifest {
        generation: 0,
        program_hash: program_hash(&program),
        policy_fingerprint: policy_fingerprint(&ExecPolicy::default()),
        program: program.clone(),
        design: None,
        total_iterations: program.iterations,
        completed_iterations: 0,
        blocks_done: 0,
        deadline_total_ms: None,
        deadline_remaining_ms: None,
        grids: program
            .grids
            .iter()
            .map(|d| GridMeta {
                name: d.name.clone(),
                cells: d.extent.volume(),
            })
            .collect(),
        counters: CounterSnapshot::default(),
    };
    c.bench_function("seal/encode_512", |b| {
        b.iter(|| write_generation(&mut std::io::sink(), &manifest, black_box(&state)).unwrap())
    });
}

/// The row sweep at the `serve_compute` job shape, 1024² × 8 iterations:
/// the reference, and the pipe step on one worker (pipe 4×4, fused 4,
/// tile 256²). Divide by 8 × 1024² for the per-cell cost. Each sample
/// restores the initial grid with `clone_from` (one copy, no allocation).
fn bench_sweep(c: &mut Criterion) {
    let design = Design::equal(DesignKind::PipeShared, 4, vec![4, 4], vec![256, 256]).unwrap();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    for (name, program) in [
        ("jacobi_1024", programs::jacobi_2d()),
        ("hotspot_1024", programs::hotspot_2d()),
        ("fdtd_1024", programs::fdtd_2d()),
    ] {
        let program = program
            .with_extent(Extent::new2(1024, 1024))
            .with_iterations(8);
        let f = StencilFeatures::extract(&program).unwrap();
        let partition = Partition::new(f.extent, &design, &f.growth).unwrap();
        let init = GridState::new(&program, default_init);
        let mut s = init.clone();
        let opts = ExecOptions::new();
        group.bench_function(&format!("{name}/reference"), |b| {
            b.iter(|| {
                s.clone_from(&init);
                run_reference_opts(black_box(&program), &mut s, &opts).unwrap();
            })
        });
        group.bench_function(&format!("{name}/pipe_one_worker"), |b| {
            b.iter(|| {
                s.clone_from(&init);
                run_pipe_shared_opts(black_box(&program), &partition, &mut s, &opts).unwrap();
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executors, bench_per_cell_passes, bench_sweep);
criterion_main!(benches);
