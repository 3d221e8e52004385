//! Criterion microbench: functional executor throughput (reference vs
//! overlapped vs pipe-shared vs threaded on a small grid).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use stencilcl::prelude::*;

fn setup() -> (Program, Partition, Partition) {
    let program = programs::jacobi_2d()
        .with_extent(Extent::new2(64, 64))
        .with_iterations(8);
    let f = StencilFeatures::extract(&program).unwrap();
    let base = Design::equal(DesignKind::Baseline, 4, vec![2, 2], vec![16, 16]).unwrap();
    let pipe = Design::equal(DesignKind::PipeShared, 4, vec![2, 2], vec![16, 16]).unwrap();
    let bp = Partition::new(f.extent, &base, &f.growth).unwrap();
    let pp = Partition::new(f.extent, &pipe, &f.growth).unwrap();
    (program, bp, pp)
}

fn init(name: &str, p: &Point) -> f64 {
    let mut v = name.len() as f64;
    for d in 0..p.dim() {
        v = v * 31.0 + p.coord(d) as f64;
    }
    (v * 0.001).sin()
}

/// Deep run: 32 iterations at depth 4 = 8 fused blocks. This is where the
/// persistent-pool rework pays: the old executors cloned the full grid and
/// re-extracted every tile window once per block; the reworked ones plan
/// once, keep windows alive (halo-ring refresh only), and double-buffer the
/// global grid.
fn setup_deep() -> (Program, Partition) {
    let program = programs::jacobi_2d()
        .with_extent(Extent::new2(64, 64))
        .with_iterations(32);
    let f = StencilFeatures::extract(&program).unwrap();
    let pipe = Design::equal(DesignKind::PipeShared, 4, vec![2, 2], vec![16, 16]).unwrap();
    let pp = Partition::new(f.extent, &pipe, &f.growth).unwrap();
    (program, pp)
}

fn bench_executors(c: &mut Criterion) {
    let (program, base, pipe) = setup();
    let opts = ExecOptions::new();
    c.bench_function("exec/reference/jacobi2d_64x64_h8", |b| {
        b.iter(|| {
            let mut s = GridState::new(&program, init);
            run_reference_opts(black_box(&program), &mut s, &opts).unwrap();
            s
        })
    });
    c.bench_function("exec/overlapped/jacobi2d_64x64_h8", |b| {
        b.iter(|| {
            let mut s = GridState::new(&program, init);
            run_overlapped_opts(black_box(&program), &base, &mut s, &opts).unwrap();
            s
        })
    });
    c.bench_function("exec/pipe_shared/jacobi2d_64x64_h8", |b| {
        b.iter(|| {
            let mut s = GridState::new(&program, init);
            run_pipe_shared_opts(black_box(&program), &pipe, &mut s, &opts).unwrap();
            s
        })
    });
    c.bench_function("exec/threaded/jacobi2d_64x64_h8", |b| {
        b.iter(|| {
            let mut s = GridState::new(&program, init);
            run_threaded_opts(black_box(&program), &pipe, &mut s, &opts).unwrap();
            s
        })
    });
    let (deep, deep_pipe) = setup_deep();
    c.bench_function("exec/pipe_shared/jacobi2d_64x64_i32_h4", |b| {
        b.iter(|| {
            let mut s = GridState::new(&deep, init);
            run_pipe_shared_opts(black_box(&deep), &deep_pipe, &mut s, &opts).unwrap();
            s
        })
    });
    c.bench_function("exec/threaded/jacobi2d_64x64_i32_h4", |b| {
        b.iter(|| {
            let mut s = GridState::new(&deep, init);
            run_threaded_opts(black_box(&deep), &deep_pipe, &mut s, &opts).unwrap();
            s
        })
    });
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
