//! Telemetry properties: **recording is an observer, never a participant**.
//! Attaching the lock-free recorder to any executor must leave the computed
//! grid bit-identical to the disabled-sink run, and every trace it produces
//! must be well-formed (non-negative, per-kernel non-overlapping spans
//! inside the run's duration, conserved slab counters).

use proptest::prelude::*;
use stencilcl_exec::{
    run_pipe_shared_opts, run_threaded_opts, ExecOptions, MeasuredTrace, Recorder,
};
use stencilcl_grid::{Design, DesignKind, Extent, Partition, Point};
use stencilcl_lang::{parse, programs, GridState, Program, StencilFeatures};

fn init_for(seed: i64) -> impl Fn(&str, &Point) -> f64 + Copy {
    move |name: &str, p: &Point| {
        let mut v = (name.len() as i64 + seed) as f64;
        for d in 0..p.dim() {
            v = v * 23.0 + p.coord(d) as f64;
        }
        (v * 0.0017).sin()
    }
}

/// Runs `program` twice through `run`, once with the disabled sink and once
/// with a live recorder, and checks the grids agree to the bit.
fn assert_trace_transparent(
    program: &Program,
    seed: i64,
    mut run: impl FnMut(&Program, &mut GridState, &ExecOptions) -> Result<(), stencilcl_exec::ExecError>,
) -> MeasuredTrace {
    let init = init_for(seed);
    let mut plain = GridState::new(program, init);
    run(program, &mut plain, &ExecOptions::new()).unwrap();
    let rec = Recorder::new();
    let mut traced = GridState::new(program, init);
    run(program, &mut traced, &ExecOptions::new().trace(rec.clone())).unwrap();
    assert_eq!(plain.max_abs_diff(&traced).unwrap(), 0.0);
    rec.finish()
}

fn well_formed(trace: &MeasuredTrace) {
    trace.validate_spans().unwrap();
    assert_eq!(trace.dropped, 0, "recorder slab overflowed");
    for s in &trace.spans {
        assert!(
            s.end_ns <= trace.duration_ns,
            "span past the run's duration: {s:?}"
        );
        assert!(s.kernel < trace.kernels, "span on an unknown kernel: {s:?}");
    }
    assert_eq!(
        trace.counters.slabs_sent, trace.counters.slabs_received,
        "slabs sent and received diverge: every slab pushed into a pipe \
         must be spliced by exactly one receiver"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Non-perturbation: over random star stencils, fusion depths, and both
    // pipe executors, the recording run is bit-exact with the disabled-sink
    // run, the captured trace is well-formed, and both executors record the
    // same traffic counters.
    #[test]
    fn recording_never_perturbs_any_executor(
        li in 0i64..=2, hi in 0i64..=2, lj in 0i64..=2, hj in 0i64..=2,
        t in 4usize..=8,
        fused in 1u64..=3,
        iters in 1u64..=6,
        seed in 0i64..1000,
    ) {
        if li + hi + lj + hj == 0 {
            return Ok(()); // pointwise: no pipes, nothing interesting to trace
        }
        let n = 2 * t;
        let src = format!(
            "stencil star {{ grid A[{n}][{n}] : f32; iterations {iters};
             A[i][j] = 0.3 * A[i][j] + 0.2 * (A[i-{li}][j] + A[i+{hi}][j]) \
                     + 0.15 * (A[i][j-{lj}] + A[i][j+{hj}]); }}"
        );
        let program = parse(&src).unwrap();
        let f = StencilFeatures::extract(&program).unwrap();
        let design =
            Design::equal(DesignKind::PipeShared, fused, vec![2, 2], vec![t, t]).unwrap();
        let partition = Partition::new(program.extent(), &design, &f.growth).unwrap();

        let threaded = assert_trace_transparent(&program, seed, |p, s, opts| {
            run_threaded_opts(p, &partition, s, opts)
        });
        well_formed(&threaded);
        let pipe = assert_trace_transparent(&program, seed, |p, s, opts| {
            run_pipe_shared_opts(p, &partition, s, opts)
        });
        well_formed(&pipe);
        // Both drivers run the same per-kernel step, so they count the
        // same traffic.
        let (a, b) = (&threaded.counters, &pipe.counters);
        prop_assert_eq!(a.slabs_sent, b.slabs_sent);
        prop_assert_eq!(a.slabs_received, b.slabs_received);
        prop_assert_eq!(a.halo_bytes, b.halo_bytes);
        prop_assert_eq!(a.cells_computed, b.cells_computed);
    }
}

#[test]
fn threaded_trace_covers_every_phase_and_counter() {
    let program = programs::jacobi_2d()
        .with_extent(Extent::new2(32, 32))
        .with_iterations(6);
    let f = StencilFeatures::extract(&program).unwrap();
    let design = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![8, 8]).unwrap();
    let partition = Partition::new(program.extent(), &design, &f.growth).unwrap();
    let trace = assert_trace_transparent(&program, 7, |p, s, opts| {
        run_threaded_opts(p, &partition, s, opts)
    });
    well_formed(&trace);
    assert_eq!(trace.kernels, 4);
    for k in 0..trace.kernels {
        let totals = trace.phase_totals(k);
        assert!(totals.read > 0.0, "kernel {k} recorded no halo reads");
        assert!(totals.compute > 0.0, "kernel {k} recorded no compute");
        assert!(totals.pipe_wait > 0.0, "kernel {k} recorded no pipe waits");
        assert!(totals.write > 0.0, "kernel {k} recorded no write-back");
        assert!(totals.barrier > 0.0, "kernel {k} recorded no barrier idles");
    }
    assert!(trace.counters.halo_bytes > 0);
    // Boundary-first splitting clips shrunken fused domains, so the exact
    // cell count is executor-dependent; it is still at least one full grid.
    assert!(trace.counters.cells_computed >= 32 * 32);
    assert!(trace.counters.slabs_sent > 0);
}

#[test]
fn chrome_export_parses_and_keeps_every_span() {
    let program = programs::jacobi_1d()
        .with_extent(Extent::new1(64))
        .with_iterations(4);
    let f = StencilFeatures::extract(&program).unwrap();
    let design = Design::equal(DesignKind::PipeShared, 2, vec![2], vec![16]).unwrap();
    let partition = Partition::new(program.extent(), &design, &f.growth).unwrap();
    let trace = assert_trace_transparent(&program, 11, |p, s, opts| {
        run_threaded_opts(p, &partition, s, opts)
    });
    let json = trace.chrome_trace_json();
    let value = serde_json::parse_value(&json).expect("chrome trace JSON parses");
    let serde_json::Value::Array(events) = value else {
        panic!("chrome trace is not a JSON array of events");
    };
    assert_eq!(events.len(), trace.spans.len());
}
