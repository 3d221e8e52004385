//! End-to-end framework runs on scaled-down versions of the paper's
//! benchmarks: search → codegen → simulation, with the Table 3 invariants.

use stencilcl::prelude::*;
use stencilcl::suite;

fn scaled_search(spec: &stencilcl::suite::BenchmarkSpec) -> SearchConfig {
    SearchConfig {
        parallelism: spec.search.parallelism.clone(),
        unroll: 4,
        unroll_candidates: vec![2, 4],
        max_fused: 16,
        min_tile: 4,
    }
}

fn run(name: &str, n: usize, iters: u64) -> SynthesisReport {
    let spec = suite::by_name(name).expect("benchmark exists");
    let program = spec.scaled(n, iters);
    Framework::new()
        .synthesize(&program, &scaled_search(&spec))
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn jacobi_2d_flow_produces_consistent_report() {
    let r = run("Jacobi-2D", 512, 64);
    assert!(
        r.speedup_simulated() >= 1.0,
        "speedup {}",
        r.speedup_simulated()
    );
    assert!(r
        .heterogeneous
        .point
        .hls
        .resources
        .within(&r.baseline.point.hls.resources));
    assert_eq!(
        r.baseline.point.hls.resources.dsp, r.heterogeneous.point.hls.resources.dsp,
        "same parallelism and unroll imply the same DSP datapath"
    );
    assert!(r.code.kernels.contains("__kernel void stencil_k0"));
    assert!(
        r.code.kernels.contains("pipe "),
        "heterogeneous designs use pipes"
    );
    assert!(r.code.host.contains("enqueueTask"));
    // One kernel per tile.
    let kernels = r.code.kernels.matches("__kernel void").count();
    assert_eq!(kernels, r.heterogeneous.point.design.kernel_count());
}

#[test]
fn hotspot_2d_flow_handles_read_only_arrays() {
    let r = run("HotSpot-2D", 256, 32);
    assert!(r.speedup_simulated() >= 1.0);
    assert!(r.code.kernels.contains("__global float *power"));
    assert!(!r.code.host.contains("enqueueReadBuffer(buf_power"));
}

#[test]
fn fdtd_2d_flow_handles_multi_statement_programs() {
    let r = run("FDTD-2D", 256, 32);
    assert!(r.speedup_simulated() >= 1.0);
    // Pipes exist for each of the three updated arrays.
    for array in ["ex", "ey", "hz"] {
        assert!(
            r.code.kernels.contains(&format!("pipe float p_{array}_")),
            "missing pipes for {array}"
        );
    }
}

#[test]
fn jacobi_3d_flow_at_small_scale() {
    let r = run("Jacobi-3D", 64, 16);
    assert!(r.speedup_simulated() >= 1.0);
    assert_eq!(r.heterogeneous.point.design.dim(), 3);
}

#[test]
fn reports_model_accuracy_within_reason() {
    let r = run("Jacobi-2D", 512, 64);
    // The analytical model should land within 50% of the simulator on both
    // designs at this scale (the paper reports 12% against hardware).
    assert!(
        r.baseline.model_error() < 0.5,
        "baseline error {}",
        r.baseline.model_error()
    );
    assert!(
        r.heterogeneous.model_error() < 0.5,
        "heterogeneous error {}",
        r.heterogeneous.model_error()
    );
}

#[test]
fn synthesized_design_kinds_validate_functionally_when_shrunk() {
    let spec = suite::by_name("Jacobi-2D").unwrap();
    let fw = Framework::new();
    let tiny = spec.scaled(32, 6);
    let f = StencilFeatures::extract(&tiny).unwrap();
    let base = Design::equal(DesignKind::Baseline, 3, vec![2, 2], vec![8, 8]).unwrap();
    let base_pt = stencilcl_opt::evaluate(&tiny, &f, base, &fw.device, &fw.cost, 2).unwrap();
    let het = Design::heterogeneous(3, vec![vec![7, 9], vec![9, 7]]).unwrap();
    let het_pt = stencilcl_opt::evaluate(&tiny, &f, het, &fw.device, &fw.cost, 2).unwrap();
    for mode in ExecMode::ALL {
        fw.validate(&tiny, &base_pt, mode).unwrap();
        fw.validate(&tiny, &het_pt, mode).unwrap();
    }
}
