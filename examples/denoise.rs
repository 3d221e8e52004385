//! Total-variation image denoising with the Chambolle algorithm — the
//! application the paper cites from Akin et al. [2] and Beretta et al. [20],
//! and the benchmark Nacci et al. used for the baseline architecture.
//!
//! A synthetic image (bright square on a dark background) is corrupted with
//! deterministic pseudo-noise; Chambolle's dual projection iterates on the
//! accelerator architecture (threaded pipes); the denoised image is
//! reconstructed as `g - lambda * div p` and compared against the noisy one.
//!
//! ```sh
//! cargo run --release --example denoise
//! ```

use stencilcl::prelude::*;

const N: usize = 64;
const STEPS: u64 = 40;
const LAMBDA: f64 = 10.0;

/// Ground truth: a bright square on a dark background.
fn clean(p: &Point) -> f64 {
    let inside = (16..48).contains(&p.coord(0)) && (16..48).contains(&p.coord(1));
    if inside {
        1.0
    } else {
        0.0
    }
}

/// Deterministic "noise" from a hash of the coordinates.
fn noise(p: &Point) -> f64 {
    let mut h = (p.coord(0) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (p.coord(1) as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 40;
    (h as f64 / (1u64 << 24) as f64) * 0.5 - 0.25
}

fn mean_abs_error(img: impl Fn(&Point) -> f64) -> f64 {
    let mut total = 0.0;
    for x in 0..N as i64 {
        for y in 0..N as i64 {
            let p = Point::new2(x, y);
            total += (img(&p) - clean(&p)).abs();
        }
    }
    total / (N * N) as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse(&stencilcl_lang::programs::chambolle_2d_source(N, STEPS))?;
    let features = StencilFeatures::extract(&program)?;
    println!(
        "Chambolle TV denoising: {} statements, intrinsics: {} abs, {} divisions",
        features.statements.len(),
        features.ops.special,
        features.ops.div
    );

    // Run the dual iteration on the threaded pipe-shared accelerator.
    let init = |name: &str, p: &Point| match name {
        "g" => clean(p) + noise(p),
        _ => 0.0, // dual fields and divergence start at zero
    };
    let design = Design::equal(DesignKind::PipeShared, 4, vec![2, 2], vec![16, 16])?;
    let partition = Partition::new(features.extent, &design, &features.growth)?;
    let mut state = GridState::new(&program, init);
    let opts = ExecOptions::new();
    run_threaded_opts(&program, &partition, &mut state, &opts)?;

    // ... and confirm it is exactly the reference computation.
    let mut reference = GridState::new(&program, init);
    run_reference_opts(&program, &mut reference, &opts)?;
    let diff = reference.max_abs_diff(&state)?;
    println!("threaded accelerator vs reference: max |diff| = {diff}");
    assert_eq!(diff, 0.0);

    // Reconstruct: u = g - lambda * div(p).
    let g = state.grid("g")?;
    let px = state.grid("px")?;
    let py = state.grid("py")?;
    let denoised = |p: &Point| {
        let at = |grid: &Grid<f64>, q: Point| grid.get(&q).copied().unwrap_or(0.0);
        let div = at(px, *p) - at(px, p.with_coord(1, p.coord(1) - 1)) + at(py, *p)
            - at(py, p.with_coord(0, p.coord(0) - 1));
        at(g, *p) - LAMBDA * div
    };
    let noisy_err = mean_abs_error(|p| clean(p) + noise(p));
    let denoised_err = mean_abs_error(denoised);
    println!("mean |error| vs clean image: noisy {noisy_err:.4} -> denoised {denoised_err:.4}");
    assert!(
        denoised_err < noisy_err,
        "TV denoising must reduce the reconstruction error"
    );

    // Size an accelerator for it with the full framework.
    let search = SearchConfig {
        parallelism: vec![4, 4],
        unroll: 4,
        unroll_candidates: vec![2, 4],
        max_fused: 32,
        min_tile: 8,
    };
    let paper_scale = program
        .with_extent(Extent::new2(512, 512))
        .with_iterations(100);
    let report = stencilcl::Framework::new().synthesize(&paper_scale, &search)?;
    println!("\naccelerator synthesis at 512x512:\n{}", report.summary());
    Ok(())
}
