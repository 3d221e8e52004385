//! Electromagnetic wave propagation with FDTD-2D — the multi-statement,
//! multi-array stencil whose update chain (`ey`, `ex`, then `hz`) stresses
//! the framework's statement-level halo accounting and per-array pipes.
//!
//! A point source excites the magnetic field; the wavefront expands; the
//! pipe-shared accelerator reproduces the naive solver exactly.
//!
//! ```sh
//! cargo run --release --example wave_fdtd
//! ```

use stencilcl::prelude::*;

const N: usize = 64;
const STEPS: u64 = 24;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse(&stencilcl_lang::programs::fdtd_2d_source(N, STEPS))?;
    let features = StencilFeatures::extract(&program)?;
    println!(
        "FDTD-2D: {} chained statements, per-iteration growth {:?}",
        features.statements.len(),
        features.growth
    );
    for (i, s) in features.statements.iter().enumerate() {
        println!(
            "  statement {i}: writes {} ({} reads, growth {:?})",
            s.target, s.reads, s.growth
        );
    }

    // A Gaussian pulse in hz at the center; fields start at rest.
    let init = |name: &str, p: &Point| {
        if name != "hz" {
            return 0.0;
        }
        let dx = p.coord(0) as f64 - (N / 2) as f64;
        let dy = p.coord(1) as f64 - (N / 2) as f64;
        (-(dx * dx + dy * dy) / 18.0).exp()
    };

    let opts = ExecOptions::new();
    let mut reference = GridState::new(&program, init);
    run_reference_opts(&program, &mut reference, &opts)?;

    // Accelerate with every executor and demand exactness.
    for (label, kind, mode) in [
        (
            "overlapped baseline",
            DesignKind::Baseline,
            ExecMode::Threaded,
        ),
        ("pipe-shared", DesignKind::PipeShared, ExecMode::PipeShared),
        ("threaded pipes", DesignKind::PipeShared, ExecMode::Threaded),
    ] {
        let design = Design::equal(kind, 4, vec![2, 2], vec![16, 16])?;
        let partition = Partition::new(features.extent, &design, &features.growth)?;
        let diff = verify_design(&program, &partition, mode, &opts, init)?;
        println!("{label:<20} max |diff| vs reference: {diff}");
        assert_eq!(diff, 0.0);
    }

    // Physics sanity: the pulse spreads — energy leaves the center region.
    let mut after = GridState::new(&program, init);
    run_reference_opts(&program, &mut after, &opts)?;
    let hz = after.grid("hz")?;
    let center = *hz.get(&Point::new2((N / 2) as i64, (N / 2) as i64))?;
    println!("\nhz at source after {STEPS} steps: {center:.4} (started at 1.0)");
    assert!(
        center.abs() < 1.0,
        "the wave must radiate away from the source"
    );

    // Ring energy: sample a circle of radius 16 around the source.
    let ring: f64 = (0..360)
        .step_by(15)
        .map(|deg| {
            let rad = (deg as f64).to_radians();
            let x = (N / 2) as i64 + (16.0 * rad.cos()) as i64;
            let y = (N / 2) as i64 + (16.0 * rad.sin()) as i64;
            hz.get(&Point::new2(x, y)).map(|v| v.abs()).unwrap_or(0.0)
        })
        .sum();
    println!("total |hz| sampled on a radius-16 ring: {ring:.4}");
    assert!(ring > 1e-6, "the wavefront must have reached the ring");
    Ok(())
}
