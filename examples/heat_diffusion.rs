//! Heat diffusion on a chip floorplan — the HotSpot scenario from the
//! paper's thermal-simulation motivation [Huang et al., DAC'04].
//!
//! A CPU die dissipates power unevenly (two hot cores, one cool cache); the
//! HotSpot stencil relaxes the temperature field toward steady state. This
//! example runs the *functional* pipe-shared accelerator on real data,
//! checks it against the naive solver, and then sizes the paper-scale
//! accelerator with the framework.
//!
//! ```sh
//! cargo run --release --example heat_diffusion
//! ```

use stencilcl::prelude::*;
use stencilcl::Framework;

const N: usize = 96;

/// Synthetic floorplan: power density of two cores and a cache block.
fn power_map(p: &Point) -> f64 {
    let (x, y) = (p.coord(0) as f64 / N as f64, p.coord(1) as f64 / N as f64);
    let core = |cx: f64, cy: f64| {
        let d2 = (x - cx).powi(2) + (y - cy).powi(2);
        1.8 * (-d2 / 0.01).exp()
    };
    // Two hot cores and a mildly active cache slab.
    core(0.3, 0.3) + core(0.7, 0.35) + if y > 0.7 { 0.15 } else { 0.0 }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // HotSpot-2D at lab scale: 96x96 die, 60 solver iterations.
    let program = parse(&stencilcl_lang::programs::hotspot_2d_source(N, 60))?;
    let features = StencilFeatures::extract(&program)?;
    println!(
        "HotSpot-2D: {} arrays ({} read-only power map), growth {:?}",
        features.updated_arrays + features.read_only_arrays,
        features.read_only_arrays,
        features.growth
    );

    let init = |name: &str, p: &Point| match name {
        "power" => power_map(p),
        _ => 80.0, // ambient start temperature
    };

    // Reference solve.
    let opts = ExecOptions::new();
    let mut reference = GridState::new(&program, init);
    run_reference_opts(&program, &mut reference, &opts)?;

    // Accelerated solve: 3x3 kernels with heterogeneous (balanced) tiles.
    let design = Design::heterogeneous(5, vec![vec![10, 12, 10], vec![10, 12, 10]])?;
    let partition = Partition::new(features.extent, &design, &features.growth)?;
    let mut accelerated = GridState::new(&program, init);
    run_threaded_opts(&program, &partition, &mut accelerated, &opts)?;
    let diff = reference.max_abs_diff(&accelerated)?;
    println!("threaded pipe-shared accelerator vs reference: max |diff| = {diff}");
    assert_eq!(diff, 0.0, "the accelerated solve must be exact");

    // Where is the hottest spot?
    let temp = accelerated.grid("temp")?;
    let (mut hottest, mut at) = (f64::MIN, Point::new2(0, 0));
    for (p, &t) in temp.iter() {
        if t > hottest {
            hottest = t;
            at = p;
        }
    }
    println!("hottest cell after 60 iterations: {hottest:.2} at {at}");
    assert!(hottest > 80.0, "cores must heat the die above ambient");

    // Now size the paper-scale accelerator (4096^2, 1000 iterations).
    let spec = stencilcl::suite::by_name("HotSpot-2D").expect("suite benchmark");
    let report = Framework::new().synthesize(&spec.program, &spec.search)?;
    println!("\npaper-scale synthesis:\n{}", report.summary());
    Ok(())
}
