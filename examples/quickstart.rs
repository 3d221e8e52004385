//! Quickstart: synthesize an FPGA accelerator for a stencil you write
//! yourself, end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stencilcl::prelude::*;
use stencilcl::Framework;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a stencil algorithm in the DSL (the stand-in for the paper's
    //    "original stencil algorithm written in OpenCL").
    let source = "
        stencil blur_2d {
            grid img[1024][1024] : f32;
            iterations 128;
            img[i][j] = 0.25 * img[i][j]
                      + 0.1875 * (img[i-1][j] + img[i+1][j]
                                + img[i][j-1] + img[i][j+1]);
        }";
    let program = parse(source)?;

    // 2. The feature extractor derives everything the optimizer needs.
    let features = StencilFeatures::extract(&program)?;
    println!(
        "stencil `{}`: {}-D, growth {:?} per fused iteration, {} flops/update",
        program.name,
        features.dim,
        features.growth,
        features.ops.flops()
    );

    // 3. Run the full framework: design-space exploration for the baseline,
    //    budget-constrained heterogeneous search, code generation, and
    //    simulated execution on the modeled Virtex-7 board.
    let search = SearchConfig {
        parallelism: vec![4, 4],
        unroll: 8,
        unroll_candidates: vec![4, 8],
        max_fused: 64,
        min_tile: 8,
    };
    let report = Framework::new().synthesize(&program, &search)?;
    println!("\n{}\n", report.summary());

    // 4. Inspect the winning designs.
    let b = &report.baseline;
    let h = &report.heterogeneous;
    println!(
        "baseline  : predicted {:.3e} cy, simulated {:.3e} cy (model error {:.1}%)",
        b.prediction().total,
        b.sim.total_cycles,
        100.0 * b.model_error()
    );
    println!(
        "our design: predicted {:.3e} cy, simulated {:.3e} cy (model error {:.1}%)",
        h.prediction().total,
        h.sim.total_cycles,
        100.0 * h.model_error()
    );
    println!(
        "speedup   : {:.2}x with {} BRAM (baseline uses {})",
        report.speedup_simulated(),
        h.point.hls.resources.bram,
        b.point.hls.resources.bram
    );

    // 5. The generated OpenCL design is ready for an SDAccel-style flow.
    println!("\n--- first lines of the generated kernels ---");
    for line in report.code.kernels.lines().take(12) {
        println!("{line}");
    }

    // 6. And the architecture is functionally exact: validate a scaled-down
    //    version against the naive reference.
    let tiny = program
        .with_extent(Extent::new2(64, 64))
        .with_iterations(12);
    let tiny_features = StencilFeatures::extract(&tiny)?;
    let design = Design::equal(DesignKind::PipeShared, 4, vec![2, 2], vec![16, 16])?;
    let partition = Partition::new(tiny_features.extent, &design, &tiny_features.growth)?;
    let opts = ExecOptions::new();
    let diff = verify_design(&tiny, &partition, ExecMode::Threaded, &opts, |_, p| {
        (p.coord(0) as f64 * 0.37).sin() + (p.coord(1) as f64 * 0.61).cos()
    })?;
    println!("\nfunctional validation (threaded pipes vs reference): max |diff| = {diff}");
    assert_eq!(diff, 0.0);

    // 7. Every executor above ran compiled kernels: each update statement
    //    compiled once to a flat postfix bytecode tape (dense grid slots,
    //    neighbor offsets folded to linear-index deltas) and executed with
    //    branch-free row sweeps. `ExecOptions::lanes` (`stencilcl run
    //    --lanes W`) picks the tape lane width. The tree-walking AST
    //    `Interpreter` remains the differential-testing oracle; the tape is
    //    bit-exact with it, performing the same f64 operations in the same
    //    order per cell:
    let compiled = CompiledProgram::compile(&tiny)?;
    println!(
        "compiled `{}`: {} kernel tape(s), e.g. statement 0 = {} ops over {} grid slot(s)",
        tiny.name,
        compiled.statement_count(),
        compiled.kernel(0).tape().len(),
        compiled.slots().len(),
    );
    Ok(())
}
