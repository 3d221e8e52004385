use stencilcl_codegen::{generate, CodegenOptions};
use stencilcl_grid::Partition;
use stencilcl_hls::{CostModel, Device};
use stencilcl_lang::{Program, StencilFeatures};
use stencilcl_opt::{optimize_pair, DesignPoint, SearchConfig};
use stencilcl_sim::simulate;

use crate::{DesignEval, FrameworkError, SynthesisReport};

/// The end-to-end tool flow of the paper's Figure 5.
///
/// A `Framework` owns the platform description ([`Device`]) and the HLS cost
/// model; [`synthesize`](Self::synthesize) then runs, for one stencil
/// program: feature extraction → baseline design-space exploration →
/// budget-constrained heterogeneous exploration → OpenCL code generation →
/// simulated execution of both winners.
#[derive(Debug, Clone, Default)]
pub struct Framework {
    /// The target board.
    pub device: Device,
    /// HLS operator/area coefficients.
    pub cost: CostModel,
    /// Code-generation knobs (the unroll hint is taken from the search
    /// config at generation time).
    pub codegen: CodegenOptions,
}

impl Framework {
    /// A framework targeting the paper's platform (ADM-PCIE-7V3 at 200 MHz).
    pub fn new() -> Framework {
        Framework::default()
    }

    /// Runs the full flow for `program` and returns the Table 3 row data.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::Opt`] when no design fits, and propagates
    /// language/geometry failures.
    pub fn synthesize(
        &self,
        program: &Program,
        search: &SearchConfig,
    ) -> Result<SynthesisReport, FrameworkError> {
        let pair = optimize_pair(program, &self.device, &self.cost, search)?;
        let baseline = self.evaluate(program, pair.baseline)?;
        let heterogeneous = self.evaluate(program, pair.heterogeneous)?;
        let partition = self.partition(program, &heterogeneous.point)?;
        let options = CodegenOptions {
            unroll: heterogeneous.point.hls.unroll,
            ..self.codegen.clone()
        };
        let code = generate(program, &partition, &options)?;
        Ok(SynthesisReport {
            program: program.name.clone(),
            baseline,
            heterogeneous,
            code,
        })
    }

    /// Simulates one explored design point.
    ///
    /// # Errors
    ///
    /// Propagates language/geometry failures.
    pub fn evaluate(
        &self,
        program: &Program,
        point: DesignPoint,
    ) -> Result<DesignEval, FrameworkError> {
        let partition = self.partition(program, &point)?;
        let features = StencilFeatures::extract(program)?;
        let sim = simulate(&features, &partition, &point.hls.schedule(), &self.device);
        Ok(DesignEval { point, sim })
    }

    /// Functionally validates a design point against the naive reference on
    /// the *actual program* (callers should pass a scaled-down program — the
    /// paper-scale inputs would take hours in a functional executor).
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::ValidationFailed`] on divergence.
    pub fn validate(
        &self,
        program: &Program,
        point: &DesignPoint,
        mode: stencilcl_exec::ExecMode,
    ) -> Result<(), FrameworkError> {
        let partition = self.partition(program, point)?;
        let opts = stencilcl_exec::ExecOptions::new();
        let diff = stencilcl_exec::verify_design(
            program,
            &partition,
            mode,
            &opts,
            stencilcl_server::default_init,
        )?;
        if diff != 0.0 {
            return Err(FrameworkError::ValidationFailed {
                mode: format!("{mode:?}"),
                max_diff: diff,
            });
        }
        Ok(())
    }

    fn partition(
        &self,
        program: &Program,
        point: &DesignPoint,
    ) -> Result<Partition, FrameworkError> {
        let features = StencilFeatures::extract(program)?;
        Ok(Partition::new(
            features.extent,
            &point.design,
            &features.growth,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_exec::ExecMode;
    use stencilcl_grid::Extent;
    use stencilcl_lang::programs;

    fn scaled_jacobi2d() -> Program {
        programs::jacobi_2d()
            .with_extent(Extent::new2(256, 256))
            .with_iterations(64)
    }

    fn cfg() -> SearchConfig {
        SearchConfig {
            parallelism: vec![2, 2],
            unroll: 4,
            unroll_candidates: vec![4],
            max_fused: 16,
            min_tile: 8,
        }
    }

    #[test]
    fn synthesize_produces_full_report() {
        let fw = Framework::new();
        let p = scaled_jacobi2d();
        let r = fw.synthesize(&p, &cfg()).unwrap();
        assert_eq!(r.program, "jacobi_2d");
        assert!(
            r.speedup_simulated() > 1.0,
            "speedup {}",
            r.speedup_simulated()
        );
        assert!(r
            .heterogeneous
            .point
            .hls
            .resources
            .within(&r.baseline.point.hls.resources));
        assert!(r.code.kernels.contains("__kernel"));
        assert!(
            r.baseline.model_error() < 0.5,
            "error {}",
            r.baseline.model_error()
        );
    }

    #[test]
    fn validate_passes_for_hand_picked_designs() {
        use stencilcl_grid::{Design, DesignKind};
        let fw = Framework::new();
        // Small enough for functional execution (resource budgets are
        // meaningless at toy scale, so designs are picked directly).
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(32, 32))
            .with_iterations(8);
        let f = StencilFeatures::extract(&p).unwrap();
        let eval = |design: Design| {
            stencilcl_opt::evaluate(&p, &f, design, &fw.device, &fw.cost, 2).unwrap()
        };
        let baseline =
            eval(Design::equal(DesignKind::Baseline, 4, vec![2, 2], vec![8, 8]).unwrap());
        let hetero = eval(Design::heterogeneous(4, vec![vec![6, 10], vec![10, 6]]).unwrap());
        for mode in ExecMode::ALL {
            fw.validate(&p, &baseline, mode).unwrap();
            fw.validate(&p, &hetero, mode).unwrap();
        }
    }
}
