use stencilcl_grid::{Partition, Point};
use stencilcl_lang::{GridState, Program};

use crate::{run_pipe_shared_opts, run_reference_opts, run_threaded_opts, ExecError, ExecOptions};

/// Which executor to validate. Both run every design kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The tiled step on one worker, on the calling thread.
    PipeShared,
    /// The tiled step on the default worker count
    /// (`min(cores, kernels)`, one for a small sweep; real channels between
    /// workers).
    Threaded,
}

impl ExecMode {
    /// All executor modes.
    pub const ALL: [ExecMode; 2] = [ExecMode::PipeShared, ExecMode::Threaded];
}

/// Runs `mode` under `partition` and the naive reference side by side from
/// the same `init` state, both under `opts`, and returns the maximum absolute difference across
/// all grids — `0.0` for a correct design (all executors evaluate each cell's
/// update with the same operation order, so agreement is exact, not just
/// within tolerance).
///
/// # Errors
///
/// Propagates executor errors (a diagonal stencil under a pipe design,
/// geometry, evaluation, ...).
///
/// # Example
///
/// ```
/// use stencilcl_exec::{verify_design, ExecMode, ExecOptions};
/// use stencilcl_grid::{Design, DesignKind, Extent, Partition};
/// use stencilcl_lang::{programs, StencilFeatures};
///
/// let p = programs::jacobi_1d().with_extent(Extent::new1(32)).with_iterations(4);
/// let f = StencilFeatures::extract(&p)?;
/// let d = Design::equal(DesignKind::Baseline, 2, vec![2], vec![8])?;
/// let partition = Partition::new(p.extent(), &d, &f.growth)?;
/// let opts = ExecOptions::new();
/// let diff = verify_design(&p, &partition, ExecMode::PipeShared, &opts, |_, pt| {
///     pt.coord(0) as f64
/// })?;
/// assert_eq!(diff, 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn verify_design(
    program: &Program,
    partition: &Partition,
    mode: ExecMode,
    opts: &ExecOptions,
    mut init: impl FnMut(&str, &Point) -> f64,
) -> Result<f64, ExecError> {
    let mut expect = GridState::new(program, &mut init);
    run_reference_opts(program, &mut expect, opts)?;
    let mut got = GridState::new(program, &mut init);
    match mode {
        ExecMode::PipeShared => run_pipe_shared_opts(program, partition, &mut got, opts)?,
        ExecMode::Threaded => run_threaded_opts(program, partition, &mut got, opts)?,
    }
    Ok(expect.max_abs_diff(&got)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_grid::{Design, DesignKind, Extent};
    use stencilcl_lang::programs;

    #[test]
    fn verify_covers_all_modes() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(16, 16))
            .with_iterations(4);
        let f = stencilcl_lang::StencilFeatures::extract(&p).unwrap();
        for kind in [DesignKind::Baseline, DesignKind::PipeShared] {
            let d = Design::equal(kind, 2, vec![2, 2], vec![4, 4]).unwrap();
            let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
            for mode in ExecMode::ALL {
                let diff = verify_design(&p, &partition, mode, &ExecOptions::new(), |_, pt| {
                    (pt.coord(0) + pt.coord(1)) as f64
                })
                .unwrap();
                assert_eq!(diff, 0.0, "{kind} {mode:?}");
            }
        }
    }
}
