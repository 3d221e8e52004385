use stencilcl_lang::{CompiledProgram, GridState, Program};
use stencilcl_telemetry::{Disabled, TraceSink};

use crate::integrity::{scan_state, RunLimits};
use crate::options::ExecOptions;
use crate::pool::compile_with_lanes;
use crate::ExecError;

/// Runs the naive reference execution: `program.iterations` full-grid stencil
/// iterations with a global synchronization after each one — the semantics of
/// Figure 3's pseudo code, and the ground truth every accelerator design is
/// checked against.
///
/// The program is lowered to flat bytecode kernels once and executed with
/// row sweeps that evaluate [`ExecOptions::lanes`] cells per tape pass. The
/// pipes and workers the other executors have do not exist here, so
/// [`ExecOptions::integrity`] is moot; the run deadline and the health
/// watchdog apply. With either guard armed the loop runs one iteration at a
/// time — checking the deadline before each iteration and scanning the
/// grids after each — and a health abort rolls `state` back to the last
/// healthy iteration.
///
/// # Errors
///
/// Returns [`ExecError::Lang`] if the state lacks one of the program's
/// grids, plus [`ExecError::DeadlineExceeded`] and
/// [`ExecError::NumericDivergence`] when the corresponding guard trips.
///
/// # Example
///
/// ```
/// use stencilcl_exec::{run_reference_opts, ExecOptions};
/// use stencilcl_grid::Extent;
/// use stencilcl_lang::{programs, GridState};
///
/// let p = programs::jacobi_1d().with_extent(Extent::new1(32)).with_iterations(4);
/// let mut s = GridState::uniform(&p, 1.0);
/// run_reference_opts(&p, &mut s, &ExecOptions::new())?;
/// # Ok::<(), stencilcl_exec::ExecError>(())
/// ```
pub fn run_reference_opts(
    program: &Program,
    state: &mut GridState,
    opts: &ExecOptions,
) -> Result<(), ExecError> {
    let limits = opts.limits();
    let kernels = compile_with_lanes(program, opts.lanes)?;
    if !limits.any_active() {
        // Unguarded fast path: hand the whole run to the kernels at once.
        kernels.run(state, program.iterations)?;
        return Ok(());
    }
    match &opts.trace {
        Some(rec) => guarded_reference(program, state, &kernels, limits, rec),
        None => guarded_reference(program, state, &kernels, limits, &Disabled),
    }
}

/// The guarded per-iteration loop behind [`run_reference_opts`]: deadline
/// check before, health scan after, every iteration. The reference grid is
/// updated in place (no double buffer), so when the watchdog is armed the
/// previous iteration is kept as an explicit clone — this is the oracle
/// path, correctness over speed.
fn guarded_reference<S: TraceSink>(
    program: &Program,
    state: &mut GridState,
    kernels: &CompiledProgram,
    limits: RunLimits,
    sink: &S,
) -> Result<(), ExecError> {
    let updated: Vec<String> = program
        .updated_grids()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut checkpoint = limits.health.enabled().then(|| state.clone());
    for it in 0..program.iterations {
        limits.check_deadline(it)?;
        kernels.run(state, 1)?;
        if limits.health.enabled() {
            if let Err(e) = scan_state(&limits.health, state, &updated, &[], it, sink) {
                if let Some(healthy) = checkpoint {
                    *state = healthy;
                }
                return Err(e);
            }
            checkpoint = Some(state.clone());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_grid::{Extent, Point};
    use stencilcl_lang::programs;

    #[test]
    fn reference_runs_all_iterations() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(16))
            .with_iterations(2);
        let mut s = GridState::new(&p, |_, pt| if pt.coord(0) == 8 { 1.0 } else { 0.0 });
        run_reference_opts(&p, &mut s, &ExecOptions::new()).unwrap();
        // After two radius-1 iterations the spike has spread two cells.
        let a = s.grid("A").unwrap();
        assert!(*a.get(&Point::new1(6)).unwrap() > 0.0);
        assert_eq!(*a.get(&Point::new1(5)).unwrap(), 0.0);
    }

    #[test]
    fn guarded_reference_is_bit_exact_with_the_fast_path() {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(16, 16))
            .with_iterations(5);
        let init = |_: &str, pt: &Point| (pt.coord(0) * 17 + pt.coord(1)) as f64 * 0.01;
        let mut fast = GridState::new(&p, init);
        run_reference_opts(&p, &mut fast, &ExecOptions::new()).unwrap();
        let mut guarded = GridState::new(&p, init);
        let opts = ExecOptions::new()
            .policy(crate::ExecPolicy {
                deadline: Some(std::time::Duration::from_secs(3600)),
                ..crate::ExecPolicy::default()
            })
            .health(crate::HealthPolicy::bounded(1e6));
        run_reference_opts(&p, &mut guarded, &opts).unwrap();
        assert_eq!(fast.max_abs_diff(&guarded).unwrap(), 0.0);
    }

    #[test]
    fn seeded_nan_aborts_with_the_iteration_and_a_healthy_state() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(16))
            .with_iterations(4);
        // A NaN seed diverges immediately: iteration 1 spreads it.
        let mut s = GridState::new(&p, |_, pt| if pt.coord(0) == 8 { f64::NAN } else { 0.0 });
        let opts = ExecOptions::new().health(crate::HealthPolicy::non_finite());
        let err = run_reference_opts(&p, &mut s, &opts).unwrap_err();
        assert!(matches!(
            err,
            ExecError::NumericDivergence { iteration: 0, .. }
        ));
        // The rolled-back state is the (still NaN-seeded) initial grid —
        // i.e. zero completed iterations, matching the error.
        assert!(s.grid("A").unwrap().as_slice().iter().any(|v| v.is_nan()));
    }

    #[test]
    fn expired_deadline_stops_before_the_first_iteration() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(16))
            .with_iterations(4);
        let mut s = GridState::uniform(&p, 1.0);
        let opts = ExecOptions::new().policy(crate::ExecPolicy {
            deadline: Some(std::time::Duration::ZERO),
            ..crate::ExecPolicy::default()
        });
        let err = run_reference_opts(&p, &mut s, &opts).unwrap_err();
        assert_eq!(err, ExecError::DeadlineExceeded { completed: 0 });
    }
}
