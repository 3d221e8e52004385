//! Per-run evaluation engine selection: compiled bytecode by default, the
//! AST interpreter as an escape hatch and differential-test oracle.
//!
//! Every executor evaluates update statements through an [`Engine`], which
//! is either a [`CompiledProgram`] (the default — flat postfix tapes with
//! dense slot indices and linear-index neighbor deltas, see
//! `stencilcl_lang::CompiledProgram`) or the original tree-walking
//! [`Interpreter`]. Both are bit-exact: the compiled tape performs the same
//! `f64` operations in the same order per cell.
//!
//! The choice is made **once per run** on the calling thread — explicitly
//! via [`crate::ExecOptions::engine`], or defaulted from the process-wide
//! parsed-once config (`STENCILCL_INTERPRET`, any non-empty value other
//! than `0` selects the interpreter); worker threads receive the decision
//! as plain data, so no cross-thread environment reads occur mid-run.

use stencilcl_grid::Rect;
use stencilcl_lang::{CompiledProgram, GridState, Interpreter};
use stencilcl_telemetry::EnvConfig;

use crate::ExecError;

/// Compiles `program` with the run's lane width: `lanes` when the caller
/// passed one explicitly (options always beat the frozen env snapshot),
/// else `STENCILCL_LANES` (parsed once), else the vector default.
pub(crate) fn compile_with_env_lanes(
    program: &stencilcl_lang::Program,
    lanes: Option<usize>,
) -> Result<CompiledProgram, ExecError> {
    let lanes = lanes
        .or(EnvConfig::get().lanes)
        .unwrap_or(stencilcl_lang::LANE_WIDTH);
    Ok(CompiledProgram::compile(program)?.with_lanes(lanes))
}

/// One run's statement evaluator: compiled tape or AST interpreter.
#[derive(Debug)]
pub(crate) enum Engine<'p> {
    /// The default: flat bytecode kernels compiled once per (region, kernel).
    Compiled(&'p CompiledProgram),
    /// The oracle, selected by `STENCILCL_INTERPRET=1`.
    Interpreted(Interpreter<'p>),
}

impl<'p> Engine<'p> {
    /// Builds the evaluator `kind` asks for over one (region, kernel)'s
    /// local program / pre-compiled bytecode.
    pub fn build(
        kind: crate::EngineKind,
        local_program: &'p stencilcl_lang::Program,
        compiled: &'p CompiledProgram,
    ) -> Engine<'p> {
        match kind {
            crate::EngineKind::Compiled => Engine::Compiled(compiled),
            crate::EngineKind::Interpreted => Engine::Interpreted(Interpreter::new(local_program)),
        }
    }

    /// Applies statement `s` over `domain` with snapshot semantics.
    pub fn apply_statement(
        &self,
        state: &mut GridState,
        s: usize,
        domain: &Rect,
    ) -> Result<(), ExecError> {
        match self {
            Engine::Compiled(cp) => cp.apply_statement(state, s, domain)?,
            Engine::Interpreted(interp) => interp.apply_statement(state, s, domain)?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_lang::{parse, GridState};

    #[test]
    fn both_engine_modes_agree_bit_for_bit() {
        let p = parse(
            "stencil e { grid A[10][10] : f32; iterations 2;
             A[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }",
        )
        .unwrap();
        let init = |_: &str, pt: &stencilcl_grid::Point| {
            ((pt.coord(0) * 17 + pt.coord(1)) as f64 * 0.01).cos()
        };
        let cp = CompiledProgram::compile(&p).unwrap();
        let interp = Interpreter::new(&p);
        assert_eq!(cp.kernel(0).target(), &p.updates[0].target);
        assert_eq!(cp.statement_domain(0), interp.statement_domain(0));
        let compiled = Engine::Compiled(&cp);
        let interpreted = Engine::Interpreted(Interpreter::new(&p));
        let full = Rect::from_extent(&p.extent());
        let mut a = GridState::new(&p, init);
        let mut b = GridState::new(&p, init);
        for _ in 0..2 {
            compiled.apply_statement(&mut a, 0, &full).unwrap();
            interpreted.apply_statement(&mut b, 0, &full).unwrap();
        }
        assert_eq!(a, b);
    }
}
