use std::collections::BTreeMap;

use stencilcl_grid::{Grid, LaneHash, Point, Rect};

use crate::ast::{BinOp, Expr, Func, Program, UnaryOp};
use crate::LangError;

/// The values of all of a program's grids at some point in time — the
/// functional analogue of the accelerator's global memory. The default is
/// the empty state (no grids).
#[derive(Debug, Default, PartialEq)]
pub struct GridState {
    grids: BTreeMap<String, Grid<f64>>,
}

impl GridState {
    /// Creates a state by evaluating `init(grid_name, point)` everywhere.
    pub fn new(program: &Program, mut init: impl FnMut(&str, &Point) -> f64) -> Self {
        let grids = program
            .grids
            .iter()
            .map(|g| {
                (
                    g.name.clone(),
                    Grid::from_fn(g.extent, |p| init(&g.name, p)),
                )
            })
            .collect();
        GridState { grids }
    }

    /// Creates a state with every element of every grid set to `value`.
    /// Fills whole grids with no per-point work — this sits on the per-task
    /// window allocation path of the tiled executors, where even the
    /// odometer walk and per-point closure of [`GridState::new`] would cost
    /// more than the copy they precede.
    pub fn uniform(program: &Program, value: f64) -> Self {
        let grids = program
            .grids
            .iter()
            .map(|g| (g.name.clone(), Grid::filled(g.extent, value)))
            .collect();
        GridState { grids }
    }

    /// Reassembles a state from already-materialized grids (checkpoint
    /// restore).
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the grid set does not match the
    /// program's declarations (missing/extra names or wrong extents).
    pub fn from_grids(
        program: &Program,
        grids: std::collections::BTreeMap<String, Grid<f64>>,
    ) -> Result<Self, LangError> {
        if grids.len() != program.grids.len() {
            return Err(LangError::eval(format!(
                "grid set holds {} grids, program declares {}",
                grids.len(),
                program.grids.len()
            )));
        }
        for decl in &program.grids {
            match grids.get(&decl.name) {
                None => {
                    return Err(LangError::eval(format!(
                        "grid set is missing declared grid `{}`",
                        decl.name
                    )))
                }
                Some(g) if g.extent() != decl.extent => {
                    return Err(LangError::eval(format!(
                        "grid `{}` has extent {:?}, program declares {:?}",
                        decl.name,
                        g.extent(),
                        decl.extent
                    )))
                }
                Some(_) => {}
            }
        }
        Ok(GridState { grids })
    }

    /// Borrow of a grid by name.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the grid does not exist.
    pub fn grid(&self, name: &str) -> Result<&Grid<f64>, LangError> {
        self.grids
            .get(name)
            .ok_or_else(|| LangError::eval(format!("no grid named `{name}`")))
    }

    /// Mutable borrow of a grid by name.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the grid does not exist.
    pub fn grid_mut(&mut self, name: &str) -> Result<&mut Grid<f64>, LangError> {
        self.grids
            .get_mut(name)
            .ok_or_else(|| LangError::eval(format!("no grid named `{name}`")))
    }

    /// Names of all grids, sorted.
    pub fn grid_names(&self) -> impl Iterator<Item = &str> {
        self.grids.keys().map(String::as_str)
    }

    /// Maximum absolute element difference across all grids.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the two states hold different grids
    /// or grid shapes.
    pub fn max_abs_diff(&self, other: &GridState) -> Result<f64, LangError> {
        if self.grids.len() != other.grids.len() {
            return Err(LangError::eval("states hold different numbers of grids"));
        }
        let mut worst: f64 = 0.0;
        for (name, grid) in &self.grids {
            let theirs = other.grid(name)?;
            worst = worst.max(grid.max_abs_diff(theirs)?);
        }
        Ok(worst)
    }

    /// Fingerprint of the whole state: one [`LaneHash`] stream over, per
    /// grid in sorted name order, the name's byte length, its bytes
    /// (zero-padded to a word), the cell count, and every cell's `f64` bit
    /// pattern. Process- and mode-portable, so the CLI, the job service,
    /// and library callers can compare final states for bit-exactness by
    /// exchanging one `u64` instead of whole grids. It costs under 1 ns
    /// per cell, about what a copy of the state costs.
    pub fn digest(&self) -> u64 {
        let mut hash = LaneHash::new();
        for (name, grid) in &self.grids {
            hash.write_u64(name.len() as u64);
            hash.write_bytes(name.as_bytes());
            hash.write_u64(grid.as_slice().len() as u64);
            hash.write_f64s(grid.as_slice());
        }
        hash.finish()
    }
}

impl Clone for GridState {
    fn clone(&self) -> Self {
        GridState {
            grids: self.grids.clone(),
        }
    }

    /// Copies grid by grid into the existing allocations when both states
    /// hold the same grid names, so a reused checkpoint snapshot costs one
    /// copy of the cells and no allocation.
    fn clone_from(&mut self, source: &Self) {
        if self.grids.keys().ne(source.grids.keys()) {
            *self = source.clone();
            return;
        }
        for (mine, theirs) in self.grids.values_mut().zip(source.grids.values()) {
            mine.clone_from(theirs);
        }
    }
}

/// Evaluates stencil programs over [`GridState`]s.
///
/// The interpreter defines the semantics every accelerator design must
/// reproduce: per iteration, statements run in program order; each statement
/// reads the state left by the previous statement and commits all its writes
/// atomically (Jacobi-style double buffering per statement); a cell is
/// updated only when every access of the statement stays in bounds, so a
/// fixed boundary ring of the statement's halo width is left untouched.
///
/// # Example
///
/// ```
/// use stencilcl_lang::{parse, GridState, Interpreter};
///
/// let p = parse(
///     "stencil avg { grid A[8] : f32; iterations 3;
///      A[i] = 0.5 * (A[i-1] + A[i+1]); }",
/// )?;
/// let interp = Interpreter::new(&p);
/// let mut s = GridState::new(&p, |_, pt| pt.coord(0) as f64);
/// interp.run(&mut s, p.iterations)?;
/// // A linear ramp is a fixed point of the averaging stencil.
/// assert_eq!(*s.grid("A")?.get(&stencilcl_grid::Point::new1(3))?, 3.0);
/// # Ok::<(), stencilcl_lang::LangError>(())
/// ```
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    params: BTreeMap<&'p str, f64>,
    domains: Vec<Rect>,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter for `program`.
    ///
    /// # Panics
    ///
    /// Panics if `program` fails [`check`](crate::check); construct programs
    /// through [`parse`](crate::parse) or validate them first.
    pub fn new(program: &'p Program) -> Self {
        let features = crate::StencilFeatures::extract(program)
            .expect("Interpreter::new requires a checked program");
        let full = Rect::from_extent(&program.extent());
        let domains = features
            .statements
            .iter()
            .map(|s| {
                let (mut lo, mut hi) = s.growth.amounts(1);
                for v in lo.iter_mut().chain(hi.iter_mut()) {
                    *v = -*v;
                }
                full.expand(&lo, &hi)
            })
            .collect();
        let params = program
            .params
            .iter()
            .map(|p| (p.name.as_str(), p.value))
            .collect();
        Interpreter {
            program,
            params,
            domains,
        }
    }

    /// The program being interpreted.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The domain statement `si` may update: the grid shrunk by the
    /// statement's halo so every access stays in bounds.
    ///
    /// # Panics
    ///
    /// Panics if `si` is out of range.
    pub fn statement_domain(&self, si: usize) -> Rect {
        self.domains[si]
    }

    /// Applies statement `si` to every in-domain point, with snapshot
    /// semantics. `domain` is clipped to the statement's updatable interior.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid.
    ///
    /// # Panics
    ///
    /// Panics if `si` is out of range.
    pub fn apply_statement(
        &self,
        state: &mut GridState,
        si: usize,
        domain: &Rect,
    ) -> Result<(), LangError> {
        let stmt = &self.program.updates[si];
        let clipped = domain.intersect(&self.statement_domain(si))?;
        if clipped.is_empty() {
            return Ok(());
        }
        let mut values = Vec::with_capacity(clipped.volume() as usize);
        for p in clipped.iter() {
            values.push(self.eval(&stmt.rhs, state, &p)?);
        }
        let target = state.grid_mut(&stmt.target)?;
        for (p, v) in clipped.iter().zip(values) {
            target.set(&p, v)?;
        }
        Ok(())
    }

    /// Runs one full stencil iteration (all statements in order) over
    /// `domain`.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid.
    pub fn step(&self, state: &mut GridState, domain: &Rect) -> Result<(), LangError> {
        for si in 0..self.program.updates.len() {
            self.apply_statement(state, si, domain)?;
        }
        Ok(())
    }

    /// Runs `iterations` full-grid stencil iterations — the naive reference
    /// execution with a global synchronization after every iteration.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid.
    pub fn run(&self, state: &mut GridState, iterations: u64) -> Result<(), LangError> {
        let full = Rect::from_extent(&self.program.extent());
        for _ in 0..iterations {
            self.step(state, &full)?;
        }
        Ok(())
    }

    /// Evaluates `expr` at point `at` against the current state.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] for missing grids or out-of-bounds
    /// accesses (which indicate a caller domain bug).
    pub fn eval(&self, expr: &Expr, state: &GridState, at: &Point) -> Result<f64, LangError> {
        match expr {
            Expr::Number(v) => Ok(*v),
            Expr::Param(name) => self
                .params
                .get(name.as_str())
                .copied()
                .ok_or_else(|| LangError::eval(format!("unknown parameter `{name}`"))),
            Expr::Access { grid, offset } => {
                let p = at.checked_add(offset)?;
                Ok(*state.grid(grid)?.get(&p)?)
            }
            Expr::Unary(UnaryOp::Neg, e) => Ok(-self.eval(e, state, at)?),
            Expr::Binary(op, a, b) => {
                let (x, y) = (self.eval(a, state, at)?, self.eval(b, state, at)?);
                Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                })
            }
            Expr::Call(func, args) => {
                let vals: Vec<f64> = args
                    .iter()
                    .map(|a| self.eval(a, state, at))
                    .collect::<Result<_, _>>()?;
                Ok(match func {
                    Func::Min => vals[0].min(vals[1]),
                    Func::Max => vals[0].max(vals[1]),
                    Func::Abs => vals[0].abs(),
                    Func::Sqrt => vals[0].sqrt(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use stencilcl_grid::Extent;

    fn jacobi_1d_src(n: usize, h: u64) -> String {
        format!(
            "stencil j1 {{ grid A[{n}] : f32; iterations {h};
             A[i] = 0.25 * A[i-1] + 0.5 * A[i] + 0.25 * A[i+1]; }}"
        )
    }

    #[test]
    fn boundary_cells_fixed() {
        let p = parse(&jacobi_1d_src(8, 1)).unwrap();
        let interp = Interpreter::new(&p);
        let mut s = GridState::new(&p, |_, pt| if pt.coord(0) == 0 { 100.0 } else { 0.0 });
        interp.run(&mut s, 5).unwrap();
        // Cell 0 is on the boundary and must keep its value.
        assert_eq!(*s.grid("A").unwrap().get(&Point::new1(0)).unwrap(), 100.0);
    }

    #[test]
    fn diffusion_conserves_interior_smoothness() {
        let p = parse(&jacobi_1d_src(16, 4)).unwrap();
        let interp = Interpreter::new(&p);
        let mut s = GridState::new(&p, |_, pt| pt.coord(0) as f64);
        interp.run(&mut s, 4).unwrap();
        // A linear ramp is a fixed point.
        for i in 0..16 {
            assert_eq!(
                *s.grid("A").unwrap().get(&Point::new1(i)).unwrap(),
                i as f64
            );
        }
    }

    #[test]
    fn statement_domain_shrinks_by_halo() {
        let p = parse(
            "stencil a { grid A[10][10] : f32; iterations 1;
             A[i][j] = A[i-2][j] + A[i][j+1]; }",
        )
        .unwrap();
        let interp = Interpreter::new(&p);
        let d = interp.statement_domain(0);
        assert_eq!(d.lo(), Point::new2(2, 0));
        assert_eq!(d.hi(), Point::new2(10, 9));
    }

    #[test]
    fn statements_chain_within_iteration() {
        // B picks up A's already-updated value within the same iteration.
        let p = parse(
            "stencil c { grid A[4] : f32; grid B[4] : f32; iterations 1;
             A[i] = A[i] + 1.0;
             B[i] = A[i]; }",
        )
        .unwrap();
        let interp = Interpreter::new(&p);
        let mut s = GridState::uniform(&p, 0.0);
        interp.run(&mut s, 1).unwrap();
        assert_eq!(*s.grid("B").unwrap().get(&Point::new1(2)).unwrap(), 1.0);
    }

    #[test]
    fn snapshot_semantics_within_statement() {
        // A[i] = A[i-1] must read the OLD left neighbor, not the new one.
        let p = parse(
            "stencil s { grid A[5] : f32; iterations 1;
             A[i] = A[i-1] + A[i+1]; }",
        )
        .unwrap();
        let interp = Interpreter::new(&p);
        let mut s = GridState::new(&p, |_, pt| pt.coord(0) as f64);
        interp.run(&mut s, 1).unwrap();
        // A[1] = old A[0] + old A[2] = 0 + 2; A[2] = old A[1] + old A[3] = 1 + 3.
        assert_eq!(*s.grid("A").unwrap().get(&Point::new1(1)).unwrap(), 2.0);
        assert_eq!(*s.grid("A").unwrap().get(&Point::new1(2)).unwrap(), 4.0);
    }

    #[test]
    fn partial_domain_updates_only_inside() {
        let p = parse(&jacobi_1d_src(8, 1)).unwrap();
        let interp = Interpreter::new(&p);
        let mut s = GridState::uniform(&p, 1.0);
        s.grid_mut("A").unwrap().set(&Point::new1(4), 9.0).unwrap();
        let domain = Rect::new(Point::new1(0), Point::new1(4)).unwrap();
        interp.step(&mut s, &domain).unwrap();
        // Point 4 was outside the half-open domain; untouched.
        assert_eq!(*s.grid("A").unwrap().get(&Point::new1(4)).unwrap(), 9.0);
        // Point 2 was inside; neighbors were all 1.0, so unchanged value.
        assert_eq!(*s.grid("A").unwrap().get(&Point::new1(2)).unwrap(), 1.0);
        // Point 3 saw the 9.0 neighbor: 0.25*1 + 0.5*1 + 0.25*9.
        assert_eq!(
            *s.grid("A").unwrap().get(&Point::new1(3)).unwrap(),
            0.75 + 0.25 * 9.0
        );
    }

    #[test]
    fn uniform_state_is_fixed_point_of_averaging() {
        let p = parse(&jacobi_1d_src(12, 3)).unwrap();
        let interp = Interpreter::new(&p);
        let mut s = GridState::uniform(&p, 7.5);
        let before = s.clone();
        interp.run(&mut s, 3).unwrap();
        assert_eq!(s.max_abs_diff(&before).unwrap(), 0.0);
    }

    #[test]
    fn missing_grid_is_eval_error() {
        let p = parse(&jacobi_1d_src(8, 1)).unwrap();
        let s = GridState::uniform(&p, 0.0);
        assert!(s.grid("Z").is_err());
    }

    #[test]
    fn state_construction_covers_all_grids() {
        let p = parse(
            "stencil two { grid A[4] : f32; grid B[4] : f32 read_only; iterations 1;
             A[i] = A[i] + B[i]; }",
        )
        .unwrap();
        let s = GridState::new(&p, |name, _| if name == "B" { 2.0 } else { 0.0 });
        assert_eq!(s.grid_names().count(), 2);
        assert_eq!(*s.grid("B").unwrap().get(&Point::new1(0)).unwrap(), 2.0);
        let _ = Extent::new1(4);
    }
}
