//! Bytecode compilation of stencil update statements.
//!
//! [`Interpreter::eval`](crate::Interpreter::eval) walks the update AST per
//! cell, doing a `BTreeMap` grid lookup and heap `Point` arithmetic for every
//! neighbor access. That per-cell overhead is pure host-side interpreter
//! cost: the paper's performance model (Section 4, Eqs. 5–7) assumes each
//! tile kernel sustains one cell per `II` cycles with an unroll factor `U`,
//! which only holds when the update is lowered to a fixed datapath — exactly
//! what HLS does when it compiles the OpenCL kernel.
//!
//! [`CompiledProgram`] is that lowering for the functional executors: each
//! statement's expression becomes a flat postfix [`Op`] tape in which
//!
//! * grid names are resolved to dense slot indices over the sorted grid list
//!   (matching [`GridState`]'s `BTreeMap` order),
//! * neighbor offsets are pre-resolved to **linear-index deltas** for one
//!   fixed [`Extent`] (row-major strides), so a neighbor access is a single
//!   slice index `data[idx + delta]`,
//! * parameters are resolved to constants and constant subexpressions are
//!   folded at compile time — with the *same* `f64` operations evaluation
//!   would perform, so folding is bit-exact.
//!
//! Execution sweeps each statement's clipped domain row by row (last axis
//! contiguous), evaluating the tape on a reusable value stack with no
//! per-cell `Point` construction or bounds checks beyond slice indexing that
//! is proven in range once per row.
//!
//! # Row-chunk tape walk
//!
//! The row sweep is *vectorized across cells*: a row is walked in chunks of
//! `min(lanes, cells left)` contiguous cells, and one tape pass evaluates a
//! whole chunk over a lane-major stack of `stack_need × lanes` values
//! ([`LANE_WIDTH`] = 256 cells per pass by default; configure with
//! [`CompiledProgram::with_lanes`], `1` walks one cell per pass). The last
//! chunk of a row is simply shorter, so there is no separate tail walk.
//! Each op applies the *same* `f64` operation independently per lane — a
//! `Load` becomes one contiguous slice copy `views[slot][idx+delta ..][..n]`
//! — so every cell still sees exactly the scalar op sequence and
//! bit-exactness is preserved *by construction*: only the loop over cells is
//! widened, never the arithmetic within one cell. With hundreds of cells per
//! pass the per-op dispatch cost is amortised away, and the equal-length
//! slice loops autovectorize without `unsafe`.
//!
//! # Statement fusion
//!
//! Consecutive statements that share a statement domain, write pairwise
//! distinct targets, and never read an earlier group member's target are
//! fused into one row pass ([`CompiledProgram::fused_groups`]): the row's
//! input cells are hot in cache for every member tape instead of being
//! streamed once per statement. Because member evaluations read only the
//! pre-statement snapshot (all writes are buffered until the sweep ends,
//! exactly like the unfused path) and no member reads another's target,
//! fused results are bit-identical to running the statements sequentially.
//!
//! The AST interpreter remains the semantic oracle: `CompiledProgram`
//! reproduces its results **bit for bit** (same operation order per cell),
//! which the differential proptests in `stencilcl-lang` and `stencilcl-exec`
//! enforce.

use stencilcl_grid::{Extent, Rect};

use crate::ast::{BinOp, Expr, Func, Program, UnaryOp};
use crate::interp::GridState;
use crate::LangError;

/// Default (and maximum) number of cells per tape pass of the row-chunk
/// walk: one tape pass evaluates up to this many contiguous row cells.
pub const LANE_WIDTH: usize = 256;

/// Reusable evaluation scratch for the row sweeps: the lane-major stack of
/// the row-chunk walk (`stack_need × n` values for an `n`-cell chunk,
/// level-major). One instance can be shared across statements and rows;
/// the buffer only ever grows.
#[derive(Debug, Default)]
pub struct EvalScratch {
    lanes: Vec<f64>,
}

/// Reusable scratch for repeated [`CompiledProgram::apply_statement_with`]
/// / [`CompiledProgram::apply_fused_with`] calls: the evaluation scratch
/// plus the per-statement write buffers, allocated once and reused across
/// statements, fused iterations, and tiles. The tile executors call the
/// apply entry points thousands of times per run; threading one
/// `FusedScratch` through keeps the allocator out of that loop.
#[derive(Debug, Default)]
pub struct FusedScratch {
    eval: EvalScratch,
    buffers: Vec<Vec<f64>>,
}

impl FusedScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> FusedScratch {
        FusedScratch::default()
    }

    /// The first `n` value buffers, cleared, growing the pool on demand.
    fn cleared(&mut self, n: usize) -> &mut [Vec<f64>] {
        if self.buffers.len() < n {
            self.buffers.resize_with(n, Vec::new);
        }
        for buf in &mut self.buffers[..n] {
            buf.clear();
        }
        &mut self.buffers[..n]
    }
}

/// One postfix bytecode operation of a compiled update expression.
///
/// The tape is evaluated left to right over a value stack; the stack effect
/// of each op matches the interpreter's evaluation order exactly (binary
/// operands are pushed left then right).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push a literal (folded constants and resolved parameters included).
    Const(f64),
    /// Push `grids[slot][idx + delta]`, where `idx` is the linear index of
    /// the cell being computed and `delta` encodes the neighbor offset for
    /// the compiled extent.
    Load {
        /// Dense index into the sorted grid list.
        slot: u32,
        /// Row-major linear-index offset of the access.
        delta: i64,
    },
    /// Pop `b`, pop `a`, push `a + b`.
    Add,
    /// Pop `b`, pop `a`, push `a - b`.
    Sub,
    /// Pop `b`, pop `a`, push `a * b`.
    Mul,
    /// Pop `b`, pop `a`, push `a / b`.
    Div,
    /// Negate the top of stack.
    Neg,
    /// Pop `b`, pop `a`, push `a.min(b)`.
    Min,
    /// Pop `b`, pop `a`, push `a.max(b)`.
    Max,
    /// Replace the top of stack with its absolute value.
    Abs,
    /// Replace the top of stack with its square root.
    Sqrt,
}

/// One update statement lowered to a flat op tape.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Name of the grid the statement writes.
    target: String,
    /// Slot of the target grid in the sorted grid list.
    target_slot: u32,
    /// The postfix tape; evaluating it leaves exactly one value.
    tape: Box<[Op]>,
    /// Maximum stack depth the tape reaches.
    stack_need: usize,
    /// Most negative `Load` delta of the tape (0 when the tape never
    /// loads): the farthest a cell's accesses reach *before* its own
    /// linear index.
    min_delta: i64,
    /// Most positive `Load` delta of the tape (0 when the tape never
    /// loads).
    max_delta: i64,
}

impl CompiledKernel {
    /// Name of the grid this kernel writes.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Slot of the target grid in the compiled program's grid list.
    pub fn target_slot(&self) -> usize {
        self.target_slot as usize
    }

    /// The kernel's postfix op tape.
    pub fn tape(&self) -> &[Op] {
        &self.tape
    }

    /// Maximum value-stack depth evaluation reaches.
    pub fn stack_need(&self) -> usize {
        self.stack_need
    }

    /// The most negative and most positive `Load` deltas of the tape
    /// (`(0, 0)` when the tape never loads). Every access of linear cell
    /// `idx` lies in `idx + min_delta ..= idx + max_delta`.
    pub fn delta_bounds(&self) -> (i64, i64) {
        (self.min_delta, self.max_delta)
    }
}

/// A whole stencil program compiled to bytecode kernels for one fixed grid
/// extent — the functional analogue of the per-tile kernel specialization
/// the framework's code generator performs when it emits one OpenCL kernel
/// per tile.
///
/// # Example
///
/// ```
/// use stencilcl_lang::{parse, CompiledProgram, GridState, Interpreter};
///
/// let p = parse(
///     "stencil avg { grid A[8] : f32; iterations 3;
///      A[i] = 0.5 * (A[i-1] + A[i+1]); }",
/// )?;
/// let compiled = CompiledProgram::compile(&p)?;
/// let init = |_: &str, pt: &stencilcl_grid::Point| pt.coord(0) as f64;
/// let mut fast = GridState::new(&p, init);
/// compiled.run(&mut fast, p.iterations)?;
/// // Bit-exact with the AST interpreter.
/// let mut slow = GridState::new(&p, init);
/// Interpreter::new(&p).run(&mut slow, p.iterations)?;
/// assert_eq!(fast, slow);
/// # Ok::<(), stencilcl_lang::LangError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    extent: Extent,
    /// Sorted grid names; slot `i` of a view vector is `slots[i]`.
    slots: Vec<String>,
    kernels: Vec<CompiledKernel>,
    /// Per-statement updatable interior (grid shrunk by the statement's
    /// halo), identical to the interpreter's statement domains.
    domains: Vec<Rect>,
    /// Maximal runs of consecutive statements legal to fuse into one row
    /// pass (singleton groups when fusion does not apply).
    fused_groups: Vec<Vec<usize>>,
    /// Total cell count of the compiled extent; linear indices are valid
    /// in `0..cells`.
    cells: usize,
    lanes: usize,
}

/// A lowered expression fragment: its ops, plus the folded value when the
/// whole fragment is a compile-time constant.
struct Frag {
    ops: Vec<Op>,
    konst: Option<f64>,
}

impl Frag {
    fn konst(v: f64) -> Frag {
        Frag {
            ops: vec![Op::Const(v)],
            konst: Some(v),
        }
    }
}

impl CompiledProgram {
    /// Compiles every update statement of `program` for its declared extent.
    ///
    /// # Errors
    ///
    /// Returns [`LangError`] when the program references unknown grids or
    /// parameters (programs built via [`parse`](crate::parse) never do).
    pub fn compile(program: &Program) -> Result<Self, LangError> {
        let features = crate::StencilFeatures::extract(program)?;
        let extent = program.extent();
        let mut slots: Vec<String> = program.grids.iter().map(|g| g.name.clone()).collect();
        slots.sort();
        // Row-major strides of the compiled extent, last axis fastest.
        let mut strides = vec![0i64; extent.dim()];
        let mut acc = 1i64;
        for d in (0..extent.dim()).rev() {
            strides[d] = acc;
            acc *= extent.len(d) as i64;
        }
        let params: std::collections::BTreeMap<&str, f64> = program
            .params
            .iter()
            .map(|p| (p.name.as_str(), p.value))
            .collect();
        let kernels = program
            .updates
            .iter()
            .map(|stmt| {
                let frag = lower(&stmt.rhs, &slots, &params, &strides)?;
                let target_slot = slot_of(&slots, &stmt.target)? as u32;
                let stack_need = stack_need(&frag.ops);
                let (mut min_delta, mut max_delta) = (0i64, 0i64);
                for op in &frag.ops {
                    if let Op::Load { delta, .. } = op {
                        min_delta = min_delta.min(*delta);
                        max_delta = max_delta.max(*delta);
                    }
                }
                Ok(CompiledKernel {
                    target: stmt.target.clone(),
                    target_slot,
                    tape: frag.ops.into_boxed_slice(),
                    stack_need,
                    min_delta,
                    max_delta,
                })
            })
            .collect::<Result<Vec<_>, LangError>>()?;
        // Statement domains, computed exactly like Interpreter::new.
        let full = Rect::from_extent(&extent);
        let domains: Vec<Rect> = features
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
        let fused_groups = fuse_statements(&kernels, &domains);
        let cells = (0..extent.dim()).map(|d| extent.len(d)).product();
        Ok(CompiledProgram {
            extent,
            slots,
            kernels,
            domains,
            fused_groups,
            cells,
            lanes: LANE_WIDTH,
        })
    }

    /// Returns the program with a tape walk of `lanes` cells per pass: a
    /// row is walked in chunks of exactly `min(lanes, cells left)` cells.
    /// Values are identical for every width (lanes evaluate the scalar op
    /// sequence independently per cell); `1` walks one cell per pass, zero
    /// is treated as one, and widths are capped at [`LANE_WIDTH`].
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.clamp(1, LANE_WIDTH);
        self
    }

    /// The configured number of cells per tape pass.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Maximal runs of consecutive statements fused into one row pass.
    /// Groups partition `0..statement_count()` in order; a singleton group
    /// means the statement runs alone.
    pub fn fused_groups(&self) -> &[Vec<usize>] {
        &self.fused_groups
    }

    /// The extent the kernels were compiled for.
    pub fn extent(&self) -> Extent {
        self.extent
    }

    /// Number of compiled update statements.
    pub fn statement_count(&self) -> usize {
        self.kernels.len()
    }

    /// The sorted grid names backing the dense slot indices: `Op::Load`'s
    /// `slot` field `i` reads the grid named `slots()[i]`.
    pub fn slots(&self) -> &[String] {
        &self.slots
    }

    /// The compiled kernel of statement `si`.
    ///
    /// # Panics
    ///
    /// Panics if `si` is out of range.
    pub fn kernel(&self, si: usize) -> &CompiledKernel {
        &self.kernels[si]
    }

    /// The domain statement `si` may update — identical to
    /// [`Interpreter::statement_domain`](crate::Interpreter::statement_domain).
    ///
    /// # Panics
    ///
    /// Panics if `si` is out of range.
    pub fn statement_domain(&self, si: usize) -> Rect {
        self.domains[si]
    }

    /// Borrows every grid of `state` as a dense slice, in slot order.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when `state` lacks a grid or holds one
    /// with a different extent than the program was compiled for (linear
    /// deltas would silently read the wrong cells).
    pub fn views<'a>(&self, state: &'a GridState) -> Result<Vec<&'a [f64]>, LangError> {
        self.slots
            .iter()
            .map(|name| {
                let grid = state.grid(name)?;
                if grid.extent() != self.extent {
                    return Err(LangError::eval(format!(
                        "grid `{name}` has extent {} but the program was compiled for {}",
                        grid.extent(),
                        self.extent
                    )));
                }
                Ok(grid.as_slice())
            })
            .collect()
    }

    /// Evaluates statement `si`'s tape at linear cell index `idx`.
    ///
    /// `views` must come from [`Self::views`] and every access of the cell
    /// must be in bounds (guaranteed when `idx` lies inside
    /// [`Self::statement_domain`]); `stack` is reused scratch and is grown
    /// as needed.
    ///
    /// # Panics
    ///
    /// Panics if `si` is out of range or an access leaves the grid (a caller
    /// domain bug, like the interpreter's out-of-bounds eval error).
    pub fn eval_idx(&self, si: usize, views: &[&[f64]], idx: usize, stack: &mut Vec<f64>) -> f64 {
        let kernel = &self.kernels[si];
        if stack.len() < kernel.stack_need {
            stack.resize(kernel.stack_need, 0.0);
        }
        eval_tape(&kernel.tape, views, idx, stack)
    }

    /// Applies statement `si` to every point of `domain` (clipped to the
    /// statement's updatable interior) with snapshot semantics — the
    /// compiled equivalent of
    /// [`Interpreter::apply_statement`](crate::Interpreter::apply_statement),
    /// bit-exact with it.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid or
    /// holds mismatched extents.
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
        self.apply_statement_with(state, si, domain, &mut FusedScratch::default())
    }

    /// [`Self::apply_statement`] with caller-owned scratch: the value
    /// buffer and evaluation stacks live in `scratch` and are reused
    /// across calls, so a tight apply loop performs no per-call heap
    /// allocation after warm-up.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid
    /// or holds mismatched extents.
    ///
    /// # Panics
    ///
    /// Panics if `si` is out of range.
    pub fn apply_statement_with(
        &self,
        state: &mut GridState,
        si: usize,
        domain: &Rect,
        scratch: &mut FusedScratch,
    ) -> Result<(), LangError> {
        let clipped = domain.intersect(&self.domains[si])?;
        if clipped.is_empty() {
            return Ok(());
        }
        let kernel = &self.kernels[si];
        scratch.cleared(1);
        let FusedScratch { eval, buffers } = scratch;
        let values = &mut buffers[0];
        values.reserve(clipped.volume() as usize);
        {
            let views = self.views(state)?;
            let row_len = clipped.len(clipped.dim() - 1) as usize;
            for start in clipped.row_starts() {
                let base = self.extent.linearize(&start)?;
                self.check_row(kernel, base, row_len)?;
                self.eval_row(kernel, &views, base, row_len, eval, values);
            }
        }
        let target = state.grid_mut(&kernel.target)?;
        target.write_window(&clipped, values)?;
        Ok(())
    }

    /// Applies a fused statement group over `domain` in one row pass: all
    /// member tapes are evaluated per row (the row's inputs stay hot in
    /// cache), every write buffered until the sweep ends. Bit-identical to
    /// applying the members sequentially — fusion legality (shared domain,
    /// distinct targets, no member reads an earlier member's target)
    /// guarantees the sequential run would see exactly the same snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid
    /// or holds mismatched extents.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty or any member index is out of range.
    pub fn apply_fused(
        &self,
        state: &mut GridState,
        group: &[usize],
        domain: &Rect,
    ) -> Result<(), LangError> {
        self.apply_fused_with(state, group, domain, &mut FusedScratch::default())
    }

    /// [`Self::apply_fused`] with caller-owned scratch: the per-member
    /// write buffers and evaluation stacks live in `scratch` and are
    /// reused across calls (see [`FusedScratch`]).
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid
    /// or holds mismatched extents.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty or any member index is out of range.
    pub fn apply_fused_with(
        &self,
        state: &mut GridState,
        group: &[usize],
        domain: &Rect,
        scratch: &mut FusedScratch,
    ) -> Result<(), LangError> {
        if group.len() == 1 {
            return self.apply_statement_with(state, group[0], domain, scratch);
        }
        let clipped = domain.intersect(&self.domains[group[0]])?;
        if clipped.is_empty() {
            return Ok(());
        }
        let volume = clipped.volume() as usize;
        scratch.cleared(group.len());
        let FusedScratch { eval, buffers } = scratch;
        let buffers = &mut buffers[..group.len()];
        for buf in buffers.iter_mut() {
            buf.reserve(volume);
        }
        {
            let views = self.views(state)?;
            let row_len = clipped.len(clipped.dim() - 1) as usize;
            for start in clipped.row_starts() {
                let base = self.extent.linearize(&start)?;
                for (buf, &si) in buffers.iter_mut().zip(group) {
                    let kernel = &self.kernels[si];
                    self.check_row(kernel, base, row_len)?;
                    self.eval_row(kernel, &views, base, row_len, eval, buf);
                }
            }
        }
        for (buf, &si) in buffers.iter().zip(group) {
            let target = state.grid_mut(&self.kernels[si].target)?;
            target.write_window(&clipped, buf)?;
        }
        Ok(())
    }

    /// Evaluates statement `si` over one contiguous row of `row_len` cells
    /// starting at linear index `base`, appending results to `values` —
    /// the checked public entry to the (vectorized) row sweep for callers
    /// that manage their own domains.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when `views` does not match the
    /// compiled slot list or the row's accesses would leave the grid
    /// (checked with signed offset arithmetic: a negative neighbor delta
    /// near the origin fails cleanly instead of wrapping).
    ///
    /// # Panics
    ///
    /// Panics if `si` is out of range.
    pub fn eval_row_into(
        &self,
        si: usize,
        views: &[&[f64]],
        base: usize,
        row_len: usize,
        scratch: &mut EvalScratch,
        values: &mut Vec<f64>,
    ) -> Result<(), LangError> {
        if views.len() != self.slots.len() {
            return Err(LangError::eval(format!(
                "expected {} grid views, got {}",
                self.slots.len(),
                views.len()
            )));
        }
        let kernel = &self.kernels[si];
        self.check_row(kernel, base, row_len)?;
        self.eval_row(kernel, views, base, row_len, scratch, values);
        Ok(())
    }

    /// Verifies with signed arithmetic that every access of the row
    /// `[base, base + row_len)` stays inside the compiled extent; raw
    /// `idx + delta → usize` casts downstream cannot wrap once this holds.
    fn check_row(
        &self,
        kernel: &CompiledKernel,
        base: usize,
        row_len: usize,
    ) -> Result<(), LangError> {
        if row_len == 0 {
            return Ok(());
        }
        let first = (base as i64).checked_add(kernel.min_delta);
        let last = (base as i64)
            .checked_add(row_len as i64 - 1)
            .and_then(|l| l.checked_add(kernel.max_delta));
        match (first, last) {
            (Some(lo), Some(hi)) if lo >= 0 && hi < self.cells as i64 => Ok(()),
            _ => Err(LangError::eval(format!(
                "row [{base}, {}) of `{}` reaches linear indices outside the \
                 grid (deltas {}..={}, {} cells)",
                base + row_len,
                kernel.target,
                kernel.min_delta,
                kernel.max_delta,
                self.cells
            ))),
        }
    }

    /// Evaluates one contiguous row of `row_len` cells starting at linear
    /// index `base`, appending the results to `values`: one tape pass per
    /// chunk of `min(lanes, cells left)` cells. Per-cell arithmetic is
    /// identical for every chunk length, so results do not depend on the
    /// width. Callers must have validated the row via [`Self::check_row`].
    fn eval_row(
        &self,
        kernel: &CompiledKernel,
        views: &[&[f64]],
        base: usize,
        row_len: usize,
        scratch: &mut EvalScratch,
        values: &mut Vec<f64>,
    ) {
        let need = kernel.stack_need * self.lanes.min(row_len);
        if scratch.lanes.len() < need {
            scratch.lanes.resize(need, 0.0);
        }
        let mut j = 0usize;
        while j < row_len {
            let n = self.lanes.min(row_len - j);
            eval_tape_chunk(&kernel.tape, views, base + j, n, &mut scratch.lanes, values);
            j += n;
        }
    }

    /// Runs one full stencil iteration (all statement groups in order)
    /// over `domain`.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid.
    pub fn step(&self, state: &mut GridState, domain: &Rect) -> Result<(), LangError> {
        for group in &self.fused_groups {
            self.apply_fused(state, group, domain)?;
        }
        Ok(())
    }

    /// Runs `iterations` full-grid stencil iterations — the compiled
    /// counterpart of [`Interpreter::run`](crate::Interpreter::run).
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid.
    pub fn run(&self, state: &mut GridState, iterations: u64) -> Result<(), LangError> {
        let full = Rect::from_extent(&self.extent);
        for _ in 0..iterations {
            self.step(state, &full)?;
        }
        Ok(())
    }
}

/// Evaluates a tape for the `n` contiguous cells `idx..idx + n` in one pass
/// over a lane-major stack (`level * n + lane`), appending the `n` results
/// to `values`. Lane `l` performs exactly the `f64` op sequence the scalar
/// walk performs at `idx + l` — ops never mix lanes — so the results are
/// bit-identical to `n` scalar evaluations; only the cell loop is widened.
/// The equal-length slice loops autovectorize.
#[inline]
fn eval_tape_chunk(
    tape: &[Op],
    views: &[&[f64]],
    idx: usize,
    n: usize,
    stack: &mut [f64],
    values: &mut Vec<f64>,
) {
    // Lane-wise binary op: pop `b`, combine into `a`.
    macro_rules! bin {
        ($sp:ident, $f:expr) => {{
            $sp -= 1;
            let (lo, hi) = stack.split_at_mut($sp * n);
            for (a, b) in lo[($sp - 1) * n..].iter_mut().zip(&hi[..n]) {
                *a = $f(*a, *b);
            }
        }};
    }
    // Lane-wise unary op on the top of stack.
    macro_rules! un {
        ($sp:ident, $f:expr) => {{
            for t in &mut stack[($sp - 1) * n..$sp * n] {
                *t = $f(*t);
            }
        }};
    }
    let mut sp = 0usize;
    for op in tape {
        match *op {
            Op::Const(v) => {
                stack[sp * n..(sp + 1) * n].fill(v);
                sp += 1;
            }
            Op::Load { slot, delta } => {
                // The caller validated the whole row with signed
                // arithmetic (`check_row`), so this cast cannot wrap and
                // all `n` lanes are in bounds.
                let at = (idx as i64 + delta) as usize;
                stack[sp * n..(sp + 1) * n].copy_from_slice(&views[slot as usize][at..at + n]);
                sp += 1;
            }
            Op::Add => bin!(sp, |a, b| a + b),
            Op::Sub => bin!(sp, |a, b| a - b),
            Op::Mul => bin!(sp, |a, b| a * b),
            Op::Div => bin!(sp, |a, b| a / b),
            Op::Neg => un!(sp, |a: f64| -a),
            Op::Min => bin!(sp, f64::min),
            Op::Max => bin!(sp, f64::max),
            Op::Abs => un!(sp, f64::abs),
            Op::Sqrt => un!(sp, f64::sqrt),
        }
    }
    values.extend_from_slice(&stack[..n]);
}

/// Partitions the statement list into maximal fusable runs: consecutive
/// statements join a group when they share the group's statement domain,
/// write a target no earlier member writes, and read no earlier member's
/// target (at any offset) — the exact conditions under which one buffered
/// row pass is bit-identical to running the members sequentially.
fn fuse_statements(kernels: &[CompiledKernel], domains: &[Rect]) -> Vec<Vec<usize>> {
    fn reads_slot(tape: &[Op], slot: u32) -> bool {
        tape.iter()
            .any(|op| matches!(op, Op::Load { slot: s, .. } if *s == slot))
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for si in 0..kernels.len() {
        let joins = groups.last().is_some_and(|g| {
            domains[si] == domains[g[0]]
                && g.iter().all(|&p| {
                    kernels[p].target_slot != kernels[si].target_slot
                        && !reads_slot(&kernels[si].tape, kernels[p].target_slot)
                })
        });
        match groups.last_mut() {
            Some(g) if joins => g.push(si),
            _ => groups.push(vec![si]),
        }
    }
    groups
}

/// Evaluates a tape at linear index `idx` with a manually managed stack
/// pointer; `stack` must be at least the tape's `stack_need` long.
#[inline]
fn eval_tape(tape: &[Op], views: &[&[f64]], idx: usize, stack: &mut [f64]) -> f64 {
    let mut sp = 0usize;
    for op in tape {
        match *op {
            Op::Const(v) => {
                stack[sp] = v;
                sp += 1;
            }
            Op::Load { slot, delta } => {
                // In-domain cells have every per-dimension neighbor
                // coordinate in bounds, so the linear form cannot wrap a
                // row: `idx + delta` is the exact row-major index.
                let at = idx as i64 + delta;
                stack[sp] = views[slot as usize][at as usize];
                sp += 1;
            }
            Op::Add => {
                sp -= 1;
                stack[sp - 1] += stack[sp];
            }
            Op::Sub => {
                sp -= 1;
                stack[sp - 1] -= stack[sp];
            }
            Op::Mul => {
                sp -= 1;
                stack[sp - 1] *= stack[sp];
            }
            Op::Div => {
                sp -= 1;
                stack[sp - 1] /= stack[sp];
            }
            Op::Neg => stack[sp - 1] = -stack[sp - 1],
            Op::Min => {
                sp -= 1;
                stack[sp - 1] = stack[sp - 1].min(stack[sp]);
            }
            Op::Max => {
                sp -= 1;
                stack[sp - 1] = stack[sp - 1].max(stack[sp]);
            }
            Op::Abs => stack[sp - 1] = stack[sp - 1].abs(),
            Op::Sqrt => stack[sp - 1] = stack[sp - 1].sqrt(),
        }
    }
    stack[0]
}

fn slot_of(slots: &[String], name: &str) -> Result<usize, LangError> {
    slots
        .binary_search_by(|s| s.as_str().cmp(name))
        .map_err(|_| LangError::eval(format!("no grid named `{name}`")))
}

/// Lowers `expr` to postfix ops, folding constant subtrees with the same
/// `f64` operations evaluation would perform (so folding is bit-exact).
/// Evaluation order is preserved: left operand ops precede right operand
/// ops, which precede the operator — the interpreter's exact order.
fn lower(
    expr: &Expr,
    slots: &[String],
    params: &std::collections::BTreeMap<&str, f64>,
    strides: &[i64],
) -> Result<Frag, LangError> {
    match expr {
        Expr::Number(v) => Ok(Frag::konst(*v)),
        Expr::Param(name) => params
            .get(name.as_str())
            .copied()
            .map(Frag::konst)
            .ok_or_else(|| LangError::eval(format!("unknown parameter `{name}`"))),
        Expr::Access { grid, offset } => {
            if offset.dim() != strides.len() {
                return Err(LangError::eval(format!(
                    "access to `{grid}` has {} index(es) but the grid is {}-dimensional",
                    offset.dim(),
                    strides.len()
                )));
            }
            let slot = slot_of(slots, grid)? as u32;
            let delta: i64 = (0..offset.dim())
                .map(|d| offset.coord(d) * strides[d])
                .sum();
            Ok(Frag {
                ops: vec![Op::Load { slot, delta }],
                konst: None,
            })
        }
        Expr::Unary(UnaryOp::Neg, e) => {
            let mut inner = lower(e, slots, params, strides)?;
            if let Some(v) = inner.konst {
                return Ok(Frag::konst(-v));
            }
            inner.ops.push(Op::Neg);
            Ok(inner)
        }
        Expr::Binary(op, a, b) => {
            let fa = lower(a, slots, params, strides)?;
            let fb = lower(b, slots, params, strides)?;
            if let (Some(x), Some(y)) = (fa.konst, fb.konst) {
                return Ok(Frag::konst(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                }));
            }
            let mut ops = fa.ops;
            ops.extend(fb.ops);
            ops.push(match op {
                BinOp::Add => Op::Add,
                BinOp::Sub => Op::Sub,
                BinOp::Mul => Op::Mul,
                BinOp::Div => Op::Div,
            });
            Ok(Frag { ops, konst: None })
        }
        Expr::Call(func, args) => {
            let frags = args
                .iter()
                .map(|a| lower(a, slots, params, strides))
                .collect::<Result<Vec<_>, _>>()?;
            if frags.iter().all(|f| f.konst.is_some()) {
                let vals: Vec<f64> = frags.iter().map(|f| f.konst.expect("all const")).collect();
                return Ok(Frag::konst(match func {
                    Func::Min => vals[0].min(vals[1]),
                    Func::Max => vals[0].max(vals[1]),
                    Func::Abs => vals[0].abs(),
                    Func::Sqrt => vals[0].sqrt(),
                }));
            }
            let mut ops = Vec::new();
            for f in frags {
                ops.extend(f.ops);
            }
            ops.push(match func {
                Func::Min => Op::Min,
                Func::Max => Op::Max,
                Func::Abs => Op::Abs,
                Func::Sqrt => Op::Sqrt,
            });
            Ok(Frag { ops, konst: None })
        }
    }
}

/// Maximum stack depth a tape reaches (every tape leaves exactly one value).
fn stack_need(ops: &[Op]) -> usize {
    let mut depth = 0usize;
    let mut max = 0usize;
    for op in ops {
        match op {
            Op::Const(_) | Op::Load { .. } => {
                depth += 1;
                max = max.max(depth);
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Min | Op::Max => depth -= 1,
            Op::Neg | Op::Abs | Op::Sqrt => {}
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Interpreter};
    use stencilcl_grid::Point;

    fn ramp(_: &str, p: &Point) -> f64 {
        let mut v = 1.0;
        for d in 0..p.dim() {
            v = v * 13.0 + p.coord(d) as f64;
        }
        (v * 0.01).sin() + 0.002 * v
    }

    #[test]
    fn constant_subexpressions_fold() {
        let p = parse(
            "stencil f { grid A[8] : f32; param c = 0.25; iterations 1;
             A[i] = (2.0 * 3.0 + 1.0) * A[i] + (c + c) * A[i-1]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let tape = cp.kernel(0).tape();
        // `2.0 * 3.0 + 1.0` folds to 7.0 and `c + c` to 0.5; only two loads
        // and two constants survive.
        assert!(tape.contains(&Op::Const(7.0)));
        assert!(tape.contains(&Op::Const(0.5)));
        let loads = tape.iter().filter(|o| matches!(o, Op::Load { .. })).count();
        assert_eq!(loads, 2);
        assert_eq!(tape.len(), 7); // 2 consts + 2 loads + 2 muls + 1 add
    }

    #[test]
    fn slots_are_sorted_grid_names() {
        let p = parse(
            "stencil m { grid Z[6] : f32; grid A[6] : f32 read_only; iterations 1;
             Z[i] = Z[i] + A[i]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        assert_eq!(cp.kernel(0).target(), "Z");
        assert_eq!(cp.kernel(0).target_slot(), 1); // A=0, Z=1 in sorted order
        let tape = cp.kernel(0).tape();
        assert_eq!(
            tape,
            &[
                Op::Load { slot: 1, delta: 0 },
                Op::Load { slot: 0, delta: 0 },
                Op::Add
            ]
        );
    }

    #[test]
    fn neighbor_offsets_become_linear_deltas() {
        let p = parse(
            "stencil d { grid A[6][10] : f32; iterations 1;
             A[i][j] = A[i-1][j] + A[i][j+1]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let tape = cp.kernel(0).tape();
        // Row-major [6 x 10]: stride of i is 10, of j is 1.
        assert_eq!(
            tape[0],
            Op::Load {
                slot: 0,
                delta: -10
            }
        );
        assert_eq!(tape[1], Op::Load { slot: 0, delta: 1 });
    }

    #[test]
    fn statement_domains_match_the_interpreter() {
        let p = parse(
            "stencil h { grid A[10][12] : f32; iterations 1;
             A[i][j] = A[i-2][j] + A[i][j+1]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let interp = Interpreter::new(&p);
        assert_eq!(cp.statement_domain(0), interp.statement_domain(0));
    }

    #[test]
    fn bit_exact_with_interpreter_across_intrinsics() {
        let p = parse(
            "stencil x { grid A[7][9] : f32; param w = 0.3; iterations 3;
             A[i][j] = max(min(A[i-1][j], A[i+1][j]), abs(A[i][j-1] - A[i][j+1]))
                       + w * sqrt(abs(A[i][j])) - (-A[i][j]); }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let mut fast = GridState::new(&p, ramp);
        cp.run(&mut fast, p.iterations).unwrap();
        let mut slow = GridState::new(&p, ramp);
        Interpreter::new(&p).run(&mut slow, p.iterations).unwrap();
        assert_eq!(fast, slow); // bit-exact, not ≤ε
    }

    #[test]
    fn partial_domain_matches_interpreter() {
        let p = parse(
            "stencil pd { grid A[8][8] : f32; iterations 1;
             A[i][j] = A[i][j] + 0.5 * A[i-1][j]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let interp = Interpreter::new(&p);
        let domain = Rect::new(Point::new2(2, 1), Point::new2(6, 5)).unwrap();
        let mut fast = GridState::new(&p, ramp);
        cp.apply_statement(&mut fast, 0, &domain).unwrap();
        let mut slow = GridState::new(&p, ramp);
        interp.apply_statement(&mut slow, 0, &domain).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn reused_scratch_is_bit_exact_for_statements_and_fused_groups() {
        let p = parse(
            "stencil fs { grid A[9][7] : f32; grid B[9][7] : f32; iterations 1;
             A[i][j] = 0.5 * (A[i-1][j] + B[i][j+1]);
             B[i][j] = B[i][j] - 0.25 * A[i][j-1]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let group: Vec<usize> = (0..p.updates.len()).collect();
        let domain = cp
            .statement_domain(0)
            .intersect(&cp.statement_domain(1))
            .unwrap();
        let mut expect = GridState::new(&p, ramp);
        cp.apply_fused(&mut expect, &group, &domain).unwrap();
        cp.apply_statement(&mut expect, 0, &domain).unwrap();

        // One scratch reused across every call — including a wider fused
        // group after a single-statement call resized the buffer pool.
        let mut scratch = FusedScratch::new();
        let mut got = GridState::new(&p, ramp);
        cp.apply_fused_with(&mut got, &group, &domain, &mut scratch)
            .unwrap();
        cp.apply_statement_with(&mut got, 0, &domain, &mut scratch)
            .unwrap();
        assert_eq!(got, expect);

        // Third round trip on the same scratch stays bit-exact (stale
        // buffer contents must never leak into results).
        cp.apply_fused_with(&mut expect, &group, &domain, &mut scratch)
            .unwrap();
        let mut fresh = got.clone();
        cp.apply_fused(&mut fresh, &group, &domain).unwrap();
        assert_eq!(expect, fresh);
    }

    #[test]
    fn views_reject_mismatched_extents() {
        let p = parse("stencil v { grid A[8] : f32; iterations 1; A[i] = A[i]; }").unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let shrunk = p.with_extent(stencilcl_grid::Extent::new1(4));
        let state = GridState::uniform(&shrunk, 0.0);
        assert!(cp.views(&state).is_err());
        assert!(cp.run(&mut GridState::uniform(&shrunk, 0.0), 1).is_err());
    }

    #[test]
    fn eval_idx_matches_point_eval() {
        let p = parse(
            "stencil e { grid A[5][6] : f32; iterations 1;
             A[i][j] = A[i-1][j] * 2.0 + A[i][j+1]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let interp = Interpreter::new(&p);
        let state = GridState::new(&p, ramp);
        let views = cp.views(&state).unwrap();
        let mut stack = Vec::new();
        let at = Point::new2(2, 3);
        let idx = cp.extent().linearize(&at).unwrap();
        let got = cp.eval_idx(0, &views, idx, &mut stack);
        let want = interp.eval(&p.updates[0].rhs, &state, &at).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn lane_widths_are_bit_exact() {
        // 23-cell rows are shorter than most widths; 600-cell rows exceed
        // LANE_WIDTH, so the default walk runs 256 + 256 + 88 per row and
        // odd widths leave a short last chunk.
        for extent in ["A[9][23]", "A[5][600]"] {
            let p = parse(&format!(
                "stencil l {{ grid {extent} : f32; param w = 0.3; iterations 3;
                 A[i][j] = max(min(A[i-1][j], A[i+1][j]), abs(A[i][j-1] - A[i][j+1]))
                           + w * sqrt(abs(A[i][j])) - (-A[i][j]); }}"
            ))
            .unwrap();
            let mut expect = GridState::new(&p, ramp);
            Interpreter::new(&p).run(&mut expect, p.iterations).unwrap();
            for lanes in [1usize, 2, 3, 5, 7, 8, 16, 255, 256] {
                let cp = CompiledProgram::compile(&p).unwrap().with_lanes(lanes);
                assert_eq!(cp.lanes(), lanes);
                let mut got = GridState::new(&p, ramp);
                cp.run(&mut got, p.iterations).unwrap();
                assert_eq!(got, expect, "{extent}: lanes {lanes} diverged");
            }
        }
    }

    #[test]
    fn lane_width_exceeding_the_row_walks_one_short_chunk() {
        // 3-cell rows (and a 1-cell-row grid) are shorter than the default
        // width: each row is one tape pass over a chunk as long as the row,
        // bit-exact.
        for src in [
            "stencil t { grid A[6][3] : f32; iterations 2;
             A[i][j] = 0.5 * (A[i][j-1] + A[i][j+1]); }",
            "stencil o { grid A[6][1] : f32; iterations 2;
             A[i][j] = 0.5 * (A[i-1][j] + A[i+1][j]); }",
        ] {
            let p = parse(src).unwrap();
            let cp = CompiledProgram::compile(&p).unwrap();
            assert_eq!(cp.lanes(), LANE_WIDTH);
            let mut fast = GridState::new(&p, ramp);
            cp.run(&mut fast, p.iterations).unwrap();
            let mut slow = GridState::new(&p, ramp);
            Interpreter::new(&p).run(&mut slow, p.iterations).unwrap();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn independent_statements_fuse_into_one_group() {
        let p = parse(
            "stencil f { grid A[8][12] : f32; grid B[8][12] : f32; iterations 2;
             A[i][j] = 0.5 * (A[i][j-1] + B[i][j+1]);
             B[i][j] = 0.5 * (B[i][j-1] + A[i][j+1]); }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        // B's statement reads A, which the first statement writes — fusing
        // would hide A's update from B, so the statements stay sequential.
        assert_eq!(cp.fused_groups(), &[vec![0], vec![1]]);
        let p2 = parse(
            "stencil g { grid A[8][12] : f32; grid B[8][12] : f32;
             grid C[8][12] : f32 read_only; iterations 2;
             A[i][j] = 0.5 * (C[i][j-1] + C[i][j+1]);
             B[i][j] = 0.25 * (C[i][j-1] - C[i][j+1]); }",
        )
        .unwrap();
        let cp2 = CompiledProgram::compile(&p2).unwrap();
        // Both read only C and share the same statement domain: one pass.
        assert_eq!(cp2.fused_groups(), &[vec![0, 1]]);
        let mut fast = GridState::new(&p2, ramp);
        cp2.run(&mut fast, p2.iterations).unwrap();
        let mut slow = GridState::new(&p2, ramp);
        Interpreter::new(&p2).run(&mut slow, p2.iterations).unwrap();
        assert_eq!(fast, slow, "fused pass diverged from sequential oracle");
    }

    #[test]
    fn fusion_requires_matching_domains_and_distinct_targets() {
        // Same inputs but different halos → different statement domains →
        // no fusion.
        let p = parse(
            "stencil h { grid A[8][12] : f32; grid B[8][12] : f32;
             grid C[8][12] : f32 read_only; iterations 1;
             A[i][j] = C[i][j-1] + C[i][j+1];
             B[i][j] = C[i-2][j] + C[i+2][j]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        assert_eq!(cp.fused_groups(), &[vec![0], vec![1]]);
        // Two writes to the same grid never fuse.
        let p2 = parse(
            "stencil w { grid A[8] : f32; grid C[8] : f32 read_only; iterations 1;
             A[i] = C[i-1];
             A[i] = C[i+1]; }",
        )
        .unwrap();
        let cp2 = CompiledProgram::compile(&p2).unwrap();
        assert_eq!(cp2.fused_groups(), &[vec![0], vec![1]]);
    }

    #[test]
    fn clip_boundary_offsets_evaluate_checked_at_the_origin() {
        // A minimal extent whose statement domain touches row 0 / column 0:
        // the j-offset reaches column 0 of row 0 (linear index 0) and the
        // delta arithmetic must stay signed the whole way down.
        let p = parse(
            "stencil min { grid A[1][3] : f32; iterations 2;
             A[i][j] = 0.5 * (A[i][j-1] + A[i][j+1]); }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let (lo, hi) = cp.kernel(0).delta_bounds();
        assert_eq!((lo, hi), (-1, 1));
        let mut fast = GridState::new(&p, ramp);
        cp.run(&mut fast, p.iterations).unwrap();
        let mut slow = GridState::new(&p, ramp);
        Interpreter::new(&p).run(&mut slow, p.iterations).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn eval_row_into_rejects_rows_that_reach_outside_the_grid() {
        let p = parse(
            "stencil n { grid A[4][6] : f32; iterations 1;
             A[i][j] = A[i-1][j] + A[i][j-1]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let state = GridState::new(&p, ramp);
        let views = cp.views(&state).unwrap();
        let mut scratch = EvalScratch::default();
        let mut values = Vec::new();
        // base 0 with delta -6 (row above) would wrap `0 + -6` to a huge
        // usize without the signed check.
        let err = cp
            .eval_row_into(0, &views, 0, 6, &mut scratch, &mut values)
            .unwrap_err();
        assert!(err.to_string().contains("outside the grid"), "{err}");
        assert!(values.is_empty());
        // A row running past the last cell fails too.
        assert!(cp
            .eval_row_into(0, &views, 20, 6, &mut scratch, &mut values)
            .is_err());
        // Wrong view count is rejected before any indexing.
        assert!(cp
            .eval_row_into(0, &views[..0], 7, 5, &mut scratch, &mut values)
            .is_err());
        // The same row, based one full row in (all accesses in bounds),
        // matches eval_idx cell for cell.
        cp.eval_row_into(0, &views, 7, 5, &mut scratch, &mut values)
            .unwrap();
        let mut stack = Vec::new();
        for (k, v) in values.iter().enumerate() {
            let want = cp.eval_idx(0, &views, 7 + k, &mut stack);
            assert_eq!(v.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn zero_area_clip_is_a_no_op() {
        let p = parse(
            "stencil z { grid A[8][8] : f32; iterations 1;
             A[i][j] = A[i-1][j] + A[i+1][j]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        // A domain strictly inside the halo band: intersection with the
        // statement domain is empty.
        let domain = Rect::new(Point::new2(0, 0), Point::new2(0, 7)).unwrap();
        let before = GridState::new(&p, ramp);
        let mut state = GridState::new(&p, ramp);
        cp.apply_statement(&mut state, 0, &domain).unwrap();
        assert_eq!(state, before);
    }

    #[test]
    fn stack_need_counts_deepest_nesting() {
        let p = parse(
            "stencil s { grid A[6] : f32; iterations 1;
             A[i] = A[i] + (A[i-1] + (A[i+1] + A[i])); }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        assert_eq!(cp.kernel(0).stack_need(), 4);
        assert_eq!(cp.statement_count(), 1);
    }
}
