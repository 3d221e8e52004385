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
//!   would perform, so folding is bit-exact,
//! * **operands are folded into their operation**: a binary op (`+ - * /`,
//!   `min`, `max`) whose operand is a [`Leaf`] — a grid load or a constant —
//!   reads it where it lives instead of pushing it first, the way the
//!   kernel's datapath wires a load or a literal straight into its
//!   operator. Three forms exist: leaf ⊕ leaf pushes its result
//!   ([`Op::LeafLeaf`]), top ⊕ leaf and leaf ⊕ top rewrite the top of stack
//!   in place ([`Op::TopLeaf`], [`Op::LeafTop`]). Each applies the same
//!   operation to the same operands in the same order as the interpreter,
//!   so `min(NaN, x)` and signed zeros come out as they would unfolded.
//!   Jacobi-2D's tape is 5 ops instead of 11, HotSpot-2D's 15 instead of 31.
//!
//! # Row-chunk tape walk
//!
//! Execution sweeps each statement's clipped domain row by row (last axis
//! contiguous). The row sweep is *vectorized across cells*: a row is walked
//! in chunks of `min(lanes, cells left)` contiguous cells, and one tape pass
//! evaluates a whole chunk over a lane-major stack ([`LANE_WIDTH`] = 256
//! cells per pass by default; configure with [`CompiledProgram::with_lanes`],
//! `1` walks one cell per pass). The stack's bottom level is the output row
//! itself, so the last op writes the result in place. The last chunk of a
//! row is simply shorter, so there is no separate tail walk. Each op applies
//! the *same* `f64` operation independently per lane — a load operand is one
//! contiguous slice `views[slot][idx+delta ..][..n]` — so every cell still
//! sees exactly the scalar op sequence and bit-exactness is preserved *by
//! construction*: only the loop over cells is widened, never the arithmetic
//! within one cell. With hundreds of cells per pass the per-op dispatch cost
//! is amortised away, and the equal-length slice loops autovectorize without
//! `unsafe`.
//!
//! # Line-buffered commit
//!
//! Snapshot semantics say every cell of a statement reads the
//! pre-statement state. The sweep keeps that without buffering the whole
//! domain: it evaluates bands of rows into a small line buffer and copies
//! each row into its target grid as soon as no row still to be swept can
//! read it. How long a row waits — the *commit lag* — is the most negative
//! linear delta at which a statement reads its own target, so a row-local
//! stencil commits every band at once, a 2-D `A[i-1][j]` holds back about
//! one row, and a 3-D `A[i-1][j][k]` one plane. This is the host analogue
//! of the kernel's shift-register line buffer, which holds exactly the rows
//! later cells still need.
//!
//! # Statement fusion
//!
//! Consecutive statements that share a statement domain, write pairwise
//! distinct targets, and never read an earlier group member's target are
//! fused into one row pass ([`CompiledProgram::fused_groups`]): the row's
//! input cells are hot in cache for every member tape instead of being
//! streamed once per statement. Member evaluations read only the pre-group
//! snapshot — a group's commit lag covers every member's reads of every
//! member's target — and no member reads an earlier member's target, so
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

/// Cells one band of the line-buffered sweep evaluates between two
/// commits (at least one whole row): small enough that the band and the
/// rows it holds back stay in cache, large enough that re-borrowing the
/// grid views once per band costs nothing next to the band's tape passes.
const BAND_CELLS: usize = 4096;

/// Reusable evaluation scratch for the row sweeps: the lane-major stack of
/// the row-chunk walk (`(stack_need - 1) × n` values for an `n`-cell
/// chunk, level-major; level 0 is the caller's output row). One instance
/// can be shared across statements and rows; the buffer only ever grows.
#[derive(Debug, Default)]
pub struct EvalScratch {
    lanes: Vec<f64>,
}

/// Reusable scratch for repeated [`CompiledProgram::apply_statement_with`]
/// / [`CompiledProgram::apply_fused_with`] calls: the evaluation stack, the
/// swept rows' linear bases, and the line buffer of rows waiting for their
/// commit, allocated once and reused across statements, fused iterations,
/// and tiles. The tile executors call the apply entry points thousands of
/// times per run; threading one `FusedScratch` through keeps the allocator
/// out of that loop.
#[derive(Debug, Default)]
pub struct FusedScratch {
    eval: EvalScratch,
    bases: Vec<usize>,
    rows: Vec<f64>,
}

impl FusedScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> FusedScratch {
        FusedScratch::default()
    }
}

/// A leaf operand of the tape: a grid load or a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Leaf {
    /// A literal (folded constants and resolved parameters included).
    Const(f64),
    /// `grids[slot][idx + delta]`, where `idx` is the linear index of the
    /// cell being computed and `delta` encodes the neighbor offset for the
    /// compiled extent.
    Load {
        /// Dense index into the sorted grid list.
        slot: u32,
        /// Row-major linear-index offset of the access.
        delta: i64,
    },
}

/// A binary `f64` operation of the tape; `a ⊕ b` always takes the left
/// operand of the source expression as `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `a.min(b)`.
    Min,
    /// `a.max(b)`.
    Max,
}

impl BinKind {
    /// `a ⊕ b`, the interpreter's exact operation (constant folding).
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinKind::Add => a + b,
            BinKind::Sub => a - b,
            BinKind::Mul => a * b,
            BinKind::Div => a / b,
            BinKind::Min => a.min(b),
            BinKind::Max => a.max(b),
        }
    }
}

/// One postfix bytecode operation of a compiled update expression.
///
/// The tape is evaluated left to right over a value stack. A binary op
/// whose operand is a [`Leaf`] reads it in place instead of pushing it
/// first, but every form applies the same `f64` operation to the same
/// operands in the same order as the interpreter, so results are
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push a leaf.
    Push(Leaf),
    /// Push `a ⊕ b` of two leaves.
    LeafLeaf(BinKind, Leaf, Leaf),
    /// Replace the top of stack `t` with `t ⊕ b`.
    TopLeaf(BinKind, Leaf),
    /// Replace the top of stack `t` with `a ⊕ t`.
    LeafTop(BinKind, Leaf),
    /// Pop `b`, pop `a`, push `a ⊕ b`.
    Binary(BinKind),
    /// Negate the top of stack.
    Neg,
    /// Replace the top of stack with its absolute value.
    Abs,
    /// Replace the top of stack with its square root.
    Sqrt,
}

impl Op {
    /// The leaf operands this op reads.
    fn leaves(&self) -> impl Iterator<Item = Leaf> {
        let (a, b) = match *self {
            Op::Push(l) | Op::TopLeaf(_, l) | Op::LeafTop(_, l) => (Some(l), None),
            Op::LeafLeaf(_, a, b) => (Some(a), Some(b)),
            Op::Binary(_) | Op::Neg | Op::Abs | Op::Sqrt => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// Every `(slot, delta)` grid load of a tape.
fn loads(tape: &[Op]) -> impl Iterator<Item = (u32, i64)> + '_ {
    tape.iter().flat_map(Op::leaves).filter_map(|l| match l {
        Leaf::Load { slot, delta } => Some((slot, delta)),
        Leaf::Const(_) => None,
    })
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
    /// Most negative load delta of the tape (0 when the tape never loads):
    /// the farthest a cell's accesses reach *before* its own linear index.
    min_delta: i64,
    /// Most positive load delta of the tape (0 when the tape never loads).
    max_delta: i64,
    /// `reach[slot]`: the most negative delta at which the tape loads
    /// `slot`, or 0 when it never reads `slot` below its own index.
    reach: Box<[i64]>,
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

    /// The most negative and most positive load deltas of the tape
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
            ops: vec![Op::Push(Leaf::Const(v))],
            konst: Some(v),
        }
    }

    /// The fragment's value as a leaf operand, when it is one.
    fn leaf(&self) -> Option<Leaf> {
        match self.ops.as_slice() {
            [Op::Push(l)] => Some(*l),
            _ => None,
        }
    }

    /// `op` applied to the fragment, folded with `f` when it is a constant.
    fn unary(mut self, op: Op, f: fn(f64) -> f64) -> Frag {
        if let Some(v) = self.konst {
            return Frag::konst(f(v));
        }
        self.ops.push(op);
        self
    }

    /// `a ⊕ b`, folded when both are constants and with every leaf operand
    /// read in place.
    fn binary(kind: BinKind, a: Frag, b: Frag) -> Frag {
        if let (Some(x), Some(y)) = (a.konst, b.konst) {
            return Frag::konst(kind.apply(x, y));
        }
        let ops = match (a.leaf(), b.leaf()) {
            (Some(x), Some(y)) => vec![Op::LeafLeaf(kind, x, y)],
            (None, Some(y)) => {
                let mut ops = a.ops;
                ops.push(Op::TopLeaf(kind, y));
                ops
            }
            (Some(x), None) => {
                let mut ops = b.ops;
                ops.push(Op::LeafTop(kind, x));
                ops
            }
            (None, None) => {
                let mut ops = a.ops;
                ops.extend(b.ops);
                ops.push(Op::Binary(kind));
                ops
            }
        };
        Frag { ops, konst: None }
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
                let mut reach = vec![0i64; slots.len()];
                for (slot, delta) in loads(&frag.ops) {
                    min_delta = min_delta.min(delta);
                    max_delta = max_delta.max(delta);
                    let r = &mut reach[slot as usize];
                    *r = (*r).min(delta);
                }
                Ok(CompiledKernel {
                    target: stmt.target.clone(),
                    target_slot,
                    tape: frag.ops.into_boxed_slice(),
                    stack_need,
                    min_delta,
                    max_delta,
                    reach: reach.into_boxed_slice(),
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

    /// The sorted grid names backing the dense slot indices: a
    /// [`Leaf::Load`]'s `slot` field `i` reads the grid named `slots()[i]`.
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

    /// [`Self::apply_statement`] with caller-owned scratch: the line buffer
    /// and evaluation stack live in `scratch` and are reused across calls,
    /// so a tight apply loop performs no per-call heap allocation after
    /// warm-up beyond one grid-view list per band.
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
        self.apply_fused_with(state, &[si], domain, scratch)
    }

    /// Applies a fused statement group over `domain` in one row pass: all
    /// member tapes are evaluated per row (the row's inputs stay hot in
    /// cache). Bit-identical to applying the members sequentially — fusion
    /// legality (shared domain, distinct targets, no member reads an
    /// earlier member's target) guarantees the sequential run would see
    /// exactly the same snapshot.
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

    /// [`Self::apply_fused`] with caller-owned scratch (see
    /// [`FusedScratch`]).
    ///
    /// The clipped domain is swept in bands of rows into the scratch's
    /// line buffer, and each swept row is copied into its target grid as
    /// soon as no row still to be swept can read it: snapshot semantics
    /// with a buffer of a few rows instead of the whole domain. A row
    /// waits while its last cell lies within the group's commit lag of the
    /// first unswept cell; the lag is the most negative linear delta at
    /// which any member reads any member's target, so a statement that
    /// never reads its target before its own cell commits each band at
    /// once, and a 3-D `A[i-1][j][k]` holds back one plane.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid
    /// or holds mismatched extents. Every row is validated before the
    /// first write, so an error leaves `state` untouched.
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
        let clipped = domain.intersect(&self.domains[group[0]])?;
        if clipped.is_empty() {
            return Ok(());
        }
        let row_len = clipped.len(clipped.dim() - 1) as usize;
        let FusedScratch { eval, bases, rows } = scratch;
        bases.clear();
        for start in clipped.row_starts() {
            let base = self.extent.linearize(&start)?;
            for &si in group {
                self.check_row(&self.kernels[si], base, row_len)?;
            }
            bases.push(base);
        }
        let lag = group
            .iter()
            .flat_map(|&m| group.iter().map(move |&t| (m, t)))
            .map(|(m, t)| -self.kernels[m].reach[self.kernels[t].target_slot as usize])
            .max()
            .unwrap_or(0) as usize;
        let band = (BAND_CELLS / row_len).max(1);
        // At most `lag / row_len + 1` swept rows can wait on an unswept
        // row (rows are disjoint and ascend), plus one band in flight; a
        // small domain needs no more rows than it has.
        let ring = (band + lag / row_len + 1).min(bases.len());
        let stride = group.len() * row_len;
        if rows.len() < ring * stride {
            rows.resize(ring * stride, 0.0);
        }
        let (mut swept, mut committed) = (0usize, 0usize);
        while committed < bases.len() {
            let end = (swept + band).min(bases.len());
            debug_assert!(end - committed <= ring, "line buffer overrun");
            {
                let views = self.views(state)?;
                for (k, &base) in bases.iter().enumerate().take(end).skip(swept) {
                    let at = (k % ring) * stride;
                    let row = &mut rows[at..at + stride];
                    for (out, &si) in row.chunks_exact_mut(row_len).zip(group) {
                        self.eval_row(&self.kernels[si], &views, base, out, eval);
                    }
                }
            }
            swept = end;
            let horizon = bases.get(swept).copied().unwrap_or(usize::MAX);
            let ready = committed
                + bases[committed..swept]
                    .partition_point(|&b| (b + row_len).saturating_add(lag) <= horizon);
            for (m, &si) in group.iter().enumerate() {
                let target = state.grid_mut(&self.kernels[si].target)?.as_mut_slice();
                for (k, &base) in bases.iter().enumerate().take(ready).skip(committed) {
                    let at = (k % ring) * stride + m * row_len;
                    target[base..base + row_len].copy_from_slice(&rows[at..at + row_len]);
                }
            }
            committed = ready;
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
        let at = values.len();
        values.resize(at + row_len, 0.0);
        self.eval_row(kernel, views, base, &mut values[at..], scratch);
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

    /// Evaluates the contiguous row of `out.len()` cells starting at linear
    /// index `base` into `out`: one tape pass per chunk of
    /// `min(lanes, cells left)` cells. Per-cell arithmetic is identical for
    /// every chunk length, so results do not depend on the width. Callers
    /// must have validated the row via [`Self::check_row`].
    fn eval_row(
        &self,
        kernel: &CompiledKernel,
        views: &[&[f64]],
        base: usize,
        out: &mut [f64],
        scratch: &mut EvalScratch,
    ) {
        let need = (kernel.stack_need - 1) * self.lanes.min(out.len());
        if scratch.lanes.len() < need {
            scratch.lanes.resize(need, 0.0);
        }
        for (c, chunk) in out.chunks_mut(self.lanes).enumerate() {
            let idx = base + c * self.lanes;
            eval_tape_chunk(&kernel.tape, views, idx, chunk, &mut scratch.lanes);
        }
    }

    /// Runs one full stencil iteration (all statement groups in order)
    /// over `domain`.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid.
    pub fn step(&self, state: &mut GridState, domain: &Rect) -> Result<(), LangError> {
        self.step_with(state, domain, &mut FusedScratch::default())
    }

    fn step_with(
        &self,
        state: &mut GridState,
        domain: &Rect,
        scratch: &mut FusedScratch,
    ) -> Result<(), LangError> {
        for group in &self.fused_groups {
            self.apply_fused_with(state, group, domain, scratch)?;
        }
        Ok(())
    }

    /// Runs `iterations` full-grid stencil iterations — the compiled
    /// counterpart of [`Interpreter::run`](crate::Interpreter::run) — on
    /// one scratch for the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Eval`] when the state lacks a referenced grid.
    pub fn run(&self, state: &mut GridState, iterations: u64) -> Result<(), LangError> {
        let full = Rect::from_extent(&self.extent);
        let mut scratch = FusedScratch::default();
        for _ in 0..iterations {
            self.step_with(state, &full, &mut scratch)?;
        }
        Ok(())
    }
}

/// A leaf's values for the `n` cells `idx..idx + n`: a slice of its grid,
/// or one constant for every lane.
#[derive(Clone, Copy)]
enum Lanes<'v> {
    Slice(&'v [f64]),
    Splat(f64),
}

#[inline(always)]
fn lanes<'v>(leaf: Leaf, views: &[&'v [f64]], idx: usize, n: usize) -> Lanes<'v> {
    match leaf {
        Leaf::Const(v) => Lanes::Splat(v),
        Leaf::Load { slot, delta } => {
            // The caller validated the whole row with signed arithmetic
            // (`check_row`), so this cast cannot wrap and all `n` lanes are
            // in bounds.
            let at = (idx as i64 + delta) as usize;
            Lanes::Slice(&views[slot as usize][at..at + n])
        }
    }
}

/// Stack level `l` of a chunk: level 0 is the output row, level `l ≥ 1`
/// is `rest[(l - 1) * n..l * n]`.
#[inline(always)]
fn level<'s>(out: &'s mut [f64], rest: &'s mut [f64], l: usize) -> &'s mut [f64] {
    let n = out.len();
    if l == 0 {
        out
    } else {
        &mut rest[(l - 1) * n..l * n]
    }
}

/// Stack levels `l` (mutable) and `l + 1`.
#[inline(always)]
fn level_pair<'s>(out: &'s mut [f64], rest: &'s mut [f64], l: usize) -> (&'s mut [f64], &'s [f64]) {
    let n = out.len();
    if l == 0 {
        (out, &rest[..n])
    } else {
        let (lo, hi) = rest.split_at_mut(l * n);
        (&mut lo[(l - 1) * n..], &hi[..n])
    }
}

/// `dst[l] = f(a[l], b[l])`.
#[inline(always)]
fn put(dst: &mut [f64], a: Lanes, b: Lanes, f: impl Fn(f64, f64) -> f64) {
    match (a, b) {
        (Lanes::Slice(x), Lanes::Slice(y)) => {
            for ((d, x), y) in dst.iter_mut().zip(x).zip(y) {
                *d = f(*x, *y);
            }
        }
        (Lanes::Slice(x), Lanes::Splat(c)) => {
            for (d, x) in dst.iter_mut().zip(x) {
                *d = f(*x, c);
            }
        }
        (Lanes::Splat(c), Lanes::Slice(y)) => {
            for (d, y) in dst.iter_mut().zip(y) {
                *d = f(c, *y);
            }
        }
        (Lanes::Splat(c), Lanes::Splat(e)) => dst.fill(f(c, e)),
    }
}

/// `top[l] = f(top[l], b[l])`, or `f(b[l], top[l])` when `leaf_first`.
#[inline(always)]
fn fold(top: &mut [f64], b: Lanes, leaf_first: bool, f: impl Fn(f64, f64) -> f64) {
    match (b, leaf_first) {
        (Lanes::Slice(y), false) => {
            for (t, y) in top.iter_mut().zip(y) {
                *t = f(*t, *y);
            }
        }
        (Lanes::Slice(y), true) => {
            for (t, y) in top.iter_mut().zip(y) {
                *t = f(*y, *t);
            }
        }
        (Lanes::Splat(c), false) => {
            for t in top.iter_mut() {
                *t = f(*t, c);
            }
        }
        (Lanes::Splat(c), true) => {
            for t in top.iter_mut() {
                *t = f(c, *t);
            }
        }
    }
}

/// Binds `$f` to the closure of `$kind` and evaluates `$body`, so every
/// lane loop is monomorphized per operation and the match stays outside
/// the loop.
macro_rules! with_kind {
    ($kind:expr, |$f:ident| $body:expr) => {
        match $kind {
            BinKind::Add => {
                let $f = |a: f64, b: f64| a + b;
                $body
            }
            BinKind::Sub => {
                let $f = |a: f64, b: f64| a - b;
                $body
            }
            BinKind::Mul => {
                let $f = |a: f64, b: f64| a * b;
                $body
            }
            BinKind::Div => {
                let $f = |a: f64, b: f64| a / b;
                $body
            }
            BinKind::Min => {
                let $f = f64::min;
                $body
            }
            BinKind::Max => {
                let $f = f64::max;
                $body
            }
        }
    };
}

/// Evaluates a tape for the `out.len()` contiguous cells starting at `idx`
/// in one pass over a lane-major stack whose level 0 is `out` itself and
/// whose higher levels live in `rest` (`(level - 1) * n + lane`). Lane `l`
/// performs exactly the `f64` op sequence a scalar walk performs at
/// `idx + l` — ops never mix lanes — so the results are bit-identical to
/// `n` scalar evaluations; only the cell loop is widened. The equal-length
/// slice loops autovectorize.
#[inline]
fn eval_tape_chunk(tape: &[Op], views: &[&[f64]], idx: usize, out: &mut [f64], rest: &mut [f64]) {
    let n = out.len();
    let mut sp = 0usize;
    for op in tape {
        match *op {
            Op::Push(leaf) => {
                let dst = level(out, rest, sp);
                match lanes(leaf, views, idx, n) {
                    Lanes::Slice(x) => dst.copy_from_slice(x),
                    Lanes::Splat(c) => dst.fill(c),
                }
                sp += 1;
            }
            Op::LeafLeaf(kind, a, b) => {
                let dst = level(out, rest, sp);
                let (a, b) = (lanes(a, views, idx, n), lanes(b, views, idx, n));
                with_kind!(kind, |f| put(dst, a, b, f));
                sp += 1;
            }
            Op::TopLeaf(kind, b) => {
                let top = level(out, rest, sp - 1);
                let b = lanes(b, views, idx, n);
                with_kind!(kind, |f| fold(top, b, false, f));
            }
            Op::LeafTop(kind, a) => {
                let top = level(out, rest, sp - 1);
                let a = lanes(a, views, idx, n);
                with_kind!(kind, |f| fold(top, a, true, f));
            }
            Op::Binary(kind) => {
                sp -= 1;
                let (a, b) = level_pair(out, rest, sp - 1);
                with_kind!(kind, |f| {
                    for (a, b) in a.iter_mut().zip(b) {
                        *a = f(*a, *b);
                    }
                });
            }
            Op::Neg => level(out, rest, sp - 1).iter_mut().for_each(|t| *t = -*t),
            Op::Abs => level(out, rest, sp - 1)
                .iter_mut()
                .for_each(|t| *t = t.abs()),
            Op::Sqrt => level(out, rest, sp - 1)
                .iter_mut()
                .for_each(|t| *t = t.sqrt()),
        }
    }
}

/// Partitions the statement list into maximal fusable runs: consecutive
/// statements join a group when they share the group's statement domain,
/// write a target no earlier member writes, and read no earlier member's
/// target (at any offset) — the exact conditions under which one row pass
/// over the pre-group snapshot is bit-identical to running the members
/// sequentially.
fn fuse_statements(kernels: &[CompiledKernel], domains: &[Rect]) -> Vec<Vec<usize>> {
    fn reads_slot(tape: &[Op], slot: u32) -> bool {
        loads(tape).any(|(s, _)| s == slot)
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

fn slot_of(slots: &[String], name: &str) -> Result<usize, LangError> {
    slots
        .binary_search_by(|s| s.as_str().cmp(name))
        .map_err(|_| LangError::eval(format!("no grid named `{name}`")))
}

/// Lowers `expr` to postfix ops, folding constant subtrees with the same
/// `f64` operations evaluation would perform (so folding is bit-exact) and
/// reading every leaf operand of a binary operation in place. Evaluation
/// order is preserved: each binary op combines its left operand with its
/// right one, exactly as the interpreter does.
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
                ops: vec![Op::Push(Leaf::Load { slot, delta })],
                konst: None,
            })
        }
        Expr::Unary(UnaryOp::Neg, e) => {
            Ok(lower(e, slots, params, strides)?.unary(Op::Neg, |v| -v))
        }
        Expr::Binary(op, a, b) => {
            let kind = match op {
                BinOp::Add => BinKind::Add,
                BinOp::Sub => BinKind::Sub,
                BinOp::Mul => BinKind::Mul,
                BinOp::Div => BinKind::Div,
            };
            let fa = lower(a, slots, params, strides)?;
            let fb = lower(b, slots, params, strides)?;
            Ok(Frag::binary(kind, fa, fb))
        }
        Expr::Call(func, args) => {
            let frags = args
                .iter()
                .map(|a| lower(a, slots, params, strides))
                .collect::<Result<Vec<_>, _>>()?;
            let mut frags = frags.into_iter();
            let mut arg = || frags.next().expect("the checker enforces arity");
            Ok(match func {
                Func::Min => Frag::binary(BinKind::Min, arg(), arg()),
                Func::Max => Frag::binary(BinKind::Max, arg(), arg()),
                Func::Abs => arg().unary(Op::Abs, f64::abs),
                Func::Sqrt => arg().unary(Op::Sqrt, f64::sqrt),
            })
        }
    }
}

/// Maximum stack depth a tape reaches (every tape leaves exactly one value).
fn stack_need(ops: &[Op]) -> usize {
    let mut depth = 0usize;
    let mut max = 0usize;
    for op in ops {
        match op {
            Op::Push(_) | Op::LeafLeaf(..) => {
                depth += 1;
                max = max.max(depth);
            }
            Op::Binary(_) => depth -= 1,
            Op::TopLeaf(..) | Op::LeafTop(..) | Op::Neg | Op::Abs | Op::Sqrt => {}
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
        // `2.0 * 3.0 + 1.0` folds to 7.0 and `c + c` to 0.5; each product
        // reads its constant and its load in place, and the sum adds the
        // two stack values.
        let (a0, a1) = (
            Leaf::Load { slot: 0, delta: 0 },
            Leaf::Load { slot: 0, delta: -1 },
        );
        assert_eq!(
            cp.kernel(0).tape(),
            &[
                Op::LeafLeaf(BinKind::Mul, Leaf::Const(7.0), a0),
                Op::LeafLeaf(BinKind::Mul, Leaf::Const(0.5), a1),
                Op::Binary(BinKind::Add),
            ]
        );
    }

    #[test]
    fn operand_folding_shortens_the_benchmark_tapes() {
        // One op per operator, minus the operators whose operands are all
        // leaves of a folded parent: Jacobi-2D's five-point sum is one
        // leaf-leaf add, three top-leaf adds and a leaf-top scale.
        let jacobi = CompiledProgram::compile(&crate::programs::jacobi_2d()).unwrap();
        let tape = jacobi.kernel(0).tape();
        assert_eq!(tape.len(), 5, "{tape:?}");
        assert!(matches!(tape[0], Op::LeafLeaf(BinKind::Add, ..)));
        assert!(matches!(
            tape[4],
            Op::LeafTop(BinKind::Mul, Leaf::Const(c)) if c == 0.2
        ));
        assert_eq!(jacobi.kernel(0).stack_need(), 1);
        let hotspot = CompiledProgram::compile(&crate::programs::hotspot_2d()).unwrap();
        assert_eq!(hotspot.kernel(0).tape().len(), 15);
        let fdtd = CompiledProgram::compile(&crate::programs::fdtd_2d()).unwrap();
        let lens: Vec<usize> = (0..3).map(|s| fdtd.kernel(s).tape().len()).collect();
        assert_eq!(lens, [3, 3, 5]);
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
                                                   // Both operands are leaves: one leaf-leaf add, left operand first.
        assert_eq!(
            cp.kernel(0).tape(),
            &[Op::LeafLeaf(
                BinKind::Add,
                Leaf::Load { slot: 1, delta: 0 },
                Leaf::Load { slot: 0, delta: 0 },
            )]
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
        // Row-major [6 x 10]: stride of i is 10, of j is 1.
        assert_eq!(
            cp.kernel(0).tape(),
            &[Op::LeafLeaf(
                BinKind::Add,
                Leaf::Load {
                    slot: 0,
                    delta: -10
                },
                Leaf::Load { slot: 0, delta: 1 },
            )]
        );
        assert_eq!(cp.kernel(0).delta_bounds(), (-10, 1));
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
    fn eval_row_matches_point_eval() {
        let p = parse(
            "stencil e { grid A[5][6] : f32; iterations 1;
             A[i][j] = A[i-1][j] * 2.0 + A[i][j+1]; }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap().with_lanes(1);
        let interp = Interpreter::new(&p);
        let state = GridState::new(&p, ramp);
        let views = cp.views(&state).unwrap();
        let mut scratch = EvalScratch::default();
        let mut values = Vec::new();
        // Row 2, columns 0..5 (column 5 would read past the row's end).
        let at = Point::new2(2, 0);
        let idx = cp.extent().linearize(&at).unwrap();
        cp.eval_row_into(0, &views, idx, 5, &mut scratch, &mut values)
            .unwrap();
        for (j, got) in values.iter().enumerate() {
            let want = interp
                .eval(&p.updates[0].rhs, &state, &Point::new2(2, j as i64))
                .unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "column {j}");
        }
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
        // matches a one-lane walk of each cell alone.
        cp.eval_row_into(0, &views, 7, 5, &mut scratch, &mut values)
            .unwrap();
        let scalar = cp.clone().with_lanes(1);
        let mut one = Vec::new();
        for k in 0..5 {
            scalar
                .eval_row_into(0, &views, 7 + k, 1, &mut scratch, &mut one)
                .unwrap();
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&one));
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
        // Leaf operands never take a stack level: a right-nested chain of
        // leaf sums folds into one level...
        let p = parse(
            "stencil s { grid A[6] : f32; iterations 1;
             A[i] = A[i] + (A[i-1] + (A[i+1] + A[i])); }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        assert_eq!(cp.kernel(0).stack_need(), 1);
        assert_eq!(cp.statement_count(), 1);
        // ...while three live non-leaf subexpressions need three.
        let p = parse(
            "stencil s { grid A[6] : f32; iterations 1;
             A[i] = (A[i] + A[i-1]) * ((A[i+1] + A[i]) - (A[i-1] * A[i+1] + A[i])); }",
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        assert_eq!(cp.kernel(0).stack_need(), 3);
        let mut fast = GridState::new(&p, ramp);
        cp.run(&mut fast, p.iterations).unwrap();
        let mut slow = GridState::new(&p, ramp);
        Interpreter::new(&p).run(&mut slow, p.iterations).unwrap();
        assert_eq!(fast, slow);
    }

    /// Runs `src` through the compiled program at one lane and at the
    /// default width, and through the interpreter, over the full grid and
    /// then over each of `windows`, asserting every cell bit-identical.
    fn assert_bit_exact(src: &str, windows: &[Rect]) {
        let p = parse(src).unwrap();
        let bits = |s: &GridState| -> Vec<u64> {
            s.grid_names()
                .flat_map(|g| s.grid(g).unwrap().as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        let interp = Interpreter::new(&p);
        let mut want = GridState::new(&p, ramp);
        interp.run(&mut want, p.iterations).unwrap();
        for lanes in [1, LANE_WIDTH] {
            let cp = CompiledProgram::compile(&p).unwrap().with_lanes(lanes);
            let mut got = GridState::new(&p, ramp);
            cp.run(&mut got, p.iterations).unwrap();
            assert_eq!(bits(&got), bits(&want), "{src}: lanes {lanes}");
            let mut scratch = FusedScratch::new();
            for w in windows {
                let mut want = GridState::new(&p, ramp);
                let mut got = want.clone();
                for si in 0..p.updates.len() {
                    interp.apply_statement(&mut want, si, w).unwrap();
                    cp.apply_statement_with(&mut got, si, w, &mut scratch)
                        .unwrap();
                }
                assert_eq!(bits(&got), bits(&want), "{src}: lanes {lanes}, window {w}");
            }
        }
    }

    /// Rows one band sweeps when rows are `row_len` cells long. A sweep
    /// commits between bands only when its domain has more rows than this,
    /// so the commit-lag tests size their grids from it.
    fn band_rows(row_len: usize) -> usize {
        (BAND_CELLS / row_len).max(1)
    }

    #[test]
    fn self_reads_at_the_farthest_negative_offset_commit_late_enough() {
        // The read `r` rows (or planes) back is the commit lag; a 3-D read
        // along the slowest axis holds back whole planes. Every grid spans
        // at least two bands, so rows commit while later rows still read.
        for r in 1..=4usize {
            assert_bit_exact(
                &format!(
                    "stencil d1 {{ grid A[{}] : f32; iterations 2;
                     A[i] = 0.5 * A[i-{r}] + 0.25 * (A[i] + A[i+1]); }}",
                    BAND_CELLS + 9 * r
                ),
                &[],
            );
            let cols = 9 + r;
            let rows = 2 * band_rows(cols - 1 - r) + 3 * r;
            assert_bit_exact(
                &format!(
                    "stencil d2 {{ grid A[{rows}][{cols}] : f32; iterations 2;
                     A[i][j] = 0.5 * A[i-{r}][j] + 0.25 * (A[i][j-1] + A[i+1][j+{r}]); }}"
                ),
                &[],
            );
            let planes = 2 * band_rows(9) / 6 + 2 * r + 2;
            assert_bit_exact(
                &format!(
                    "stencil d3 {{ grid A[{planes}][7][10] : f32; iterations 2;
                     A[i][j][k] = 0.5 * A[i-{r}][j][k]
                                + 0.25 * (A[i][j+1][k] - A[i+1][j][k-1]); }}"
                ),
                &[],
            );
        }
    }

    #[test]
    fn a_fused_member_reading_a_later_members_target_below_sees_the_snapshot() {
        // A reads B one row back; B, the later member, never reads A, so
        // the two fuse — and B's rows must wait for A's reads.
        let rows = 2 * band_rows(10) + 5;
        let src = format!(
            "stencil fb {{ grid A[{rows}][11] : f32; grid B[{rows}][11] : f32;
             grid C[{rows}][11] : f32 read_only; iterations 3;
             A[i][j] = A[i][j] + 0.5 * B[i-1][j] - 0.1 * C[i][j+1];
             B[i][j] = B[i][j] - 0.25 * (C[i-1][j] + C[i][j+1]); }}"
        );
        let cp = CompiledProgram::compile(&parse(&src).unwrap()).unwrap();
        assert_eq!(cp.fused_groups(), &[vec![0, 1]]);
        let window = Rect::new(Point::new2(2, 3), Point::new2(rows as i64 - 2, 9)).unwrap();
        assert_bit_exact(&src, &[window]);
    }

    #[test]
    fn clipped_windows_and_one_column_tiles_are_bit_exact() {
        let jacobi = |rows: usize, cols: usize| {
            format!(
                "stencil cw {{ grid A[{rows}][{cols}] : f32; iterations 2;
                 A[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }}"
            )
        };
        let rect = |lo: (usize, usize), hi: (usize, usize)| {
            let p = |(i, j): (usize, usize)| Point::new2(i as i64, j as i64);
            Rect::new(p(lo), p(hi)).unwrap()
        };
        let rows = 2 * band_rows(12) + 9;
        assert_bit_exact(
            &jacobi(rows, 14),
            &[
                rect((0, 0), (rows, 14)),
                rect((3, 4), (rows - 3, 10)),
                rect((0, 5), (rows, 6)),
                rect((1, 1), (rows - 1, 2)),
                rect((5, 0), (6, 14)),
                rect((rows - 5, 12), (rows, 14)),
            ],
        );
        // One-column tiles sweep one-cell rows, many bands deep.
        let rows = 2 * band_rows(1) + 9;
        assert_bit_exact(
            &jacobi(rows, 4),
            &[rect((0, 1), (rows, 2)), rect((7, 2), (rows - 3, 3))],
        );
    }

    #[test]
    fn rows_longer_than_one_band_are_bit_exact() {
        let long = BAND_CELLS + 37;
        assert_bit_exact(
            &format!(
                "stencil l1 {{ grid A[{long}] : f32; iterations 2;
                 A[i] = 0.33333 * (A[i-1] + A[i] + A[i+1]); }}"
            ),
            &[],
        );
        assert_bit_exact(
            &format!(
                "stencil l2 {{ grid A[4][{long}] : f32; iterations 2;
                 A[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }}"
            ),
            &[],
        );
        // A plane larger than a band: the lag alone spans several bands.
        assert_bit_exact(
            "stencil l3 { grid A[5][40][120] : f32; iterations 2;
             A[i][j][k] = 0.5 * A[i-1][j][k] + 0.5 * A[i+1][j][k]; }",
            &[],
        );
    }
}
