//! Stencil kernel DSL: lexer, parser, AST, semantic checks, feature
//! extraction, and a reference interpreter.
//!
//! The DAC'17 framework takes "an original stencil algorithm written in
//! OpenCL" as input, runs a *feature extractor* over it to determine the
//! application-specific configuration (stencil shape, dimension, operation
//! type), and feeds those features to the performance optimizer and the code
//! generator. This crate is that front end: since no OpenCL toolchain exists
//! in this environment, stencil algorithms are written in a small textual DSL
//! that captures exactly the information the paper's extractor consumes.
//!
//! A program looks like:
//!
//! ```text
//! stencil jacobi2d {
//!     grid A[64][64] : f32;
//!     iterations 16;
//!     A[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);
//! }
//! ```
//!
//! * [`parse`] turns source text into a checked [`Program`];
//! * [`StencilFeatures::extract`] derives the shape, per-iteration halo
//!   [`Growth`](stencilcl_grid::Growth), and operation counts;
//! * [`Interpreter`] executes programs over [`GridState`]s — the functional
//!   ground truth every accelerator design is validated against;
//! * [`programs`] provides the seven benchmarks of the paper's Table 2.
//!
//! # Example
//!
//! ```
//! use stencilcl_lang::{parse, StencilFeatures};
//!
//! let src = "stencil blur { grid A[32] : f32; iterations 4;
//!             A[i] = 0.5 * (A[i-1] + A[i+1]); }";
//! let program = parse(src)?;
//! let features = StencilFeatures::extract(&program)?;
//! assert_eq!(features.dim, 1);
//! assert_eq!(features.growth.total(0), 2);
//! # Ok::<(), stencilcl_lang::LangError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod ast;
mod check;
mod compile;
mod error;
mod features;
mod interp;
mod lexer;
mod parser;
pub mod programs;
mod token;

pub use ast::{BinOp, ElemType, Expr, Func, GridDecl, ParamDecl, Program, UnaryOp, UpdateStmt};
pub use check::check;
pub use compile::{
    BinKind, CompiledKernel, CompiledProgram, EvalScratch, FusedScratch, Leaf, Op, LANE_WIDTH,
};
pub use error::LangError;
pub use features::{OpCounts, StatementFeatures, StencilFeatures};
pub use interp::{GridState, Interpreter};
pub use lexer::tokenize;
pub use parser::parse;
pub use token::{Span, Token, TokenKind};
