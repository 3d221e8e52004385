//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each binary prints an aligned text table with **paper-reported vs
//! reproduced** values side by side and writes machine-readable JSON under
//! `results/` (override with the `STENCILCL_RESULTS` environment variable):
//!
//! | Binary            | Artifact  | Content |
//! |-------------------|-----------|---------|
//! | `table1`          | Table 1   | analytical-model parameter glossary |
//! | `table2`          | Table 2   | benchmark suite description |
//! | `table3`          | Table 3   | optimal parameters, resources, speedups |
//! | `figure4`         | Figure 4  | ASCII Gantt traces of kernel schedules |
//! | `figure6`         | Figure 6  | execution-time breakdowns (Jacobi-2D/3D) |
//! | `figure7`         | Figure 7  | model validation sweeps over `h` |
//! | `ablation_pipe`   | —         | pipe sharing on/off at fixed depth |
//! | `ablation_hiding` | —         | communication latency hiding on/off |
//! | `ablation_balance`| —         | workload balancing on/off |
//! | `ablation_launch` | —         | launch-delay modeling (Figure 7's gap) |
//! | `ablation_chaos`  | —         | supervised recovery under injected faults (needs `--features chaos`) |
//! | `ablation_device` | —         | Table 3 methodology on a smaller FPGA |
//! | `ablation_simd`   | —         | `LANE_WIDTH`-cell vs one-cell tape walk on three executors, bit-exact (`BENCH_simd.json`) |
//! | `ablation_trace`  | Figure 7 analogue | measured telemetry vs model terms vs simulated schedule (`BENCH_trace.json`, Chrome traces) |
//! | `ablation_integrity` | —      | slab checksums + health watchdog + deadline vs no guards, bit-exact, 3% budget (`BENCH_integrity.json`) |
//! | `ablation_checkpoint` | —     | durable checkpoint generations every 4th barrier vs none, bit-exact, 5% budget (`BENCH_checkpoint.json`) |
//! | `ablation_serve`  | —         | `stencilcl serve` round trip vs direct supervised run, same digest, 5% budget (`BENCH_serve.json`) |
//! | `ablation_resilience` | —     | journal + checkpoint store + watchdog daemon vs plain daemon, same digest, 5% budget (`BENCH_resilience.json`) |
//! | `motivation`      | Figure 1b | redundancy growth vs cone depth and dimension |
//!
//! The six `BENCH_*` ablations share one A/B harness, [`ab`]: alternating
//! timing pairs, the paired-median change with its 95% order-statistic
//! interval, and one gate — a budgeted bin exits 1 if and only if some row's
//! interval lies wholly over its budget.
//!
//! The library half holds the shared pieces: [`paper`] (the numbers printed
//! in the paper), [`table`] (text-table rendering), [`runner`] (the
//! per-benchmark experiment drivers), and [`ab`].

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod ab;
pub mod paper;
pub mod runner;
pub mod table;
