//! Shared experiment drivers used by the binaries and the integration tests.

use std::fs;

use serde::{Deserialize, Serialize};
use stencilcl::suite::BenchmarkSpec;
use stencilcl::{Framework, FrameworkError, SynthesisReport};
use stencilcl_grid::{Design, Partition};
use stencilcl_hls::ResourceUsage;
use stencilcl_lang::StencilFeatures;
use stencilcl_opt::{balance_tiles, evaluate, optimize_pair};
use stencilcl_sim::{simulate, simulate_opts, Breakdown};
use stencilcl_telemetry::EnvConfig;

/// One reproduced Table 3 row, serializable for `results/table3.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Benchmark display name.
    pub name: String,
    /// Reproduced baseline fused depth.
    pub base_fused: u64,
    /// Reproduced baseline tile lengths.
    pub base_tile: Vec<usize>,
    /// Kernel parallelism (shared).
    pub parallelism: Vec<usize>,
    /// Reproduced baseline resources.
    pub base_res: ResourceUsage,
    /// Reproduced heterogeneous fused depth.
    pub het_fused: u64,
    /// Reproduced heterogeneous slowest-kernel tile lengths.
    pub het_tile: Vec<usize>,
    /// Reproduced heterogeneous resources.
    pub het_res: ResourceUsage,
    /// Simulated speedup (Table 3's `Perf.`).
    pub speedup_sim: f64,
    /// Model-predicted speedup.
    pub speedup_pred: f64,
    /// The paper's reported speedup for this benchmark.
    pub paper_speedup: f64,
}

/// Runs one benchmark's full Table 3 methodology at paper scale.
///
/// # Errors
///
/// Propagates search/simulation failures.
pub fn table3_row(spec: &BenchmarkSpec) -> Result<(SynthesisReport, Table3Row), FrameworkError> {
    let fw = Framework::new();
    let report = fw.synthesize(&spec.program, &spec.search)?;
    let b = &report.baseline.point;
    let h = &report.heterogeneous.point;
    let row = Table3Row {
        name: spec.display.to_string(),
        base_fused: b.design.fused(),
        base_tile: (0..b.design.dim())
            .map(|d| b.design.max_tile_len(d))
            .collect(),
        parallelism: spec.search.parallelism.clone(),
        base_res: b.hls.resources,
        het_fused: h.design.fused(),
        het_tile: (0..h.design.dim())
            .map(|d| h.design.max_tile_len(d))
            .collect(),
        het_res: h.hls.resources,
        speedup_sim: report.speedup_simulated(),
        speedup_pred: report.speedup_predicted(),
        paper_speedup: crate::paper::table3_row(spec.display).map_or(f64::NAN, |r| r.speedup),
    };
    Ok((report, row))
}

/// The two Figure 6 breakdowns of one benchmark, normalized to fractions of
/// each design's own total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure6Data {
    /// Benchmark display name.
    pub name: String,
    /// Baseline breakdown (cycles).
    pub baseline: Breakdown,
    /// Heterogeneous breakdown (cycles).
    pub heterogeneous: Breakdown,
}

/// Produces Figure 6's execution-time breakdown for one benchmark.
///
/// # Errors
///
/// Propagates search/simulation failures.
pub fn figure6(spec: &BenchmarkSpec) -> Result<Figure6Data, FrameworkError> {
    let (report, _) = table3_row(spec)?;
    Ok(Figure6Data {
        name: spec.display.to_string(),
        baseline: report.baseline.sim.breakdown,
        heterogeneous: report.heterogeneous.sim.breakdown,
    })
}

/// One point of a Figure 7 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure7Point {
    /// Fused iteration depth.
    pub fused: u64,
    /// Model-predicted latency (cycles).
    pub predicted: f64,
    /// Simulated ("measured") latency (cycles).
    pub measured: f64,
}

/// A full Figure 7 panel: predicted-vs-measured across fused depths for one
/// benchmark's heterogeneous design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure7Series {
    /// Benchmark display name.
    pub name: String,
    /// Sweep points, ascending in `fused`.
    pub points: Vec<Figure7Point>,
}

impl Figure7Series {
    /// Mean relative error `|measured − predicted| / measured`.
    pub fn mean_error(&self) -> f64 {
        let n = self.points.len().max(1) as f64;
        self.points
            .iter()
            .map(|p| (p.measured - p.predicted).abs() / p.measured)
            .sum::<f64>()
            / n
    }

    /// Fused depth minimizing the prediction.
    pub fn predicted_optimum(&self) -> u64 {
        self.points
            .iter()
            .min_by(|a, b| a.predicted.total_cmp(&b.predicted))
            .map(|p| p.fused)
            .unwrap_or(1)
    }

    /// Fused depth minimizing the measurement.
    pub fn measured_optimum(&self) -> u64 {
        self.points
            .iter()
            .min_by(|a, b| a.measured.total_cmp(&b.measured))
            .map(|p| p.fused)
            .unwrap_or(1)
    }

    /// Fraction of points where the model underestimates the measurement
    /// (the paper observes systematic underestimation from unmodeled kernel
    /// launches).
    pub fn underestimation_rate(&self) -> f64 {
        let n = self.points.len().max(1) as f64;
        self.points
            .iter()
            .filter(|p| p.predicted <= p.measured)
            .count() as f64
            / n
    }
}

/// Runs the Figure 7 sweep for one benchmark: fix the heterogeneous optimum's
/// region/tiles and parallelism, vary the fused depth over `h_values`
/// (rebalancing the tiles for each `h`), and record model vs simulator.
///
/// # Errors
///
/// Propagates search/simulation failures.
pub fn figure7(spec: &BenchmarkSpec, h_values: &[u64]) -> Result<Figure7Series, FrameworkError> {
    let fw = Framework::new();
    let pair = optimize_pair(&spec.program, &fw.device, &fw.cost, &spec.search)?;
    let het = &pair.heterogeneous.design;
    let features = StencilFeatures::extract(&spec.program)?;
    let mut points = Vec::new();
    for &h in h_values {
        let lens: Option<Vec<_>> = (0..features.dim)
            .map(|d| {
                let region = het.region_len(d);
                let k = spec.search.parallelism[d];
                let boundary_expands = features.extent.len(d) / region > 1;
                let min_tile = spec
                    .search
                    .min_tile
                    .max(features.growth.lo(d).max(features.growth.hi(d)) as usize);
                balance_tiles(
                    region,
                    k,
                    &features.growth,
                    d,
                    h,
                    boundary_expands,
                    min_tile,
                )
            })
            .collect();
        let Some(Ok(design)) = lens.map(|lens| Design::heterogeneous(h, lens)) else {
            continue;
        };
        let unroll = pair.heterogeneous.hls.unroll;
        let Ok(point) = evaluate(
            &spec.program,
            &features,
            design.clone(),
            &fw.device,
            &fw.cost,
            unroll,
        ) else {
            continue;
        };
        let partition = Partition::new(features.extent, &design, &features.growth)?;
        let sim = simulate(&features, &partition, &point.hls.schedule(), &fw.device);
        points.push(Figure7Point {
            fused: h,
            predicted: point.prediction.total,
            measured: sim.total_cycles,
        });
    }
    Ok(Figure7Series {
        name: spec.display.to_string(),
        points,
    })
}

/// Result of one ablation comparison: latencies of the two settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ablation {
    /// Benchmark display name.
    pub name: String,
    /// What was toggled.
    pub knob: String,
    /// Simulated cycles with the feature **off**.
    pub off_cycles: f64,
    /// Simulated cycles with the feature **on**.
    pub on_cycles: f64,
}

impl Ablation {
    /// Speedup from enabling the feature.
    pub fn speedup(&self) -> f64 {
        self.off_cycles / self.on_cycles
    }
}

/// Ablation: latency hiding on vs off at the heterogeneous optimum.
///
/// # Errors
///
/// Propagates search/simulation failures.
pub fn ablation_hiding(spec: &BenchmarkSpec) -> Result<Ablation, FrameworkError> {
    let fw = Framework::new();
    let pair = optimize_pair(&spec.program, &fw.device, &fw.cost, &spec.search)?;
    let features = StencilFeatures::extract(&spec.program)?;
    let design = &pair.heterogeneous.design;
    let partition = Partition::new(features.extent, design, &features.growth)?;
    let sched = pair.heterogeneous.hls.schedule();
    let on = simulate_opts(&features, &partition, &sched, &fw.device, true);
    let off = simulate_opts(&features, &partition, &sched, &fw.device, false);
    Ok(Ablation {
        name: spec.display.to_string(),
        knob: "communication latency hiding".into(),
        off_cycles: off.total_cycles,
        on_cycles: on.total_cycles,
    })
}

/// Writes raw text (e.g. Chrome-tracing JSON) to `$STENCILCL_RESULTS/name`
/// (default `results/`).
///
/// # Panics
///
/// Panics when the directory or file cannot be written (experiment binaries
/// treat that as fatal).
pub fn write_text(name: &str, contents: &str) {
    let dir = &EnvConfig::get().results_dir;
    fs::create_dir_all(dir).expect("create results directory");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write experiment artifact");
    println!("\n[wrote {}]", path.display());
}

/// Serializes `value` to `$STENCILCL_RESULTS/name` (default `results/`).
///
/// # Panics
///
/// Panics when the directory or file cannot be written (experiment binaries
/// treat that as fatal).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialize experiment result");
    write_text(name, &json);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::{grid_cases, time_grid_pairs, timed, AbRow, Pairs};
    use std::time::Duration;
    use stencilcl_exec::{
        run_pipe_shared_opts, run_reference_opts, run_threaded_opts, ExecOptions, ExecPolicy,
        HealthPolicy, Recorder,
    };
    use stencilcl_lang::GridState;

    #[test]
    fn figure7_series_stats() {
        let s = Figure7Series {
            name: "t".into(),
            points: vec![
                Figure7Point {
                    fused: 1,
                    predicted: 90.0,
                    measured: 100.0,
                },
                Figure7Point {
                    fused: 2,
                    predicted: 70.0,
                    measured: 80.0,
                },
                Figure7Point {
                    fused: 4,
                    predicted: 95.0,
                    measured: 110.0,
                },
            ],
        };
        assert_eq!(s.predicted_optimum(), 2);
        assert_eq!(s.measured_optimum(), 2);
        assert_eq!(s.underestimation_rate(), 1.0);
        let expect = (0.1 + 0.125 + 15.0 / 110.0) / 3.0;
        assert!((s.mean_error() - expect).abs() < 1e-12);
    }

    #[test]
    fn env_policy_falls_back_to_defaults() {
        // An empty env snapshot must reproduce the library defaults exactly.
        let policy = ExecPolicy::from_config(&EnvConfig::default());
        let default = ExecPolicy::default();
        assert_eq!(policy.watchdog, default.watchdog);
        assert_eq!(policy.drain, default.drain);
        assert_eq!(policy.max_retries, default.max_retries);
    }

    /// Times plain threaded runs against runs configured by `b()` (built
    /// outside the timer) on the 16² Jacobi case, two pairs.
    fn threaded_ab(mut b: impl FnMut() -> ExecOptions) -> (Pairs, f64) {
        let (_, p, part) = &grid_cases(16, 4)[1];
        let run = |s: &mut GridState, opts: &ExecOptions| {
            timed(|| run_threaded_opts(p, part, s, opts).unwrap())
        };
        time_grid_pairs(p, 2, |s| run(s, &ExecOptions::new()), |s| run(s, &b()))
    }

    #[test]
    fn traced_ab_is_bit_exact_and_captures_phases() {
        let mut recorders = Vec::new();
        let (pairs, diff) = threaded_ab(|| {
            recorders.push(Recorder::new());
            ExecOptions::new().trace(recorders[recorders.len() - 1].clone())
        });
        assert_eq!(diff, 0.0, "recording perturbed the grid");
        assert_eq!(pairs.b.len(), 2);
        let trace = recorders.pop().unwrap().finish();
        assert_eq!(trace.dropped, 0);
        assert!(!trace.spans.is_empty());
        trace.validate_spans().expect("well-formed spans");
        for k in 0..4 {
            let t = trace.phase_totals(k);
            assert!(t.compute > 0.0, "kernel {k} recorded compute");
            assert!(t.pipe_wait > 0.0, "kernel {k} recorded pipe waits");
            assert!(t.barrier > 0.0, "kernel {k} recorded barrier idles");
        }
        assert!(trace.counters.cells_computed > 0);
        assert_eq!(trace.counters.slabs_sent, trace.counters.slabs_received);
    }

    #[test]
    fn integrity_ab_is_bit_exact_and_exercises_both_guards() {
        let rec = Recorder::new();
        let deadline = Some(Duration::from_secs(3600));
        let guarded = ExecOptions::new()
            .policy(ExecPolicy {
                deadline,
                ..ExecPolicy::default()
            })
            .integrity(true)
            .health(HealthPolicy::bounded(1e12).stride(3))
            .trace(rec.clone());
        let (pairs, diff) = threaded_ab(|| guarded.clone());
        assert_eq!(diff, 0.0, "guards perturbed the grid");
        assert!(pairs.a.iter().chain(&pairs.b).all(|&ms| ms > 0.0));
        let counters = rec.finish().counters;
        assert!(counters.checksums_verified > 0, "checksum guard never ran");
        assert!(counters.cells_scanned > 0, "health watchdog never ran");
    }

    #[test]
    fn simd_ab_is_bit_exact_across_executors() {
        let (_, p, part) = &grid_cases(16, 4)[1];
        for executor in ["reference", "pipe_shared", "threaded"] {
            let run = |s: &mut GridState, lanes: usize| {
                let opts = ExecOptions::new().lanes(lanes);
                match executor {
                    "reference" => run_reference_opts(p, s, &opts),
                    "pipe_shared" => run_pipe_shared_opts(p, part, s, &opts),
                    _ => run_threaded_opts(p, part, s, &opts),
                }
                .unwrap()
            };
            let (pairs, diff) =
                time_grid_pairs(p, 2, |s| timed(|| run(s, 1)), |s| timed(|| run(s, 8)));
            assert_eq!(diff, 0.0, "lane width perturbed {executor}");
            let row = AbRow::new("jacobi2d_16", ["scalar", "8-lane"], &pairs, None, diff);
            assert!(row.a_ms.median > 0.0 && row.b_ms.median > 0.0);
            assert_eq!((row.pairs, row.verdict), (2, None));
        }
    }

    #[test]
    fn ablation_speedup() {
        let a = Ablation {
            name: "t".into(),
            knob: "x".into(),
            off_cycles: 300.0,
            on_cycles: 200.0,
        };
        assert_eq!(a.speedup(), 1.5);
    }
}
