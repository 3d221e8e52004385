//! Measured-vs-predicted calibration — the repo's host-side analogue of
//! the paper's Figure 7.
//!
//! A [`CalibrationReport`] folds a [`MeasuredTrace`](crate::MeasuredTrace)
//! into per-kernel, per-phase wall-clock totals and sets them against two
//! references for the same `Design`: the analytical model's per-term cycle
//! breakdown (Section 4, Eqs. 1–11) and the event-driven simulator's
//! schedule. The per-kernel measured/simulated ratio plays the role of the
//! paper's predicted-vs-measured gap, which Section 5.6 attributes to
//! sequential kernel launches.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::phase::{Trace, TracePhase};
use crate::record::MeasuredTrace;

/// Per-phase duration totals for one kernel (nanoseconds for measured
/// traces, cycles for simulated ones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTotals {
    /// Launch-wait total.
    pub launch: f64,
    /// Burst-read total.
    pub read: f64,
    /// Independent-group compute total.
    pub compute: f64,
    /// Pipe-stall total.
    pub pipe_wait: f64,
    /// Dependent-group compute total.
    pub dependent: f64,
    /// Burst-write total.
    pub write: f64,
    /// Barrier-idle total.
    pub barrier: f64,
    /// Durable-checkpoint I/O total (write + load).
    pub checkpoint: f64,
}

impl PhaseTotals {
    /// Adds `amount` to the bucket for `phase`.
    pub fn add(&mut self, phase: TracePhase, amount: f64) {
        match phase {
            TracePhase::Launch => self.launch += amount,
            TracePhase::Read => self.read += amount,
            TracePhase::Compute { .. } => self.compute += amount,
            TracePhase::PipeWait { .. } => self.pipe_wait += amount,
            TracePhase::Dependent { .. } => self.dependent += amount,
            TracePhase::Write => self.write += amount,
            TracePhase::Barrier => self.barrier += amount,
            TracePhase::CheckpointWrite | TracePhase::CheckpointLoad => {
                self.checkpoint += amount;
            }
            // Service-job lifecycle spans are host-side launch overhead —
            // the same bucket the paper's §5.6 attributes its
            // predicted-vs-measured gap to.
            TracePhase::JobQueued
            | TracePhase::JobStart
            | TracePhase::JobDone
            | TracePhase::JobRecover => {
                self.launch += amount;
            }
        }
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.launch
            + self.read
            + self.compute
            + self.pipe_wait
            + self.dependent
            + self.write
            + self.barrier
            + self.checkpoint
    }

    /// `(label, value)` pairs in phase order, for rendering.
    pub fn entries(&self) -> [(&'static str, f64); 8] {
        [
            ("Launch", self.launch),
            ("Read", self.read),
            ("Compute", self.compute),
            ("PipeWait", self.pipe_wait),
            ("Dependent", self.dependent),
            ("Write", self.write),
            ("Barrier", self.barrier),
            ("Checkpoint", self.checkpoint),
        ]
    }

    /// Fraction of the total spent in `bucket` value (0 when the total is
    /// zero).
    pub fn fraction(&self, value: f64) -> f64 {
        let total = self.total();
        if total > 0.0 {
            value / total
        } else {
            0.0
        }
    }
}

/// One kernel's measured-vs-simulated comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCalibration {
    /// Kernel id.
    pub kernel: usize,
    /// Measured per-phase totals (nanoseconds).
    pub measured: PhaseTotals,
    /// Simulated per-phase totals (device cycles), when a sim trace was
    /// supplied.
    pub simulated: Option<PhaseTotals>,
    /// Measured busy time (everything except launch/pipe-wait/barrier)
    /// divided by measured total — how much of the wall clock did useful
    /// work.
    pub busy_fraction: f64,
    /// measured_total / simulated_total, normalized so the mean ratio over
    /// all kernels is 1 — a per-kernel skew factor. A kernel above 1 is
    /// slower than the schedule predicts relative to its peers (the
    /// Figure 7 launch-serialization signature is ratios growing with
    /// kernel id).
    pub skew: Option<f64>,
}

/// The full calibration report for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Benchmark / program name.
    pub name: String,
    /// Executor the measurement came from.
    pub executor: String,
    /// Measured wall-clock duration of the run (nanoseconds).
    pub measured_total_ns: f64,
    /// Simulated pass duration (device cycles), when supplied.
    pub simulated_cycles: Option<f64>,
    /// The analytical model's per-term cycle breakdown
    /// (`model::predict`), when supplied: `(term, cycles)`.
    pub predicted_terms: Vec<(String, f64)>,
    /// The analytical model's total predicted cycles.
    pub predicted_total: Option<f64>,
    /// Per-kernel comparisons.
    pub kernels: Vec<KernelCalibration>,
    /// Counter totals carried over from the measured trace.
    pub counters: crate::CounterSnapshot,
    /// Spans lost to recorder overflow (report is partial if nonzero).
    pub dropped_spans: u64,
}

impl CalibrationReport {
    /// Builds a report from a measured trace plus optional references: the
    /// simulator's trace for the same design and the model's per-term
    /// prediction. Term slices are plain `(label, cycles)` pairs so this
    /// crate needs no dependency on the model crate.
    pub fn build(
        name: &str,
        executor: &str,
        measured: &MeasuredTrace,
        simulated: Option<&Trace>,
        predicted_terms: &[(&str, f64)],
        predicted_total: Option<f64>,
    ) -> CalibrationReport {
        let kernels_n = match simulated {
            Some(sim) => measured.kernels.max(sim.kernels()),
            None => measured.kernels,
        };
        let mut kernels: Vec<KernelCalibration> = (0..kernels_n)
            .map(|k| {
                let m = measured.phase_totals(k);
                let s = simulated.map(|t| t.phase_totals(k));
                let busy = m.compute + m.dependent + m.read + m.write;
                KernelCalibration {
                    kernel: k,
                    measured: m,
                    simulated: s,
                    busy_fraction: m.fraction(busy),
                    skew: None,
                }
            })
            .collect();
        // Raw measured/simulated ratios mix units (ns vs cycles); divide
        // by the mean so the report exposes relative skew between kernels.
        let ratios: Vec<Option<f64>> = kernels
            .iter()
            .map(|k| {
                let sim_total = k.simulated.map(|s| s.total())?;
                if sim_total > 0.0 && k.measured.total() > 0.0 {
                    Some(k.measured.total() / sim_total)
                } else {
                    None
                }
            })
            .collect();
        let known: Vec<f64> = ratios.iter().filter_map(|r| *r).collect();
        if !known.is_empty() {
            let mean = known.iter().sum::<f64>() / known.len() as f64;
            for (k, r) in kernels.iter_mut().zip(&ratios) {
                k.skew = r.map(|r| r / mean);
            }
        }
        CalibrationReport {
            name: name.to_string(),
            executor: executor.to_string(),
            measured_total_ns: measured.duration_ns as f64,
            simulated_cycles: simulated.map(|t| t.duration()),
            predicted_terms: predicted_terms
                .iter()
                .map(|(label, v)| (label.to_string(), *v))
                .collect(),
            predicted_total,
            kernels,
            counters: measured.counters,
            dropped_spans: measured.dropped,
        }
    }

    /// Renders the report as a fixed-width text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "calibration: {} via {} — measured {:.3} ms{}{}",
            self.name,
            self.executor,
            self.measured_total_ns / 1e6,
            match self.simulated_cycles {
                Some(c) => format!(", simulated {c:.0} cycles/pass"),
                None => String::new(),
            },
            match self.predicted_total {
                Some(c) => format!(", predicted {c:.0} cycles/pass"),
                None => String::new(),
            },
        );
        if self.dropped_spans > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} spans dropped — totals are partial",
                self.dropped_spans
            );
        }
        if !self.predicted_terms.is_empty() {
            let _ = writeln!(out, "model terms (cycles):");
            for (label, v) in &self.predicted_terms {
                let _ = writeln!(out, "  {label:<12} {v:>14.0}");
            }
        }
        let _ = writeln!(
            out,
            "{:<4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6}",
            "k",
            "launch",
            "read",
            "compute",
            "pipewait",
            "depend",
            "write",
            "barrier",
            "busy%",
            "skew"
        );
        for k in &self.kernels {
            let m = &k.measured;
            let _ = writeln!(
                out,
                "{:<4} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>5.1}% {:>6}",
                format!("k{}", k.kernel),
                m.launch,
                m.read,
                m.compute,
                m.pipe_wait,
                m.dependent,
                m.write,
                m.barrier,
                k.busy_fraction * 100.0,
                match k.skew {
                    Some(s) => format!("{s:.2}"),
                    None => "-".to_string(),
                },
            );
        }
        let c = &self.counters;
        let _ = writeln!(
            out,
            "counters: halo_bytes={} slabs={}→{} cells={} stall={:.3} ms retries={}",
            c.halo_bytes,
            c.slabs_sent,
            c.slabs_received,
            c.cells_computed,
            c.stall_ns as f64 / 1e6,
            c.retries,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::TraceSpan;
    use crate::record::{CounterSnapshot, MeasuredSpan};

    fn measured() -> MeasuredTrace {
        MeasuredTrace {
            spans: vec![
                MeasuredSpan {
                    kernel: 0,
                    region: 0,
                    phase: TracePhase::Compute { iteration: 1 },
                    start_ns: 0,
                    end_ns: 1_000,
                },
                MeasuredSpan {
                    kernel: 0,
                    region: 0,
                    phase: TracePhase::Write,
                    start_ns: 1_000,
                    end_ns: 1_500,
                },
                MeasuredSpan {
                    kernel: 1,
                    region: 0,
                    phase: TracePhase::PipeWait { iteration: 1 },
                    start_ns: 0,
                    end_ns: 2_000,
                },
                MeasuredSpan {
                    kernel: 1,
                    region: 0,
                    phase: TracePhase::Compute { iteration: 1 },
                    start_ns: 2_000,
                    end_ns: 3_000,
                },
            ],
            counters: CounterSnapshot {
                cells_computed: 64,
                ..CounterSnapshot::default()
            },
            duration_ns: 3_000,
            kernels: 2,
            dropped: 0,
        }
    }

    fn simulated() -> Trace {
        Trace::new(
            vec![
                TraceSpan {
                    kernel: 0,
                    phase: TracePhase::Compute { iteration: 1 },
                    start: 0.0,
                    end: 100.0,
                },
                TraceSpan {
                    kernel: 1,
                    phase: TracePhase::Compute { iteration: 1 },
                    start: 0.0,
                    end: 100.0,
                },
            ],
            100.0,
            2,
        )
    }

    #[test]
    fn report_folds_phases_and_normalizes_skew() {
        let m = measured();
        let sim = simulated();
        let report = CalibrationReport::build(
            "jacobi_2d",
            "threaded",
            &m,
            Some(&sim),
            &[("read", 40.0), ("compute", 50.0), ("write", 10.0)],
            Some(100.0),
        );
        assert_eq!(report.kernels.len(), 2);
        assert_eq!(report.kernels[0].measured.compute, 1_000.0);
        assert_eq!(report.kernels[1].measured.pipe_wait, 2_000.0);
        // k0 total 1500 ns / 100 cycles = 15; k1 total 3000 / 100 = 30.
        // Mean ratio 22.5, so skews are 15/22.5 and 30/22.5.
        let s0 = report.kernels[0].skew.unwrap();
        let s1 = report.kernels[1].skew.unwrap();
        assert!((s0 - 15.0 / 22.5).abs() < 1e-12);
        assert!((s1 - 30.0 / 22.5).abs() < 1e-12);
        // Mean of skews is 1 by construction.
        assert!(((s0 + s1) / 2.0 - 1.0).abs() < 1e-12);
        let text = report.render();
        assert!(text.contains("jacobi_2d"));
        assert!(text.contains("compute"));
        assert!(text.contains("cells=64"));
    }

    #[test]
    fn report_without_references_still_renders() {
        let m = measured();
        let report = CalibrationReport::build("heat", "pipe_shared", &m, None, &[], None);
        assert!(report.simulated_cycles.is_none());
        assert!(report.kernels.iter().all(|k| k.skew.is_none()));
        assert!(report.render().contains("pipe_shared"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let m = measured();
        let report = CalibrationReport::build("heat", "threaded", &m, None, &[("t", 1.0)], None);
        let json = serde_json::to_string_pretty(&report).expect("serialize");
        let back: CalibrationReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }

    #[test]
    fn busy_fraction_counts_useful_phases() {
        let m = measured();
        let report = CalibrationReport::build("x", "y", &m, None, &[], None);
        // k1: 1000 busy out of 3000 total.
        assert!((report.kernels[1].busy_fraction - 1.0 / 3.0).abs() < 1e-12);
    }
}
