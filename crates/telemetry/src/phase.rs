//! The shared phase vocabulary and renderable trace — the paper's Figure 4
//! execution schedule, usable for both *simulated* cycle traces
//! (`stencilcl-sim`) and *measured* wall-clock traces ([`crate::Recorder`]).

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// What a kernel is doing during a traced span — the phases of the paper's
/// Figure 4 execution schedule.
///
/// This vocabulary is shared between the simulator's cycle traces and the
/// host executors' measured traces, so the two are directly comparable in a
/// [`CalibrationReport`](crate::CalibrationReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TracePhase {
    /// Waiting for the host runtime's (sequential) launch.
    Launch,
    /// Burst-reading the cone footprint from global memory.
    Read,
    /// Computing the independent group of a fused iteration.
    Compute {
        /// 1-based fused iteration.
        iteration: u64,
    },
    /// Stalled waiting for neighbor boundary slabs.
    PipeWait {
        /// The fused iteration whose dependent group is blocked.
        iteration: u64,
    },
    /// Computing the dependent group of a fused iteration.
    Dependent {
        /// 1-based fused iteration.
        iteration: u64,
    },
    /// Burst-writing the tile back to global memory.
    Write,
    /// Idling at the region barrier.
    Barrier,
    /// Sealing a durable checkpoint generation to disk.
    CheckpointWrite,
    /// Validating and loading a checkpoint generation from disk.
    CheckpointLoad,
    /// A submitted service job waiting in the scheduler's admission queue
    /// (span runs from admission to dequeue).
    JobQueued,
    /// Scheduler bookkeeping between dequeuing a service job and entering
    /// the supervised executor.
    JobStart,
    /// Sealing a finished service job's terminal result (report, digest,
    /// retained grids) into the job table.
    JobDone,
    /// Re-admitting an interrupted job from the durable journal — daemon
    /// reboot recovery or a stuck-job watchdog auto-resume.
    JobRecover,
}

impl TracePhase {
    /// One-character glyph for the Gantt rendering.
    pub fn glyph(self) -> char {
        match self {
            TracePhase::Launch => '.',
            TracePhase::Read => 'r',
            TracePhase::Compute { .. } => '#',
            TracePhase::PipeWait { .. } => '~',
            TracePhase::Dependent { .. } => '+',
            TracePhase::Write => 'w',
            TracePhase::Barrier => ' ',
            TracePhase::CheckpointWrite => 'C',
            TracePhase::CheckpointLoad => 'L',
            TracePhase::JobQueued => 'Q',
            TracePhase::JobStart => 'J',
            TracePhase::JobDone => 'D',
            TracePhase::JobRecover => 'R',
        }
    }

    /// Phase name without the iteration payload (the Chrome-trace event
    /// name and the calibration bucket label).
    pub fn name(self) -> &'static str {
        match self {
            TracePhase::Launch => "Launch",
            TracePhase::Read => "Read",
            TracePhase::Compute { .. } => "Compute",
            TracePhase::PipeWait { .. } => "PipeWait",
            TracePhase::Dependent { .. } => "Dependent",
            TracePhase::Write => "Write",
            TracePhase::Barrier => "Barrier",
            TracePhase::CheckpointWrite => "CheckpointWrite",
            TracePhase::CheckpointLoad => "CheckpointLoad",
            TracePhase::JobQueued => "JobQueued",
            TracePhase::JobStart => "JobStart",
            TracePhase::JobDone => "JobDone",
            TracePhase::JobRecover => "JobRecover",
        }
    }
}

/// One contiguous activity of one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Kernel id.
    pub kernel: usize,
    /// What the kernel was doing.
    pub phase: TracePhase,
    /// Span start (cycles for simulated traces, nanoseconds for measured).
    pub start: f64,
    /// Span end, same unit as `start`.
    pub end: f64,
}

/// The full event trace of one simulated region pass (or one measured run),
/// renderable as an ASCII Gantt chart — the executable version of the
/// paper's Figure 4.
///
/// Produced by `stencilcl_sim::simulate_pass_traced` and by
/// [`MeasuredTrace::to_trace`](crate::MeasuredTrace::to_trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    spans: Vec<TraceSpan>,
    duration: f64,
    kernels: usize,
}

impl Trace {
    /// Assembles a trace from raw spans. `duration` should cover every
    /// span; `kernels` is the number of Gantt rows.
    pub fn new(spans: Vec<TraceSpan>, duration: f64, kernels: usize) -> Trace {
        Trace {
            spans,
            duration,
            kernels,
        }
    }

    /// All spans, ordered by kernel then time.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Pass duration in cycles.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Number of kernel rows.
    pub fn kernels(&self) -> usize {
        self.kernels
    }

    /// The spans of one kernel, in time order.
    pub fn kernel_spans(&self, kernel: usize) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter().filter(move |s| s.kernel == kernel)
    }

    /// Sums each kernel's span durations into per-phase buckets.
    pub fn phase_totals(&self, kernel: usize) -> crate::PhaseTotals {
        let mut totals = crate::PhaseTotals::default();
        for s in self.kernel_spans(kernel) {
            totals.add(s.phase, s.end - s.start);
        }
        totals
    }

    /// Renders the pass as an ASCII Gantt chart, `width` characters wide.
    ///
    /// Legend: `.` launch wait, `r` read, `#` independent compute,
    /// `~` pipe wait, `+` dependent compute, `w` write, space = barrier.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn gantt(&self, width: usize) -> String {
        assert!(width > 0, "gantt width must be positive");
        let scale = self.duration / width as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "one region pass, {:.0} cycles ({:.0} cycles/char)",
            self.duration, scale
        );
        for k in 0..self.kernels {
            let mut row = vec![' '; width];
            for span in self.kernel_spans(k) {
                let from = ((span.start / scale) as usize).min(width - 1);
                let to = ((span.end / scale).ceil() as usize).clamp(from + 1, width);
                for cell in &mut row[from..to] {
                    *cell = span.phase.glyph();
                }
            }
            let _ = writeln!(out, "k{k:<3}|{}|", row.into_iter().collect::<String>());
        }
        out.push_str("legend: .=launch r=read #=compute ~=pipe-wait +=dependent w=write\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            vec![
                TraceSpan {
                    kernel: 0,
                    phase: TracePhase::Launch,
                    start: 0.0,
                    end: 10.0,
                },
                TraceSpan {
                    kernel: 0,
                    phase: TracePhase::Read,
                    start: 10.0,
                    end: 30.0,
                },
                TraceSpan {
                    kernel: 0,
                    phase: TracePhase::Compute { iteration: 1 },
                    start: 30.0,
                    end: 80.0,
                },
                TraceSpan {
                    kernel: 0,
                    phase: TracePhase::Write,
                    start: 80.0,
                    end: 100.0,
                },
                TraceSpan {
                    kernel: 1,
                    phase: TracePhase::Launch,
                    start: 0.0,
                    end: 20.0,
                },
                TraceSpan {
                    kernel: 1,
                    phase: TracePhase::PipeWait { iteration: 2 },
                    start: 20.0,
                    end: 100.0,
                },
            ],
            100.0,
            2,
        )
    }

    #[test]
    fn gantt_renders_one_row_per_kernel() {
        let g = sample().gantt(50);
        let rows: Vec<&str> = g.lines().filter(|l| l.starts_with('k')).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains('r') && rows[0].contains('#') && rows[0].contains('w'));
        assert!(rows[1].contains('~'));
        // Every row has the same width.
        assert_eq!(rows[0].len(), rows[1].len());
    }

    #[test]
    fn kernel_spans_filters() {
        let t = sample();
        assert_eq!(t.kernel_spans(0).count(), 4);
        assert_eq!(t.kernel_spans(1).count(), 2);
        assert_eq!(t.duration(), 100.0);
    }

    #[test]
    fn phase_totals_bucket_by_phase_name() {
        let t = sample();
        let k0 = t.phase_totals(0);
        assert_eq!(k0.launch, 10.0);
        assert_eq!(k0.read, 20.0);
        assert_eq!(k0.compute, 50.0);
        assert_eq!(k0.write, 20.0);
        assert_eq!(k0.total(), 100.0);
        let k1 = t.phase_totals(1);
        assert_eq!(k1.pipe_wait, 80.0);
    }

    #[test]
    fn glyphs_and_names_are_distinct() {
        use std::collections::HashSet;
        let phases = [
            TracePhase::Launch,
            TracePhase::Read,
            TracePhase::Compute { iteration: 1 },
            TracePhase::PipeWait { iteration: 1 },
            TracePhase::Dependent { iteration: 1 },
            TracePhase::Write,
            TracePhase::Barrier,
            TracePhase::CheckpointWrite,
            TracePhase::CheckpointLoad,
            TracePhase::JobQueued,
            TracePhase::JobStart,
            TracePhase::JobDone,
        ];
        let glyphs: HashSet<char> = phases.iter().map(|p| p.glyph()).collect();
        assert_eq!(glyphs.len(), 12);
        let names: HashSet<&str> = phases.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = sample().gantt(0);
    }
}
