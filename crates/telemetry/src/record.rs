//! The recording sink: a pre-allocated lock-free slab of span slots plus a
//! bank of atomic counters, and the [`MeasuredTrace`] snapshot it yields.
//!
//! Workers claim a slot with one `fetch_add` and fill it with relaxed
//! stores — no locks, no allocation on the hot path. Slots carry a packed
//! `meta` word whose low bit flips last, so a concurrent snapshot never
//! observes a half-written span. When the slab fills, further spans are
//! counted in `dropped` rather than blocking the executor.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::phase::{Trace, TracePhase, TraceSpan};
use crate::sink::{Counter, Disabled, TraceSink};

/// Default slab capacity: generous for any bench-sized run (a 2×2 partition
/// over 16 fused iterations records a few hundred spans per pass).
const DEFAULT_CAPACITY: usize = 65_536;

/// Phase discriminants packed into slot metadata.
const PH_LAUNCH: u64 = 0;
const PH_READ: u64 = 1;
const PH_COMPUTE: u64 = 2;
const PH_PIPE_WAIT: u64 = 3;
const PH_DEPENDENT: u64 = 4;
const PH_WRITE: u64 = 5;
const PH_BARRIER: u64 = 6;
const PH_CKPT_WRITE: u64 = 7;
const PH_CKPT_LOAD: u64 = 8;
const PH_JOB_QUEUED: u64 = 9;
const PH_JOB_START: u64 = 10;
const PH_JOB_DONE: u64 = 11;
const PH_JOB_RECOVER: u64 = 12;

fn pack_phase(phase: TracePhase) -> (u64, u64) {
    match phase {
        TracePhase::Launch => (PH_LAUNCH, 0),
        TracePhase::Read => (PH_READ, 0),
        TracePhase::Compute { iteration } => (PH_COMPUTE, iteration),
        TracePhase::PipeWait { iteration } => (PH_PIPE_WAIT, iteration),
        TracePhase::Dependent { iteration } => (PH_DEPENDENT, iteration),
        TracePhase::Write => (PH_WRITE, 0),
        TracePhase::Barrier => (PH_BARRIER, 0),
        TracePhase::CheckpointWrite => (PH_CKPT_WRITE, 0),
        TracePhase::CheckpointLoad => (PH_CKPT_LOAD, 0),
        TracePhase::JobQueued => (PH_JOB_QUEUED, 0),
        TracePhase::JobStart => (PH_JOB_START, 0),
        TracePhase::JobDone => (PH_JOB_DONE, 0),
        TracePhase::JobRecover => (PH_JOB_RECOVER, 0),
    }
}

fn unpack_phase(disc: u64, iteration: u64) -> TracePhase {
    match disc {
        PH_LAUNCH => TracePhase::Launch,
        PH_READ => TracePhase::Read,
        PH_COMPUTE => TracePhase::Compute { iteration },
        PH_PIPE_WAIT => TracePhase::PipeWait { iteration },
        PH_DEPENDENT => TracePhase::Dependent { iteration },
        PH_WRITE => TracePhase::Write,
        PH_CKPT_WRITE => TracePhase::CheckpointWrite,
        PH_CKPT_LOAD => TracePhase::CheckpointLoad,
        PH_JOB_QUEUED => TracePhase::JobQueued,
        PH_JOB_START => TracePhase::JobStart,
        PH_JOB_DONE => TracePhase::JobDone,
        PH_JOB_RECOVER => TracePhase::JobRecover,
        _ => TracePhase::Barrier,
    }
}

/// One span slot. `meta` packs, from the low bit up:
/// `ready(1) | phase(4) | kernel(14) | region(13) | iteration(32)`.
#[derive(Debug)]
struct Slot {
    meta: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

const PHASE_BITS: u64 = 4;
const KERNEL_BITS: u64 = 14;
const REGION_BITS: u64 = 13;
const FIELD_MAX: u64 = (1 << KERNEL_BITS) - 1;
const REGION_MAX: u64 = (1 << REGION_BITS) - 1;
const PHASE_MAX: u64 = (1 << PHASE_BITS) - 1;

fn pack_meta(kernel: usize, region: usize, phase: TracePhase) -> u64 {
    let (disc, iteration) = pack_phase(phase);
    let kernel = (kernel as u64).min(FIELD_MAX);
    let region = (region as u64).min(REGION_MAX);
    1 | (disc << 1)
        | (kernel << (1 + PHASE_BITS))
        | (region << (1 + PHASE_BITS + KERNEL_BITS))
        | (iteration << 32)
}

struct Inner {
    epoch: Instant,
    slots: Box<[Slot]>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
    counters: [AtomicU64; Counter::ALL.len()],
}

/// The recording [`TraceSink`]: an `Arc` around a pre-allocated slab, so
/// clones handed to worker threads all feed the same store.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.inner.slots.len())
            .field("recorded", &self.inner.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default slab capacity (65 536 spans).
    pub fn new() -> Recorder {
        Recorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` spans; later spans are dropped
    /// (and counted) rather than blocking the executor.
    pub fn with_capacity(capacity: usize) -> Recorder {
        let slots = (0..capacity.max(1))
            .map(|_| Slot {
                meta: AtomicU64::new(0),
                start: AtomicU64::new(0),
                end: AtomicU64::new(0),
            })
            .collect();
        Recorder {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                slots,
                cursor: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
                counters: [const { AtomicU64::new(0) }; Counter::ALL.len()],
            }),
        }
    }

    /// Spans recorded so far (clamped to capacity).
    pub fn recorded(&self) -> usize {
        self.inner
            .cursor
            .load(Ordering::Acquire)
            .min(self.inner.slots.len())
    }

    /// Spans lost to slab exhaustion.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.inner.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Snapshots the counters alone, without scanning the span slab. Cheap
    /// enough to call at every durable-checkpoint barrier — the snapshot is
    /// sealed into the checkpoint manifest so a resumed run can report
    /// cumulative counter totals.
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            halo_bytes: self.counter(Counter::HaloBytes),
            slabs_sent: self.counter(Counter::SlabsSent),
            slabs_received: self.counter(Counter::SlabsReceived),
            cells_computed: self.counter(Counter::CellsComputed),
            stall_ns: self.counter(Counter::StallNs),
            retries: self.counter(Counter::Retries),
            checksums_verified: self.counter(Counter::ChecksumsVerified),
            cells_scanned: self.counter(Counter::CellsScanned),
            scan_ns: self.counter(Counter::ScanNs),
            redundant_cells: self.counter(Counter::RedundantCells),
            ckpt_bytes: self.counter(Counter::CkptBytes),
            ckpt_generations: self.counter(Counter::CkptGenerations),
            jobs_admitted: self.counter(Counter::JobsAdmitted),
            jobs_rejected: self.counter(Counter::JobsRejected),
            queue_depth: self.counter(Counter::QueueDepth),
            jobs_recovered: self.counter(Counter::JobsRecovered),
            jobs_stalled: self.counter(Counter::JobsStalled),
        }
    }

    /// Snapshots everything recorded so far into an owned
    /// [`MeasuredTrace`]. Call after the instrumented run completes (worker
    /// joins give the necessary happens-before edge); spans still being
    /// written race-free skip via the ready bit.
    pub fn finish(&self) -> MeasuredTrace {
        let inner = &self.inner;
        let filled = self.recorded();
        let mut spans = Vec::with_capacity(filled);
        let mut kernels = 0usize;
        let mut end_ns = 0u64;
        for slot in &inner.slots[..filled] {
            let meta = slot.meta.load(Ordering::Acquire);
            if meta & 1 == 0 {
                continue;
            }
            let phase = unpack_phase((meta >> 1) & PHASE_MAX, meta >> 32);
            let kernel = ((meta >> (1 + PHASE_BITS)) & FIELD_MAX) as usize;
            let region = ((meta >> (1 + PHASE_BITS + KERNEL_BITS)) & REGION_MAX) as usize;
            let start = slot.start.load(Ordering::Relaxed);
            let end = slot.end.load(Ordering::Relaxed).max(start);
            kernels = kernels.max(kernel + 1);
            end_ns = end_ns.max(end);
            spans.push(MeasuredSpan {
                kernel,
                region,
                phase,
                start_ns: start,
                end_ns: end,
            });
        }
        spans.sort_by(|a, b| {
            (a.kernel, a.start_ns, a.end_ns).cmp(&(b.kernel, b.start_ns, b.end_ns))
        });
        let counters = self.counters();
        MeasuredTrace {
            spans,
            counters,
            duration_ns: end_ns,
            kernels,
            dropped: self.dropped(),
        }
    }
}

impl TraceSink for Recorder {
    const ACTIVE: bool = true;

    #[inline]
    fn now(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn span(&self, kernel: usize, region: usize, phase: TracePhase, start_ns: u64, end_ns: u64) {
        let inner = &self.inner;
        let idx = inner.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = inner.slots.get(idx) else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.end.store(end_ns.max(start_ns), Ordering::Relaxed);
        // Release-publish the metadata (with its ready bit) last so a
        // snapshot never sees the timestamps of an unclaimed slot.
        slot.meta
            .store(pack_meta(kernel, region, phase), Ordering::Release);
    }

    #[inline]
    fn add(&self, c: Counter, n: u64) {
        self.inner.counters[c.index()].fetch_add(n, Ordering::Relaxed);
    }
}

/// One measured span, with the region it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeasuredSpan {
    /// Kernel id.
    pub kernel: usize,
    /// Region the kernel was working on.
    pub region: usize,
    /// What it was doing.
    pub phase: TracePhase,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Span end, nanoseconds since the epoch.
    pub end_ns: u64,
}

impl MeasuredSpan {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Final values of the event counters.
///
/// `Deserialize` is implemented by hand so snapshots written before a
/// counter existed still load — any missing field reads as 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CounterSnapshot {
    /// Bytes copied during halo-ring refreshes.
    pub halo_bytes: u64,
    /// Boundary slabs sent into pipes.
    pub slabs_sent: u64,
    /// Boundary slabs received from pipes.
    pub slabs_received: u64,
    /// Stencil cell updates applied.
    pub cells_computed: u64,
    /// Nanoseconds spent blocked on pipes.
    pub stall_ns: u64,
    /// Supervised retry attempts.
    pub retries: u64,
    /// Slab checksums recomputed and compared at splice time.
    pub checksums_verified: u64,
    /// Grid cells sampled by the numerical-health watchdog.
    pub cells_scanned: u64,
    /// Nanoseconds spent inside health scans.
    pub scan_ns: u64,
    /// Cell updates recomputed redundantly in halo overlaps
    /// (subset of `cells_computed`).
    pub redundant_cells: u64,
    /// Bytes written into sealed checkpoint generations.
    pub ckpt_bytes: u64,
    /// Checkpoint generations successfully sealed on disk.
    pub ckpt_generations: u64,
    /// Service jobs accepted past admission control.
    pub jobs_admitted: u64,
    /// Service jobs refused at admission (queue full / quota exhausted).
    pub jobs_rejected: u64,
    /// High-water mark of the scheduler's admission queue depth.
    pub queue_depth: u64,
    /// Interrupted jobs re-enqueued from the durable journal at boot.
    pub jobs_recovered: u64,
    /// Jobs cancelled by the stuck-job watchdog after a silent heartbeat.
    pub jobs_stalled: u64,
}

impl Deserialize for CounterSnapshot {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| -> Result<u64, serde::DeError> {
            match v.get(name) {
                Some(val) => u64::from_value(val),
                None => Ok(0),
            }
        };
        match v {
            serde::Value::Object(_) => Ok(CounterSnapshot {
                halo_bytes: field("halo_bytes")?,
                slabs_sent: field("slabs_sent")?,
                slabs_received: field("slabs_received")?,
                cells_computed: field("cells_computed")?,
                stall_ns: field("stall_ns")?,
                retries: field("retries")?,
                checksums_verified: field("checksums_verified")?,
                cells_scanned: field("cells_scanned")?,
                scan_ns: field("scan_ns")?,
                redundant_cells: field("redundant_cells")?,
                ckpt_bytes: field("ckpt_bytes")?,
                ckpt_generations: field("ckpt_generations")?,
                jobs_admitted: field("jobs_admitted")?,
                jobs_rejected: field("jobs_rejected")?,
                queue_depth: field("queue_depth")?,
                jobs_recovered: field("jobs_recovered")?,
                jobs_stalled: field("jobs_stalled")?,
            }),
            other => Err(serde::DeError::expected(
                "object for CounterSnapshot",
                other,
            )),
        }
    }
}

/// An immutable snapshot of one instrumented run: sorted spans, counter
/// totals, and enough shape to render or calibrate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredTrace {
    /// Spans sorted by (kernel, start, end).
    pub spans: Vec<MeasuredSpan>,
    /// Final counter values.
    pub counters: CounterSnapshot,
    /// Latest span end, nanoseconds since the epoch.
    pub duration_ns: u64,
    /// Number of kernel rows (max kernel id + 1).
    pub kernels: usize,
    /// Spans lost to slab exhaustion (0 in any healthy run).
    pub dropped: u64,
}

impl MeasuredTrace {
    /// Converts to the shared renderable [`Trace`] (nanosecond timeline) so
    /// the simulator's Gantt rendering applies to measured runs too.
    pub fn to_trace(&self) -> Trace {
        let spans = self
            .spans
            .iter()
            .map(|s| TraceSpan {
                kernel: s.kernel,
                phase: s.phase,
                start: s.start_ns as f64,
                end: s.end_ns as f64,
            })
            .collect();
        Trace::new(spans, self.duration_ns as f64, self.kernels)
    }

    /// Sums one kernel's span durations into per-phase buckets
    /// (nanoseconds).
    pub fn phase_totals(&self, kernel: usize) -> crate::PhaseTotals {
        let mut totals = crate::PhaseTotals::default();
        for s in self.spans.iter().filter(|s| s.kernel == kernel) {
            totals.add(s.phase, s.duration_ns() as f64);
        }
        totals
    }

    /// Serializes the run as Chrome `chrome://tracing` / Perfetto JSON
    /// (one complete `"ph": "X"` event per span, one process per region,
    /// one thread row per kernel; timestamps in microseconds).
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (name, iteration) = match s.phase {
                TracePhase::Compute { iteration }
                | TracePhase::PipeWait { iteration }
                | TracePhase::Dependent { iteration } => (s.phase.name(), iteration),
                _ => (s.phase.name(), 0),
            };
            out.push_str(&format!(
                concat!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",",
                    "\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},",
                    "\"args\":{{\"region\":{},\"iteration\":{}}}}}"
                ),
                name,
                name,
                s.start_ns as f64 / 1_000.0,
                s.duration_ns() as f64 / 1_000.0,
                s.kernel,
                s.region,
                iteration,
            ));
        }
        out.push(']');
        out
    }

    /// Checks structural well-formedness: every span has `end >= start`
    /// and no two spans of the same kernel overlap (each worker thread
    /// records strictly sequential activity). Returns the offending pair
    /// description on failure.
    pub fn validate_spans(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("negative span: {s:?}"));
            }
        }
        // Spans are sorted by (kernel, start); within a kernel each span
        // must end before the next begins.
        for w in self.spans.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.kernel == b.kernel && b.start_ns < a.end_ns {
                return Err(format!(
                    "kernel {} spans overlap: {:?} [{}, {}) then {:?} [{}, {})",
                    a.kernel, a.phase, a.start_ns, a.end_ns, b.phase, b.start_ns, b.end_ns
                ));
            }
        }
        Ok(())
    }
}

/// Convenience handle: either sink, chosen at runtime by the outermost
/// caller, for call-sites that cannot be generic (e.g. the CLI).
#[derive(Debug, Clone)]
pub enum AnySink {
    /// No recording.
    Off(Disabled),
    /// Recording into the held recorder.
    On(Recorder),
}

impl AnySink {
    /// A recording sink if `enabled`, otherwise the disabled sink.
    pub fn from_flag(enabled: bool) -> AnySink {
        if enabled {
            AnySink::On(Recorder::new())
        } else {
            AnySink::Off(Disabled)
        }
    }

    /// The recorder, if recording.
    pub fn recorder(&self) -> Option<&Recorder> {
        match self {
            AnySink::On(rec) => Some(rec),
            AnySink::Off(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_spans() {
        let rec = Recorder::with_capacity(16);
        rec.span(1, 0, TracePhase::Read, 10, 30);
        rec.span(0, 2, TracePhase::Compute { iteration: 3 }, 5, 40);
        rec.add(Counter::CellsComputed, 100);
        rec.add(Counter::CellsComputed, 23);
        let t = rec.finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.kernels, 2);
        assert_eq!(t.duration_ns, 40);
        assert_eq!(t.counters.cells_computed, 123);
        assert_eq!(t.dropped, 0);
        // Sorted by kernel first.
        assert_eq!(t.spans[0].kernel, 0);
        assert_eq!(t.spans[0].region, 2);
        assert_eq!(
            t.spans[0].phase,
            TracePhase::Compute { iteration: 3 },
            "iteration survives the meta round-trip"
        );
        assert_eq!(t.spans[1].phase, TracePhase::Read);
        t.validate_spans().expect("well-formed");
    }

    #[test]
    fn counter_snapshots_decode_across_counter_set_changes() {
        // A snapshot missing a counter reads it as 0; a key for a counter
        // that no longer exists (`runner_respawns`) is ignored.
        let old = r#"{"cells_computed":7,"runner_respawns":2}"#;
        let snap: CounterSnapshot = serde_json::from_str(old).expect("old snapshot decodes");
        assert_eq!(snap.cells_computed, 7);
        assert_eq!(snap.jobs_stalled, 0);
    }

    #[test]
    fn overflow_drops_instead_of_blocking() {
        let rec = Recorder::with_capacity(2);
        for i in 0..5 {
            rec.span(0, 0, TracePhase::Write, i * 10, i * 10 + 5);
        }
        let t = rec.finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let rec = Recorder::with_capacity(4096);
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        rec.span(k, 0, TracePhase::Compute { iteration: i }, i * 2, i * 2 + 1);
                        rec.add(Counter::SlabsSent, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let t = rec.finish();
        assert_eq!(t.spans.len(), 1024);
        assert_eq!(t.counters.slabs_sent, 1024);
        assert_eq!(t.dropped, 0);
        t.validate_spans().expect("per-kernel spans sequential");
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let rec = Recorder::with_capacity(8);
        rec.span(0, 1, TracePhase::PipeWait { iteration: 2 }, 1_000, 3_500);
        rec.span(1, 0, TracePhase::Barrier, 0, 500);
        let json = rec.finish().chrome_trace_json();
        let value = serde_json::parse_value(&json).expect("chrome trace parses");
        let serde_json::Value::Array(events) = value else {
            panic!("expected a JSON array");
        };
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn validate_rejects_overlap() {
        let t = MeasuredTrace {
            spans: vec![
                MeasuredSpan {
                    kernel: 0,
                    region: 0,
                    phase: TracePhase::Read,
                    start_ns: 0,
                    end_ns: 100,
                },
                MeasuredSpan {
                    kernel: 0,
                    region: 0,
                    phase: TracePhase::Write,
                    start_ns: 50,
                    end_ns: 150,
                },
            ],
            counters: CounterSnapshot::default(),
            duration_ns: 150,
            kernels: 1,
            dropped: 0,
        };
        assert!(t.validate_spans().is_err());
    }

    #[test]
    fn to_trace_preserves_shape() {
        let rec = Recorder::with_capacity(8);
        rec.span(0, 0, TracePhase::Read, 0, 10);
        rec.span(2, 0, TracePhase::Write, 10, 20);
        let trace = rec.finish().to_trace();
        assert_eq!(trace.kernels(), 3);
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.duration(), 20.0);
        // Gantt rendering works on measured traces too.
        assert!(trace.gantt(40).contains("k2"));
    }
}
