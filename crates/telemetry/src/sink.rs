//! The [`TraceSink`] abstraction: executors are generic over a sink so the
//! disabled path monomorphizes to nothing.
//!
//! Instrumented code is written once against the trait; at plan time the
//! caller picks either [`Disabled`] (a zero-sized type whose methods are
//! empty — the optimizer deletes every call, including the `now()`
//! timestamps guarding spans) or [`Recorder`](crate::Recorder) (a
//! lock-free atomic-slab recorder). Because the choice is a generic
//! parameter rather than a runtime branch, the fused inner loops pay
//! nothing when tracing is off.

use crate::phase::TracePhase;

/// Monotonic event counters accumulated alongside spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Bytes copied while refreshing halo rings between regions.
    HaloBytes,
    /// Boundary slabs pushed into channels (pipe occupancy).
    SlabsSent,
    /// Boundary slabs drained from channels.
    SlabsReceived,
    /// Stencil cell updates applied (independent + dependent groups).
    CellsComputed,
    /// Wall-clock nanoseconds spent blocked on full/empty pipes.
    StallNs,
    /// Supervised retry attempts after transient faults.
    Retries,
    /// Slab checksums recomputed and compared at splice time.
    ChecksumsVerified,
    /// Grid cells sampled by the numerical-health watchdog.
    CellsScanned,
    /// Wall-clock nanoseconds spent inside health scans.
    ScanNs,
    /// Cell updates recomputed redundantly: cells a kernel evaluates
    /// outside its own tile, which a neighboring tile owns — a baseline
    /// cone's overlap, or a pipe design's region-boundary halo (0 for a
    /// one-region pipe design). Always a subset of `CellsComputed`:
    /// `CellsComputed − RedundantCells` is the reference's cell updates.
    RedundantCells,
    /// Bytes written into sealed checkpoint generations on disk.
    CkptBytes,
    /// Checkpoint generations successfully sealed (atomic rename done).
    CkptGenerations,
    /// Service jobs accepted past admission control into the scheduler's
    /// queue.
    JobsAdmitted,
    /// Service jobs refused at admission (queue full or tenant quota
    /// exhausted) — the 429 path.
    JobsRejected,
    /// High-water mark of the scheduler's admission queue depth (peak
    /// jobs simultaneously queued-or-running, maintained by the
    /// scheduler under its admission lock).
    QueueDepth,
    /// Interrupted jobs re-enqueued from the durable journal when a
    /// daemon reboots on its `--state-dir` (crash-only recovery).
    JobsRecovered,
    /// Jobs whose `Progress` heartbeat went silent past the scheduler's
    /// stall timeout — each one is cancelled and auto-resumed (or failed
    /// once the resume budget is spent).
    JobsStalled,
}

impl Counter {
    /// All counters, in snapshot order.
    pub const ALL: [Counter; 17] = [
        Counter::HaloBytes,
        Counter::SlabsSent,
        Counter::SlabsReceived,
        Counter::CellsComputed,
        Counter::StallNs,
        Counter::Retries,
        Counter::ChecksumsVerified,
        Counter::CellsScanned,
        Counter::ScanNs,
        Counter::RedundantCells,
        Counter::CkptBytes,
        Counter::CkptGenerations,
        Counter::JobsAdmitted,
        Counter::JobsRejected,
        Counter::QueueDepth,
        Counter::JobsRecovered,
        Counter::JobsStalled,
    ];

    /// Stable index into counter arrays.
    pub fn index(self) -> usize {
        match self {
            Counter::HaloBytes => 0,
            Counter::SlabsSent => 1,
            Counter::SlabsReceived => 2,
            Counter::CellsComputed => 3,
            Counter::StallNs => 4,
            Counter::Retries => 5,
            Counter::ChecksumsVerified => 6,
            Counter::CellsScanned => 7,
            Counter::ScanNs => 8,
            Counter::RedundantCells => 9,
            Counter::CkptBytes => 10,
            Counter::CkptGenerations => 11,
            Counter::JobsAdmitted => 12,
            Counter::JobsRejected => 13,
            Counter::QueueDepth => 14,
            Counter::JobsRecovered => 15,
            Counter::JobsStalled => 16,
        }
    }

    /// Human/JSON label.
    pub fn name(self) -> &'static str {
        match self {
            Counter::HaloBytes => "halo_bytes",
            Counter::SlabsSent => "slabs_sent",
            Counter::SlabsReceived => "slabs_received",
            Counter::CellsComputed => "cells_computed",
            Counter::StallNs => "stall_ns",
            Counter::Retries => "retries",
            Counter::ChecksumsVerified => "checksums_verified",
            Counter::CellsScanned => "cells_scanned",
            Counter::ScanNs => "scan_ns",
            Counter::RedundantCells => "redundant_cells",
            Counter::CkptBytes => "ckpt_bytes",
            Counter::CkptGenerations => "ckpt_generations",
            Counter::JobsAdmitted => "jobs_admitted",
            Counter::JobsRejected => "jobs_rejected",
            Counter::QueueDepth => "queue_depth",
            Counter::JobsRecovered => "jobs_recovered",
            Counter::JobsStalled => "jobs_stalled",
        }
    }
}

/// Destination for measured spans and counters.
///
/// Implementations must be cheap to clone (they are handed to every worker
/// thread) and safe to feed concurrently.
pub trait TraceSink: Clone + Send + Sync + 'static {
    /// Whether this sink records anything. Instrumentation may branch on
    /// this constant to skip timestamp capture; the branch folds away at
    /// monomorphization.
    const ACTIVE: bool;

    /// Nanoseconds since the sink's epoch (0 when disabled).
    fn now(&self) -> u64;

    /// Records one `[start_ns, end_ns)` span of `kernel` working on
    /// `region`.
    fn span(&self, kernel: usize, region: usize, phase: TracePhase, start_ns: u64, end_ns: u64);

    /// Adds `n` to counter `c`.
    fn add(&self, c: Counter, n: u64);
}

/// The no-op sink: zero-sized, every method empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Disabled;

impl TraceSink for Disabled {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn span(&self, _kernel: usize, _region: usize, _phase: TracePhase, _start: u64, _end: u64) {}

    #[inline(always)]
    fn add(&self, _c: Counter, _n: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Disabled>(), 0);
        const { assert!(!Disabled::ACTIVE) };
        assert_eq!(Disabled.now(), 0);
    }

    #[test]
    fn counter_indices_are_a_permutation() {
        let mut seen = [false; Counter::ALL.len()];
        for c in Counter::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(Counter::ALL[3].name(), "cells_computed");
    }
}
