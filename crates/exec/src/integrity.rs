//! Data-plane integrity: slab checksums, the numerical-health watchdog,
//! and cooperative wall-clock deadlines.
//!
//! The pipe-sharing design (§3.1) moves every boundary value through a
//! FIFO, so a silently corrupted slab payload splices straight into a
//! neighbor's halo and produces a bit-wrong grid that nothing downstream
//! detects. This module closes that gap end to end:
//!
//! * **Slab checksums** — every slab is sealed at send time with a
//!   four-lane word hash ([`LaneHash`]) over its payload bit patterns, its
//!   `(iteration, statement)` step tag, and a per-channel sequence number;
//!   the splice site recomputes and compares, surfacing any mismatch as
//!   the *transient* [`ExecError::SlabCorrupt`] so the supervisor can
//!   retry from the fused-block-barrier checkpoint.
//! * **Numerical health** — a [`HealthPolicy`] samples the written grids
//!   at every fused-block barrier (strided, to bound overhead) for
//!   NaN/Inf/out-of-bound values and aborts with the *permanent*
//!   [`ExecError::NumericDivergence`], leaving the last healthy barrier in
//!   the output buffer. Deterministic recompute reproduces the same
//!   divergence, so retrying would only waste the budget.
//! * **Deadlines** — an absolute wall-clock cutoff carried in
//!   [`RunLimits`], checked cooperatively at barriers and inside the
//!   10 ms pipe tick, yielding [`ExecError::DeadlineExceeded`] with the
//!   completed-iteration count instead of wedging unbounded.
//!
//! [`ExecError::SlabCorrupt`]: crate::ExecError::SlabCorrupt
//! [`ExecError::NumericDivergence`]: crate::ExecError::NumericDivergence
//! [`ExecError::DeadlineExceeded`]: crate::ExecError::DeadlineExceeded

use std::time::{Duration, Instant};

use stencilcl_grid::{LaneHash, Rect};
use stencilcl_lang::GridState;
use stencilcl_telemetry::{Counter, TraceSink};

use crate::error::ExecError;
use crate::jobs::{CancelHandle, Progress};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-wise FNV-1a-64 over a byte stream: the length, then the bytes in
/// 8-byte little-endian chunks (the final partial chunk zero-padded), so
/// streams differing only in trailing zero bytes digest differently. It
/// keys the program hash and policy fingerprint that stores written before
/// the lane digest carry, and seals those version-1 checkpoint files, so
/// it stays as it is; bulk data goes through [`LaneHash`].
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let fold = |hash: u64, word: u64| (hash ^ word).wrapping_mul(FNV_PRIME);
    let mut hash = fold(FNV_OFFSET, bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        hash = fold(
            hash,
            u64::from_le_bytes(c.try_into().expect("8-byte chunk")),
        );
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        hash = fold(hash, u64::from_le_bytes(last));
    }
    hash
}

/// Seals a slab: one [`LaneHash`] stream over the sequence number, the
/// `(iteration, statement)` step tag, and every payload value's IEEE-754
/// bit pattern (so `-0.0` vs `0.0` and NaN payloads all checksum
/// distinctly). Any single corrupted word always changes the checksum.
pub(crate) fn slab_checksum(seq: u64, step: (u64, usize), values: &[f64]) -> u64 {
    let mut hash = LaneHash::new();
    hash.write_u64(seq);
    hash.write_u64(step.0);
    hash.write_u64(step.1 as u64);
    hash.write_f64s(values);
    hash.finish()
}

/// Recomputes a received slab's checksum against the sequence number the
/// receiver expected and the slab's own step tag.
///
/// Returns [`ExecError::SlabCorrupt`] naming the receiving kernel when the
/// payload, tag, or ordering was corrupted in flight.
pub(crate) fn verify_slab<S: TraceSink>(
    kernel: usize,
    expected_seq: u64,
    step: (u64, usize),
    values: &[f64],
    checksum: u64,
    sink: &S,
) -> Result<(), ExecError> {
    sink.add(Counter::ChecksumsVerified, 1);
    if slab_checksum(expected_seq, step, values) != checksum {
        return Err(ExecError::SlabCorrupt { kernel, step });
    }
    Ok(())
}

/// What the numerical-health watchdog treats as unhealthy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum HealthMode {
    /// No scanning; the watchdog is disarmed.
    #[default]
    Off,
    /// Reject NaN and ±Inf only.
    NonFinite,
    /// Reject NaN, ±Inf, and any `|x|` above [`HealthPolicy::bound`].
    Bounded,
}

/// Numerical-health watchdog configuration, set via
/// [`ExecOptions::health`](crate::ExecOptions::health).
///
/// When armed, executors sample the updated grids at every fused-block
/// barrier: every `stride`-th cell in row-major order is tested against
/// [`HealthMode`]. A hit aborts the run with the permanent
/// [`ExecError::NumericDivergence`](crate::ExecError::NumericDivergence)
/// while the output buffer keeps the last healthy barrier.
///
/// The stride bounds overhead: a scan touches `⌈volume / stride⌉` cells
/// per updated grid per barrier, so on an `N²` grid with fused depth `h`
/// the amortized cost is `N² / (stride · h)` samples per iteration —
/// strictly cheaper than the stencil update itself for any `stride ≥ 1`.
/// Divergence in an iterative stencil spreads by the access radius each
/// iteration, so a sparse sample still catches a blow-up within a few
/// barriers of its onset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Sampling stride in row-major cells (≥ 1; 1 = scan everything).
    pub stride: usize,
    /// Magnitude bound for [`HealthMode::Bounded`].
    pub bound: f64,
    /// What counts as unhealthy.
    pub mode: HealthMode,
}

impl Default for HealthPolicy {
    /// Disarmed: no scanning, infinite bound, stride 1.
    fn default() -> Self {
        HealthPolicy {
            stride: 1,
            bound: f64::INFINITY,
            mode: HealthMode::Off,
        }
    }
}

impl HealthPolicy {
    /// Arms the watchdog against NaN and ±Inf.
    pub fn non_finite() -> Self {
        HealthPolicy {
            mode: HealthMode::NonFinite,
            ..HealthPolicy::default()
        }
    }

    /// Arms the watchdog against NaN, ±Inf, and `|x| > bound`.
    pub fn bounded(bound: f64) -> Self {
        HealthPolicy {
            mode: HealthMode::Bounded,
            bound,
            ..HealthPolicy::default()
        }
    }

    /// Sets the sampling stride (clamped to ≥ 1).
    #[must_use]
    pub fn stride(mut self, stride: usize) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// Whether any scanning happens at all.
    pub fn enabled(&self) -> bool {
        self.mode != HealthMode::Off
    }

    /// Whether `v` violates this policy.
    #[inline]
    pub fn unhealthy(&self, v: f64) -> bool {
        match self.mode {
            HealthMode::Off => false,
            HealthMode::NonFinite => !v.is_finite(),
            HealthMode::Bounded => !v.is_finite() || v.abs() > self.bound,
        }
    }
}

/// Scans the `updated` grids of `state` under `health`, attributing a hit
/// to the kernel whose tile rect contains the divergent cell (kernel 0
/// when `tiles` is empty, as in the unpartitioned executors).
///
/// `completed` is the number of iterations fully finished *before* the
/// barrier being scanned; it becomes
/// [`ExecError::NumericDivergence::iteration`](crate::ExecError::NumericDivergence).
pub(crate) fn scan_state<S: TraceSink>(
    health: &HealthPolicy,
    state: &GridState,
    updated: &[String],
    tiles: &[(usize, Rect)],
    completed: u64,
    sink: &S,
) -> Result<(), ExecError> {
    if !health.enabled() {
        return Ok(());
    }
    let start = sink.now();
    let stride = health.stride.max(1);
    let mut sampled = 0u64;
    for name in updated {
        let grid = state.grid(name)?;
        let extent = grid.extent();
        let cells = grid.as_slice();
        let mut idx = 0usize;
        while idx < cells.len() {
            let v = cells[idx];
            sampled += 1;
            if health.unhealthy(v) {
                sink.add(Counter::CellsScanned, sampled);
                sink.add(Counter::ScanNs, sink.now().saturating_sub(start));
                let point = extent.delinearize(idx);
                let kernel = tiles
                    .iter()
                    .find(|(_, rect)| rect.contains(&point))
                    .map_or(0, |(k, _)| *k);
                return Err(ExecError::NumericDivergence {
                    kernel,
                    iteration: completed,
                    cell: point.as_slice().to_vec(),
                    value: v,
                });
            }
            idx += stride;
        }
    }
    sink.add(Counter::CellsScanned, sampled);
    sink.add(Counter::ScanNs, sink.now().saturating_sub(start));
    Ok(())
}

/// The per-run integrity envelope handed down to every executor: an
/// absolute deadline (shared across supervised retries), the health
/// policy, whether slabs are sealed/verified, and the external control
/// surface (cancel handle, progress hook) a service run carries. Cloned
/// into worker threads; the handles are `Arc`-backed so clones stay
/// coupled to the submitter's copies.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunLimits {
    /// Absolute wall-clock cutoff, fixed once at run (not attempt) start.
    pub deadline: Option<Instant>,
    /// Numerical-health watchdog configuration.
    pub health: HealthPolicy,
    /// Seal slabs at send and verify at splice.
    pub integrity: bool,
    /// External cooperative cancellation, observed at the same points as
    /// the deadline. Fires as the permanent [`ExecError::JobCancelled`].
    pub cancel: Option<CancelHandle>,
    /// Barrier-granularity progress callback for streamed job events.
    pub progress: Option<Progress>,
}

impl RunLimits {
    /// Everything off — the zero-overhead fast path.
    #[cfg(test)]
    pub fn disabled() -> Self {
        RunLimits::default()
    }

    /// Starts the clock: converts a relative deadline into an absolute
    /// instant anchored at the call site. Call once per *run*, before the
    /// first attempt, so supervised retries share the same budget.
    pub fn start(deadline: Option<Duration>, health: HealthPolicy, integrity: bool) -> Self {
        RunLimits {
            deadline: deadline.map(|d| Instant::now() + d),
            health,
            integrity,
            cancel: None,
            progress: None,
        }
    }

    /// Attaches the external control surface (cancel + progress) a
    /// submitted job carries.
    pub fn with_controls(
        mut self,
        cancel: Option<CancelHandle>,
        progress: Option<Progress>,
    ) -> Self {
        self.cancel = cancel;
        self.progress = progress;
        self
    }

    /// Whether the deadline has elapsed.
    #[inline]
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether an external cancellation has been requested.
    #[inline]
    pub fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelHandle::is_cancelled)
    }

    /// Barrier-granularity cutoff check: errors with the completed
    /// iteration count once an external cancel fired (checked first — a
    /// cancelled job should report cancellation even if its deadline also
    /// lapsed while it drained) or the wall-clock cutoff passed.
    #[inline]
    pub fn check_deadline(&self, completed: u64) -> Result<(), ExecError> {
        if self.cancel_requested() {
            return Err(ExecError::JobCancelled { completed });
        }
        if self.deadline_passed() {
            return Err(ExecError::DeadlineExceeded { completed });
        }
        Ok(())
    }

    /// Reports a committed barrier to the progress hook, if one is armed.
    #[inline]
    pub fn note_progress(&self, completed: u64) {
        if let Some(p) = &self.progress {
            p.notify(completed);
        }
    }

    /// Whether the per-iteration slow path is needed at all (any of the
    /// mechanisms armed).
    pub fn any_active(&self) -> bool {
        self.deadline.is_some() || self.health.enabled() || self.integrity || self.cancel.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_grid::Point;
    use stencilcl_lang::parse;
    use stencilcl_telemetry::Disabled;

    #[test]
    fn byte_digest_is_deterministic_and_length_sensitive() {
        assert_eq!(fnv1a_bytes(b"stencil"), fnv1a_bytes(b"stencil"));
        assert_ne!(fnv1a_bytes(b"stencil"), fnv1a_bytes(b"stencil!"));
        // Trailing zero bytes change the digest despite zero-padded chunks.
        assert_ne!(fnv1a_bytes(&[1, 2, 3]), fnv1a_bytes(&[1, 2, 3, 0]));
        assert_ne!(fnv1a_bytes(&[]), fnv1a_bytes(&[0]));
    }

    #[test]
    fn checksum_is_deterministic_and_sensitive() {
        let values = [1.0, -2.5, 0.0];
        let base = slab_checksum(7, (3, 1), &values);
        assert_eq!(base, slab_checksum(7, (3, 1), &values));
        // Any single input perturbation moves the hash.
        assert_ne!(base, slab_checksum(8, (3, 1), &values));
        assert_ne!(base, slab_checksum(7, (4, 1), &values));
        assert_ne!(base, slab_checksum(7, (3, 0), &values));
        assert_ne!(base, slab_checksum(7, (3, 1), &[1.0, -2.5, 1.0]));
        // Bit-pattern hashing distinguishes -0.0 from 0.0.
        assert_ne!(base, slab_checksum(7, (3, 1), &[1.0, -2.5, -0.0]));
    }

    #[test]
    fn single_bit_flip_fails_verification() {
        let mut values = vec![1.0, 2.0, 3.0];
        let sum = slab_checksum(0, (1, 0), &values);
        assert!(verify_slab(4, 0, (1, 0), &values, sum, &Disabled).is_ok());
        values[0] = f64::from_bits(values[0].to_bits() ^ 1);
        let err = verify_slab(4, 0, (1, 0), &values, sum, &Disabled).unwrap_err();
        assert_eq!(
            err,
            ExecError::SlabCorrupt {
                kernel: 4,
                step: (1, 0)
            }
        );
        // A reordered (wrong-sequence) slab also fails even with intact bits.
        values[0] = 1.0;
        assert!(verify_slab(4, 1, (1, 0), &values, sum, &Disabled).is_err());
    }

    #[test]
    fn health_policy_modes_classify_values() {
        let off = HealthPolicy::default();
        assert!(!off.enabled());
        assert!(!off.unhealthy(f64::NAN));
        let nf = HealthPolicy::non_finite();
        assert!(nf.enabled());
        assert!(nf.unhealthy(f64::NAN) && nf.unhealthy(f64::INFINITY));
        assert!(!nf.unhealthy(1e300));
        let bounded = HealthPolicy::bounded(100.0);
        assert!(bounded.unhealthy(100.5) && bounded.unhealthy(-101.0));
        assert!(!bounded.unhealthy(100.0) && !bounded.unhealthy(-99.0));
        assert!(bounded.unhealthy(f64::NEG_INFINITY));
        assert_eq!(HealthPolicy::non_finite().stride(0).stride, 1);
    }

    fn tiny_state(rows: usize, cols: usize) -> (GridState, Vec<String>) {
        let src = format!(
            "stencil tiny {{ grid A[{rows}][{cols}] : f32; iterations 1; A[i][j] = A[i][j]; }}"
        );
        let program = parse(&src).expect("tiny program parses");
        let state = GridState::uniform(&program, 1.0);
        (state, vec!["A".to_string()])
    }

    #[test]
    fn scan_finds_the_first_unhealthy_cell_in_row_major_order() {
        let (mut state, updated) = tiny_state(4, 4);
        let g = state.grid_mut("A").unwrap();
        g.set(&Point::new2(3, 2), f64::NAN).unwrap();
        g.set(&Point::new2(1, 3), f64::INFINITY).unwrap();
        let err = scan_state(
            &HealthPolicy::non_finite(),
            &state,
            &updated,
            &[],
            6,
            &Disabled,
        )
        .unwrap_err();
        match err {
            ExecError::NumericDivergence {
                kernel,
                iteration,
                cell,
                value,
            } => {
                assert_eq!(kernel, 0);
                assert_eq!(iteration, 6);
                assert_eq!(cell, vec![1, 3]); // row-major: (1,3) precedes (3,2)
                assert!(value.is_infinite());
            }
            other => panic!("expected NumericDivergence, got {other:?}"),
        }
    }

    #[test]
    fn scan_attributes_the_owning_tile_kernel() {
        let (mut state, updated) = tiny_state(4, 8);
        state
            .grid_mut("A")
            .unwrap()
            .set(&Point::new2(2, 6), f64::NAN)
            .unwrap();
        let left = Rect::new(Point::new2(0, 0), Point::new2(3, 3)).unwrap();
        let right = Rect::new(Point::new2(0, 4), Point::new2(3, 7)).unwrap();
        let err = scan_state(
            &HealthPolicy::non_finite(),
            &state,
            &updated,
            &[(0, left), (1, right)],
            0,
            &Disabled,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExecError::NumericDivergence { kernel: 1, .. }
        ));
    }

    #[test]
    fn healthy_grids_pass_and_strides_subsample() {
        let (state, updated) = tiny_state(8, 8);
        for stride in [1, 2, 3, 64, 1000] {
            let policy = HealthPolicy::bounded(10.0).stride(stride);
            assert!(scan_state(&policy, &state, &updated, &[], 0, &Disabled).is_ok());
        }
        // A wide stride can legitimately skip an isolated bad cell — that
        // is the documented sampling trade-off.
        let (mut state, updated) = tiny_state(8, 8);
        state
            .grid_mut("A")
            .unwrap()
            .set(&Point::new2(0, 1), f64::NAN)
            .unwrap();
        let sparse = HealthPolicy::non_finite().stride(64);
        assert!(scan_state(&sparse, &state, &updated, &[], 0, &Disabled).is_ok());
        let dense = HealthPolicy::non_finite();
        assert!(scan_state(&dense, &state, &updated, &[], 0, &Disabled).is_err());
    }

    #[test]
    fn run_limits_deadline_fires_only_after_the_cutoff() {
        let off = RunLimits::disabled();
        assert!(!off.any_active());
        assert!(off.check_deadline(0).is_ok());
        let generous = RunLimits::start(
            Some(Duration::from_secs(3600)),
            HealthPolicy::default(),
            false,
        );
        assert!(generous.any_active());
        assert!(generous.check_deadline(5).is_ok());
        let expired = RunLimits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..RunLimits::disabled()
        };
        assert_eq!(
            expired.check_deadline(11),
            Err(ExecError::DeadlineExceeded { completed: 11 })
        );
    }

    #[test]
    fn run_limits_cancel_wins_over_a_lapsed_deadline() {
        let cancel = CancelHandle::new();
        let limits = RunLimits::disabled().with_controls(Some(cancel.clone()), None);
        assert!(limits.any_active());
        assert!(limits.check_deadline(0).is_ok());
        cancel.cancel();
        // Cancel is reported even when the deadline has also lapsed.
        let both = RunLimits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..limits
        };
        assert_eq!(
            both.check_deadline(7),
            Err(ExecError::JobCancelled { completed: 7 })
        );
    }

    #[test]
    fn run_limits_progress_hook_fires_on_note_progress() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&seen);
        let limits = RunLimits::disabled().with_controls(
            None,
            Some(Progress::new(move |done| {
                sink.store(done, Ordering::SeqCst);
            })),
        );
        limits.note_progress(42);
        assert_eq!(seen.load(Ordering::SeqCst), 42);
        // No hook armed: a no-op, not a panic.
        RunLimits::disabled().note_progress(1);
    }
}
