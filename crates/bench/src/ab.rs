//! The one A/B harness behind the six overhead ablations (`ablation_simd`,
//! `_trace`, `_integrity`, `_checkpoint`, `_serve`, `_resilience`).
//!
//! [`time_pairs`] alternates the two sides, [`Change::paired`] estimates the
//! relative cost of B over A, [`Verdict::judge`] holds that estimate against
//! a budget, and [`report`] prints, records and gates the [`AbRow`]s.
//!
//! **Estimator.** Each pair gives `d_i = b_i / a_i − 1`; the change is the
//! median of the `d_i`, and its interval is the distribution-free
//! order-statistic interval of that median: `[d_(k), d_(n+1−k)]` for the
//! largest rank `k` with `P(Bin(n, ½) < k) ≤ 0.025`, which covers the true
//! median with probability ≥ 95% whatever the noise looks like. No
//! resampling and no seed. Below 6 pairs no such `k` exists and the
//! interval is unbounded.
//!
//! A bin fails only on [`Verdict::Over`]: the cost is then demonstrably
//! above budget, not merely unresolved by noise.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

use serde::{Serialize, Value};
use stencilcl_exec::{run_supervised_full, ExecOptions};
use stencilcl_grid::{Design, DesignKind, Extent, Partition};
use stencilcl_lang::{programs, GridState, Program, StencilFeatures};
use stencilcl_server::client::{get, post};
use stencilcl_server::{
    default_init, plan, DesignRequest, JobOptions, Scheduler, SchedulerConfig, Server,
    SubmitRequest,
};
use stencilcl_telemetry::EnvConfig;

use crate::runner::write_json;
use crate::table::Table;

/// Reads a positive integer knob from the environment, falling back to
/// `default` when it is unset, malformed or zero.
fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// The three bench knobs as `(n, iters, pairs)`: grid side
/// `STENCILCL_BENCH_N` (default 256), iterations `STENCILCL_BENCH_ITERS`
/// (default `iters`), and timing pairs `STENCILCL_BENCH_SAMPLES` (default
/// 21, the smallest count whose 95% interval drops the five most extreme
/// pairs on each side).
pub fn knobs(iters: usize) -> (usize, u64, usize) {
    let n = env_usize("STENCILCL_BENCH_N", 256);
    let iters = env_usize("STENCILCL_BENCH_ITERS", iters) as u64;
    (n, iters, env_usize("STENCILCL_BENCH_SAMPLES", 21))
}

/// Wall time of `f` in milliseconds.
pub fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Per-side samples of one A/B measurement, pair `i` at index `i`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pairs {
    /// Milliseconds of side A.
    pub a: Vec<f64>,
    /// Milliseconds of side B.
    pub b: Vec<f64>,
}

/// Runs one untimed warm-up of each side, then `pairs` timed pairs: A first
/// on even pairs, B first on odd ones, so slow drift and first-mover cache
/// effects land on both sides equally. Each closure returns the
/// milliseconds it timed itself, so state construction stays outside the
/// timer.
pub fn time_pairs(pairs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Pairs {
    a();
    b();
    let mut out = Pairs::default();
    for i in 0..pairs {
        if i % 2 == 1 {
            out.b.push(b());
        }
        out.a.push(a());
        if i % 2 == 0 {
            out.b.push(b());
        }
    }
    out
}

/// [`time_pairs`] over grid runs: every run gets a fresh `default_init`
/// grid built outside the timer, and the result carries the maximum
/// absolute difference between the two sides' final grids.
pub fn time_grid_pairs(
    program: &Program,
    pairs: usize,
    mut a: impl FnMut(&mut GridState) -> f64,
    mut b: impl FnMut(&mut GridState) -> f64,
) -> (Pairs, f64) {
    let (mut last_a, mut last_b) = (None, None);
    let on_fresh_grid = |run: &mut dyn FnMut(&mut GridState) -> f64,
                         last: &mut Option<GridState>| {
        let mut state = GridState::new(program, default_init);
        let ms = run(&mut state);
        *last = Some(state);
        ms
    };
    let pairs = time_pairs(
        pairs,
        || on_fresh_grid(&mut a, &mut last_a),
        || on_fresh_grid(&mut b, &mut last_b),
    );
    let (a, b) = (last_a.expect("warm-up ran"), last_b.expect("warm-up ran"));
    let diff = a.max_abs_diff(&b).expect("both sides ran one program");
    (pairs, diff)
}

/// Linear-interpolated quantile `q` of ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(v: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = v.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The 1-based rank `k` of the 95% order-statistic interval of a median of
/// `n` samples — the largest `k` with `P(Bin(n, ½) < k) ≤ 0.025` — or
/// `None` when even `k = 1` fails (`n < 6`).
fn interval_rank(n: usize) -> Option<usize> {
    let mut pmf = 0.5f64.powi(n as i32);
    let mut below = 0.0; // P(Bin(n, ½) < k) for the next k.
    let mut rank = None;
    for k in 1..=n.div_ceil(2) {
        below += pmf;
        if below > 0.025 {
            break;
        }
        rank = Some(k);
        pmf *= (n - k + 1) as f64 / k as f64;
    }
    rank
}

/// Median and quartiles of one side's samples, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `samples`, which must not be empty.
    pub fn of(samples: &[f64]) -> Spread {
        let s = sorted(samples.iter().copied());
        Spread {
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
        }
    }
}

/// Relative change of B over A: the median of the per-pair `b_i / a_i − 1`
/// with its 95% order-statistic interval (`±∞` below 6 pairs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Change {
    /// Median per-pair change.
    pub median: f64,
    /// Lower end of the interval.
    pub lo: f64,
    /// Upper end of the interval.
    pub hi: f64,
}

impl Change {
    /// The estimator: see the module docs.
    ///
    /// # Panics
    ///
    /// Panics when the sides differ in length or are empty.
    pub fn paired(pairs: &Pairs) -> Change {
        assert_eq!(pairs.a.len(), pairs.b.len(), "unpaired samples");
        assert!(!pairs.a.is_empty(), "no pairs");
        let d = sorted(pairs.a.iter().zip(&pairs.b).map(|(a, b)| b / a - 1.0));
        let (lo, hi) = match interval_rank(d.len()) {
            Some(k) => (d[k - 1], d[d.len() - k]),
            None => (f64::NEG_INFINITY, f64::INFINITY),
        };
        Change {
            median: quantile(&d, 0.5),
            lo,
            hi,
        }
    }
}

/// A [`Change`] held against a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// The whole interval is at or under the budget.
    Within,
    /// The whole interval is over the budget: the cost is demonstrably
    /// too high.
    Over,
    /// The interval straddles the budget: these pairs cannot tell.
    Unresolved,
}

impl Verdict {
    /// `Within` if `hi ≤ budget`, `Over` if `lo > budget`, else
    /// `Unresolved`.
    pub fn judge(change: &Change, budget: f64) -> Verdict {
        if change.hi <= budget {
            Verdict::Within
        } else if change.lo > budget {
            Verdict::Over
        } else {
            Verdict::Unresolved
        }
    }
}

/// One A/B comparison, as printed and as written to `results/BENCH_*.json`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AbRow {
    /// Benchmark display name.
    pub name: String,
    /// What side A runs (the baseline).
    pub a: String,
    /// What side B runs (the configuration whose cost is measured).
    pub b: String,
    /// Timing pairs taken.
    pub pairs: usize,
    /// Side A wall time, ms.
    pub a_ms: Spread,
    /// Side B wall time, ms.
    pub b_ms: Spread,
    /// Relative change of B over A.
    pub change: Change,
    /// Largest acceptable change, if this row is gated.
    pub budget: Option<f64>,
    /// `change` judged against `budget` (`None` when ungated).
    pub verdict: Option<Verdict>,
    /// `std::thread::available_parallelism` of the measuring host.
    pub host_parallelism: usize,
    /// Maximum absolute difference between the two sides' final grids.
    pub max_abs_diff: f64,
    /// Per-ablation proof the measured machinery ran (checksums, cells
    /// scanned, generations, bytes, spans, digests, ...).
    pub evidence: BTreeMap<String, Value>,
}

impl AbRow {
    /// Summarizes `pairs` of `labels[0]` (A) against `labels[1]` (B) whose
    /// final grids differ by at most `diff`.
    pub fn new(
        name: &str,
        labels: [&str; 2],
        pairs: &Pairs,
        budget: Option<f64>,
        diff: f64,
    ) -> AbRow {
        let change = Change::paired(pairs);
        AbRow {
            name: name.to_string(),
            a: labels[0].to_string(),
            b: labels[1].to_string(),
            pairs: pairs.a.len(),
            a_ms: Spread::of(&pairs.a),
            b_ms: Spread::of(&pairs.b),
            change,
            budget,
            verdict: budget.map(|b| Verdict::judge(&change, b)),
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_abs_diff: diff,
            evidence: BTreeMap::new(),
        }
    }

    /// Adds one evidence entry.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Serialize) -> AbRow {
        self.evidence.insert(key.to_string(), value.to_value());
        self
    }
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Prints `rows` under `title` as one table, writes them to
/// `results/<file>`, and exits the process with status 1 if and only if
/// some row's verdict is [`Verdict::Over`].
pub fn report(title: &str, file: &str, rows: &[AbRow]) {
    let mut t = Table::new(vec![
        "Benchmark",
        "A -> B",
        "A med (ms)",
        "B med (ms)",
        "Change",
        "95% interval",
        "Verdict",
        "Evidence",
    ]);
    for r in rows {
        let interval = if r.change.lo.is_finite() {
            format!("[{}, {}]", pct(r.change.lo), pct(r.change.hi))
        } else {
            "unbounded (< 6 pairs)".to_string()
        };
        let verdict = match (r.verdict, r.budget) {
            (Some(v), Some(b)) => format!("{v:?} {:.0}%", b * 100.0),
            _ => "-".to_string(),
        };
        let evidence: Vec<String> = r
            .evidence
            .iter()
            .map(|(k, v)| format!("{k}={}", serde_json::to_string(v).unwrap_or_default()))
            .collect();
        t.row(vec![
            r.name.clone(),
            format!("{} -> {}", r.a, r.b),
            format!("{:.3}", r.a_ms.median),
            format!("{:.3}", r.b_ms.median),
            pct(r.change.median),
            interval,
            verdict,
            evidence.join(" "),
        ]);
    }
    println!("{title}\n");
    println!("{}", t.render());
    write_json(file, &rows);
    for r in rows.iter().filter(|r| r.verdict == Some(Verdict::Over)) {
        eprintln!("FAIL: {} is demonstrably over budget", r.name);
    }
    if rows.iter().any(|r| r.verdict == Some(Verdict::Over)) {
        std::process::exit(1);
    }
}

/// The two 2-D cases the executor ablations time, as `(display name,
/// program, partition)`: HotSpot (heat) and Jacobi (blur) at `n²` under one
/// pipe-shared design of 2×2 kernels on `n/4` tiles, fused depth
/// `min(4, iters)`.
pub fn grid_cases(n: usize, iters: u64) -> Vec<(&'static str, Program, Partition)> {
    let tiles = vec![(n / 4).max(1); 2];
    let design = Design::equal(DesignKind::PipeShared, 4.min(iters), vec![2, 2], tiles)
        .expect("pipe design");
    [
        ("hotspot_2d (heat)", programs::hotspot_2d()),
        ("jacobi_2d (blur)", programs::jacobi_2d()),
    ]
    .into_iter()
    .map(|(name, p)| {
        let program = p.with_extent(Extent::new2(n, n)).with_iterations(iters);
        let f = StencilFeatures::extract(&program).expect("star stencil features");
        let partition = Partition::new(f.extent, &design, &f.growth).expect("partition");
        (name, program, partition)
    })
    .collect()
}

/// A fresh (emptied) scratch directory under the system temp dir, unique
/// to this process and `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stencilcl-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The Jacobi blur job both service ablations submit, with the digest one
/// direct run pins as the oracle every later run must reproduce.
#[derive(Debug, Clone)]
pub struct BlurJob {
    /// Row name, e.g. `blur 256x256, 32 iters`.
    pub name: String,
    /// The `POST /v1/jobs` body: pipe design, 2×2 kernels of `n/4` tiles,
    /// fused depth `min(2, iters)`.
    pub body: String,
    /// Grid digest of the finished job, as the service reports it.
    pub digest: String,
}

impl BlurJob {
    /// The job at `n²` and `iters` iterations; runs it once directly to
    /// pin [`BlurJob::digest`].
    pub fn new(n: usize, iters: u64) -> BlurJob {
        let tile = (n / 4).max(1);
        let request = SubmitRequest {
            tenant: "bench".to_string(),
            source: format!(
                "stencil blur {{ grid A[{n}][{n}] : f32; iterations {iters};
         A[i][j] = 0.5 * A[i][j] + 0.125 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }}"
            ),
            design: DesignRequest {
                kind: "pipe".to_string(),
                fused: 2.min(iters),
                parallelism: vec![2, 2],
                tile: vec![tile, tile],
            },
            options: JobOptions::default(),
        };
        let mut job = BlurJob {
            name: format!("blur {n}x{n}, {iters} iters"),
            body: serde_json::to_string(&request).expect("encode submit"),
            digest: String::new(),
        };
        job.digest = job.run_direct();
        job
    }

    /// Everything the service does per job, in-process: decode the body,
    /// plan from source, fill the grid, run supervised with integrity on,
    /// digest.
    fn run_direct(&self) -> String {
        let req: SubmitRequest = serde_json::from_str(&self.body).expect("decode submit");
        let planned = plan(&req.source, &req.design).expect("bench job plans");
        let mut opts = ExecOptions::from_config(EnvConfig::get());
        opts.integrity = true;
        let mut state = GridState::new(&planned.program, default_init);
        let (_report, result) =
            run_supervised_full(&planned.program, &planned.partition, &mut state, &opts);
        result.expect("direct run");
        format!("{:#018x}", state.digest())
    }

    /// One timed direct run; panics unless it reproduces the digest.
    pub fn time_direct(&self) -> f64 {
        let mut digest = String::new();
        let ms = timed(|| digest = self.run_direct());
        assert_eq!(digest, self.digest, "direct run is not deterministic");
        ms
    }

    /// One submit → long-poll round trip against the daemon at `addr`;
    /// returns the wall time in ms. Panics unless the job finishes `Done`
    /// with the direct run's digest.
    pub fn serve_once(&self, addr: SocketAddr) -> f64 {
        let t0 = Instant::now();
        let resp = post(addr, "/v1/jobs", &self.body).expect("submit");
        assert_eq!(resp.status, 200, "submit failed: {}", resp.body);
        let job = json_str(&resp.body, "job");
        let resp = get(addr, &format!("/v1/jobs/{job}/result?wait_ms=60000")).expect("result");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(resp.status, 200, "job not terminal: {}", resp.body);
        assert!(resp.body.contains("\"phase\":\"Done\""), "{}", resp.body);
        let digest = json_str(&resp.body, "digest");
        assert_eq!(
            digest, self.digest,
            "the service diverged from the direct run"
        );
        ms
    }
}

/// A loopback daemon with one pool runner (so the serve path is as serial
/// as a direct run) and no queue or quota pressure; the rest of `config`
/// is kept.
pub fn bench_daemon(config: SchedulerConfig) -> Server {
    let config = SchedulerConfig {
        workers: 1,
        max_queue: 16,
        quota: u64::MAX,
        ..config
    };
    Server::bind("127.0.0.1:0", Scheduler::new(config)).expect("bind loopback daemon")
}

fn json_str<'a>(body: &'a str, key: &str) -> &'a str {
    body.split(&format!("\"{key}\":\""))
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap_or_else(|| panic!("no {key} in {body}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The change of pairs whose per-pair changes are exactly `d`.
    fn change_of(d: impl Iterator<Item = f64>) -> Change {
        let b: Vec<f64> = d.map(|x| x + 1.0).collect();
        Change::paired(&Pairs {
            a: vec![1.0; b.len()],
            b,
        })
    }

    #[test]
    fn identical_sides_read_zero_and_never_over() {
        for n in [3, 6, 21] {
            let a: Vec<f64> = (0..n).map(|i| 100.0 + (i * 7 % 5) as f64).collect();
            let c = Change::paired(&Pairs { a: a.clone(), b: a });
            assert_eq!(c.median, 0.0);
            assert!(c.lo <= 0.0 && 0.0 <= c.hi);
            for budget in [0.0, 0.03, 0.05, 1.0] {
                assert_ne!(Verdict::judge(&c, budget), Verdict::Over);
            }
        }
    }

    #[test]
    fn true_cost_is_over_where_min_of_pairs_read_negative() {
        // 21 pairs with a true +20% cost; three baseline runs hit a 2x burst.
        let mut a: Vec<f64> = (0..21).map(|i| 100.0 + i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        a[..3].iter_mut().for_each(|x| *x *= 2.0);
        let min = |v: &mut dyn Iterator<Item = f64>| v.reduce(f64::min).unwrap();
        let pair_min = min(&mut a.iter().zip(&b).map(|(a, b)| b / a - 1.0));
        let retired = pair_min.min(min(&mut b.iter().copied()) / min(&mut a.iter().copied()) - 1.0);
        assert!(retired < 0.0, "retired estimator read {retired}");
        let pairs = Pairs { a, b };
        let row = AbRow::new("t", ["a", "b"], &pairs, Some(0.05), 0.0).with("spans", 3u64);
        assert!((row.change.median - 0.2).abs() < 1e-9);
        assert_eq!(row.verdict, Some(Verdict::Over));
        assert_eq!(
            (row.a_ms.q1, row.a_ms.median, row.a_ms.q3),
            (108.0, 113.0, 118.0)
        );
        assert_eq!(row.evidence["spans"], Value::Int(3));
        assert_eq!(AbRow::new("t", ["a", "b"], &pairs, None, 0.0).verdict, None);
    }

    #[test]
    fn interval_ranks_follow_the_binomial_table() {
        assert_eq!(interval_rank(5), None);
        assert_eq!(interval_rank(6), Some(1));
        assert_eq!(interval_rank(10), Some(2));
        assert_eq!(interval_rank(21), Some(6));
        let c = change_of((1..=21).map(f64::from));
        assert_eq!((c.lo, c.median, c.hi), (6.0, 11.0, 16.0));
        let c = change_of((1..=10).map(f64::from));
        assert_eq!((c.lo, c.hi), (2.0, 9.0));
        let c = change_of([8.0; 5].into_iter());
        assert!(c.lo.is_infinite() && c.hi.is_infinite());
        assert_eq!(Verdict::judge(&c, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        let order = std::cell::RefCell::new(String::new());
        let side = |name: char, ms: f64| {
            order.borrow_mut().push(name);
            ms
        };
        let p = time_pairs(4, || side('a', 1.0), || side('b', 2.0));
        // One warm-up of each side, then ab / ba / ab / ba.
        assert_eq!(order.into_inner(), "ababbaabba");
        assert_eq!((p.a, p.b), (vec![1.0; 4], vec![2.0; 4]));
    }
}
