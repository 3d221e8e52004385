//! Seeded workload inputs: stencil sources with seed-chosen coefficients,
//! the design each job runs at, and the digest each job must produce.
//!
//! The daemon and `stencilcl synth` see only the generated sources. The
//! coefficients are kept away from 0 and 1 so that no seed changes the
//! operation counts the optimizer prices, which is what lets one expected
//! synth file hold for every seed.

use stencilcl_exec::{run_reference_opts, ExecOptions};
use stencilcl_lang::{parse, GridState, Program, StencilFeatures};
use stencilcl_server::default_init;

/// splitmix64: a small, portable generator, so a seed means the same
/// inputs on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_57e1_c1c1_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, rounded to four decimals so the source text
    /// spells the exact value the daemon parses.
    pub fn coef(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1e4).round() / 1e4
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The three 2-D programs of the paper's suite that every workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    Jacobi,
    Hotspot,
    Fdtd,
}

pub const PROGS: [Prog; 3] = [Prog::Jacobi, Prog::Hotspot, Prog::Fdtd];

impl Prog {
    pub fn name(self) -> &'static str {
        match self {
            Prog::Jacobi => "jacobi_2d",
            Prog::Hotspot => "hotspot_2d",
            Prog::Fdtd => "fdtd_2d",
        }
    }

    /// Paper scale (Table 2) for the synth flow.
    pub fn paper_scale(self) -> (usize, u64) {
        match self {
            Prog::Jacobi => (2048, 1024),
            Prog::Hotspot => (4096, 1000),
            Prog::Fdtd => (2048, 500),
        }
    }
}

/// The stencil coefficients one seed picks, shared by every program of a run.
#[derive(Debug, Clone)]
pub struct Coefs {
    jacobi: f64,
    hotspot: [f64; 4],
    fdtd: [f64; 3],
}

impl Coefs {
    pub fn from_rng(rng: &mut Rng) -> Coefs {
        Coefs {
            jacobi: rng.coef(0.15, 0.2),
            hotspot: [
                rng.coef(0.3, 0.6),
                rng.coef(0.05, 0.15),
                rng.coef(0.05, 0.15),
                rng.coef(0.03, 0.09),
            ],
            fdtd: [rng.coef(0.3, 0.6), rng.coef(0.3, 0.6), rng.coef(0.4, 0.8)],
        }
    }

    /// DSL source of `prog` on an `n`² grid; same structure as the
    /// programs in `stencilcl_lang::programs`, with the seed's coefficients.
    pub fn source(&self, prog: Prog, n: usize, iterations: u64) -> String {
        match prog {
            Prog::Jacobi => format!(
                "stencil jacobi_2d {{
    grid A[{n}][{n}] : f32;
    iterations {iterations};
    A[i][j] = {c} * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);
}}
",
                c = self.jacobi
            ),
            Prog::Hotspot => {
                let [cap, rx, ry, rz] = self.hotspot;
                format!(
                    "stencil hotspot_2d {{
    grid temp[{n}][{n}] : f32;
    grid power[{n}][{n}] : f32 read_only;
    param cap = {cap};
    param rx = {rx};
    param ry = {ry};
    param rz = {rz};
    param amb = 80.0;
    iterations {iterations};
    temp[i][j] = temp[i][j] + cap * (power[i][j]
               + (temp[i+1][j] + temp[i-1][j] - 2.0 * temp[i][j]) * ry
               + (temp[i][j+1] + temp[i][j-1] - 2.0 * temp[i][j]) * rx
               + (amb - temp[i][j]) * rz);
}}
"
                )
            }
            Prog::Fdtd => {
                let [a, b, c] = self.fdtd;
                format!(
                    "stencil fdtd_2d {{
    grid ey[{n}][{n}] : f32;
    grid ex[{n}][{n}] : f32;
    grid hz[{n}][{n}] : f32;
    iterations {iterations};
    ey[i][j] = ey[i][j] - {a} * (hz[i][j] - hz[i-1][j]);
    ex[i][j] = ex[i][j] - {b} * (hz[i][j] - hz[i][j-1]);
    hz[i][j] = hz[i][j] - {c} * (ex[i][j+1] - ex[i][j] + ey[i+1][j] - ey[i][j]);
}}
"
                )
            }
        }
    }
}

/// One job of a serve workload: what is submitted and what must come back.
#[derive(Debug, Clone)]
pub struct Job {
    pub prog: Prog,
    pub n: usize,
    pub iterations: u64,
    pub source: String,
    pub program: Program,
    pub parallelism: usize,
    pub tile: usize,
    pub fused: u64,
    /// `Some(k)`: the job asks for its own checkpoint store, sealed every
    /// k-th fused-block barrier.
    pub ckpt_every: Option<u64>,
    /// `{:#018x}` of the reference run's final-state digest.
    pub expected_digest: String,
}

impl Job {
    pub fn new(
        coefs: &Coefs,
        prog: Prog,
        n: usize,
        iterations: u64,
        parallelism: usize,
        fused: u64,
        ckpt_every: Option<u64>,
    ) -> Job {
        let source = coefs.source(prog, n, iterations);
        let program = parse(&source).expect("generated source parses");
        Job {
            prog,
            n,
            iterations,
            source,
            program,
            parallelism,
            tile: n / parallelism,
            fused,
            ckpt_every,
            expected_digest: String::new(),
        }
    }

    /// Cell updates the job performs: iterations times, per statement,
    /// the n² grid shrunk by the statement's read offsets (a statement
    /// updates only cells whose every read stays inside the grid).
    pub fn cell_updates(&self) -> u64 {
        let f = StencilFeatures::extract(&self.program).expect("generated program checks");
        let per_iteration: u64 = f
            .statements
            .iter()
            .map(|s| {
                (0..f.dim)
                    .map(|d| {
                        let lo = s
                            .accesses
                            .iter()
                            .map(|(_, p)| p.coord(d))
                            .min()
                            .unwrap_or(0)
                            .min(0);
                        let hi = s
                            .accesses
                            .iter()
                            .map(|(_, p)| p.coord(d))
                            .max()
                            .unwrap_or(0)
                            .max(0);
                        (self.n as i64 - hi + lo).max(0) as u64
                    })
                    .product::<u64>()
            })
            .sum();
        per_iteration * self.iterations
    }

    pub fn design_json(&self) -> String {
        format!(
            r#"{{"kind":"pipe","fused":{f},"parallelism":[{p},{p}],"tile":[{t},{t}]}}"#,
            f = self.fused,
            p = self.parallelism,
            t = self.tile
        )
    }

    pub fn design_request(&self) -> stencilcl_server::DesignRequest {
        stencilcl_server::DesignRequest {
            kind: "pipe".into(),
            fused: self.fused,
            parallelism: vec![self.parallelism; 2],
            tile: vec![self.tile; 2],
        }
    }

    /// The `POST /v1/jobs` body; `ckpt_dir` is where this job's store goes.
    pub fn submit_body(&self, ckpt_dir: Option<&str>) -> String {
        let options = match (self.ckpt_every, ckpt_dir) {
            (Some(k), Some(dir)) => format!(
                r#","options":{{"ckpt_dir":{},"ckpt_every":{k}}}"#,
                json_str(dir)
            ),
            _ => String::new(),
        };
        format!(
            r#"{{"tenant":"bench","source":{},"design":{}{options}}}"#,
            json_str(&self.source),
            self.design_json()
        )
    }

    /// Runs the reference sweep from the service's initial condition.
    pub fn reference_state(&self) -> GridState {
        let mut state = GridState::new(&self.program, default_init);
        run_reference_opts(&self.program, &mut state, &ExecOptions::new())
            .expect("reference run of a generated program");
        state
    }

    pub fn compute_expected(&mut self) {
        self.expected_digest = format!("{:#018x}", self.reference_state().digest());
    }
}

pub fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("a string serializes")
}

/// Flips the low bit of a `0x…` digest: the self-check that a wrong
/// expectation turns every op into a failure.
pub fn poison_digest(d: &str) -> String {
    let v = u64::from_str_radix(d.trim_start_matches("0x"), 16).unwrap_or(0) ^ 1;
    format!("{v:#018x}")
}

/// The serve workloads' job bundles. One op submits and awaits each job
/// of the bundle in turn; the seed fixes the order.
pub fn serve_bundle(workload: &str, seed: u64) -> Option<Vec<Job>> {
    let mut rng = Rng::new(seed);
    let coefs = Coefs::from_rng(&mut rng);
    let mut jobs = match workload {
        "serve_compute" => PROGS
            .iter()
            .map(|&p| Job::new(&coefs, p, 1024, 64, 4, 4, None))
            .collect(),
        "serve_control" => vec![Job::new(&coefs, Prog::Jacobi, 64, 8, 4, 4, None)],
        "serve_durable" => vec![Job::new(&coefs, Prog::Jacobi, 512, 32, 2, 4, Some(4))],
        _ => return None,
    };
    rng.shuffle(&mut jobs);
    Some(jobs)
}

/// The synth workload's programs at paper scale, in the seed's order.
pub fn synth_bundle(seed: u64) -> Vec<(Prog, String)> {
    let mut rng = Rng::new(seed);
    let coefs = Coefs::from_rng(&mut rng);
    let mut progs = PROGS.to_vec();
    rng.shuffle(&mut progs);
    progs
        .into_iter()
        .map(|p| {
            let (n, it) = p.paper_scale();
            (p, coefs.source(p, n, it))
        })
        .collect()
}
