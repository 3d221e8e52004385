//! Request → executable design: parse the submitted program source and
//! build the partition from the requested design point, spelling designs
//! exactly like the CLI flags and the checkpoint manifest's
//! [`DesignSpec`], so a service job, a `stencilcl run`, and a
//! `stencilcl resume` of the same point reconstruct identical partitions
//! (and therefore identical digests).

use stencilcl_exec::DesignSpec;
use stencilcl_grid::{Design, DesignKind, Partition, Point};
use stencilcl_lang::{parse, Program, StencilFeatures};
use stencilcl_opt::balance_tiles;

use crate::protocol::DesignRequest;

/// Hard cap on grid volume for host-side execution — submitted jobs and
/// the CLI's `validate`, `trace` and `run` alike.
pub const MAX_VOLUME: u64 = 1 << 22;

/// The deterministic initial-condition the service fills submitted grids
/// with — byte-identical to the CLI's, so service digests compare
/// directly against `stencilcl run` output for the same program.
#[inline]
pub fn default_init(name: &str, p: &Point) -> f64 {
    let mut v = name.len() as f64;
    for d in 0..p.dim() {
        v = v * 31.0 + p.coord(d) as f64;
    }
    (v * 0.001).sin()
}

/// Everything a submitted job needs to run: the parsed program, the
/// partition, and the manifest-ready design spec.
#[derive(Debug, Clone)]
pub struct PlannedJob {
    /// The parsed stencil program.
    pub program: Program,
    /// The resolved partition.
    pub partition: Partition,
    /// The design as a manifest-sealable spec (checkpointed jobs record
    /// it so `stencilcl resume` needs neither source nor flags).
    pub spec: DesignSpec,
}

/// Parses a design kind as the CLI's `--kind`, a job request and a
/// checkpoint manifest all spell it.
pub fn parse_kind(raw: &str) -> Result<DesignKind, String> {
    match raw {
        "baseline" => Ok(DesignKind::Baseline),
        "pipe" | "pipe-shared" => Ok(DesignKind::PipeShared),
        "hetero" | "heterogeneous" => Ok(DesignKind::Heterogeneous),
        other => Err(format!("unknown design kind `{other}`")),
    }
}

/// Builds one design point of `program` — fused ≥ 1, dimensions must
/// match, heterogeneous tiles balanced per dimension — and its partition,
/// plus the manifest-ready spec in canonical spelling. Every design kind
/// builds and runs, baseline included.
pub fn build_design(
    program: &Program,
    kind: DesignKind,
    fused: u64,
    parallelism: &[usize],
    tile: &[usize],
) -> Result<(Design, Partition, DesignSpec), String> {
    if fused == 0 {
        return Err(
            "fused 0 is not a design (--fused 0): at least one iteration \
                    must be fused per pass (use fused 1 for no temporal reuse)"
                .into(),
        );
    }
    let dim = program.dim();
    if parallelism.len() != dim || tile.len() != dim {
        return Err(format!(
            "design is {}-D but program is {dim}-D",
            parallelism.len().max(tile.len())
        ));
    }
    let f = StencilFeatures::extract(program).map_err(|e| e.to_string())?;
    let design = if kind == DesignKind::Heterogeneous {
        let lens = (0..dim)
            .map(|d| {
                let region = parallelism[d] * tile[d];
                let boundary = f.extent.len(d) / region > 1;
                balance_tiles(region, parallelism[d], &f.growth, d, fused, boundary, 2)
                    .ok_or_else(|| format!("cannot balance dimension {d}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Design::heterogeneous(fused, lens).map_err(|e| e.to_string())?
    } else {
        Design::equal(kind, fused, parallelism.to_vec(), tile.to_vec())
            .map_err(|e| e.to_string())?
    };
    let partition = Partition::new(f.extent, &design, &f.growth).map_err(|e| e.to_string())?;
    let spec = DesignSpec {
        kind: match kind {
            DesignKind::Baseline => "baseline",
            DesignKind::PipeShared => "pipe",
            DesignKind::Heterogeneous => "hetero",
        }
        .to_string(),
        fused,
        parallelism: parallelism.to_vec(),
        tile: tile.to_vec(),
    };
    Ok((design, partition, spec))
}

/// Parses the source and builds the design/partition with
/// [`build_design`], the CLI's builder, for any design kind; the grid
/// volume is bounded.
pub fn plan(source: &str, req: &DesignRequest) -> Result<PlannedJob, String> {
    let program = parse(source).map_err(|e| e.to_string())?;
    if program.extent().volume() > MAX_VOLUME {
        return Err("input too large for host-side execution; shrink the grid".into());
    }
    let kind = parse_kind(&req.kind)?;
    let (_, partition, spec) =
        build_design(&program, kind, req.fused, &req.parallelism, &req.tile)?;
    Ok(PlannedJob {
        program,
        partition,
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_lang::GridState;

    const SRC: &str = "stencil blur { grid A[32][32] : f32; iterations 6;
        A[i][j] = 0.5 * A[i][j] + 0.125 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }";

    fn req(kind: &str) -> DesignRequest {
        DesignRequest {
            kind: kind.to_string(),
            fused: 3,
            parallelism: vec![2, 2],
            tile: vec![8, 8],
        }
    }

    #[test]
    fn plans_pipe_and_hetero_designs() {
        let planned = plan(SRC, &req("pipe")).expect("pipe plans");
        assert_eq!(planned.partition.kernel_count(), 4);
        assert_eq!(planned.spec.kind, "pipe");
        assert_eq!(planned.program.iterations, 6);
        for kind in ["hetero", "baseline"] {
            let planned = plan(SRC, &req(kind)).expect("plans");
            assert_eq!(planned.spec.kind, kind);
        }
    }

    #[test]
    fn rejects_bad_requests_with_diagnostics() {
        assert!(plan("not a stencil", &req("pipe")).is_err());
        assert!(plan(SRC, &req("quantum")).unwrap_err().contains("quantum"));
        let mut r = req("pipe");
        r.fused = 0;
        assert!(plan(SRC, &r).unwrap_err().contains("fused 0"));
        let mut r = req("pipe");
        r.parallelism = vec![2];
        assert!(plan(SRC, &r).unwrap_err().contains("2-D"));
    }

    proptest::proptest! {
        #[test]
        fn default_init_state_equals_a_point_by_point_fill(
            lens in proptest::prop::collection::vec(1usize..=9, 1..=3),
        ) {
            let idx = ["[i]", "[i][j]", "[i][j][k]"][lens.len() - 1];
            let decl: String = lens.iter().map(|n| format!("[{n}]")).collect();
            let src = format!(
                "stencil s {{ grid A{decl} : f32; grid Bq{decl} : f32; iterations 1; \
                 A{idx} = Bq{idx}; }}"
            );
            let program = stencilcl_lang::parse(&src).unwrap();
            let state = GridState::new(&program, default_init);
            for decl in &program.grids {
                let got = state.grid(&decl.name).unwrap().as_slice();
                let expect: Vec<f64> = decl
                    .extent
                    .iter()
                    .map(|p| default_init(&decl.name, &p))
                    .collect();
                proptest::prop_assert_eq!(got.len(), expect.len());
                for (a, b) in got.iter().zip(&expect) {
                    proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn init_matches_the_cli_formula() {
        // One spot check of the closed form: name "A" (len 1), point (2, 3).
        let p = Point::new2(2, 3);
        let expect = (((1.0f64 * 31.0 + 2.0) * 31.0 + 3.0) * 0.001).sin();
        assert_eq!(default_init("A", &p), expect);
    }
}
