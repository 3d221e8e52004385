//! Differential test of the searches against a brute-force oracle.
//!
//! The oracle prices every design point through the public [`evaluate`] in
//! the searches' loop order and applies the resource filter *after* the
//! model, keeping the first strictly fastest point. The searches must pick
//! the identical point — design, HLS report and every prediction term to the
//! bit — which pins their tie-breaks, the filter-before-model order and the
//! per-unroll schedule.

use stencilcl_grid::{Design, DesignKind, Extent};
use stencilcl_hls::{CostModel, Device, ResourceUsage};
use stencilcl_lang::{programs, Program, StencilFeatures};
use stencilcl_opt::{
    balance_tiles, evaluate, fused_candidates, optimize_baseline, optimize_heterogeneous,
    tile_candidates, DesignPoint, SearchConfig,
};

fn programs_512() -> Vec<Program> {
    [
        programs::jacobi_2d(),
        programs::hotspot_2d(),
        programs::fdtd_2d(),
    ]
    .into_iter()
    .map(|p| p.with_extent(Extent::new2(512, 512)).with_iterations(64))
    .collect()
}

fn tile_combos(f: &StencilFeatures, cfg: &SearchConfig) -> Vec<Vec<usize>> {
    let xs = tile_candidates(f.extent.len(0), cfg.parallelism[0], cfg.min_tile);
    let ys = tile_candidates(f.extent.len(1), cfg.parallelism[1], cfg.min_tile);
    xs.iter()
        .flat_map(|&x| ys.iter().map(move |&y| vec![x, y]))
        .collect()
}

fn keep_faster(best: &mut Option<DesignPoint>, point: DesignPoint) {
    if best
        .as_ref()
        .is_none_or(|b| point.prediction.total < b.prediction.total)
    {
        *best = Some(point);
    }
}

fn brute_baseline(p: &Program, dev: &Device, cost: &CostModel, cfg: &SearchConfig) -> DesignPoint {
    let f = StencilFeatures::extract(p).unwrap();
    let mut best = None;
    for &unroll in &cfg.unroll_candidates {
        for lens in tile_combos(&f, cfg) {
            for &h in &fused_candidates(&f, cfg.max_fused) {
                let design = Design::equal(
                    DesignKind::Baseline,
                    h,
                    cfg.parallelism.clone(),
                    lens.clone(),
                )
                .unwrap();
                let Ok(point) = evaluate(p, &f, design, dev, cost, unroll) else {
                    continue;
                };
                if point.hls.resources.fits(dev) {
                    keep_faster(&mut best, point);
                }
            }
        }
    }
    best.expect("a baseline design fits")
}

fn brute_heterogeneous(
    p: &Program,
    dev: &Device,
    cost: &CostModel,
    cfg: &SearchConfig,
    budget: &ResourceUsage,
    unroll: u64,
) -> DesignPoint {
    let f = StencilFeatures::extract(p).unwrap();
    let g = f.growth;
    let mut best = None;
    for tile_lens in tile_combos(&f, cfg) {
        for &h in &fused_candidates(&f, cfg.max_fused) {
            let lens: Option<Vec<Vec<usize>>> = (0..2)
                .map(|d| {
                    let k = cfg.parallelism[d];
                    let region = k * tile_lens[d];
                    let min_tile = cfg.min_tile.max(g.lo(d).max(g.hi(d)) as usize).max(1);
                    balance_tiles(region, k, &g, d, h, f.extent.len(d) / region > 1, min_tile)
                })
                .collect();
            let Some(lens) = lens else {
                continue;
            };
            let designs = [
                Design::heterogeneous(h, lens),
                Design::equal(
                    DesignKind::PipeShared,
                    h,
                    cfg.parallelism.clone(),
                    tile_lens.clone(),
                ),
            ];
            for design in designs.into_iter().flatten() {
                let Ok(point) = evaluate(p, &f, design, dev, cost, unroll) else {
                    continue;
                };
                if point.hls.resources.within(budget) {
                    keep_faster(&mut best, point);
                }
            }
        }
    }
    best.expect("a heterogeneous design fits the budget")
}

fn assert_identical(name: &str, got: &DesignPoint, want: &DesignPoint) {
    assert_eq!(got.design, want.design, "{name}: design");
    assert_eq!(got.hls.ii, want.hls.ii, "{name}: ii");
    assert_eq!(got.hls.depth, want.hls.depth, "{name}: depth");
    assert_eq!(got.hls.unroll, want.hls.unroll, "{name}: unroll");
    assert_eq!(
        got.hls.cycles_per_element.to_bits(),
        want.hls.cycles_per_element.to_bits(),
        "{name}: cycles_per_element"
    );
    assert_eq!(got.hls.resources, want.hls.resources, "{name}: resources");
    let (g, w) = (&got.prediction, &want.prediction);
    for (term, a, b) in [
        ("regions", g.regions, w.regions),
        ("read", g.read, w.read),
        ("write", g.write, w.write),
        ("compute", g.compute, w.compute),
        ("launch", g.launch, w.launch),
        ("per_region", g.per_region, w.per_region),
        ("total", g.total, w.total),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: prediction.{term}");
    }
}

#[test]
fn searches_pick_the_brute_force_optimum() {
    let dev = Device::default();
    let cost = CostModel::default();
    let cfg = SearchConfig::for_dim(2);
    for p in programs_512() {
        let base = optimize_baseline(&p, &dev, &cost, &cfg).unwrap();
        assert_identical(&p.name, &base, &brute_baseline(&p, &dev, &cost, &cfg));

        let budget = base.hls.resources;
        let unroll = base.hls.unroll;
        let hetero = optimize_heterogeneous(&p, &dev, &cost, &cfg, &budget, unroll).unwrap();
        let want = brute_heterogeneous(&p, &dev, &cost, &cfg, &budget, unroll);
        assert_identical(&p.name, &hetero, &want);
    }
}
