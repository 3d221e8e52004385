use stencilcl_grid::{Design, DesignKind, Partition};
use stencilcl_hls::{
    estimate_resources, schedule, CostModel, Device, HlsReport, PipelineSchedule, ResourceUsage,
};
use stencilcl_lang::{Program, StencilFeatures};
use stencilcl_model::{predict, ModelInputs};

use crate::space::{fused_candidates, tile_candidates};
use crate::{balance_tiles, DesignPoint, OptError, OptimizedPair, SearchConfig};

/// Evaluates one design point: partitions the grid, runs the HLS estimate,
/// and queries the analytical model.
///
/// # Errors
///
/// Returns [`OptError::Grid`] when the design cannot partition the input
/// (callers treat that as "infeasible, skip").
pub fn evaluate(
    program: &Program,
    features: &StencilFeatures,
    design: Design,
    device: &Device,
    cost: &CostModel,
    unroll: u64,
) -> Result<DesignPoint, OptError> {
    let sched = schedule(program, cost, unroll);
    let (partition, hls) = price(features, &design, device, cost, &sched)?;
    Ok(predicted(features, design, &partition, hls, device))
}

/// The hardware half of [`evaluate`]: the partition and the HLS report of
/// `design` under the pipeline `sched` (which depends only on the unroll,
/// so the searches compute it once per unroll).
fn price(
    features: &StencilFeatures,
    design: &Design,
    device: &Device,
    cost: &CostModel,
    sched: &PipelineSchedule,
) -> Result<(Partition, HlsReport), OptError> {
    let partition = Partition::new(features.extent, design, &features.growth)?;
    let resources = estimate_resources(features, &partition, sched.unroll, cost, device);
    let hls = HlsReport {
        ii: sched.ii,
        depth: sched.depth,
        unroll: sched.unroll,
        cycles_per_element: sched.cycles_per_element(),
        resources,
    };
    Ok((partition, hls))
}

/// The model half of [`evaluate`]: the predicted latency of a priced point.
/// The searches call it only for points whose resources they would keep.
fn predicted(
    features: &StencilFeatures,
    design: Design,
    partition: &Partition,
    hls: HlsReport,
    device: &Device,
) -> DesignPoint {
    let prediction = predict(&ModelInputs::gather(features, partition, &hls, device));
    DesignPoint {
        design,
        hls,
        prediction,
    }
}

/// Replaces `best` with `point` if it predicts strictly fewer cycles, so
/// the first of equally fast points wins.
fn keep_faster(best: &mut Option<DesignPoint>, point: DesignPoint) {
    if best
        .as_ref()
        .is_none_or(|b| point.prediction.total < b.prediction.total)
    {
        *best = Some(point);
    }
}

/// Explores the overlapped-tiling (baseline) design space: every candidate
/// fusion depth × tile size at the configured parallelism, keeping the
/// design with the lowest predicted latency among those that fit `device`.
///
/// # Errors
///
/// Returns [`OptError::NoFeasibleDesign`] when nothing fits.
pub fn optimize_baseline(
    program: &Program,
    device: &Device,
    cost: &CostModel,
    cfg: &SearchConfig,
) -> Result<DesignPoint, OptError> {
    let features = StencilFeatures::extract(program)?;
    let mut unrolls = cfg.unroll_candidates.clone();
    if unrolls.is_empty() {
        unrolls.push(cfg.unroll);
    }
    let mut best: Option<DesignPoint> = None;
    for &unroll in &unrolls {
        let sched = schedule(program, cost, unroll);
        for tile_lens in tile_combos(&features, cfg) {
            for &h in &fused_candidates(&features, cfg.max_fused) {
                let Ok(design) = Design::equal(
                    DesignKind::Baseline,
                    h,
                    cfg.parallelism.clone(),
                    tile_lens.clone(),
                ) else {
                    continue;
                };
                let Ok((partition, hls)) = price(&features, &design, device, cost, &sched) else {
                    continue;
                };
                if !hls.resources.fits(device) {
                    continue;
                }
                keep_faster(
                    &mut best,
                    predicted(&features, design, &partition, hls, device),
                );
            }
        }
    }
    best.ok_or_else(|| OptError::NoFeasibleDesign {
        detail: format!("baseline search for `{}` on {}", program.name, device.name),
    })
}

/// Explores the heterogeneous design space under a resource `budget`
/// (normally the baseline's consumption, per Section 5.4): every candidate
/// fusion depth × region size, with per-kernel tile lengths computed by
/// [`balance_tiles`], at the same parallelism **and unroll** as the baseline
/// (so the datapath — and hence the DSP count — is held equal).
///
/// # Errors
///
/// Returns [`OptError::NoFeasibleDesign`] when nothing fits the budget.
pub fn optimize_heterogeneous(
    program: &Program,
    device: &Device,
    cost: &CostModel,
    cfg: &SearchConfig,
    budget: &ResourceUsage,
    unroll: u64,
) -> Result<DesignPoint, OptError> {
    let features = StencilFeatures::extract(program)?;
    let growth = features.growth;
    let sched = schedule(program, cost, unroll);
    let mut best: Option<DesignPoint> = None;
    for tile_lens in tile_combos(&features, cfg) {
        for &h in &fused_candidates(&features, cfg.max_fused) {
            let mut lens = Vec::with_capacity(features.dim);
            let mut ok = true;
            for (d, &tile_len) in tile_lens.iter().enumerate() {
                let k = cfg.parallelism[d];
                let region = k * tile_len;
                let boundary_expands = features.extent.len(d) / region > 1;
                let min_tile = cfg
                    .min_tile
                    .max(growth.lo(d).max(growth.hi(d)) as usize)
                    .max(1);
                match balance_tiles(region, k, &growth, d, h, boundary_expands, min_tile) {
                    Some(v) => lens.push(v),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            // Candidate designs at this (h, region) point: the balanced
            // heterogeneous tiling and the plain equal pipe-shared tiling
            // (balancing factors of 1) in case balancing does not pay off.
            let mut candidates = Vec::with_capacity(2);
            if let Ok(d) = Design::heterogeneous(h, lens) {
                candidates.push(d);
            }
            if let Ok(d) = Design::equal(
                DesignKind::PipeShared,
                h,
                cfg.parallelism.clone(),
                tile_lens.clone(),
            ) {
                candidates.push(d);
            }
            for design in candidates {
                let Ok((partition, hls)) = price(&features, &design, device, cost, &sched) else {
                    continue;
                };
                if !hls.resources.within(budget) {
                    continue;
                }
                keep_faster(
                    &mut best,
                    predicted(&features, design, &partition, hls, device),
                );
            }
        }
    }
    best.ok_or_else(|| OptError::NoFeasibleDesign {
        detail: format!(
            "heterogeneous search for `{}` within budget {budget}",
            program.name
        ),
    })
}

/// Runs the paper's full methodology: find the best baseline by exploring
/// its design space, then find the best heterogeneous design **constrained
/// by the baseline's resources** at the same parallelism — the comparison
/// behind every Table 3 row.
///
/// # Errors
///
/// Propagates either search's [`OptError::NoFeasibleDesign`].
pub fn optimize_pair(
    program: &Program,
    device: &Device,
    cost: &CostModel,
    cfg: &SearchConfig,
) -> Result<OptimizedPair, OptError> {
    let baseline = optimize_baseline(program, device, cost, cfg)?;
    let budget = baseline.hls.resources;
    let unroll = baseline.hls.unroll;
    let heterogeneous = optimize_heterogeneous(program, device, cost, cfg, &budget, unroll)?;
    Ok(OptimizedPair {
        baseline,
        heterogeneous,
    })
}

/// Cartesian product of per-dimension tile candidates.
fn tile_combos(features: &StencilFeatures, cfg: &SearchConfig) -> Vec<Vec<usize>> {
    let per_dim: Vec<Vec<usize>> = (0..features.dim)
        .map(|d| tile_candidates(features.extent.len(d), cfg.parallelism[d], cfg.min_tile))
        .collect();
    let mut combos = vec![Vec::new()];
    for options in &per_dim {
        let mut next = Vec::with_capacity(combos.len() * options.len());
        for combo in &combos {
            for &w in options {
                let mut c = combo.clone();
                c.push(w);
                next.push(c);
            }
        }
        combos = next;
    }
    if per_dim.iter().any(Vec::is_empty) {
        Vec::new()
    } else {
        combos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_grid::Extent;
    use stencilcl_lang::programs;

    fn small_jacobi2d() -> Program {
        programs::jacobi_2d()
            .with_extent(Extent::new2(512, 512))
            .with_iterations(128)
    }

    fn cfg() -> SearchConfig {
        SearchConfig {
            parallelism: vec![4, 4],
            unroll: 8,
            unroll_candidates: vec![4, 8],
            max_fused: 64,
            min_tile: 8,
        }
    }

    #[test]
    fn baseline_search_finds_a_fitting_design() {
        let p = small_jacobi2d();
        let best =
            optimize_baseline(&p, &Device::default(), &CostModel::default(), &cfg()).unwrap();
        assert_eq!(best.design.kind(), DesignKind::Baseline);
        assert!(best.hls.resources.fits(&Device::default()));
        assert!(best.design.fused() >= 1);
        assert!(best.prediction.total > 0.0);
    }

    #[test]
    fn heterogeneous_beats_baseline_within_budget() {
        let p = small_jacobi2d();
        let pair = optimize_pair(&p, &Device::default(), &CostModel::default(), &cfg()).unwrap();
        assert!(pair
            .heterogeneous
            .hls
            .resources
            .within(&pair.baseline.hls.resources));
        assert!(
            pair.predicted_speedup() >= 1.0,
            "speedup {} should not regress",
            pair.predicted_speedup()
        );
        assert_eq!(
            pair.heterogeneous.design.parallelism(),
            pair.baseline.design.parallelism(),
            "paper keeps parallelism equal"
        );
    }

    #[test]
    fn heterogeneous_uses_deeper_fusion() {
        // Table 3's pattern: the budget freed by pipe sharing buys depth.
        let p = small_jacobi2d();
        let pair = optimize_pair(&p, &Device::default(), &CostModel::default(), &cfg()).unwrap();
        assert!(
            pair.heterogeneous.design.fused() >= pair.baseline.design.fused(),
            "hetero h {} vs baseline h {}",
            pair.heterogeneous.design.fused(),
            pair.baseline.design.fused()
        );
    }

    #[test]
    fn infeasible_budget_reported() {
        let p = small_jacobi2d();
        let tiny = ResourceUsage {
            ff: 1,
            lut: 1,
            dsp: 1,
            bram: 1,
        };
        let err = optimize_heterogeneous(
            &p,
            &Device::default(),
            &CostModel::default(),
            &cfg(),
            &tiny,
            8,
        )
        .unwrap_err();
        assert!(matches!(err, OptError::NoFeasibleDesign { .. }));
    }

    #[test]
    fn evaluate_rejects_non_dividing_designs() {
        let p = small_jacobi2d();
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::Baseline, 2, vec![4, 4], vec![100, 100]).unwrap();
        assert!(matches!(
            evaluate(&p, &f, d, &Device::default(), &CostModel::default(), 8),
            Err(OptError::Grid(_))
        ));
    }

    #[test]
    fn one_dimensional_search_works() {
        let p = programs::jacobi_1d()
            .with_extent(Extent::new1(65536))
            .with_iterations(256);
        let cfg = SearchConfig {
            parallelism: vec![16],
            unroll: 8,
            unroll_candidates: vec![8],
            max_fused: 128,
            min_tile: 64,
        };
        let pair = optimize_pair(&p, &Device::default(), &CostModel::default(), &cfg).unwrap();
        assert!(pair.predicted_speedup() >= 1.0);
    }
}
