//! The crate's central property: **every executor matches the reference
//! bit-for-bit** across randomized stencils, tilings, fusion depths, and
//! initial data.

use proptest::prelude::*;
use stencilcl_exec::{
    run_pipe_shared_opts, run_reference_opts, run_supervised_opts, run_threaded_opts,
    verify_design, ExecMode, ExecOptions, ExecPolicy, HealthPolicy, Recorder, RecoveryPath,
};
use stencilcl_grid::{Design, DesignKind, Extent, Partition, Point, Rect};
use stencilcl_lang::{
    parse, programs, CompiledProgram, GridState, Interpreter, Program, StencilFeatures,
};

/// Random 2-D split of `total` into `k` positive parts.
fn split(total: usize, k: usize, skew: usize) -> Vec<usize> {
    let base = total / k;
    let mut lens = vec![base; k];
    let give = skew.min(base.saturating_sub(1));
    if k >= 2 {
        lens[0] -= give;
        lens[k - 1] += give;
    }
    let assigned: usize = lens.iter().sum();
    lens[0] += total - assigned;
    lens
}

fn verify(program: &Program, design: &Design, mode: ExecMode, seed: i64) -> f64 {
    let f = StencilFeatures::extract(program).unwrap();
    let partition = Partition::new(program.extent(), design, &f.growth).unwrap();
    verify_design(
        program,
        &partition,
        mode,
        &ExecOptions::new(),
        |name, p: &Point| {
            let mut v = (name.len() as i64 + seed) as f64;
            for d in 0..p.dim() {
                v = v * 13.0 + p.coord(d) as f64;
            }
            (v * 0.0021).sin()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jacobi2d_pipe_matches_reference_for_random_configs(
        tiles_per_dim in 1usize..=3,
        tile in 4usize..=8,
        regions in 1usize..=2,
        fused in 1u64..=5,
        iters in 1u64..=7,
        skew in 0usize..3,
        seed in 0i64..1000,
    ) {
        let n = tiles_per_dim * tile * regions;
        let program = programs::jacobi_2d().with_extent(Extent::new2(n, n)).with_iterations(iters);
        let lens = split(tiles_per_dim * tile, tiles_per_dim, skew);
        if lens.iter().any(|&w| w < 1) {
            return Ok(());
        }
        let design = Design::heterogeneous(fused, vec![lens.clone(), lens]).unwrap();
        prop_assert_eq!(verify(&program, &design, ExecMode::PipeShared, seed), 0.0);
    }

    #[test]
    fn jacobi1d_all_modes_match_reference(
        k in 1usize..=4,
        tile in 3usize..=10,
        regions in 1usize..=3,
        fused in 1u64..=6,
        iters in 1u64..=9,
        seed in 0i64..1000,
    ) {
        let n = k * tile * regions;
        let program = programs::jacobi_1d().with_extent(Extent::new1(n)).with_iterations(iters);
        let base = Design::equal(DesignKind::Baseline, fused, vec![k], vec![tile]).unwrap();
        prop_assert_eq!(verify(&program, &base, ExecMode::PipeShared, seed), 0.0);
        prop_assert_eq!(verify(&program, &base, ExecMode::Threaded, seed), 0.0);
        let pipe = Design::equal(DesignKind::PipeShared, fused, vec![k], vec![tile]).unwrap();
        prop_assert_eq!(verify(&program, &pipe, ExecMode::PipeShared, seed), 0.0);
        prop_assert_eq!(verify(&program, &pipe, ExecMode::Threaded, seed), 0.0);
    }

    #[test]
    fn random_asymmetric_stencils_stay_exact(
        lo in 0i64..=2,
        hi in 0i64..=2,
        fused in 1u64..=4,
        iters in 1u64..=5,
        seed in 0i64..1000,
    ) {
        // Asymmetric reach: A[i] = f(A[i-lo], A[i], A[i+hi]).
        if lo == 0 && hi == 0 {
            return Ok(());
        }
        let n = 48usize;
        let src = format!(
            "stencil a {{ grid A[{n}] : f32; iterations {iters};
             A[i] = 0.4 * A[i] + 0.3 * (A[i-{lo}] + A[i+{hi}]); }}"
        );
        let program = parse(&src).unwrap();
        let tile = 12usize;
        let reach = lo.max(hi) as usize;
        if tile < reach {
            return Ok(());
        }
        let design = Design::equal(DesignKind::PipeShared, fused, vec![2], vec![tile]).unwrap();
        prop_assert_eq!(verify(&program, &design, ExecMode::PipeShared, seed), 0.0);
        let base = Design::equal(DesignKind::Baseline, fused, vec![2], vec![tile]).unwrap();
        prop_assert_eq!(verify(&program, &base, ExecMode::PipeShared, seed), 0.0);
        prop_assert_eq!(verify(&program, &base, ExecMode::Threaded, seed), 0.0);
    }

    #[test]
    fn fdtd2d_chained_statements_stay_exact_threaded(
        fused in 1u64..=4,
        iters in 1u64..=6,
        seed in 0i64..1000,
    ) {
        let program = programs::fdtd_2d().with_extent(Extent::new2(24, 24)).with_iterations(iters);
        let design = Design::equal(DesignKind::PipeShared, fused, vec![2, 2], vec![6, 6]).unwrap();
        prop_assert_eq!(verify(&program, &design, ExecMode::Threaded, seed), 0.0);
    }

    #[test]
    fn hotspot3d_with_power_map_stays_exact(
        fused in 1u64..=3,
        iters in 1u64..=4,
        seed in 0i64..1000,
    ) {
        let program = parse(&programs::hotspot_3d_source(12, 12, 12, iters)).unwrap();
        let design =
            Design::equal(DesignKind::PipeShared, fused, vec![2, 2, 1], vec![6, 6, 12]).unwrap();
        prop_assert_eq!(verify(&program, &design, ExecMode::PipeShared, seed), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chambolle_tv_denoising_stays_exact(
        fused in 1u64..=4,
        iters in 1u64..=5,
        seed in 0i64..1000,
    ) {
        // Intrinsic-using extension benchmark (abs + division, 3 chained
        // statements, read-only image).
        let program = parse(&programs::chambolle_2d_source(24, iters)).unwrap();
        let design = Design::equal(DesignKind::PipeShared, fused, vec![2, 2], vec![6, 6]).unwrap();
        prop_assert_eq!(verify(&program, &design, ExecMode::PipeShared, seed), 0.0);
        prop_assert_eq!(verify(&program, &design, ExecMode::Threaded, seed), 0.0);
        let base = Design::equal(DesignKind::Baseline, fused, vec![2, 2], vec![6, 6]).unwrap();
        prop_assert_eq!(verify(&program, &base, ExecMode::PipeShared, seed), 0.0);
        prop_assert_eq!(verify(&program, &base, ExecMode::Threaded, seed), 0.0);
    }

    #[test]
    fn erosion_min_filter_stays_exact(
        fused in 1u64..=4,
        iters in 1u64..=6,
        seed in 0i64..1000,
    ) {
        let program = parse(&programs::erosion_2d_source(24, iters)).unwrap();
        let design = Design::equal(DesignKind::PipeShared, fused, vec![2, 2], vec![6, 6]).unwrap();
        prop_assert_eq!(verify(&program, &design, ExecMode::PipeShared, seed), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The persistent-pool executors agree **with each other and with the
    // reference**, bit for bit, over random star stencils, all three design
    // families, and fused depths that exercise partial final blocks.
    #[test]
    fn random_star_stencils_agree_across_all_executors(
        li in 0i64..=2, hi in 0i64..=2, lj in 0i64..=2, hj in 0i64..=2,
        c in 1u64..=4,
        t in 4usize..=8,
        regions in 1usize..=2,
        family in 0usize..=2,
        skew in 0usize..2,
        narrow in 0usize..=2,
        fused in 1u64..=3,
        iters in 1u64..=6,
        lanes in 1usize..=9,
        seed in 0i64..1000,
    ) {
        if li + hi + lj + hj == 0 {
            return Ok(()); // pointwise, no halo exchange to test
        }
        let n = 2 * t * regions;
        let c0 = c as f64 * 0.05;
        let src = format!(
            "stencil star {{ grid A[{n}][{n}] : f32; iterations {iters};
             A[i][j] = {c0:.2} * A[i][j] + 0.2 * (A[i-{li}][j] + A[i+{hi}][j]) \
                     + 0.15 * (A[i][j-{lj}] + A[i][j+{hj}]); }}"
        );
        let program = parse(&src).unwrap();
        let design = if family == 1 {
            let lens = split(2 * t, 2, skew);
            // A 1- or 2-column first tile (no narrower than the stencil's
            // column reach, which partitioning requires): its outgoing
            // slabs are columns that run through the grid's top and bottom
            // boundary rows, which lie outside the statement's clipped
            // domain.
            let w = narrow.max(lj.max(hj) as usize);
            let cols = if narrow > 0 { vec![w, 2 * t - w] } else { lens.clone() };
            Design::heterogeneous(fused, vec![lens, cols]).unwrap()
        } else {
            let kind = if family == 2 { DesignKind::Baseline } else { DesignKind::PipeShared };
            Design::equal(kind, fused, vec![2, 2], vec![t, t]).unwrap()
        };
        let f = StencilFeatures::extract(&program).unwrap();
        let partition = Partition::new(program.extent(), &design, &f.growth).unwrap();
        let init = |name: &str, p: &Point| {
            let mut v = (name.len() as i64 + seed) as f64;
            for d in 0..p.dim() {
                v = v * 17.0 + p.coord(d) as f64;
            }
            (v * 0.0013).cos()
        };
        let mut reference = GridState::new(&program, init);
        run_reference_opts(&program, &mut reference, &ExecOptions::new().lanes(lanes)).unwrap();
        // The executors run compiled bytecode by default; the tree-walking
        // AST interpreter is the independent oracle they must match bit for
        // bit (same f64 operations in the same order per cell) at every
        // lane width.
        let mut oracle = GridState::new(&program, init);
        Interpreter::new(&program).run(&mut oracle, program.iterations).unwrap();
        prop_assert_eq!(oracle.max_abs_diff(&reference).unwrap(), 0.0);
        let mut pipe = GridState::new(&program, init);
        let opts = ExecOptions::new();
        run_pipe_shared_opts(&program, &partition, &mut pipe, &opts).unwrap();
        let mut threaded = GridState::new(&program, init);
        run_threaded_opts(&program, &partition, &mut threaded, &opts).unwrap();
        let mut supervised = GridState::new(&program, init);
        let report = run_supervised_opts(&program, &partition, &mut supervised, &opts).unwrap();
        prop_assert_eq!(reference.max_abs_diff(&pipe).unwrap(), 0.0);
        prop_assert_eq!(pipe.max_abs_diff(&threaded).unwrap(), 0.0);
        // Supervision is transparent when nothing goes wrong: same grid,
        // one clean threaded attempt, nothing leaked.
        prop_assert_eq!(reference.max_abs_diff(&supervised).unwrap(), 0.0);
        prop_assert_eq!(report.path, RecoveryPath::Threaded);
        prop_assert_eq!(report.leaked_workers(), 0);
    }
}

/// `parts` tile lengths summing to `parts * t`; with `skew` the first
/// tile gives up to `skew` cells to the last, never going below `min`.
fn tile_lens(parts: usize, t: usize, skew: usize, min: usize) -> Vec<usize> {
    let mut v = vec![t; parts];
    let give = skew.min(t.saturating_sub(min.max(1)));
    if parts >= 2 {
        v[0] -= give;
        v[parts - 1] += give;
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The worker count is a scheduling choice only: over random star
    // stencils in 1-D, 2-D and 3-D, equal, heterogeneous and baseline
    // partitions of one or two regions, fused depths with partial final
    // blocks, and integrity on and off, every W in 1..=kernels (uneven
    // splits such as 3 workers over 4 kernels included) is bit-exact with
    // the reference and moves exactly the same traffic as the one-worker
    // run. Every cell computed is either a statement update the reference
    // makes too or redundant halo recompute outside the kernel's tile, of
    // which a one-region pipe design has none.
    #[test]
    fn every_worker_count_is_bit_exact_and_moves_the_same_traffic(
        dim in 1usize..=3,
        lo in prop::collection::vec(0usize..=1, 3),
        hi in prop::collection::vec(0usize..=1, 3),
        far in 0usize..=1,
        parts0 in 2usize..=4,
        parts1 in 1usize..=2,
        t in 2usize..=4,
        family in 0usize..=2,
        skew in 0usize..=2,
        regions in 1usize..=2,
        fused in 1u64..=3,
        iters in 1u64..=5,
        integrity in 0usize..=1,
        seed in 0i64..1000,
    ) {
        // Axis 0 may reach 2 cells (`far`); tiles are at least 2 wide.
        let mut reach: Vec<(usize, usize)> = (0..dim).map(|a| (lo[a], hi[a])).collect();
        reach[0].1 += far;
        if reach.iter().all(|&(l, h)| l + h == 0) {
            return Ok(()); // pointwise: no slabs to route
        }
        let parts: Vec<usize> = match dim {
            1 => vec![parts0],
            2 => vec![parts0.min(3), 2],
            _ => vec![2, 2, parts1],
        };
        let tile_lens: Vec<Vec<usize>> = parts
            .iter()
            .enumerate()
            .map(|(a, &n)| {
                let min = reach[a].0.max(reach[a].1);
                tile_lens(n, t, if family == 1 { skew } else { 0 }, min)
            })
            .collect();
        let extent: Vec<usize> = parts
            .iter()
            .enumerate()
            .map(|(a, &n)| n * t * if a == 0 { regions } else { 1 })
            .collect();
        let idx = ["i", "j", "k"];
        let at = |a: usize, off: i64| -> String {
            (0..dim)
                .map(|b| match off {
                    o if b == a && o < 0 => format!("[{}-{}]", idx[b], -o),
                    o if b == a && o > 0 => format!("[{}+{}]", idx[b], o),
                    _ => format!("[{}]", idx[b]),
                })
                .collect()
        };
        let mut rhs = format!("0.3 * A{}", at(0, 0));
        for (a, &(l, h)) in reach.iter().enumerate() {
            let w = [0.2, 0.15, 0.1][a];
            rhs += &format!(" + {w} * (A{} + A{})", at(a, -(l as i64)), at(a, h as i64));
        }
        let dims: String = extent.iter().map(|n| format!("[{n}]")).collect();
        let src = format!(
            "stencil star {{ grid A{dims} : f32; iterations {iters}; A{} = {rhs}; }}",
            at(0, 0)
        );
        let program = parse(&src).unwrap();
        let design = if family == 1 {
            Design::heterogeneous(fused, tile_lens).unwrap()
        } else {
            let kind = if family == 2 { DesignKind::Baseline } else { DesignKind::PipeShared };
            Design::equal(kind, fused, parts.clone(), vec![t; dim]).unwrap()
        };
        let f = StencilFeatures::extract(&program).unwrap();
        let partition = Partition::new(program.extent(), &design, &f.growth).unwrap();
        let init = |name: &str, p: &Point| {
            let mut v = (name.len() as i64 + seed) as f64;
            for d in 0..p.dim() {
                v = v * 17.0 + p.coord(d) as f64;
            }
            (v * 0.0013).cos()
        };
        let mut reference = GridState::new(&program, init);
        run_reference_opts(&program, &mut reference, &ExecOptions::new()).unwrap();
        let kernels: usize = parts.iter().product();
        let updates: u64 = extent
            .iter()
            .zip(&reach)
            .map(|(&n, &(l, h))| (n - l - h) as u64)
            .product::<u64>()
            * iters;
        let mut traffic = None;
        for w in 1..=kernels {
            let rec = Recorder::new();
            let opts = ExecOptions::new()
                .integrity(integrity == 1)
                .trace(rec.clone())
                .policy(ExecPolicy { workers: Some(w), ..ExecPolicy::default() });
            let mut got = GridState::new(&program, init);
            run_threaded_opts(&program, &partition, &mut got, &opts).unwrap();
            prop_assert_eq!(reference.max_abs_diff(&got).unwrap(), 0.0);
            let trace = rec.finish();
            prop_assert!(trace.validate_spans().is_ok());
            let c = &trace.counters;
            let seen = (c.slabs_sent, c.slabs_received, c.halo_bytes, c.cells_computed);
            prop_assert_eq!(c.slabs_sent, c.slabs_received);
            prop_assert_eq!(c.cells_computed - c.redundant_cells, updates);
            if regions == 1 && family < 2 {
                prop_assert_eq!(c.redundant_cells, 0);
            }
            match traffic {
                None => traffic = Some(seen),
                Some(one) => prop_assert_eq!(one, seen),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The integrity layer is observation-only: slab checksums, the health
    // watchdog, and a generous deadline never change a single bit of a
    // healthy run's result, in either pipe executor.
    #[test]
    fn integrity_and_health_guards_never_perturb_a_healthy_run(
        tiles_per_dim in 1usize..=3,
        tile in 4usize..=8,
        fused in 1u64..=4,
        iters in 1u64..=6,
        stride in 1usize..=7,
        seed in 0i64..1000,
    ) {
        let n = tiles_per_dim * tile;
        let program = programs::jacobi_2d().with_extent(Extent::new2(n, n)).with_iterations(iters);
        let lens = vec![tile; tiles_per_dim];
        let design = Design::heterogeneous(fused, vec![lens.clone(), lens]).unwrap();
        let f = StencilFeatures::extract(&program).unwrap();
        let partition = Partition::new(program.extent(), &design, &f.growth).unwrap();
        let init = |name: &str, p: &Point| {
            let mut v = (name.len() as i64 + seed) as f64;
            for d in 0..p.dim() {
                v = v * 23.0 + p.coord(d) as f64;
            }
            (v * 0.0019).sin()
        };
        let guarded = ExecOptions::new()
            .integrity(true)
            .health(HealthPolicy::bounded(1e9).stride(stride))
            .policy(ExecPolicy {
                deadline: Some(std::time::Duration::from_secs(3600)),
                ..ExecPolicy::default()
            });
        let mut plain = GridState::new(&program, init);
        run_pipe_shared_opts(&program, &partition, &mut plain, &ExecOptions::new()).unwrap();
        let mut seq = GridState::new(&program, init);
        run_pipe_shared_opts(&program, &partition, &mut seq, &guarded).unwrap();
        prop_assert_eq!(plain.max_abs_diff(&seq).unwrap(), 0.0);
        let mut thr = GridState::new(&program, init);
        run_threaded_opts(&program, &partition, &mut thr, &guarded).unwrap();
        prop_assert_eq!(plain.max_abs_diff(&thr).unwrap(), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The compiled bytecode path is **bit-exact** with the AST interpreter:
    // full runs agree for every lane width, and partial-domain
    // applications (the shapes the tiled executors feed it) agree too.
    // Equality is `to_bits`-level (max_abs_diff == 0.0), not epsilon.
    #[test]
    fn compiled_kernels_bit_exact_with_ast_interpreter(
        li in 0i64..=2, hi in 0i64..=2, lj in 0i64..=2, hj in 0i64..=2,
        nx in 8usize..=20, ny in 8usize..=20,
        lanes in 1usize..=9,
        iters in 1u64..=4,
        sx in 0u64..6, sy in 0u64..6, wx in 1u64..8, wy in 1u64..8,
        seed in 0i64..1000,
    ) {
        // Two coupled statements: a star update reading both arrays plus a
        // pointwise accumulate with a division, so the tape covers loads
        // from several slots, asymmetric deltas, and non-commutative ops.
        let src = format!(
            "stencil diff {{ grid A[{nx}][{ny}] : f32; grid B[{nx}][{ny}] : f32;
             iterations {iters};
             A[i][j] = 0.25 * (A[i-{li}][j] + A[i+{hi}][j] + B[i][j-{lj}] + A[i][j+{hj}]);
             B[i][j] = B[i][j] + A[i][j] / 3.0; }}"
        );
        let program = parse(&src).unwrap();
        let init = |name: &str, p: &Point| {
            let mut v = (name.len() as i64 * 7 + seed) as f64;
            for d in 0..p.dim() {
                v = v * 19.0 + p.coord(d) as f64;
            }
            (v * 0.0017).sin() + 1.5
        };
        let interp = Interpreter::new(&program);
        let compiled = CompiledProgram::compile(&program).unwrap().with_lanes(lanes);

        // Full runs, every iteration and statement.
        let mut a = GridState::new(&program, init);
        interp.run(&mut a, program.iterations).unwrap();
        let mut b = GridState::new(&program, init);
        compiled.run(&mut b, program.iterations).unwrap();
        prop_assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);

        // A partial domain (clipped internally by both engines), per
        // statement — the shape the tiled executors drive.
        let window = Rect::new(
            Point::new2(sx as i64, sy as i64),
            Point::new2((sx + wx) as i64, (sy + wy) as i64),
        )
        .unwrap();
        let mut a = GridState::new(&program, init);
        let mut b = GridState::new(&program, init);
        for s in 0..program.updates.len() {
            interp.apply_statement(&mut a, s, &window).unwrap();
            compiled.apply_statement(&mut b, s, &window).unwrap();
        }
        prop_assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Degenerate domains never corrupt state or diverge from the oracle:
    // zero-area clips are a no-op, 1-cell rows and tiny grids force the
    // whole sweep through the scalar tail, and lane widths larger
    // than the row still land on exactly the windowed cells. Windows may
    // start before the grid or run past it — both engines clip identically.
    #[test]
    fn degenerate_windows_and_tiny_grids_stay_bit_exact(
        nx in 1usize..=5, ny in 1usize..=5,
        lanes in 1usize..=12,
        sx in -2i64..=6, sy in -2i64..=6,
        wx in 0i64..=8, wy in 0i64..=8,
        iters in 1u64..=3,
        seed in 0i64..1000,
    ) {
        let src = format!(
            "stencil tiny {{ grid A[{nx}][{ny}] : f32; iterations {iters};
             A[i][j] = 0.5 * A[i][j] + 0.2 * (A[i-1][j] + A[i][j+1]); }}"
        );
        let program = parse(&src).unwrap();
        let init = |name: &str, p: &Point| {
            let mut v = (name.len() as i64 * 3 + seed) as f64;
            for d in 0..p.dim() {
                v = v * 11.0 + p.coord(d) as f64;
            }
            (v * 0.0023).sin() + 0.5
        };
        let interp = Interpreter::new(&program);
        let compiled = CompiledProgram::compile(&program).unwrap().with_lanes(lanes);

        // Full runs on grids down to 1x1.
        let mut a = GridState::new(&program, init);
        interp.run(&mut a, program.iterations).unwrap();
        let mut b = GridState::new(&program, init);
        compiled.run(&mut b, program.iterations).unwrap();
        prop_assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);

        // Partial windows: possibly empty (wx or wy == 0), possibly hanging
        // off either grid edge. A zero-area clip must leave every cell
        // untouched in both engines.
        let window = Rect::new(
            Point::new2(sx, sy),
            Point::new2(sx + wx, sy + wy),
        ).unwrap();
        let mut a = GridState::new(&program, init);
        let mut b = GridState::new(&program, init);
        let untouched = GridState::new(&program, init);
        interp.apply_statement(&mut a, 0, &window).unwrap();
        compiled.apply_statement(&mut b, 0, &window).unwrap();
        prop_assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
        if wx == 0 || wy == 0 {
            prop_assert_eq!(b.max_abs_diff(&untouched).unwrap(), 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Durable checkpoints: across random stencils, fusion depths, barrier
    // strides, and kill points, a run killed after any barrier and resumed
    // from whatever generations survive reproduces the uninterrupted run
    // **bit for bit** (`max_abs_diff == 0.0`, not epsilon).
    #[test]
    fn checkpoint_roundtrip_is_bit_exact(
        li in 0i64..=1, hi in 1i64..=2,
        fused in 1u64..=3,
        iters in 2u64..=8,
        every in 1u64..=4,
        kill in 0usize..=6,
        seed in 0i64..1000,
    ) {
        use stencilcl_exec::{resume_supervised_full, run_supervised_full, CheckpointPolicy,
                             DirStore};
        let n = 20usize;
        let src = format!(
            "stencil ckpt {{ grid A[{n}][{n}] : f32; iterations {iters};
             A[i][j] = 0.45 * A[i][j] + 0.25 * (A[i-{li}][j] + A[i+1][j]) \
                     + 0.1 * (A[i][j+{hi}] + A[i][j-1]); }}"
        );
        let program = parse(&src).unwrap();
        let f = StencilFeatures::extract(&program).unwrap();
        let design =
            Design::equal(DesignKind::PipeShared, fused, vec![2, 2], vec![10, 10]).unwrap();
        let partition = Partition::new(program.extent(), &design, &f.growth).unwrap();
        let init = |name: &str, p: &Point| {
            let mut v = (name.len() as i64 + seed) as f64;
            for d in 0..p.dim() {
                v = v * 31.0 + p.coord(d) as f64;
            }
            (v * 0.0027).sin()
        };
        let mut reference = GridState::new(&program, init);
        run_reference_opts(&program, &mut reference, &ExecOptions::new()).unwrap();

        let dir = std::env::temp_dir().join(format!(
            "stencilcl-prop-ckpt-{}-{seed}-{fused}-{iters}-{every}-{kill}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExecOptions::new().checkpoint(
            CheckpointPolicy::at(&dir).every_barriers(every).keep_generations(64),
        );
        let mut full = GridState::new(&program, init);
        run_supervised_full(&program, &partition, &mut full, &opts).1.unwrap();
        prop_assert_eq!(reference.max_abs_diff(&full).unwrap(), 0.0);

        // Simulate a SIGKILL after an arbitrary barrier by discarding the
        // newest `kill` generations; at least one must survive.
        let store = DirStore::new(&dir);
        let generations = store.generations().unwrap();
        prop_assert!(!generations.is_empty());
        let drop_n = kill.min(generations.len() - 1);
        for &g in &generations[generations.len() - drop_n..] {
            store.remove(g).unwrap();
        }

        let (resumed, report, result) =
            resume_supervised_full(&program, &partition, &dir, &opts).unwrap();
        result.unwrap();
        prop_assert_eq!(reference.max_abs_diff(&resumed).unwrap(), 0.0);
        prop_assert_eq!(report.leaked_workers(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
