use stencilcl_grid::{Grid, Point, Rect};
use stencilcl_lang::{GridState, Program};

use crate::pool::window_extent;
use crate::ExecError;

/// Extracts the window `rect` (already clipped to the grid) of every array of
/// `state` into a fresh local [`GridState`] over `local_program` — the
/// functional analogue of the burst read into a kernel's BRAM buffers.
///
/// `local_program` must be the program re-extented to the window.
///
/// # Errors
///
/// Returns [`ExecError`] when the window is empty or its extent disagrees
/// with `local_program`'s.
pub(crate) fn extract_window(
    state: &GridState,
    local_program: &Program,
    rect: &Rect,
) -> Result<GridState, ExecError> {
    if rect.is_empty() {
        return Err(ExecError::config(format!("empty window {rect}")));
    }
    let extent = window_extent(rect)?;
    if local_program.extent() != extent {
        return Err(ExecError::config(format!(
            "local program extent {} does not match window {}",
            local_program.extent(),
            extent
        )));
    }
    let mut grids = std::collections::BTreeMap::new();
    for decl in &local_program.grids {
        let src = state.grid(&decl.name)?;
        let values = src.read_window(rect)?;
        grids.insert(decl.name.clone(), Grid::from_vec(extent, values)?);
    }
    GridState::from_grids(local_program, grids).map_err(ExecError::from)
}

/// Writes the `updated` arrays of `local` (a window rooted at `origin`) back
/// into `state`, but only the cells inside `target` — the burst write of a
/// kernel's tile. Rows are copied slice to slice, with no intermediate
/// vector.
///
/// # Errors
///
/// Returns [`ExecError`] when geometry or grid names disagree.
pub(crate) fn write_back(
    state: &mut GridState,
    local: &GridState,
    updated: &[&str],
    origin: &Point,
    target: &Rect,
) -> Result<(), ExecError> {
    let local_target = target.translate(&-*origin)?;
    for name in updated {
        let src = local.grid(name)?;
        state
            .grid_mut(name)?
            .copy_window_from(target, src, &local_target)?;
    }
    Ok(())
}

/// Decomposes `window ∖ tile` into at most `2 · dim` disjoint rects — the
/// halo ring a persistent tile window must refresh from the global grid
/// between fused blocks (the tile interior keeps the values the kernel
/// itself computed and wrote back).
///
/// # Errors
///
/// Returns [`ExecError::BadConfiguration`] unless `tile` lies inside
/// `window`.
pub(crate) fn halo_ring(window: &Rect, tile: &Rect) -> Result<Vec<Rect>, ExecError> {
    if !window.contains_rect(tile) {
        return Err(ExecError::config(format!(
            "tile {tile} escapes its window {window}"
        )));
    }
    let mut ring = Vec::new();
    let mut core = *window;
    for d in 0..window.dim() {
        if core.lo().coord(d) < tile.lo().coord(d) {
            let slab = Rect::new(core.lo(), core.hi().with_coord(d, tile.lo().coord(d)))?;
            ring.push(slab);
            core = Rect::new(core.lo().with_coord(d, tile.lo().coord(d)), core.hi())?;
        }
        if core.hi().coord(d) > tile.hi().coord(d) {
            let slab = Rect::new(core.lo().with_coord(d, tile.hi().coord(d)), core.hi())?;
            ring.push(slab);
            core = Rect::new(core.lo(), core.hi().with_coord(d, tile.hi().coord(d)))?;
        }
    }
    Ok(ring)
}

/// Refreshes the `names` arrays of a persistent local window (rooted at
/// `origin`) over the absolute `ring` rects from the global state — the
/// incremental replacement for re-extracting the whole window every block.
/// Rows are copied slice to slice, with no intermediate vector.
///
/// # Errors
///
/// Returns [`ExecError`] when a ring rect falls outside the local window
/// or a named grid is missing.
pub(crate) fn refresh_ring(
    local: &mut GridState,
    global: &GridState,
    ring: &[Rect],
    origin: &Point,
    names: &[&str],
) -> Result<(), ExecError> {
    for rect in ring {
        let local_rect = rect.translate(&-*origin)?;
        for name in names {
            let src = global.grid(name)?;
            local
                .grid_mut(name)?
                .copy_window_from(&local_rect, src, rect)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_grid::Extent;
    use stencilcl_lang::parse;

    fn program(n: usize) -> Program {
        parse(&format!(
            "stencil w {{ grid A[{n}][{n}] : f32; grid B[{n}][{n}] : f32 read_only;
             iterations 1; A[i][j] = A[i][j] + B[i][j]; }}"
        ))
        .unwrap()
    }

    #[test]
    fn extract_and_write_back_roundtrip() {
        let p = program(8);
        let state = GridState::new(&p, |name, pt| {
            let tag = if name == "A" { 100.0 } else { 0.0 };
            tag + (pt.coord(0) * 8 + pt.coord(1)) as f64
        });
        let rect = Rect::new(Point::new2(2, 2), Point::new2(6, 6)).unwrap();
        let local_p = p.with_extent(Extent::new2(4, 4));
        let local = extract_window(&state, &local_p, &rect).unwrap();
        assert_eq!(
            *local.grid("A").unwrap().get(&Point::new2(0, 0)).unwrap(),
            100.0 + 18.0
        );
        // Modify the local window, then write a sub-target back.
        let mut local = local;
        local
            .grid_mut("A")
            .unwrap()
            .set(&Point::new2(1, 1), -1.0)
            .unwrap();
        let mut state2 = state.clone();
        let target = Rect::new(Point::new2(3, 3), Point::new2(5, 5)).unwrap();
        write_back(&mut state2, &local, &["A"], &rect.lo(), &target).unwrap();
        assert_eq!(
            *state2.grid("A").unwrap().get(&Point::new2(3, 3)).unwrap(),
            -1.0
        );
        // Outside the target: untouched.
        assert_eq!(
            *state2.grid("A").unwrap().get(&Point::new2(2, 2)).unwrap(),
            100.0 + 18.0
        );
        // Read-only array untouched everywhere.
        assert_eq!(state.grid("B").unwrap(), state2.grid("B").unwrap());
    }

    #[test]
    fn extract_rejects_mismatched_local_extent() {
        let p = program(8);
        let state = GridState::uniform(&p, 0.0);
        let rect = Rect::new(Point::new2(0, 0), Point::new2(4, 4)).unwrap();
        let wrong = p.with_extent(Extent::new2(5, 5));
        assert!(extract_window(&state, &wrong, &rect).is_err());
    }

    #[test]
    fn halo_ring_partitions_window_minus_tile() {
        let window = Rect::new(Point::new2(2, 1), Point::new2(10, 9)).unwrap();
        let tile = Rect::new(Point::new2(4, 3), Point::new2(8, 7)).unwrap();
        let ring = halo_ring(&window, &tile).unwrap();
        let ring_volume: u64 = ring.iter().map(Rect::volume).sum();
        assert_eq!(ring_volume + tile.volume(), window.volume());
        for (a, ra) in ring.iter().enumerate() {
            assert!(ra.intersect(&tile).unwrap().is_empty());
            for rb in &ring[a + 1..] {
                assert!(ra.intersect(rb).unwrap().is_empty(), "{ra} overlaps {rb}");
            }
        }
    }

    #[test]
    fn halo_ring_is_empty_when_tile_fills_window() {
        let r = Rect::new(Point::new2(0, 0), Point::new2(4, 4)).unwrap();
        assert!(halo_ring(&r, &r).unwrap().is_empty());
        let outside = Rect::new(Point::new2(0, 0), Point::new2(5, 4)).unwrap();
        assert!(halo_ring(&r, &outside).is_err());
    }

    #[test]
    fn refresh_ring_restores_stale_halo_only() {
        let p = program(8);
        let local_p = p.with_extent(Extent::new2(4, 4));
        let global = GridState::new(&p, |_, pt| (pt.coord(0) * 8 + pt.coord(1)) as f64);
        let window = Rect::new(Point::new2(2, 2), Point::new2(6, 6)).unwrap();
        let tile = Rect::new(Point::new2(3, 3), Point::new2(5, 5)).unwrap();
        let mut local = extract_window(&global, &local_p, &window).unwrap();
        // Scribble over the whole local window, then refresh the ring.
        for x in 0..4 {
            for y in 0..4 {
                local
                    .grid_mut("A")
                    .unwrap()
                    .set(&Point::new2(x, y), -1.0)
                    .unwrap();
            }
        }
        let ring = halo_ring(&window, &tile).unwrap();
        refresh_ring(&mut local, &global, &ring, &window.lo(), &["A"]).unwrap();
        // Ring cells restored from the global grid.
        assert_eq!(
            *local.grid("A").unwrap().get(&Point::new2(0, 0)).unwrap(),
            18.0
        );
        // Tile interior untouched by the refresh.
        assert_eq!(
            *local.grid("A").unwrap().get(&Point::new2(1, 1)).unwrap(),
            -1.0
        );
    }
}
