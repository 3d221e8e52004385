use serde::{Deserialize, Serialize};
use stencilcl_grid::{DesignKind, Partition};

use crate::ModelError;
use stencilcl_hls::{Device, HlsReport};
use stencilcl_lang::StencilFeatures;

/// Every parameter of the analytical model (the paper's Table 1), gathered
/// from source analysis, the design point, the HLS report, and off-line
/// profiling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInputs {
    /// `D` — number of stencil dimensions (source analysis).
    pub dim: usize,
    /// `W_d` — input array length per dimension (source analysis).
    pub input_lens: Vec<u64>,
    /// `H` — total stencil iterations (source analysis).
    pub iterations: u64,
    /// `Δs` — bytes per transferred element (source analysis).
    pub elem_bytes: u64,
    /// `Δw_d` — effective incremental cone length per fused iteration for the
    /// *slowest kernel*, per dimension. Both-side growth for the baseline;
    /// only the outward (region-boundary) sides for pipe-based designs.
    pub delta_w: Vec<u64>,
    /// Arrays read from global memory per pass (updated + read-only).
    pub read_arrays: u64,
    /// Arrays written back per pass (updated).
    pub write_arrays: u64,
    /// `h` — fused iteration depth (design point).
    pub fused: u64,
    /// `K` — number of kernels working in parallel (design point).
    pub kernels: u64,
    /// `w_d · f_d^max` — slowest-kernel tile length per dimension
    /// (design point; equals `w_d` for equal-tile designs).
    pub tile_lens: Vec<u64>,
    /// Region length per dimension (∑ tile lengths).
    pub region_lens: Vec<u64>,
    /// The architecture being modeled.
    pub kind: DesignKind,
    /// Number of pipe-shared faces of the slowest kernel (0 for baseline).
    pub shared_faces: u64,
    /// `C_element = II / N_PE` — cycles per element (HLS report, Eq. 9).
    pub cycles_per_element: f64,
    /// `BW` — peak global-memory bandwidth in bytes/cycle (profiling).
    pub bandwidth: f64,
    /// `C_pipe` — cycles to transfer one element through a pipe (profiling).
    pub pipe_cycles: f64,
    /// Kernel-launch overhead charged once per region pass (profiling).
    pub launch_overhead: f64,
}

impl ModelInputs {
    /// Gathers the model parameters for the design point described by
    /// `partition`, assuming `hls` was synthesized for the same point.
    ///
    /// The *slowest kernel* is taken from the canonical interior region: the
    /// tile with the largest total workload under the design's cones — for
    /// pipe designs the corner kernel (most outward faces), for the baseline
    /// any kernel of maximum tile volume.
    pub fn gather(
        features: &StencilFeatures,
        partition: &Partition,
        hls: &HlsReport,
        device: &Device,
    ) -> ModelInputs {
        let design = partition.design();
        let kind = design.kind();
        let fused = design.fused();
        let growth = features.growth;
        let tiles = partition.canonical_tiles();
        let slowest = tiles
            .iter()
            .max_by_key(|t| t.workload(kind, growth, fused))
            .expect("partitions have at least one tile");
        let dim = features.dim;
        let cone = slowest.cone(kind, growth, fused);
        let delta_w = (0..dim)
            .map(|d| {
                let lo = if cone.expands_lo(d) { growth.lo(d) } else { 0 };
                let hi = if cone.expands_hi(d) { growth.hi(d) } else { 0 };
                lo + hi
            })
            .collect();
        let shared_faces = if kind.uses_pipes() {
            slowest.shared_face_count() as u64 * features.updated_arrays as u64
        } else {
            0
        };
        ModelInputs {
            dim,
            input_lens: features
                .extent
                .as_slice()
                .iter()
                .map(|&l| l as u64)
                .collect(),
            iterations: features.iterations,
            elem_bytes: features.elem_bytes,
            delta_w,
            read_arrays: (features.updated_arrays + features.read_only_arrays) as u64,
            write_arrays: features.updated_arrays as u64,
            fused,
            kernels: design.kernel_count() as u64,
            tile_lens: (0..dim).map(|d| slowest.rect().len(d)).collect(),
            region_lens: (0..dim).map(|d| design.region_len(d) as u64).collect(),
            kind,
            shared_faces,
            cycles_per_element: hls.cycles_per_element,
            bandwidth: device.mem_bytes_per_cycle,
            pipe_cycles: device.pipe_cycles_per_elem,
            launch_overhead: device.launch_delay as f64,
        }
    }

    /// Slowest-kernel cone length along `d` at fused iteration `i`
    /// (1-based): `w_d · f_d^max + Δw_d · (h − i)`. The fallible form of
    /// [`cone_len`](Self::cone_len).
    ///
    /// # Errors
    ///
    /// [`ModelError::FusedIndexOutOfRange`] unless `1 <= i <= h` (outside
    /// that range the `h − i` term is undefined), and
    /// [`ModelError::DimensionOutOfRange`] unless `d < D`.
    pub fn checked_cone_len(&self, d: usize, i: u64) -> Result<f64, ModelError> {
        if d >= self.dim {
            return Err(ModelError::DimensionOutOfRange { d, dim: self.dim });
        }
        if i < 1 || i > self.fused {
            return Err(ModelError::FusedIndexOutOfRange {
                i,
                fused: self.fused,
            });
        }
        Ok(self.tile_lens[d] as f64 + (self.delta_w[d] * (self.fused - i)) as f64)
    }

    /// Slowest-kernel cone length along `d` at fused iteration `i`
    /// (1-based): `w_d · f_d^max + Δw_d · (h − i)`.
    ///
    /// # Panics
    ///
    /// Panics — in every build profile — if `i` is outside `1..=h` or `d`
    /// is out of range; use [`checked_cone_len`](Self::checked_cone_len)
    /// to handle the violation instead. (This used to be a `debug_assert`,
    /// which let release builds wrap `h − i` and return garbage.)
    pub fn cone_len(&self, d: usize, i: u64) -> f64 {
        match self.checked_cone_len(d, i) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Volume of the slowest kernel's footprint at fused iteration `i` —
    /// the product term of Eq. 8.
    pub fn cone_volume(&self, i: u64) -> f64 {
        (0..self.dim).map(|d| self.cone_len(d, i)).product()
    }

    /// Volume of the slowest kernel's *input* footprint
    /// (`∏ (w_d · f_d^max + Δw_d · h)`, the numerator of Eq. 5).
    pub fn input_volume(&self) -> f64 {
        (0..self.dim)
            .map(|d| (self.tile_lens[d] + self.delta_w[d] * self.fused) as f64)
            .product()
    }

    /// Volume of the slowest kernel's output tile (`∏ w_d · f_d^max`,
    /// the numerator of Eq. 6).
    pub fn tile_volume(&self) -> f64 {
        self.tile_lens.iter().map(|&w| w as f64).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilcl_grid::{Design, Partition};
    use stencilcl_hls::{synthesize, CostModel};
    use stencilcl_lang::programs;

    fn inputs(kind: DesignKind, fused: u64) -> ModelInputs {
        let program = programs::jacobi_2d();
        let f = StencilFeatures::extract(&program).unwrap();
        let d = Design::equal(kind, fused, vec![4, 4], vec![128, 128]).unwrap();
        let p = Partition::new(f.extent, &d, &f.growth).unwrap();
        let device = Device::default();
        let hls = synthesize(&program, &p, 8, &CostModel::default(), &device);
        ModelInputs::gather(&f, &p, &hls, &device)
    }

    #[test]
    fn baseline_expands_both_sides() {
        let m = inputs(DesignKind::Baseline, 8);
        assert_eq!(m.delta_w, vec![2, 2]);
        assert_eq!(m.shared_faces, 0);
        assert_eq!(m.kernels, 16);
        assert_eq!(m.tile_lens, vec![128, 128]);
    }

    #[test]
    fn pipe_design_expands_outward_only() {
        let m = inputs(DesignKind::PipeShared, 8);
        // Corner kernel: one outward face per dimension.
        assert_eq!(m.delta_w, vec![1, 1]);
        // Corner kernel shares 2 faces, one updated array.
        assert_eq!(m.shared_faces, 2);
    }

    #[test]
    fn cone_geometry_helpers() {
        let m = inputs(DesignKind::Baseline, 4);
        // At the last fused iteration the cone equals the tile.
        assert_eq!(m.cone_volume(4), m.tile_volume());
        assert_eq!(m.cone_len(0, 1), 128.0 + 2.0 * 3.0);
        assert_eq!(m.input_volume(), (128.0 + 8.0) * (128.0 + 8.0));
    }

    #[test]
    fn cone_len_rejects_out_of_range_indices() {
        let m = inputs(DesignKind::Baseline, 4);
        assert_eq!(m.checked_cone_len(0, 1).unwrap(), m.cone_len(0, 1));
        assert_eq!(
            m.checked_cone_len(0, 0),
            Err(ModelError::FusedIndexOutOfRange { i: 0, fused: 4 })
        );
        assert_eq!(
            m.checked_cone_len(0, 5),
            Err(ModelError::FusedIndexOutOfRange { i: 5, fused: 4 })
        );
        assert_eq!(
            m.checked_cone_len(2, 1),
            Err(ModelError::DimensionOutOfRange { d: 2, dim: 2 })
        );
    }

    #[test]
    #[should_panic(expected = "fused iteration index 0")]
    fn cone_len_panics_in_release_builds_too() {
        // i = 0 used to wrap `h - i` silently outside debug builds.
        inputs(DesignKind::Baseline, 4).cone_len(0, 0);
    }

    #[test]
    fn gather_reads_device_constants() {
        let m = inputs(DesignKind::PipeShared, 8);
        let dev = Device::default();
        assert_eq!(m.bandwidth, dev.mem_bytes_per_cycle);
        assert_eq!(m.pipe_cycles, dev.pipe_cycles_per_elem);
        assert_eq!(m.launch_overhead, dev.launch_delay as f64);
        assert_eq!(m.read_arrays, 1);
        assert_eq!(m.write_arrays, 1);
    }
}
