//! Batched per-nappe delay slabs — the streaming unit of the paper's
//! architecture.
//!
//! The paper's central observation is that delays should not be looked up
//! (or recomputed) voxel by voxel: a nappe-by-nappe traversal lets every
//! consumer stream one *slab* of delays per depth step, with strong
//! nappe-to-nappe locality. [`NappeDelays`] is that slab on the host side:
//! all delays for one nappe, restricted to one [`Tile`] of the steering
//! fan (a [`NappeSchedule`](crate::NappeSchedule) block's ownership), for
//! every element.
//!
//! Engines fill slabs through
//! [`DelayEngine::fill_nappe_rx_streamed`](crate::DelayEngine::fill_nappe_rx_streamed)
//! (the transmit-invariant receive leg) and turn rows into delays with
//! [`DelayEngine::combine_tx_row`](crate::DelayEngine::combine_tx_row);
//! [`NappeDelays::fill_scalar_for`] replays scalar
//! [`delay_samples_for`](crate::DelayEngine::delay_samples_for) queries
//! and is the bit-exactness reference for both.

use crate::schedule::Tile;
use usbf_geometry::{ElementIndex, SystemSpec, VoxelIndex};

/// One nappe's delays over a tile of the steering fan: layout
/// `[scanline within tile (θ-major, φ-inner)][element (linear order)]`,
/// in fractional samples at the system's `fs` — exactly what
/// [`delay_samples`](crate::DelayEngine::delay_samples) returns.
#[derive(Debug, Clone)]
pub struct NappeDelays {
    samples: Vec<f64>,
    tile: Tile,
    n_elements: usize,
    elements_nx: usize,
    n_depth: usize,
    nappe: Option<usize>,
    // Engine fill scratch, preallocated with the slab so warm refills
    // stay allocation-free (excluded from equality — scratch contents
    // are not part of the slab's value).
    row_args: Vec<f64>,
    row_regs: Vec<i64>,
    col_terms: Vec<f64>,
    row_terms: Vec<f64>,
}

impl PartialEq for NappeDelays {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
            && self.tile == other.tile
            && self.n_elements == other.n_elements
            && self.elements_nx == other.elements_nx
            && self.n_depth == other.n_depth
            && self.nappe == other.nappe
    }
}

/// Split borrows of a slab mid-fill: the sample buffer plus the engine
/// scratch rows, handed out together by
/// [`NappeDelays::begin_fill_scratch`] so an engine can use both without
/// fighting the borrow checker.
pub struct FillBuffers<'a> {
    /// The slab's raw sample buffer, row-major.
    pub samples: &'a mut [f64],
    /// One element-row of argument scratch (`n_elements` slots).
    pub row_args: &'a mut [f64],
    /// One element-row of integer register scratch (`elements_nx`
    /// slots).
    pub row_regs: &'a mut [i64],
    /// One float term per element column (`elements_nx` slots).
    pub col_terms: &'a mut [f64],
    /// One float term per element row (`n_elements / elements_nx`
    /// slots).
    pub row_terms: &'a mut [f64],
}

impl NappeDelays {
    /// Allocates a zeroed slab covering `tile` of `spec`'s steering fan.
    ///
    /// # Panics
    ///
    /// Panics if the tile exceeds the fan.
    pub fn for_tile(spec: &SystemSpec, tile: Tile) -> Self {
        let v = &spec.volume_grid;
        assert!(
            tile.theta_start < tile.theta_end
                && tile.phi_start < tile.phi_end
                && tile.theta_end <= v.n_theta()
                && tile.phi_end <= v.n_phi(),
            "tile {tile:?} outside the {}x{} fan",
            v.n_theta(),
            v.n_phi()
        );
        let n_elements = spec.elements.count();
        NappeDelays {
            samples: vec![0.0; tile.scanlines() * n_elements],
            tile,
            n_elements,
            elements_nx: spec.elements.nx(),
            n_depth: v.n_depth(),
            nappe: None,
            row_args: vec![0.0; n_elements],
            row_regs: vec![0; spec.elements.nx()],
            col_terms: vec![0.0; spec.elements.nx()],
            row_terms: vec![0.0; spec.elements.ny()],
        }
    }

    /// Allocates a slab covering the whole steering fan.
    pub fn full(spec: &SystemSpec) -> Self {
        let v = &spec.volume_grid;
        Self::for_tile(
            spec,
            Tile {
                theta_start: 0,
                theta_end: v.n_theta(),
                phi_start: 0,
                phi_end: v.n_phi(),
            },
        )
    }

    /// The fan tile this slab covers.
    #[inline]
    pub fn tile(&self) -> Tile {
        self.tile
    }

    /// Elements per scanline row.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Element-matrix width, for mapping linear element slots back to
    /// [`ElementIndex`] (`j → (j % nx, j / nx)`).
    #[inline]
    pub fn elements_nx(&self) -> usize {
        self.elements_nx
    }

    /// The nappe currently held, if any fill has happened.
    #[inline]
    pub fn nappe(&self) -> Option<usize> {
        self.nappe
    }

    /// Scanlines in the tile.
    #[inline]
    pub fn scanline_count(&self) -> usize {
        self.tile.scanlines()
    }

    /// Row slot of scanline `(it, ip)` within the tile.
    ///
    /// # Panics
    ///
    /// Panics if the scanline is outside the tile.
    #[inline]
    pub fn slot_of(&self, it: usize, ip: usize) -> usize {
        self.tile.slot_of(it, ip)
    }

    /// Iterates `(slot, it, ip)` over the tile in slab row order.
    pub fn scanlines(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        self.tile.iter_scanlines()
    }

    /// One scanline's delays for all elements, in linear element order.
    #[inline]
    pub fn row(&self, slot: usize) -> &[f64] {
        &self.samples[slot * self.n_elements..(slot + 1) * self.n_elements]
    }

    /// Delay for scanline `(it, ip)` and element `e` — the batched
    /// counterpart of [`delay_samples`](crate::DelayEngine::delay_samples)
    /// at the held nappe.
    #[inline]
    pub fn at(&self, it: usize, ip: usize, e: ElementIndex) -> f64 {
        self.row(self.slot_of(it, ip))[e.iy * self.elements_nx + e.ix]
    }

    /// The whole slab, row-major.
    #[inline]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Depth steps (nappes) of the volume grid this slab was built for —
    /// the exclusive upper bound on fillable nappe indices.
    #[inline]
    pub fn n_depth(&self) -> usize {
        self.n_depth
    }

    /// Clears the held-nappe marker, returning the slab to its
    /// freshly-allocated state without touching the buffer. Useful when
    /// handing a recycled slab to a different consumer; plain refills
    /// don't need it — [`begin_fill`](Self::begin_fill) overwrites the
    /// marker unconditionally, which is how warm loops reuse slabs.
    pub fn reset(&mut self) {
        self.nappe = None;
    }

    /// Marks the slab as holding `nappe_idx` and hands out the raw buffer
    /// for an engine's batched fill.
    ///
    /// Every engine's
    /// [`fill_nappe_rx_streamed`](crate::DelayEngine::fill_nappe_rx_streamed)
    /// routes through here, so this is the single validation point for
    /// the slab API.
    ///
    /// # Panics
    ///
    /// Panics (in release builds too — the engines' own geometry checks
    /// are `debug_assert`s) if `nappe_idx` is outside the volume grid's
    /// depth range.
    pub fn begin_fill(&mut self, nappe_idx: usize) -> &mut [f64] {
        assert!(
            nappe_idx < self.n_depth,
            "nappe index {nappe_idx} out of range: the volume grid has {} depth steps",
            self.n_depth
        );
        self.nappe = Some(nappe_idx);
        &mut self.samples
    }

    /// Like [`begin_fill`](Self::begin_fill), but also hands out the
    /// slab's preallocated scratch rows — the warm state engines with a
    /// batched datapath (TABLEFREE's argument rows and per-column and
    /// per-row squares, TABLESTEER's correction registers) use so a warm
    /// refill allocates nothing.
    ///
    /// # Panics
    ///
    /// Same contract as [`begin_fill`](Self::begin_fill).
    pub fn begin_fill_scratch(&mut self, nappe_idx: usize) -> FillBuffers<'_> {
        self.begin_fill(nappe_idx);
        FillBuffers {
            samples: &mut self.samples,
            row_args: &mut self.row_args,
            row_regs: &mut self.row_regs,
            col_terms: &mut self.col_terms,
            row_terms: &mut self.row_terms,
        }
    }

    /// Rewrites every row of the held nappe in slot order through
    /// `f(slot, vox, row_in, row_out)`: each row is first copied into the
    /// slab's argument scratch, so `f` reads the old row while it writes
    /// the new one in place, without allocating. This is how the
    /// provided [`fill_nappe_streamed_for`](crate::DelayEngine::fill_nappe_streamed_for)
    /// turns a receive slab into a delay slab.
    ///
    /// # Panics
    ///
    /// Panics if the slab holds no nappe yet.
    pub(crate) fn rewrite_rows(
        &mut self,
        mut f: impl FnMut(usize, VoxelIndex, &[f64], &mut [f64]),
    ) {
        let id = self.nappe.expect("rewrite_rows needs a filled slab");
        let n = self.n_elements;
        for (slot, it, ip) in self.tile.iter_scanlines() {
            let row = &mut self.samples[slot * n..(slot + 1) * n];
            self.row_args.copy_from_slice(row);
            f(slot, VoxelIndex::new(it, ip, id), &self.row_args, row);
        }
    }

    /// Scalar reference fill: one
    /// [`delay_samples`](crate::DelayEngine::delay_samples) query per slab
    /// entry — [`fill_scalar_for`](Self::fill_scalar_for) for transmit 0.
    pub fn fill_scalar<E: crate::DelayEngine + ?Sized>(&mut self, engine: &E, nappe_idx: usize) {
        self.fill_scalar_for(engine, 0, nappe_idx);
    }

    /// Transmit-indexed scalar reference fill: one
    /// [`delay_samples_for`](crate::DelayEngine::delay_samples_for) query
    /// per slab entry. This is the bit-exactness oracle of every batched
    /// row: an engine's receive fill plus
    /// [`combine_tx_row`](crate::DelayEngine::combine_tx_row) must
    /// reproduce it exactly, per transmit.
    pub fn fill_scalar_for<E: crate::DelayEngine + ?Sized>(
        &mut self,
        engine: &E,
        tx: usize,
        nappe_idx: usize,
    ) {
        let tile = self.tile;
        let n_elements = self.n_elements;
        let nx = self.elements_nx;
        let buf = self.begin_fill(nappe_idx);
        for (s, it, ip) in tile.iter_scanlines() {
            let vox = VoxelIndex::new(it, ip, nappe_idx);
            let row = &mut buf[s * n_elements..(s + 1) * n_elements];
            for (j, out) in row.iter_mut().enumerate() {
                *out = engine.delay_samples_for(tx, vox, ElementIndex::new(j % nx, j / nx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayEngine, ExactEngine};

    #[test]
    fn full_slab_covers_fan_and_elements() {
        let spec = SystemSpec::tiny();
        let slab = NappeDelays::full(&spec);
        assert_eq!(slab.scanline_count(), 64);
        assert_eq!(slab.n_elements(), 64);
        assert_eq!(slab.samples().len(), 64 * 64);
        assert_eq!(slab.nappe(), None);
    }

    #[test]
    fn slots_enumerate_theta_major_phi_inner() {
        let spec = SystemSpec::tiny();
        let tile = Tile {
            theta_start: 2,
            theta_end: 4,
            phi_start: 1,
            phi_end: 4,
        };
        let slab = NappeDelays::for_tile(&spec, tile);
        let order: Vec<_> = slab.scanlines().collect();
        assert_eq!(order[0], (0, 2, 1));
        assert_eq!(order[1], (1, 2, 2));
        assert_eq!(order[3], (3, 3, 1));
        for &(s, it, ip) in &order {
            assert_eq!(slab.slot_of(it, ip), s);
        }
    }

    #[test]
    fn scalar_fill_matches_point_queries() {
        let spec = SystemSpec::tiny();
        let engine = ExactEngine::new(&spec);
        let tile = Tile {
            theta_start: 1,
            theta_end: 3,
            phi_start: 0,
            phi_end: 2,
        };
        let mut slab = NappeDelays::for_tile(&spec, tile);
        slab.fill_scalar(&engine, 5);
        assert_eq!(slab.nappe(), Some(5));
        for (_, it, ip) in slab.scanlines() {
            for e in spec.elements.iter() {
                let vox = VoxelIndex::new(it, ip, 5);
                assert_eq!(slab.at(it, ip, e), engine.delay_samples(vox, e));
            }
        }
    }

    #[test]
    fn fill_scratch_marks_nappe_and_sizes_rows() {
        let spec = SystemSpec::tiny();
        let tile = Tile {
            theta_start: 1,
            theta_end: 3,
            phi_start: 0,
            phi_end: 3,
        };
        let mut slab = NappeDelays::for_tile(&spec, tile);
        let bufs = slab.begin_fill_scratch(7);
        assert_eq!(bufs.samples.len(), 6 * 64);
        assert_eq!(bufs.row_args.len(), 64);
        assert_eq!(bufs.row_regs.len(), 8);
        assert_eq!(bufs.col_terms.len(), 8);
        assert_eq!(bufs.row_terms.len(), 8);
        bufs.row_args[0] = 42.0; // scratch contents are not slab value…
        assert_eq!(slab.nappe(), Some(7));
        let fresh = {
            let mut s = NappeDelays::for_tile(&spec, tile);
            s.begin_fill(7);
            s
        };
        assert_eq!(slab, fresh); // …so equality ignores them
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_depth_nappe_rejected_at_fill_boundary() {
        // Release-mode boundary check: the geometry layer only
        // debug_asserts depth indices, so the slab API must reject them
        // unconditionally for every engine (all fills route through
        // begin_fill).
        let spec = SystemSpec::tiny();
        let engine = ExactEngine::new(&spec);
        let mut slab = NappeDelays::full(&spec);
        engine.fill_nappe(16, &mut slab); // tiny grid has n_depth == 16
    }

    #[test]
    fn reset_clears_held_nappe() {
        let spec = SystemSpec::tiny();
        let engine = ExactEngine::new(&spec);
        let mut slab = NappeDelays::full(&spec);
        assert_eq!(slab.n_depth(), 16);
        engine.fill_nappe(3, &mut slab);
        assert_eq!(slab.nappe(), Some(3));
        slab.reset();
        assert_eq!(slab.nappe(), None);
    }

    #[test]
    #[should_panic(expected = "outside tile")]
    fn out_of_tile_scanline_panics() {
        let spec = SystemSpec::tiny();
        let tile = Tile {
            theta_start: 0,
            theta_end: 2,
            phi_start: 0,
            phi_end: 2,
        };
        NappeDelays::for_tile(&spec, tile).slot_of(5, 0);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn oversized_tile_rejected() {
        let spec = SystemSpec::tiny();
        let tile = Tile {
            theta_start: 0,
            theta_end: 9,
            phi_start: 0,
            phi_end: 8,
        };
        NappeDelays::for_tile(&spec, tile);
    }
}
