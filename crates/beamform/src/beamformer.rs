//! The delay-and-sum kernel (Eq. 1) over any delay engine.
//!
//! The volume path mirrors the paper's architecture: delays are consumed
//! as per-nappe slabs ([`DelayEngine::fill_nappe_rx_streamed`]) rather
//! than per-voxel queries, and the steering fan is split into [`NappeSchedule`] tiles
//! beamformed in parallel — each worker owns one tile's slab and walks
//! the nappes in depth order, exactly like a Fig. 4 block bound to its
//! correction registers. The output volume is bit-identical to the scalar
//! per-voxel path, which is kept as the reference implementation (and as
//! the executed path for scanline-by-scanline traversal).

use crate::postproc::{PostChain, PostScratch};
use crate::{ActiveAperture, Apodization, BeamformedVolume};
use std::ops::Range;
use usbf_core::{DelayEngine, NappeDelays, NappeSchedule, Tile};
use usbf_geometry::scan::ScanOrder;
use usbf_geometry::{ElementIndex, SystemSpec, VoxelIndex};
use usbf_sim::RfFrame;

/// The schedule the parallel volume paths run on: fitted to the pool
/// that will execute it (~4 tiles per worker for claim balancing) —
/// the same sizing rule as [`NappeSchedule::for_host`].
pub(crate) fn pool_fitted_schedule(
    spec: &SystemSpec,
    pool: &usbf_par::ThreadPool,
) -> NappeSchedule {
    NappeSchedule::fitted(spec, pool.threads().max(1) * 4)
}

/// Scatters one tile's beamformed values (in
/// `[scanline-within-tile][depth]` order) into the output volume — the
/// single copy of the tile→volume layout mapping, shared by the cold
/// tiled path, [`VolumeLoop`](crate::VolumeLoop) and
/// [`FramePipeline`](crate::FramePipeline) so all three stay
/// bit-identical by construction.
pub(crate) fn scatter_tile(out: &mut BeamformedVolume, tile: Tile, values: &[f64], n_depth: usize) {
    for (slot, it, ip) in tile.iter_scanlines() {
        let column = &values[slot * n_depth..(slot + 1) * n_depth];
        for (id, &v) in column.iter().enumerate() {
            out.set(VoxelIndex::new(it, ip, id), v);
        }
    }
}

/// Voxels per gather/MAC block: the tile kernel takes consecutive slots
/// of one nappe in blocks of up to this many and gathers them channel by
/// channel. A fixed constant, not a setting (8, 16 and 32 measure alike).
const BLOCK: usize = 8;

/// Warm per-tile state: one task's receive-leg slab, output staging
/// buffer, per-voxel mask weights and the scratch of the tile kernel (a
/// combined delay row, plus one block of compacted delay rows and of
/// quantized index rows), allocated once at construction and refilled
/// every frame. One
/// definition shared by [`VolumeLoop`](crate::VolumeLoop) and
/// [`FramePipeline`](crate::FramePipeline) (and through the latter,
/// [`ShardedRuntime`](crate::ShardedRuntime)), so the warm-state shape
/// (and with it the bit-identical-to-serial invariant) cannot drift
/// between the runtimes.
pub struct TileState {
    pub(crate) slab: NappeDelays,
    pub(crate) values: Vec<f64>,
    /// One block of active-aperture delay rows, `[voxel in block][active
    /// channel]`: the linear gather's fractional delays, compacted out of
    /// `tx_row` (or combined straight in when the aperture is full). The
    /// nearest gather stages one compacted row here before quantizing.
    pub(crate) delays: Vec<f64>,
    /// One block of quantized echo-buffer index rows, same layout as
    /// `delays`, filled by one [`DelayEngine::quantize_row`] call per
    /// (voxel, transmit).
    pub(crate) indices: Vec<i32>,
    /// One combined per-transmit delay row:
    /// [`DelayEngine::combine_tx_row`] writes the transmit term folded
    /// onto the receive-leg slab row here, per (voxel, transmit). Sized
    /// to the full element row.
    pub(crate) tx_row: Vec<f64>,
    /// Mask weights, `[transmit][scanline-within-tile][depth]` (same
    /// inner layout as `values`): the per-voxel insonification weight of
    /// each transmit of the spec's sequence, precomputed at construction
    /// so the warm accumulate is a pure multiply-add with an explicit
    /// zero skip. A single point-source emission is one block of 1s.
    pub(crate) tx_weights: Vec<f64>,
    /// I/Q scratch for the fused post-processing chain (empty when the
    /// beamformer carries no chain).
    pub(crate) post_scratch: PostScratch,
}

impl TileState {
    /// Allocates the warm state for one schedule tile of `beamformer`'s
    /// spec: the delay slab, the `[scanline][depth]` staging buffer, the
    /// kernel's block scratch (one gather block × the compacted aperture,
    /// whatever the transmit count) and every
    /// transmit's per-voxel mask weight, so the warm accumulate never
    /// calls back into geometry.
    #[must_use]
    pub fn new(beamformer: &Beamformer, tile: Tile) -> Self {
        let spec = beamformer.spec();
        let active = beamformer.aperture().len();
        let n_depth = spec.volume_grid.n_depth();
        let n_values = tile.scanlines() * n_depth;
        let mut tx_weights = vec![0.0; spec.n_transmits() * n_values];
        for (tx, block) in tx_weights.chunks_exact_mut(n_values).enumerate() {
            for (slot, it, ip) in tile.iter_scanlines() {
                for id in 0..n_depth {
                    let s = spec.volume_grid.position(VoxelIndex::new(it, ip, id));
                    block[slot * n_depth + id] = spec.transmit_weight(tx, s);
                }
            }
        }
        TileState {
            slab: NappeDelays::for_tile(spec, tile),
            values: vec![0.0; n_values],
            delays: vec![0.0; BLOCK * active],
            indices: vec![0; BLOCK * active],
            tx_row: vec![0.0; spec.elements.count()],
            tx_weights,
            post_scratch: if beamformer.postproc().is_empty() {
                PostScratch::default()
            } else {
                PostScratch::new(n_depth)
            },
        }
    }

    /// The tile this state beamforms.
    #[inline]
    pub fn tile(&self) -> Tile {
        self.slab.tile()
    }

    /// The staged output values in `[scanline-within-tile][depth]` order
    /// (the layout the volume scatter consumes).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Builds the warm state for every tile of a schedule: the only place
/// the slab/values/scratch sizing lives.
pub(crate) fn warm_tile_states(beamformer: &Beamformer, tiles: &[Tile]) -> Vec<TileState> {
    tiles
        .iter()
        .map(|&tile| TileState::new(beamformer, tile))
        .collect()
}

/// Scatters every tile's staged values into the output volume, in tile
/// order — the deterministic sequential merge both runtimes end a frame
/// with.
pub(crate) fn scatter_tiles(
    out: &mut BeamformedVolume,
    tiles: &[Tile],
    states: &[TileState],
    n_depth: usize,
) {
    for (tile, state) in tiles.iter().zip(states) {
        scatter_tile(out, *tile, &state.values, n_depth);
    }
}

/// The tile kernel's block gather/MAC over the staged rows of the live
/// voxels `first..sums.len()`, in as many fixed-width passes of `W`
/// voxels as fit (index rows for the nearest gather, delay rows for the
/// linear one); returns the first row left over for a narrower pass.
fn block_mac<const NEAREST: bool, const W: usize>(
    rf: &RfFrame,
    tx: usize,
    aperture: &ActiveAperture,
    delays: &[f64],
    indices: &[i32],
    sums: &mut [f64],
    mut first: usize,
) -> usize {
    let (channels, weights) = (aperture.channels(), aperture.weights());
    let a = channels.len();
    while sums.len() - first >= W {
        let rows = first * a..(first + W) * a;
        let acc: &mut [f64; W] = (&mut sums[first..first + W])
            .try_into()
            .expect("a pass sums W voxels");
        if NEAREST {
            rf.gather_mac_nearest_block_for(tx, channels, weights, &indices[rows], acc);
        } else {
            rf.gather_mac_linear_block_for(tx, channels, weights, &delays[rows], acc);
        }
        first += W;
    }
    first
}

/// Compacts one slab row down to the active aperture, one slice copy per
/// run of consecutive active channels: `out[k] = row[channels[k]]`.
/// Skipped entirely when the aperture is full.
#[inline]
fn compact_row(row: &[f64], runs: &[Range<usize>], out: &mut [f64]) {
    let mut k = 0;
    for run in runs {
        let next = k + run.len();
        out[k..next].copy_from_slice(&row[run.clone()]);
        k = next;
    }
}

/// How echo samples are fetched at the computed delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interpolation {
    /// Nearest-sample fetch via the engine's integer index — the paper's
    /// datapath (delays "are used as an index into an echo buffer").
    #[default]
    Nearest,
    /// Linear interpolation at the fractional delay (extension; quantifies
    /// how much of the error budget comes from index rounding).
    Linear,
}

/// A delay-and-sum beamformer bound to a system spec.
///
/// The engine is passed per call, so one beamformer can compare multiple
/// delay architectures on identical data.
#[derive(Debug, Clone)]
pub struct Beamformer {
    spec: SystemSpec,
    apodization: Apodization,
    interpolation: Interpolation,
    order: ScanOrder,
    /// The compacted `(channel, weight)` aperture — Eq. 1's `w`, built
    /// once per beamformer lifetime and shared by every path (scalar
    /// voxel walk and vectorized tile kernel alike, so both see the
    /// identical weights in the identical order).
    aperture: ActiveAperture,
    /// Post-processing chain applied to every scanline column the volume
    /// paths produce (empty by default: raw delay-and-sum output).
    post: PostChain,
}

impl Beamformer {
    /// Creates a beamformer with Hann apodization, nearest-index fetch and
    /// nappe-by-nappe traversal (the paper's preferred order).
    #[must_use]
    pub fn new(spec: &SystemSpec) -> Self {
        Beamformer {
            spec: spec.clone(),
            apodization: Apodization::default(),
            interpolation: Interpolation::default(),
            order: ScanOrder::NappeByNappe,
            aperture: ActiveAperture::build(Apodization::default(), &spec.elements),
            post: PostChain::empty(),
        }
    }

    /// Sets the apodization window (and rebuilds the compacted aperture
    /// when the window actually changes).
    #[must_use = "with_apodization returns the configured beamformer; dropping it discards the window"]
    pub fn with_apodization(mut self, apodization: Apodization) -> Self {
        if apodization != self.apodization {
            self.apodization = apodization;
            self.aperture = ActiveAperture::build(apodization, &self.spec.elements);
        }
        self
    }

    /// Sets the sample-fetch interpolation.
    #[must_use = "with_interpolation returns the configured beamformer; dropping it discards the mode"]
    pub fn with_interpolation(mut self, interpolation: Interpolation) -> Self {
        self.interpolation = interpolation;
        self
    }

    /// Sets the traversal order (Algorithm 1 flavour).
    #[must_use = "with_order returns the configured beamformer; dropping it discards the order"]
    pub fn with_order(mut self, order: ScanOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the post-processing chain the volume paths apply to every
    /// scanline column they produce (e.g. [`PostChain::bmode`] for
    /// log-compressed envelope output). The chain runs fused per tile in
    /// the batched paths — each tile's columns flow cache-hot from the
    /// delay-and-sum kernel into the stages, before the volume scatter —
    /// and as a whole-volume pass in the scalar reference path; the two
    /// are bit-identical because every stage is column-local.
    ///
    /// The per-voxel/per-scanline query paths
    /// ([`beamform_voxel`](Self::beamform_voxel),
    /// [`beamform_scanline`](Self::beamform_scanline)) stay raw: they
    /// answer point questions about the delay-and-sum output itself.
    #[must_use = "with_postproc returns the configured beamformer; dropping it discards the chain"]
    pub fn with_postproc(mut self, post: PostChain) -> Self {
        self.post = post;
        self
    }

    /// The configured post-processing chain (empty when the output is
    /// raw delay-and-sum).
    #[inline]
    pub fn postproc(&self) -> &PostChain {
        &self.post
    }

    /// The configured scan order.
    pub fn order(&self) -> ScanOrder {
        self.order
    }

    /// The system spec this beamformer is bound to.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Apodization weights for every element, in linear element order —
    /// the `w` of Eq. 1 before compaction (zero-weight elements
    /// included).
    pub fn element_weights(&self) -> Vec<f64> {
        self.apodization.weights(&self.spec.elements)
    }

    /// The compacted aperture every beamforming path sums over: the
    /// `(flat channel, weight)` list of elements with nonzero weight,
    /// precomputed once per beamformer lifetime.
    #[inline]
    pub fn aperture(&self) -> &ActiveAperture {
        &self.aperture
    }

    /// Beamforms a single focal point: `Σ_D w·e(D, tp)` for the classic
    /// single-emission scan, and the coherent compound `Σ_tx m_tx(tp) ·
    /// Σ_D w·e_tx(D, tp)` for a multi-transmit sequence (`m_tx` is the
    /// transmit's insonification mask weight; masked-out angles are
    /// **skipped**, never multiplied — a masked angle must not be able
    /// to poison the sum with non-finite staging values).
    ///
    /// This is the scalar reference walk; it iterates the precomputed
    /// compacted aperture (same weights, same order as the tile kernel),
    /// so it no longer re-derives the apodization window per element per
    /// call.
    pub fn beamform_voxel(&self, engine: &dyn DelayEngine, rf: &RfFrame, vox: VoxelIndex) -> f64 {
        if self.spec.is_single_point_source() {
            return self.scalar_aperture_sum(&mut |e| match self.interpolation {
                Interpolation::Nearest => rf.sample(e, engine.delay_index(vox, e)),
                Interpolation::Linear => rf.sample_interp(e, engine.delay_samples(vox, e)),
            });
        }
        let s = self.spec.volume_grid.position(vox);
        let mut acc = 0.0;
        for tx in 0..self.spec.n_transmits() {
            let m = self.spec.transmit_weight(tx, s);
            if m != 0.0 {
                acc += m * self.beamform_voxel_for(engine, rf, tx, vox);
            }
        }
        acc
    }

    /// Beamforms a single focal point from one transmit event's
    /// acquisition: the low-resolution-image sample `Σ_D w·e_tx(D, tp)`
    /// before the compound mask weight is applied. Transmit 0 of a
    /// single-emission spec reproduces
    /// [`beamform_voxel`](Self::beamform_voxel).
    pub fn beamform_voxel_for(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        tx: usize,
        vox: VoxelIndex,
    ) -> f64 {
        self.scalar_aperture_sum(&mut |e| match self.interpolation {
            Interpolation::Nearest => rf.sample_for(tx, e, engine.delay_index_for(tx, vox, e)),
            Interpolation::Linear => {
                rf.sample_interp_for(tx, e, engine.delay_samples_for(tx, vox, e))
            }
        })
    }

    /// The scalar reference walk's Eq. 1 sum over the compacted aperture,
    /// with `fetch` producing each element's delayed sample: one running
    /// accumulator in ascending channel order, the order the tile
    /// kernel's per-voxel accumulators keep.
    fn scalar_aperture_sum(&self, fetch: &mut dyn FnMut(ElementIndex) -> f64) -> f64 {
        let nx = self.spec.elements.nx();
        let mut acc = 0.0;
        for (&chan, &w) in self.aperture.channels().iter().zip(self.aperture.weights()) {
            acc += w * fetch(ElementIndex::new(chan as usize % nx, chan as usize / nx));
        }
        acc
    }

    /// Beamforms the whole volume.
    ///
    /// Nappe-by-nappe order (the default) runs the batched pipeline:
    /// parallel over [`NappeSchedule`] tiles on the persistent
    /// `usbf_par` pool, one receive-leg slab per (tile, nappe) via
    /// [`DelayEngine::fill_nappe_rx_streamed`]. Scanline-by-scanline order
    /// keeps the scalar per-voxel walk as the reference path. Both produce
    /// bit-identical volumes. For repeated frames, prefer
    /// [`VolumeLoop`](crate::VolumeLoop), which reuses this path's slabs
    /// and buffers across calls.
    ///
    /// ```
    /// use usbf_beamform::Beamformer;
    /// use usbf_core::ExactEngine;
    /// use usbf_geometry::SystemSpec;
    /// use usbf_sim::RfFrame;
    ///
    /// let spec = SystemSpec::tiny();
    /// let rf = RfFrame::zeros(
    ///     spec.elements.nx(),
    ///     spec.elements.ny(),
    ///     spec.echo_buffer_len(),
    /// );
    /// let vol = Beamformer::new(&spec).beamform_volume(&ExactEngine::new(&spec), &rf);
    /// assert_eq!(vol.len(), spec.volume_grid.voxel_count());
    /// ```
    pub fn beamform_volume(&self, engine: &dyn DelayEngine, rf: &RfFrame) -> BeamformedVolume {
        match self.order {
            ScanOrder::NappeByNappe => {
                let schedule = pool_fitted_schedule(&self.spec, usbf_par::global());
                self.beamform_volume_tiled(engine, rf, &schedule)
            }
            ScanOrder::ScanlineByScanline => {
                let mut out = BeamformedVolume::zeros(&self.spec);
                for vox in self.order.iter(&self.spec.volume_grid) {
                    out.set(vox, self.beamform_voxel(engine, rf, vox));
                }
                // The scalar reference applies the chain as a separate
                // whole-volume pass — the layout the fused per-tile
                // application must stay bit-identical to.
                self.post.apply_volume(&mut out);
                out
            }
        }
    }

    /// Beamforms the whole volume with an explicit tile schedule: each
    /// tile is an independent unit of work (run in parallel, one worker
    /// slab each), and within a tile delays stream one nappe slab at a
    /// time in depth order.
    pub fn beamform_volume_tiled(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        schedule: &NappeSchedule,
    ) -> BeamformedVolume {
        let tiles = schedule.tiles();
        let per_tile: Vec<TileState> = usbf_par::par_map(&tiles, |_, &tile| {
            let mut state = TileState::new(self, tile);
            self.beamform_tile_into(engine, rf, &mut state);
            state
        });
        let n_depth = self.spec.volume_grid.n_depth();
        let mut out = BeamformedVolume::zeros(&self.spec);
        for (tile, state) in tiles.iter().zip(per_tile) {
            scatter_tile(&mut out, *tile, &state.values, n_depth);
        }
        out
    }

    /// Beamforms one tile into caller-owned warm state ([`TileState`]):
    /// the state's slab selects the fan region and its `values` buffer
    /// receives the result in `[scanline-within-tile][depth]` order. This
    /// is the allocation-free kernel [`VolumeLoop`](crate::VolumeLoop)
    /// and [`FramePipeline`](crate::FramePipeline) drive every frame.
    ///
    /// Every spec runs the same loop: the paper's single point-source
    /// emission is a compound of one transmit with mask weight 1. Per
    /// nappe the transmit-invariant receive leg is filled once
    /// ([`DelayEngine::fill_nappe_rx_streamed`]). The nappe's scanlines
    /// are then taken in blocks of consecutive slots; per (block,
    /// transmit) each unmasked voxel combines its term onto the cached
    /// row ([`DelayEngine::combine_tx_row`]), compacts it to the active
    /// aperture and quantizes it ([`DelayEngine::quantize_row`], nearest
    /// fetch only) into the block scratch, and one channel-major
    /// [`RfFrame`] block gather/MAC sums every live voxel of the block,
    /// each weighted by its mask into the voxel. The gather is chosen
    /// **once per tile** by interpolation mode (no per-element
    /// dispatch). Output is bit-identical to the scalar
    /// [`beamform_voxel`](Self::beamform_voxel) walk, and engines'
    /// rounding telemetry (TABLESTEER clamp counts) advances exactly as
    /// per-element queries over every (voxel, transmit) pair would.
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different spec, transmit
    /// sequence or aperture shape (its `values`, `indices`, `tx_row` or
    /// `tx_weights` lengths disagree with this beamformer), or if the
    /// engine or RF frame does not carry every transmit of the spec's
    /// sequence.
    pub fn beamform_tile_into(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        state: &mut TileState,
    ) {
        let tile = state.slab.tile();
        let n_depth = self.spec.volume_grid.n_depth();
        let n_tx = self.spec.n_transmits();
        assert_eq!(
            state.values.len(),
            tile.scanlines() * n_depth,
            "values buffer must cover the tile"
        );
        assert_eq!(
            state.indices.len(),
            BLOCK * self.aperture.len(),
            "scratch rows must match the compacted aperture"
        );
        assert_eq!(
            state.tx_row.len(),
            state.slab.n_elements(),
            "combine row must span the element row"
        );
        assert_eq!(
            state.tx_weights.len(),
            n_tx * state.values.len(),
            "mask weights must cover every transmit of the sequence"
        );
        assert_eq!(
            engine.transmit_count(),
            n_tx,
            "engine must cover the spec's transmit sequence"
        );
        assert_eq!(
            rf.n_transmits(),
            n_tx,
            "RF frame must hold every transmit acquisition"
        );
        match self.interpolation {
            Interpolation::Nearest => self.tile_kernel::<true>(engine, rf, state),
            Interpolation::Linear => self.tile_kernel::<false>(engine, rf, state),
        }
        if !self.post.is_empty() {
            // Fused post-processing: each scanline column runs through
            // the chain while it is still cache-hot from the kernel and
            // before the scatter, using the tile's preallocated I/Q
            // scratch (no heap traffic on the warm path). Columns are
            // independent, so per-tile application is bit-identical to
            // the whole-volume pass of the scalar reference.
            for column in state.values.chunks_exact_mut(n_depth) {
                self.post.apply_column(column, &mut state.post_scratch);
            }
        }
    }

    /// The tile kernel, generic over the gather: `NEAREST` quantizes each
    /// combined row through the engine's rounding stage and fetches the
    /// nearest sample; otherwise the fractional delays feed a linear
    /// interpolating gather directly.
    ///
    /// Loop nest: nappe → block of up to [`BLOCK`] consecutive slots →
    /// transmit → (stage every live voxel's row, then one block
    /// gather/MAC: channel → voxel). Each voxel's accumulator adds its
    /// channels in ascending order, and each voxel's value adds its
    /// transmits in ascending order, so the output is bit-identical to
    /// the scalar walk; the block only interleaves independent voxels.
    ///
    /// A zero mask weight is **skipped**, never multiplied: outside a
    /// steered wave's footprint the per-transmit sum is meaningless (and
    /// may be non-finite under hostile inputs), and `0.0 * NaN` is NaN.
    /// Each block is compacted to its live voxels per transmit, so masked
    /// pairs cost no gathers. When the rounding stage is side-effect-free
    /// (always for the linear gather, and when
    /// [`DelayEngine::rounding_telemetry`] is `false`) masked pairs are
    /// not combined either. Engines **with** rounding telemetry
    /// (TABLESTEER's clamp counter) still combine and quantize masked
    /// pairs, into the next free scratch row, so their counters advance
    /// exactly as scalar queries over every pair would.
    fn tile_kernel<const NEAREST: bool>(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        state: &mut TileState,
    ) {
        let TileState {
            slab,
            values,
            delays,
            indices,
            tx_row,
            tx_weights,
            ..
        } = state;
        let tile = slab.tile();
        let n_slots = tile.scanlines();
        let n_depth = self.spec.volume_grid.n_depth();
        let n_values = values.len();
        let ap = &self.aperture;
        let runs = ap.runs();
        let active = ap.len();
        let full = ap.is_full();
        let skip_masked = !(NEAREST && engine.rounding_telemetry());
        values.fill(0.0);
        for id in 0..n_depth {
            engine.fill_nappe_rx_streamed(id, slab, &mut |_, _| {});
            for start in (0..n_slots).step_by(BLOCK) {
                let block = start..n_slots.min(start + BLOCK);
                for (tx, masks) in tx_weights.chunks_exact(n_values).enumerate() {
                    // The block's live voxels for this transmit: value
                    // slot and mask weight, in slot order.
                    let mut live = [(0usize, 0.0f64); BLOCK];
                    let mut n_live = 0;
                    for slot in block.clone() {
                        let v = slot * n_depth + id;
                        let m = masks[v];
                        if skip_masked && m == 0.0 {
                            continue;
                        }
                        let (it, ip) = tile.scanline_at(slot);
                        let vox = VoxelIndex::new(it, ip, id);
                        let rx_row = slab.row(slot);
                        // Staged into the next free row; a masked pair
                        // (telemetry only) is overwritten or left unread.
                        let row = n_live * active..(n_live + 1) * active;
                        if NEAREST {
                            engine.combine_tx_row(tx, vox, rx_row, tx_row);
                            let active_delays = if full {
                                &*tx_row
                            } else {
                                compact_row(tx_row, runs, &mut delays[..active]);
                                &delays[..active]
                            };
                            engine.quantize_row(active_delays, &mut indices[row]);
                        } else if full {
                            engine.combine_tx_row(tx, vox, rx_row, &mut delays[row]);
                        } else {
                            engine.combine_tx_row(tx, vox, rx_row, tx_row);
                            compact_row(tx_row, runs, &mut delays[row]);
                        }
                        if m != 0.0 {
                            live[n_live] = (v, m);
                            n_live += 1;
                        }
                    }
                    // A full block is one gather/MAC pass; a partial one
                    // (tile edge, masked voxels) at most three narrower
                    // ones, each of a fixed width the compiler unrolls.
                    let mut acc = [0.0; BLOCK];
                    let sums = &mut acc[..n_live];
                    let q = block_mac::<NEAREST, BLOCK>(rf, tx, ap, delays, indices, sums, 0);
                    let q = block_mac::<NEAREST, 4>(rf, tx, ap, delays, indices, sums, q);
                    let q = block_mac::<NEAREST, 2>(rf, tx, ap, delays, indices, sums, q);
                    block_mac::<NEAREST, 1>(rf, tx, ap, delays, indices, sums, q);
                    for (&(v, m), &sum) in live[..n_live].iter().zip(&acc) {
                        values[v] += m * sum;
                    }
                }
            }
        }
    }

    /// Beamforms one scanline (all depths along direction `(it, ip)`),
    /// returning the axial profile.
    pub fn beamform_scanline(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        it: usize,
        ip: usize,
    ) -> Vec<f64> {
        usbf_geometry::scan::scanline(&self.spec.volume_grid, it, ip)
            .map(|vox| self.beamform_voxel(engine, rf, vox))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usbf_core::{ExactEngine, TableSteerConfig, TableSteerEngine};
    use usbf_geometry::Vec3;
    use usbf_sim::{EchoSynthesizer, Phantom, Pulse};

    fn setup(target: Vec3) -> (SystemSpec, RfFrame) {
        let spec = SystemSpec::tiny();
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        (spec, rf)
    }

    /// Put the target exactly on a voxel of the tiny grid.
    fn on_voxel_target(spec: &SystemSpec, vox: VoxelIndex) -> Vec3 {
        spec.volume_grid.position(vox)
    }

    #[test]
    fn point_target_peaks_at_its_voxel() {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(3, 4, 9);
        let target = on_voxel_target(&spec, vox);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec);
        let vol = bf.beamform_volume(&engine, &rf);
        assert_eq!(vol.argmax(), vox, "energy must focus on the target voxel");
    }

    #[test]
    fn scan_orders_produce_identical_volumes() {
        // Fig. 1 / Algorithm 1: the two orders visit the same voxels.
        let (spec, rf) = setup(Vec3::new(0.005, -0.003, 0.06));
        let engine = ExactEngine::new(&spec);
        let nappe = Beamformer::new(&spec).with_order(ScanOrder::NappeByNappe);
        let scanline = Beamformer::new(&spec).with_order(ScanOrder::ScanlineByScanline);
        let a = nappe.beamform_volume(&engine, &rf);
        let b = scanline.beamform_volume(&engine, &rf);
        assert_eq!(a, b);
    }

    #[test]
    fn focused_sum_exceeds_defocused_sum() {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(4, 4, 8);
        let target = on_voxel_target(&spec, vox);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec).with_apodization(Apodization::Rect);
        let at_focus = bf.beamform_voxel(&engine, &rf, vox).abs();
        let off_focus = bf
            .beamform_voxel(&engine, &rf, VoxelIndex::new(0, 0, 15))
            .abs();
        assert!(
            at_focus > 5.0 * off_focus,
            "focus {at_focus} vs off {off_focus}"
        );
    }

    #[test]
    fn tablesteer_volume_close_to_exact_volume() {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(4, 4, 8);
        let target = on_voxel_target(&spec, vox);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let bf = Beamformer::new(&spec);
        let exact = ExactEngine::new(&spec);
        let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let ve = bf.beamform_volume(&exact, &rf);
        let vs = bf.beamform_volume(&steer, &rf);
        // Peak lands on the same voxel and amplitude degrades mildly.
        assert_eq!(vs.argmax(), ve.argmax());
        let ratio = vs.max_abs() / ve.max_abs();
        assert!(ratio > 0.8, "peak ratio = {ratio}");
    }

    #[test]
    fn linear_interpolation_at_least_as_focused() {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(4, 4, 8);
        let target = on_voxel_target(&spec, vox);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let engine = ExactEngine::new(&spec);
        let nearest = Beamformer::new(&spec).with_interpolation(Interpolation::Nearest);
        let linear = Beamformer::new(&spec).with_interpolation(Interpolation::Linear);
        let pn = nearest.beamform_voxel(&engine, &rf, vox).abs();
        let pl = linear.beamform_voxel(&engine, &rf, vox).abs();
        assert!(pl > 0.9 * pn, "linear {pl} vs nearest {pn}");
    }

    #[test]
    fn scanline_profile_matches_volume_column() {
        let (spec, rf) = setup(Vec3::new(0.0, 0.0, 0.05));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec);
        let vol = bf.beamform_volume(&engine, &rf);
        let profile = bf.beamform_scanline(&engine, &rf, 2, 3);
        for (id, &v) in profile.iter().enumerate() {
            assert_eq!(v, vol.get(VoxelIndex::new(2, 3, id)));
        }
    }

    #[test]
    fn batched_tiled_path_is_bit_identical_to_scalar_path() {
        // The tentpole invariant: the parallel nappe-slab pipeline must
        // reproduce the per-voxel reference walk exactly, for approximate
        // engines and for both interpolation modes.
        let (spec, rf) = setup(Vec3::new(0.004, -0.002, 0.055));
        let exact = ExactEngine::new(&spec);
        let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        for interp in [Interpolation::Nearest, Interpolation::Linear] {
            for engine in [&exact as &dyn usbf_core::DelayEngine, &steer] {
                let batched = Beamformer::new(&spec)
                    .with_interpolation(interp)
                    .with_order(ScanOrder::NappeByNappe)
                    .beamform_volume(engine, &rf);
                let scalar = Beamformer::new(&spec)
                    .with_interpolation(interp)
                    .with_order(ScanOrder::ScanlineByScanline)
                    .beamform_volume(engine, &rf);
                assert_eq!(batched, scalar, "{} {interp:?}", engine.name());
            }
        }
    }

    #[test]
    fn batched_path_preserves_clamp_telemetry() {
        // A wide aperture on the tiny grid steers some corner fetches out
        // of the echo window; the batched path must count those clamps
        // exactly like the scalar path does.
        let base = SystemSpec::tiny();
        let spec = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            usbf_geometry::TransducerSpec {
                nx: 100,
                ny: 100,
                ..base.transducer.clone()
            },
            base.volume.clone(),
            base.origin,
            base.frame_rate,
        );
        let rf = RfFrame::zeros(100, 100, spec.echo_buffer_len());
        let scalar_engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let batched_engine = scalar_engine.clone(); // fresh zeroed counter
        let bf = |order| {
            Beamformer::new(&spec)
                .with_apodization(crate::Apodization::Rect)
                .with_order(order)
        };
        bf(ScanOrder::ScanlineByScanline).beamform_volume(&scalar_engine, &rf);
        bf(ScanOrder::NappeByNappe).beamform_volume(&batched_engine, &rf);
        assert!(
            scalar_engine.clamp_events() > 0,
            "setup must actually clamp"
        );
        assert_eq!(batched_engine.clamp_events(), scalar_engine.clamp_events());
    }

    #[test]
    fn every_tile_schedule_gives_the_same_volume() {
        let (spec, rf) = setup(Vec3::new(0.0, 0.003, 0.06));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec);
        let reference =
            bf.beamform_volume_tiled(&engine, &rf, &usbf_core::NappeSchedule::fitted(&spec, 1));
        for target in [2, 4, 16, 64] {
            let schedule = usbf_core::NappeSchedule::fitted(&spec, target);
            let vol = bf.beamform_volume_tiled(&engine, &rf, &schedule);
            assert_eq!(vol, reference, "{target} tiles");
        }
    }

    /// A 4-angle compound spec on the tiny grid, with a synthesized
    /// multi-transmit acquisition.
    fn compound_setup() -> (SystemSpec, RfFrame) {
        let spec = SystemSpec::tiny().with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
            4,
            usbf_geometry::deg(10.0),
        ));
        let rf = EchoSynthesizer::new(&spec).synthesize(
            &Phantom::point(Vec3::new(0.002, -0.001, 0.05)),
            &Pulse::from_spec(&spec),
        );
        (spec, rf)
    }

    #[test]
    fn factored_compound_path_preserves_clamp_telemetry() {
        // The nearest kernel must quantize every transmit's combined row
        // — masked ones included — so TABLESTEER's clamp counter advances
        // exactly as scalar queries over every pair would. A wide aperture on the tiny grid
        // (same trick as the single-source telemetry test) steers corner
        // fetches out of the echo window so clamps actually happen.
        let base = SystemSpec::tiny();
        let spec = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            usbf_geometry::TransducerSpec {
                nx: 100,
                ny: 100,
                ..base.transducer.clone()
            },
            base.volume.clone(),
            base.origin,
            base.frame_rate,
        )
        .with_transmits({
            // A point-source emission in the sequence reproduces the
            // clamping geometry of the single-source telemetry test
            // (two-way distances overrun the echo window at the
            // corners); the plane waves ride along as the compound part.
            let mut txs = vec![usbf_geometry::TransmitModel::PointSource];
            txs.extend(usbf_geometry::TransmitModel::plane_wave_fan(
                3,
                usbf_geometry::deg(10.0),
            ));
            txs
        });
        let rf = RfFrame::zeros_multi(100, 100, spec.echo_buffer_len(), spec.n_transmits());
        let kernel_engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let scalar_engine = kernel_engine.clone(); // fresh zeroed counter
        let bf = Beamformer::new(&spec).with_apodization(crate::Apodization::Rect);
        let schedule = usbf_core::NappeSchedule::fitted(&spec, 2);
        bf.beamform_volume_tiled(&kernel_engine, &rf, &schedule);
        // Scalar queries over every (voxel, transmit, active channel) —
        // masked pairs included, because the kernel quantizes them too.
        let nx = spec.elements.nx();
        for i in 0..spec.volume_grid.voxel_count() {
            let vox = spec.volume_grid.voxel_at(i);
            for tx in 0..spec.n_transmits() {
                for &c in bf.aperture().channels() {
                    let e = ElementIndex::new(c as usize % nx, c as usize / nx);
                    scalar_engine.delay_index_for(tx, vox, e);
                }
            }
        }
        assert!(
            kernel_engine.clamp_events() > 0,
            "setup must actually clamp"
        );
        assert_eq!(kernel_engine.clamp_events(), scalar_engine.clamp_events());
    }

    #[test]
    fn factored_compound_path_matches_scalar_reference() {
        // End-to-end: the batched compound volume equals the per-voxel
        // scalar compound walk (which reaches the same numbers through
        // delay_index_for / delay_samples_for, never the row family).
        let (spec, rf) = compound_setup();
        let exact = ExactEngine::new(&spec);
        let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        for engine in [&exact as &dyn usbf_core::DelayEngine, &steer] {
            for interp in [Interpolation::Nearest, Interpolation::Linear] {
                let bf = |order| {
                    Beamformer::new(&spec)
                        .with_interpolation(interp)
                        .with_order(order)
                };
                let batched = bf(ScanOrder::NappeByNappe).beamform_volume(engine, &rf);
                let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(engine, &rf);
                assert_eq!(batched, scalar, "{} {interp:?}", engine.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "mask weights must cover every transmit")]
    fn tile_state_of_another_transmit_sequence_is_rejected() {
        // Same grid and aperture, different sequence: a 4-angle state's
        // value and index rows fit a 2-angle beamformer, so only the
        // mask-weight length tells the two apart.
        let fan = |n| {
            SystemSpec::tiny().with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
                n,
                usbf_geometry::deg(10.0),
            ))
        };
        let (four, two) = (fan(4), fan(2));
        let tile = usbf_core::NappeSchedule::fitted(&four, 4).tiles()[0];
        let mut state = TileState::new(&Beamformer::new(&four), tile);
        let rf = RfFrame::zeros_multi(8, 8, two.echo_buffer_len(), 2);
        Beamformer::new(&two).beamform_tile_into(&ExactEngine::new(&two), &rf, &mut state);
    }

    #[test]
    fn empty_rf_gives_zero_volume() {
        let spec = SystemSpec::tiny();
        let rf = RfFrame::zeros(
            spec.elements.nx(),
            spec.elements.ny(),
            spec.echo_buffer_len(),
        );
        let engine = ExactEngine::new(&spec);
        let vol = Beamformer::new(&spec).beamform_volume(&engine, &rf);
        assert_eq!(vol.max_abs(), 0.0);
    }

    #[test]
    fn run_compaction_equals_per_channel_compaction() {
        for (nx, ny) in [(1, 1), (1, 8), (7, 3), (32, 32)] {
            let array = usbf_geometry::TransducerArray::new(nx, ny, 0.2e-3);
            let row: Vec<f64> = (0..array.count()).map(|j| j as f64 * 1.5 - 7.0).collect();
            for apod in [
                Apodization::Rect,
                Apodization::Hann,
                Apodization::Hamming,
                Apodization::Tukey(0.5),
            ] {
                let ap = ActiveAperture::build(apod, &array);
                let want: Vec<f64> = ap.channels().iter().map(|&c| row[c as usize]).collect();
                let mut got = vec![f64::NAN; ap.len()];
                compact_row(&row, ap.runs(), &mut got);
                assert_eq!(got, want, "{apod:?} on {nx}x{ny}");
            }
        }
    }
}
