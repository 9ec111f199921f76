//! The delay-engine abstraction and shared error type.

use crate::NappeDelays;
use std::error::Error;
use std::fmt;
use usbf_geometry::{ElementIndex, VoxelIndex};

/// A source of beamforming delays: given a focal point, a receive
/// element and a transmit of the frame's sequence, produce the two-way
/// propagation delay.
///
/// There is **one** delay path. Every engine splits Eq. 2 along its
/// transmit-invariant seam:
///
/// * [`DelayEngine::fill_nappe_rx_streamed`] — the receive leg `|S − D|`
///   of one nappe (one depth step) over a fan tile, the per-element term
///   that dominates fill cost, streamed row by row at the granularity the
///   hardware produces it;
/// * [`DelayEngine::combine_tx_row`] — one transmit's per-voxel term
///   folded onto such a row, yielding that transmit's fractional delays.
///
/// The tile kernel fills the receive slab once per (nappe, tile) and
/// combines it once per transmit; the paper's single point-source
/// emission is the one-transmit case of the same loop. Everything else
/// is composed from the pair: [`DelayEngine::fill_nappe_streamed_for`]
/// (receive fill plus a per-row combine) and [`DelayEngine::fill_nappe`]
/// (that, for transmit 0, with no row consumer).
///
/// Scalar queries stand beside the batched path as its oracle:
///
/// * [`DelayEngine::delay_samples_for`] — the delay in (possibly
///   approximated) fractional samples, before final index rounding; this
///   is what accuracy analyses compare, and what
///   [`NappeDelays::fill_scalar_for`] replays per slab entry;
/// * [`DelayEngine::delay_index_for`] — the integer echo-buffer index the
///   hardware would emit (final `floor(x + ½)` rounding stage).
///
/// Batched rows must stay **bit-exact** with the scalar queries.
///
/// Engines are `Sync` so beamformers can fan one engine out across
/// schedule tiles on multiple threads.
///
/// Implementations must be deterministic: repeated queries for the same
/// `(tx, vox, e)` return identical values.
pub trait DelayEngine: Sync {
    /// Short architecture name (e.g. `"TABLEFREE"`), used in reports.
    fn name(&self) -> &'static str;

    /// Two-way delay in fractional samples at the system's `fs`, for the
    /// frame's first transmit: [`DelayEngine::delay_samples_for`] with
    /// `tx == 0`.
    fn delay_samples(&self, vox: VoxelIndex, e: ElementIndex) -> f64 {
        self.delay_samples_for(0, vox, e)
    }

    /// Number of transmits this engine serves delays for — the length of
    /// the spec's transmit sequence it was built against. Engines without
    /// multi-transmit support report 1 (the default).
    fn transmit_count(&self) -> usize {
        1
    }

    /// Two-way delay of transmit `tx` in fractional samples — the scalar
    /// oracle every batched row of this engine must reproduce bit for
    /// bit.
    fn delay_samples_for(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64;

    /// Integer echo-buffer index: the rounded delay, clamped to
    /// `[0, echo_buffer_len)`.
    fn delay_index(&self, vox: VoxelIndex, e: ElementIndex) -> i64 {
        self.delay_index_from(self.delay_samples(vox, e))
    }

    /// Integer echo-buffer index for transmit `tx` — rounding identical
    /// to [`DelayEngine::delay_index`].
    fn delay_index_for(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> i64 {
        self.delay_index_from(self.delay_samples_for(tx, vox, e))
    }

    /// Final rounding stage: echo-buffer index for an already-computed
    /// fractional delay (`floor(x + ½)`, clamped). Both the scalar
    /// [`DelayEngine::delay_index`] and batched slab consumers route
    /// through this, so engines with rounding telemetry (TABLESTEER's
    /// clamp counter) observe every path. The default
    /// [`DelayEngine::quantize_row`] does *not* call this method (it runs
    /// the same arithmetic as one vector loop), so an engine that
    /// overrides `delay_index_from` must override `quantize_row` too.
    fn delay_index_from(&self, samples: f64) -> i64 {
        let idx = (samples + 0.5).floor() as i64;
        idx.clamp(0, self.echo_buffer_len() as i64 - 1)
    }

    /// Length of the echo buffer this engine indexes into.
    fn echo_buffer_len(&self) -> usize;

    /// Fills `out` with every transmit-0 delay of nappe `nappe_idx` over
    /// the slab's fan tile: [`DelayEngine::fill_nappe_streamed_for`] for
    /// transmit 0 with no row consumer. The slab ends up holding exactly
    /// what [`NappeDelays::fill_scalar_for`] would write.
    ///
    /// # Panics
    ///
    /// Panics if `nappe_idx` is outside the slab's depth range (checked
    /// in release builds at the [`NappeDelays::begin_fill`] boundary).
    ///
    /// ```
    /// use usbf_core::{DelayEngine, ExactEngine, NappeDelays};
    /// use usbf_geometry::{SystemSpec, VoxelIndex};
    ///
    /// let spec = SystemSpec::tiny();
    /// let engine = ExactEngine::new(&spec);
    /// let mut slab = NappeDelays::full(&spec);
    /// engine.fill_nappe(8, &mut slab);
    /// // The slab holds exactly what per-voxel queries would return:
    /// let e = spec.elements.center_element();
    /// let vox = VoxelIndex::new(4, 4, 8);
    /// assert_eq!(slab.at(4, 4, e), engine.delay_samples(vox, e));
    /// ```
    fn fill_nappe(&self, nappe_idx: usize, out: &mut NappeDelays) {
        self.fill_nappe_streamed_for(0, nappe_idx, out, &mut |_, _| {});
    }

    /// Fills `out` with transmit `tx`'s delays of nappe `nappe_idx`,
    /// handing every completed row to `consume(slot, row)`: the receive
    /// leg is filled through [`DelayEngine::fill_nappe_rx_streamed`],
    /// then each row is combined in place with
    /// [`DelayEngine::combine_tx_row`]. Rows are delivered exactly once
    /// each, in slab slot order, and the slab is completely filled when
    /// this returns. Warm refills allocate nothing (the combine stages
    /// each receive row through the slab's own scratch).
    ///
    /// # Panics
    ///
    /// Same contract as [`DelayEngine::fill_nappe`].
    fn fill_nappe_streamed_for(
        &self,
        tx: usize,
        nappe_idx: usize,
        out: &mut NappeDelays,
        consume: &mut dyn FnMut(usize, &[f64]),
    ) {
        self.fill_nappe_rx_streamed(nappe_idx, out, &mut |_, _| {});
        out.rewrite_rows(|slot, vox, rx_row, row| {
            self.combine_tx_row(tx, vox, rx_row, row);
            consume(slot, row);
        });
    }

    /// Always `true`: every engine implements the receive-fill/combine
    /// pair, which is the only delay path. Kept so callers written
    /// against the earlier opt-in family keep compiling.
    fn supports_factored_fill(&self) -> bool {
        true
    }

    /// Fills `out` with the transmit-invariant **receive leg** of nappe
    /// `nappe_idx`, streaming each completed row to `consume(slot, row)`
    /// cache-hot: every row exactly once, in slab slot order.
    ///
    /// The receive leg of Eq. 2 — `|S − D|`, the per-element term that
    /// dominates fill cost — does not depend on the transmit: only a
    /// per-voxel transmit scalar differs between the N transmits of a
    /// frame. Filling it once per (nappe, tile) and running one cheap
    /// [`DelayEngine::combine_tx_row`] per transmit turns the per-voxel
    /// fill cost from `O(N · elements)` into `O(elements + N)`.
    ///
    /// The slab's contents after this call are **engine-defined
    /// intermediates** (EXACT stores receive distances in metres,
    /// TABLESTEER pre-scale raw fixed-point sums, …): only the output of
    /// [`DelayEngine::combine_tx_row`] on a delivered row is specified.
    /// The slab's nappe marker is set, so warm slabs are reused across
    /// refills.
    ///
    /// # Panics
    ///
    /// Implementations panic if `nappe_idx` is out of range, as
    /// [`NappeDelays::begin_fill`] does.
    fn fill_nappe_rx_streamed(
        &self,
        nappe_idx: usize,
        out: &mut NappeDelays,
        consume: &mut dyn FnMut(usize, &[f64]),
    );

    /// Combines one receive-leg row (as delivered by
    /// [`DelayEngine::fill_nappe_rx_streamed`] for the scanline of `vox`)
    /// with transmit `tx`'s per-voxel term, writing into `out` the exact
    /// fractional-delay row [`NappeDelays::fill_scalar_for`] would
    /// produce — **bit-identical**, before the engine's own quantization
    /// stage. For EXACT / NAIVE / TABLEFREE the combine is an f64 add (or
    /// a table widen); for TABLESTEER it is the already-folded
    /// fixed-point transmit-correction constant.
    ///
    /// # Panics
    ///
    /// Implementations panic if `rx_row` and `out` differ in length.
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]);

    /// Whether this engine's final rounding stage carries **observable
    /// telemetry** — counters a caller could read that advance once per
    /// quantized value (TABLESTEER's clamp counter is the one live
    /// example). The tile kernel uses this to decide whether a fully
    /// masked (zero-weight) transmit must still run
    /// [`DelayEngine::quantize_row`]: when rounding is side-effect-free
    /// the whole per-transmit body is skipped with bit-identical output
    /// *and* telemetry, which is most of the compound kernel's win on
    /// steered fans whose footprints cover a voxel only partially.
    /// Engines that add rounding telemetry MUST override this to `true`,
    /// or masked voxels stop being counted.
    fn rounding_telemetry(&self) -> bool {
        false
    }

    /// Batched final rounding: quantizes one row of fractional delays to
    /// echo-buffer indices, writing `out[i] = delay_index_from(row[i])`.
    ///
    /// This is the per-row counterpart of
    /// [`DelayEngine::delay_index_from`]: the beamformer's inner kernel
    /// calls it **once per (nappe, scanline) row** instead of making one
    /// virtual `delay_index_from` call per element, and the default runs
    /// the default `delay_index_from` arithmetic as one vector loop
    /// (`quantize_row_clamped`). Overrides must be bit-identical to the
    /// default, and engines with rounding telemetry (TABLESTEER's clamp
    /// counter) must accumulate **exactly** the same counts the
    /// per-element path would — `tests/engine_consistency.rs` enforces
    /// both. An engine that overrides `delay_index_from` must override
    /// this method too, or the batched path bypasses its override.
    ///
    /// # Panics
    ///
    /// Panics if `row` and `out` differ in length, or if
    /// [`DelayEngine::echo_buffer_len`] is 0 or above `i32::MAX`.
    fn quantize_row(&self, row: &[f64], out: &mut [i32]) {
        quantize_row_clamped(self.echo_buffer_len(), row, out);
    }
}

/// The body of every [`DelayEngine::quantize_row`]: `floor(x + ½)`
/// rounding clamped to `[0, echo_len)`, exactly the default
/// `delay_index_from` arithmetic, plus a clamp count for engines that
/// keep rounding telemetry. One definition so the engines cannot drift
/// from each other (or from the scalar rounding stage).
///
/// The loop is a vector loop: every step is an IEEE operation with a
/// packed form (`max`/`min`, an add, and `trunc`, which is `vroundpd` on
/// the x86-64-v3 target `.cargo/config.toml` selects) or a bit move. It
/// is bit-identical to `floor(x + ½).clamp(0, hi)`:
///
/// * clamping in float space first leaves a value in `[0, hi]`, where
///   truncation *is* floor, and `max` maps NaN to 0 like the saturating
///   int cast of the scalar stage does;
/// * a whole number `k < 2³¹` plus 2⁵² is exact and leaves `k` in the
///   low mantissa bits, so reading those bits converts without the
///   saturating `f64 as i32` cast (which has no packed form and kept
///   the loop scalar);
/// * a fetch is out of window exactly when `x + ½ < 0` (floor < 0) or
///   `x + ½ ≥ echo_len` (floor > hi), the clamp-telemetry condition.
///
/// # Panics
///
/// Panics if the rows differ in length, or if `echo_len` is 0 or above
/// `i32::MAX`.
#[inline]
pub(crate) fn quantize_row_clamped(echo_len: usize, row: &[f64], out: &mut [i32]) -> u64 {
    /// 2⁵²: the unit of the last mantissa bit is 1 from here to 2⁵³.
    const INT_BIAS: f64 = 4_503_599_627_370_496.0;
    assert_eq!(row.len(), out.len(), "index row must match delay row");
    // At least one sample (the clamp needs a last index) and no more
    // than `i32::MAX` (the index type).
    assert!(
        (1..=i32::MAX as usize).contains(&echo_len),
        "echo buffer length {echo_len} outside 1..=i32::MAX: no i32 index window"
    );
    let hi = (echo_len - 1) as f64;
    let lim = echo_len as f64;
    let mut clamps = 0u64;
    for (o, &s) in out.iter_mut().zip(row) {
        let y = s + 0.5;
        let z = y.max(0.0).min(hi);
        clamps += u64::from((y < 0.0) | (y >= lim));
        *o = (z.trunc() + INT_BIAS).to_bits() as i32;
    }
    clamps
}

/// Errors from engine construction.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A precomputed table would exceed the allowed memory budget
    /// (the §II-B infeasibility, made concrete).
    TableTooLarge {
        /// Bytes the table would need.
        required_bytes: u64,
        /// The configured limit.
        limit_bytes: u64,
    },
    /// A fixed-point coefficient did not fit its format.
    Fixed(usbf_fixed::FixedError),
    /// The PWL square-root table could not be built.
    Pwl(usbf_pwl::PwlError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TableTooLarge {
                required_bytes,
                limit_bytes,
            } => write!(
                f,
                "delay table needs {required_bytes} bytes, exceeding the {limit_bytes}-byte budget"
            ),
            EngineError::Fixed(e) => write!(f, "fixed-point error: {e}"),
            EngineError::Pwl(e) => write!(f, "PWL construction error: {e}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Fixed(e) => Some(e),
            EngineError::Pwl(e) => Some(e),
            EngineError::TableTooLarge { .. } => None,
        }
    }
}

impl From<usbf_fixed::FixedError> for EngineError {
    fn from(e: usbf_fixed::FixedError) -> Self {
        EngineError::Fixed(e)
    }
}

impl From<usbf_pwl::PwlError> for EngineError {
    fn from(e: usbf_pwl::PwlError) -> Self {
        EngineError::Pwl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A constant-delay engine over an echo buffer of the given length:
    /// its receive rows carry nothing (the rx fill only stamps the slab
    /// and streams the rows), and its combine writes the constant.
    struct ConstEngine(f64, usize);
    impl DelayEngine for ConstEngine {
        fn name(&self) -> &'static str {
            "CONST"
        }
        fn delay_samples_for(&self, _: usize, _: VoxelIndex, _: ElementIndex) -> f64 {
            self.0
        }
        fn echo_buffer_len(&self) -> usize {
            self.1
        }
        fn fill_nappe_rx_streamed(
            &self,
            nappe_idx: usize,
            out: &mut NappeDelays,
            consume: &mut dyn FnMut(usize, &[f64]),
        ) {
            let n = out.n_elements();
            let buf = out.begin_fill(nappe_idx);
            for (slot, row) in buf.chunks_exact(n).enumerate() {
                consume(slot, row);
            }
        }
        fn combine_tx_row(&self, _: usize, _: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
            assert_eq!(rx_row.len(), out.len(), "combine row length mismatch");
            out.fill(self.0);
        }
    }

    #[test]
    fn default_index_rounds_half_up() {
        let v = VoxelIndex::new(0, 0, 0);
        let e = ElementIndex::new(0, 0);
        assert_eq!(ConstEngine(10.49, 100).delay_index(v, e), 10);
        assert_eq!(ConstEngine(10.5, 100).delay_index(v, e), 11);
    }

    #[test]
    fn default_index_clamps_to_buffer() {
        let v = VoxelIndex::new(0, 0, 0);
        let e = ElementIndex::new(0, 0);
        assert_eq!(ConstEngine(1e9, 100).delay_index(v, e), 99);
        assert_eq!(ConstEngine(-5.0, 100).delay_index(v, e), 0);
    }

    #[test]
    fn default_quantize_row_matches_per_element_rounding() {
        let eng = ConstEngine(0.0, 100);
        let row = [10.49, 10.5, -3.0, 1e9, 98.7, 0.0];
        let mut out = [0i32; 6];
        eng.quantize_row(&row, &mut out);
        for (&s, &o) in row.iter().zip(&out) {
            assert_eq!(o as i64, eng.delay_index_from(s));
        }
        assert_eq!(out, [10, 11, 0, 99, 99, 0]);
    }

    #[test]
    fn quantize_row_clamped_counts_every_clamp() {
        let row = [-1.0, 0.0, 50.0, 99.2, 2e9];
        let mut out = [0i32; 5];
        let clamps = quantize_row_clamped(100, &row, &mut out);
        assert_eq!(out, [0, 0, 50, 99, 99]);
        assert_eq!(clamps, 2); // -1.0 and 2e9 fall outside the window
    }

    #[test]
    #[should_panic(expected = "index row must match delay row")]
    fn quantize_row_rejects_length_mismatch() {
        ConstEngine(0.0, 100).quantize_row(&[1.0, 2.0], &mut [0i32; 3]);
    }

    /// The scalar rounding rule every quantize path must reproduce:
    /// `floor(x + ½)` through the saturating cast, clamped to the
    /// window, and whether the clamp moved it.
    fn scalar_index(echo_len: usize, x: f64) -> (i32, bool) {
        let idx = (x + 0.5).floor() as i64;
        let clamped = idx.clamp(0, echo_len as i64 - 1);
        (clamped as i32, clamped != idx)
    }

    #[test]
    fn quantize_row_clamped_matches_scalar_rounding_on_edge_values() {
        // 19 entries: one vector body plus a scalar tail at every vector
        // width, and rotating the row lands each edge value in both.
        for echo_len in [8192, i32::MAX as usize] {
            let hi = (echo_len - 1) as f64;
            let row: [f64; 19] = [
                0.5,
                -0.5,
                hi + 0.49,
                hi - 0.49,
                -0.0,
                f64::MIN_POSITIVE / 4.0, // subnormal
                2f64.powi(31),
                2f64.powi(53) + 1.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                hi + 0.5,
                hi - 0.5,
                1.5,
                2.5,
                -0.51,
                0.49,
                -1e300,
                1234.5678,
            ];
            for shift in 0..row.len() {
                let mut rotated = row;
                rotated.rotate_left(shift);
                let mut out = [-1i32; 19];
                let clamps = quantize_row_clamped(echo_len, &rotated, &mut out);
                let mut want_clamps = 0;
                for (k, (&x, &o)) in rotated.iter().zip(&out).enumerate() {
                    let (want, clamped) = scalar_index(echo_len, x);
                    assert_eq!(
                        o, want,
                        "echo_len {echo_len} shift {shift} slot {k}: x = {x}"
                    );
                    want_clamps += u64::from(clamped);
                }
                assert_eq!(clamps, want_clamps, "echo_len {echo_len} shift {shift}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=i32::MAX")]
    fn quantize_row_clamped_rejects_an_empty_echo_buffer() {
        quantize_row_clamped(0, &[1.0], &mut [0i32; 1]);
    }

    #[test]
    #[should_panic(expected = "outside 1..=i32::MAX")]
    fn default_quantize_row_rejects_an_empty_echo_buffer() {
        ConstEngine(0.0, 0).quantize_row(&[1.0], &mut [0i32; 1]);
    }

    #[test]
    fn streamed_fill_delivers_every_row_once_in_order() {
        let spec = usbf_geometry::SystemSpec::tiny();
        let eng = ConstEngine(7.25, 100);
        let mut slab = NappeDelays::full(&spec);
        let mut seen = Vec::new();
        eng.fill_nappe_streamed_for(0, 3, &mut slab, &mut |slot, row| {
            assert!(row.iter().all(|&d| d == 7.25));
            seen.push((slot, row.len()));
        });
        assert_eq!(slab.nappe(), Some(3));
        let expected: Vec<_> = (0..slab.scanline_count())
            .map(|s| (s, slab.n_elements()))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn fill_nappe_is_the_composed_transmit_zero_fill() {
        // `fill_nappe` = rx fill + combine, landing on the scalar oracle.
        let spec = usbf_geometry::SystemSpec::tiny();
        let eng = ConstEngine(10.5, 100);
        let mut composed = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        eng.fill_nappe(2, &mut composed);
        scalar.fill_scalar_for(&eng, 0, 2);
        assert_eq!(composed, scalar);
        assert!(eng.supports_factored_fill());
        assert!(!eng.rounding_telemetry());
        assert_eq!(eng.transmit_count(), 1);
        let (v, e) = (VoxelIndex::new(0, 0, 0), ElementIndex::new(0, 0));
        assert_eq!(eng.delay_samples(v, e), 10.5);
        assert_eq!(eng.delay_index_for(0, v, e), 11);
    }

    #[test]
    fn error_display_and_source() {
        let e = EngineError::TableTooLarge {
            required_bytes: 100,
            limit_bytes: 10,
        };
        assert!(e.to_string().contains("exceeding"));
        assert!(e.source().is_none());
        let e: EngineError = usbf_pwl::PwlError::InvalidDelta(0.0).into();
        assert!(e.source().is_some());
    }
}
