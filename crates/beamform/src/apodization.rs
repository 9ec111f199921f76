//! Aperture apodization windows — the `w(S)` weights of Eq. 1.

use std::ops::Range;
use usbf_geometry::{ElementIndex, TransducerArray};

/// A separable aperture window: the element weight is
/// `w(ξx)·w(ξy)` with `ξ ∈ [−1, 1]` the normalized position along each
/// aperture axis. Rect is the unweighted sum; Hann/Hamming trade main-lobe
/// width for sidelobe suppression; Tukey interpolates between Rect and
/// Hann with a taper fraction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Apodization {
    /// Uniform weights (no apodization).
    Rect,
    /// Hann window: `0.5·(1 + cos(πξ))`.
    #[default]
    Hann,
    /// Hamming window: `0.54 + 0.46·cos(πξ)`.
    Hamming,
    /// Tukey (tapered-cosine) window with taper fraction in `[0, 1]`
    /// (0 → Rect, 1 → Hann). Out-of-range tapers clamp into the range;
    /// a NaN taper counts as 0 (Rect).
    Tukey(f64),
}

impl Apodization {
    fn axis_weight(self, xi: f64) -> f64 {
        let xi = xi.clamp(-1.0, 1.0).abs();
        match self {
            Apodization::Rect => 1.0,
            Apodization::Hann => 0.5 * (1.0 + (std::f64::consts::PI * xi).cos()),
            Apodization::Hamming => 0.54 + 0.46 * (std::f64::consts::PI * xi).cos(),
            Apodization::Tukey(taper) => {
                // `clamp` passes NaN through, which would poison every
                // weight; a NaN taper clamps to 0 (Rect) instead.
                let taper = if taper.is_nan() {
                    0.0
                } else {
                    taper.clamp(0.0, 1.0)
                };
                if taper == 0.0 || xi < 1.0 - taper {
                    1.0
                } else {
                    0.5 * (1.0 + ((std::f64::consts::PI / taper) * (xi - 1.0 + taper)).cos())
                }
            }
        }
    }

    /// Weight of element `e` on array `array`, in `[0, 1]`.
    pub fn weight(self, array: &TransducerArray, e: ElementIndex) -> f64 {
        let half_x = array.x_of(array.nx() - 1).abs().max(f64::MIN_POSITIVE);
        let half_y = array.y_of(array.ny() - 1).abs().max(f64::MIN_POSITIVE);
        let xi_x = array.x_of(e.ix) / half_x;
        let xi_y = array.y_of(e.iy) / half_y;
        self.axis_weight(xi_x) * self.axis_weight(xi_y)
    }

    /// Precomputes the weights of every element in linear order.
    pub fn weights(self, array: &TransducerArray) -> Vec<f64> {
        array.iter().map(|e| self.weight(array, e)).collect()
    }
}

/// The compacted aperture: every element whose apodization weight is
/// nonzero, as parallel `(flat channel index, weight)` lists in linear
/// element order.
///
/// Windows that vanish at the aperture edge (Hann, wide Tukey tapers)
/// zero entire border rows and columns; the scalar Eq. 1 loop re-tested
/// `w == 0.0` for **every element of every voxel**. Compacting once per
/// beamformer lifetime removes both that branch and the zero-weight
/// elements themselves from the inner kernel — the kernel iterates the
/// active lists directly, with no `j % nx` / `j / nx` recovery of the
/// element coordinates.
///
/// The active channels also come as maximal runs of consecutive
/// channels, so compacting a row is one slice copy per run (a Hann
/// window on 32×32 elements is 30 runs of 30) instead of one indexed
/// load per channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveAperture {
    channels: Vec<u32>,
    weights: Vec<f64>,
    runs: Vec<Range<usize>>,
    n_elements: usize,
}

impl ActiveAperture {
    /// Compacts `apodization` over `array`, keeping elements with
    /// `weight != 0.0` in linear element order.
    #[must_use]
    pub fn build(apodization: Apodization, array: &TransducerArray) -> Self {
        let mut channels = Vec::new();
        let mut weights = Vec::new();
        let mut runs: Vec<Range<usize>> = Vec::new();
        for (j, w) in apodization.weights(array).into_iter().enumerate() {
            if w != 0.0 {
                channels.push(j as u32);
                weights.push(w);
                match runs.last_mut() {
                    Some(run) if run.end == j => run.end = j + 1,
                    _ => runs.push(j..j + 1),
                }
            }
        }
        ActiveAperture {
            channels,
            weights,
            runs,
            n_elements: array.count(),
        }
    }

    /// Flat channel indices of the active elements, ascending.
    #[inline]
    pub fn channels(&self) -> &[u32] {
        &self.channels
    }

    /// Weights of the active elements, parallel to
    /// [`channels`](Self::channels).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The active channels as maximal runs of consecutive flat channel
    /// indices, ascending: concatenated, the runs are exactly
    /// [`channels`](Self::channels).
    #[inline]
    pub(crate) fn runs(&self) -> &[Range<usize>] {
        &self.runs
    }

    /// Number of active elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether no element carries weight (degenerate windows only).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Whether every element of the array is active — when true, a slab
    /// row needs no compaction before quantization.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.channels.len() == self.n_elements
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> TransducerArray {
        TransducerArray::new(9, 9, 0.2e-3)
    }

    #[test]
    fn rect_is_uniform() {
        let a = array();
        for e in a.iter() {
            assert_eq!(Apodization::Rect.weight(&a, e), 1.0);
        }
    }

    #[test]
    fn hann_peaks_at_center_vanishes_at_edges() {
        let a = array();
        let center = Apodization::Hann.weight(&a, a.center_element());
        assert!((center - 1.0).abs() < 1e-12);
        let corner = Apodization::Hann.weight(&a, ElementIndex::new(0, 0));
        assert!(corner.abs() < 1e-12);
    }

    #[test]
    fn hamming_keeps_edge_pedestal() {
        let a = array();
        let corner = Apodization::Hamming.weight(&a, ElementIndex::new(0, 0));
        // Hamming edge value is 0.08 per axis → 0.0064 at the corner.
        assert!((corner - 0.08 * 0.08).abs() < 1e-12);
    }

    #[test]
    fn tukey_limits() {
        let a = array();
        for e in a.iter() {
            let rect = Apodization::Rect.weight(&a, e);
            let t0 = Apodization::Tukey(0.0).weight(&a, e);
            assert!((t0 - rect).abs() < 1e-12);
            let hann = Apodization::Hann.weight(&a, e);
            let t1 = Apodization::Tukey(1.0).weight(&a, e);
            assert!((t1 - hann).abs() < 1e-12, "e={e}: {t1} vs {hann}");
        }
    }

    #[test]
    fn nan_tukey_taper_is_rect() {
        let a = array();
        let rect = Apodization::Rect.weights(&a);
        let nan = Apodization::Tukey(f64::NAN).weights(&a);
        assert!(nan.iter().all(|w| w.is_finite()), "{nan:?}");
        assert_eq!(nan, rect);
        assert_eq!(
            ActiveAperture::build(Apodization::Tukey(f64::NAN), &a),
            ActiveAperture::build(Apodization::Rect, &a)
        );
    }

    #[test]
    fn weights_are_symmetric() {
        let a = array();
        for apod in [
            Apodization::Hann,
            Apodization::Hamming,
            Apodization::Tukey(0.5),
        ] {
            for e in a.iter() {
                let m = ElementIndex::new(a.nx() - 1 - e.ix, a.ny() - 1 - e.iy);
                assert!(
                    (apod.weight(&a, e) - apod.weight(&a, m)).abs() < 1e-12,
                    "{apod:?} at {e}"
                );
            }
        }
    }

    #[test]
    fn weights_vector_matches_per_element() {
        let a = array();
        let w = Apodization::Hann.weights(&a);
        for (i, e) in a.iter().enumerate() {
            assert_eq!(w[i], Apodization::Hann.weight(&a, e));
        }
    }

    #[test]
    fn active_aperture_drops_exactly_the_zero_weights() {
        let a = array();
        for apod in [
            Apodization::Rect,
            Apodization::Hann,
            Apodization::Hamming,
            Apodization::Tukey(0.5),
        ] {
            let full = apod.weights(&a);
            let active = ActiveAperture::build(apod, &a);
            assert_eq!(active.len(), full.iter().filter(|&&w| w != 0.0).count());
            for (&c, &w) in active.channels().iter().zip(active.weights()) {
                assert_eq!(w, full[c as usize], "{apod:?} channel {c}");
                assert_ne!(w, 0.0);
            }
            // Channels ascend, so the compacted order is the linear order.
            assert!(active.channels().windows(2).all(|p| p[0] < p[1]));
            assert_eq!(active.is_full(), active.len() == a.count());
        }
        // Hann vanishes on the border of the 9×9 array: 32 border
        // elements of 81 drop out.
        let hann = ActiveAperture::build(Apodization::Hann, &a);
        assert_eq!(hann.len(), 49);
        assert!(!hann.is_full() && !hann.is_empty());
        assert!(ActiveAperture::build(Apodization::Rect, &a).is_full());
    }

    #[test]
    fn runs_cover_exactly_the_active_channels() {
        for (nx, ny) in [(1, 1), (1, 8), (7, 3), (32, 32)] {
            let a = TransducerArray::new(nx, ny, 0.2e-3);
            for apod in [
                Apodization::Rect,
                Apodization::Hann,
                Apodization::Hamming,
                Apodization::Tukey(0.0),
                Apodization::Tukey(0.5),
                Apodization::Tukey(1.0),
            ] {
                let active = ActiveAperture::build(apod, &a);
                let runs = active.runs();
                let flat: Vec<u32> = runs
                    .iter()
                    .flat_map(|r| r.clone())
                    .map(|c| c as u32)
                    .collect();
                assert_eq!(flat, active.channels(), "{apod:?} on {nx}x{ny}");
                // Non-empty, ascending and maximal: a gap separates runs.
                assert!(runs.iter().all(|r| !r.is_empty()));
                assert!(runs.windows(2).all(|p| p[0].end < p[1].start));
                let whole = runs.len() == 1 && runs[0] == (0..a.count());
                assert_eq!(active.is_full(), whole);
            }
        }
        // Hann on 32×32 zeroes the border rows and columns: 30 runs of 30.
        let hann = ActiveAperture::build(Apodization::Hann, &TransducerArray::new(32, 32, 0.2e-3));
        assert_eq!(hann.runs().len(), 30);
        assert!(hann.runs().iter().all(|r| r.len() == 30));
    }

    #[test]
    fn all_weights_in_unit_interval() {
        let a = TransducerArray::new(16, 12, 0.2e-3);
        for apod in [
            Apodization::Rect,
            Apodization::Hann,
            Apodization::Hamming,
            Apodization::Tukey(0.3),
        ] {
            for w in apod.weights(&a) {
                assert!((0.0..=1.0).contains(&w), "{apod:?}: w = {w}");
            }
        }
    }
}
