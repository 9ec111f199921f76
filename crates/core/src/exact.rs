//! The double-precision golden model.

use crate::{DelayEngine, NappeDelays};
use usbf_geometry::{ElementIndex, SystemSpec, Vec3, VoxelIndex};

/// Exact Eq. 2 evaluation in double precision — the reference every
/// approximate architecture is compared against ("we compared our
/// approximated fixed-point implementation with an exact computation",
/// §VI-A).
///
/// ```
/// use usbf_core::{DelayEngine, ExactEngine};
/// use usbf_geometry::{SystemSpec, VoxelIndex, ElementIndex};
/// let spec = SystemSpec::tiny();
/// let e = ExactEngine::new(&spec);
/// let t = e.delay_samples(VoxelIndex::new(4, 4, 15), ElementIndex::new(0, 0));
/// assert!(t > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ExactEngine {
    spec: SystemSpec,
    /// Element positions in linear order, cached for the batched fill.
    elem_pos: Vec<Vec3>,
    echo_len: usize,
}

impl ExactEngine {
    /// Creates the golden model for a system specification.
    pub fn new(spec: &SystemSpec) -> Self {
        ExactEngine {
            elem_pos: spec
                .elements
                .iter()
                .map(|e| spec.elements.position(e))
                .collect(),
            spec: spec.clone(),
            echo_len: spec.echo_buffer_len(),
        }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }
}

impl DelayEngine for ExactEngine {
    fn name(&self) -> &'static str {
        "EXACT"
    }

    fn transmit_count(&self) -> usize {
        self.spec.n_transmits()
    }

    fn delay_samples_for(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64 {
        let s = self.spec.volume_grid.position(vox);
        let d = self.spec.elements.position(e);
        self.spec.two_way_delay_samples_for(tx, s, d)
    }

    fn echo_buffer_len(&self) -> usize {
        self.echo_len
    }

    /// Receive-leg fill: the slab rows hold `|S − D|` in **metres** — the
    /// per-element Euclidean distances, which are the expensive,
    /// transmit-invariant part of Eq. 2's `((tx + |S − D|) / c) · fs`.
    /// Element positions are cached at construction, so the focal point
    /// is the only geometry derived per row.
    fn fill_nappe_rx_streamed(
        &self,
        nappe_idx: usize,
        out: &mut NappeDelays,
        consume: &mut dyn FnMut(usize, &[f64]),
    ) {
        let tile = out.tile();
        let n_elements = out.n_elements();
        let spec = &self.spec;
        let buf = out.begin_fill(nappe_idx);
        for (slot, it, ip) in tile.iter_scanlines() {
            let s = spec
                .volume_grid
                .position(VoxelIndex::new(it, ip, nappe_idx));
            let range = slot * n_elements..(slot + 1) * n_elements;
            let row = &mut buf[range.clone()];
            for (value, d) in row.iter_mut().zip(&self.elem_pos) {
                *value = s.distance(*d);
            }
            consume(slot, &buf[range]);
        }
    }

    /// Transmit combine: `((t + rx) / c) · fs` with the transmit distance
    /// `t` (point source `|S − O|`, plane wave `n̂ · S`) computed once per
    /// row — literally the scalar per-element expression with the receive
    /// distance read from the rx slab, so the output is bit-identical to
    /// [`ExactEngine::delay_samples_for`].
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
        assert_eq!(rx_row.len(), out.len(), "combine row length mismatch");
        let spec = &self.spec;
        let fs = spec.sampling_frequency;
        let c = spec.speed_of_sound;
        let s = spec.volume_grid.position(vox);
        let t = spec.transmit_distance(tx, s);
        for (o, &rx) in out.iter_mut().zip(rx_row) {
            *o = (t + rx) / c * fs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_axis_two_way_is_twice_depth() {
        // Odd-grid spec puts a scanline exactly on the z axis and an
        // element exactly at the origin.
        let base = SystemSpec::tiny();
        let spec = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            usbf_geometry::TransducerSpec {
                nx: 9,
                ny: 9,
                ..base.transducer.clone()
            },
            usbf_geometry::VolumeSpec {
                n_theta: 9,
                n_phi: 9,
                ..base.volume.clone()
            },
            base.origin,
            base.frame_rate,
        );
        let eng = ExactEngine::new(&spec);
        let vox = VoxelIndex::new(4, 4, 7);
        let center = spec.elements.center_element();
        let expect = 2.0 * spec.metres_to_samples(spec.volume_grid.depth_of(7));
        assert!((eng.delay_samples(vox, center) - expect).abs() < 1e-9);
    }

    #[test]
    fn delay_increases_with_element_distance() {
        let spec = SystemSpec::tiny();
        let eng = ExactEngine::new(&spec);
        // On-axis-ish voxel: farther elements have longer receive paths.
        let vox = VoxelIndex::new(4, 4, 15);
        let near = eng.delay_samples(vox, ElementIndex::new(4, 4));
        let far = eng.delay_samples(vox, ElementIndex::new(0, 0));
        assert!(far > near);
    }

    #[test]
    fn index_is_rounding_of_samples() {
        let spec = SystemSpec::tiny();
        let eng = ExactEngine::new(&spec);
        let vox = VoxelIndex::new(2, 5, 9);
        let e = ElementIndex::new(1, 6);
        let s = eng.delay_samples(vox, e);
        assert_eq!(eng.delay_index(vox, e), (s + 0.5).floor() as i64);
    }

    #[test]
    fn plane_wave_transmit_matches_projection_delay() {
        let theta = usbf_geometry::deg(10.0);
        let spec = SystemSpec::tiny().with_transmits(vec![
            usbf_geometry::TransmitModel::PointSource,
            usbf_geometry::TransmitModel::plane_wave(theta, 0.0),
        ]);
        let eng = ExactEngine::new(&spec);
        assert_eq!(eng.transmit_count(), 2);
        let vox = VoxelIndex::new(4, 4, 10);
        let e = ElementIndex::new(2, 3);
        let s = spec.volume_grid.position(vox);
        let d = spec.elements.position(e);
        let n = usbf_geometry::SphericalDirection::new(theta, 0.0).unit();
        let expect = (n.dot(s) + s.distance(d)) / spec.speed_of_sound * spec.sampling_frequency;
        assert!((eng.delay_samples_for(1, vox, e) - expect).abs() < 1e-9);
        // Transmit 0 still answers the historical point-source delay.
        assert_eq!(
            eng.delay_samples_for(0, vox, e).to_bits(),
            eng.delay_samples(vox, e).to_bits()
        );
    }

    #[test]
    fn plane_wave_fill_bit_exact_with_scalar_path() {
        let spec = SystemSpec::tiny().with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
            3,
            usbf_geometry::deg(12.0),
        ));
        let eng = ExactEngine::new(&spec);
        for tx in 0..3 {
            let mut batched = crate::NappeDelays::full(&spec);
            let mut scalar = crate::NappeDelays::full(&spec);
            eng.fill_nappe_streamed_for(tx, 9, &mut batched, &mut |_, _| {});
            scalar.fill_scalar_for(&eng, tx, 9);
            for (a, b) in batched.samples().iter().zip(scalar.samples()) {
                assert_eq!(a.to_bits(), b.to_bits(), "tx {tx}");
            }
        }
    }

    #[test]
    fn factored_fill_bit_identical_to_scalar_fill() {
        let spec = SystemSpec::tiny().with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
            4,
            usbf_geometry::deg(10.0),
        ));
        let eng = ExactEngine::new(&spec);
        let mut rx = crate::NappeDelays::full(&spec);
        let mut scalar = crate::NappeDelays::full(&spec);
        let mut combined = vec![0.0; rx.n_elements()];
        for id in [0, 7, 15] {
            eng.fill_nappe_rx_streamed(id, &mut rx, &mut |_, _| {});
            assert_eq!(rx.nappe(), Some(id));
            for tx in 0..4 {
                scalar.fill_scalar_for(&eng, tx, id);
                for (slot, it, ip) in scalar.scanlines() {
                    eng.combine_tx_row(
                        tx,
                        VoxelIndex::new(it, ip, id),
                        rx.row(slot),
                        &mut combined,
                    );
                    for (a, b) in combined.iter().zip(scalar.row(slot)) {
                        assert_eq!(a.to_bits(), b.to_bits(), "tx {tx} nappe {id} slot {slot}");
                    }
                }
            }
        }
    }

    #[test]
    fn engine_metadata() {
        let spec = SystemSpec::tiny();
        let eng = ExactEngine::new(&spec);
        assert_eq!(eng.name(), "EXACT");
        assert_eq!(eng.echo_buffer_len(), spec.echo_buffer_len());
        assert_eq!(eng.spec().elements.count(), 64);
    }
}
