//! The §II-B baseline: a fully precomputed per-(voxel, element) table.

use crate::{DelayEngine, EngineError, ExactEngine, NappeDelays};
use usbf_geometry::{ElementIndex, SystemSpec, VoxelIndex};

/// The naive architecture the paper rules out: every delay index
/// precomputed and stored. Each entry is a 16-bit sample index (13 bits
/// would do; memories are byte-addressed).
///
/// For Table I this is `128·128·1000 × 100·100 ≈ 164 × 10⁹` entries —
/// ≈328 GB — which is why construction takes an explicit memory budget and
/// fails loudly at paper scale:
///
/// ```
/// use usbf_core::{NaiveTableEngine, EngineError};
/// use usbf_geometry::SystemSpec;
/// let err = NaiveTableEngine::build(&SystemSpec::paper(), 1 << 30).unwrap_err();
/// assert!(matches!(err, EngineError::TableTooLarge { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct NaiveTableEngine {
    table: Vec<u16>,
    elements_per_voxel: usize,
    /// Table entries per transmit: `voxel_count × elements_per_voxel`.
    transmit_stride: usize,
    n_transmits: usize,
    echo_len: usize,
    n_phi: usize,
    n_depth: usize,
    nx: usize,
}

impl NaiveTableEngine {
    /// Bytes the table would need for a given spec: one full
    /// per-(voxel, element) table **per transmit** — multi-transmit frames
    /// multiply the §II-B storage wall.
    pub fn required_bytes(spec: &SystemSpec) -> u64 {
        spec.naive_table_entries() * 2 * spec.n_transmits() as u64
    }

    /// Precomputes the full table, refusing if it exceeds `limit_bytes`.
    ///
    /// # Errors
    ///
    /// [`EngineError::TableTooLarge`] when the table exceeds the budget.
    pub fn build(spec: &SystemSpec, limit_bytes: u64) -> Result<Self, EngineError> {
        let required = Self::required_bytes(spec);
        if required > limit_bytes {
            return Err(EngineError::TableTooLarge {
                required_bytes: required,
                limit_bytes,
            });
        }
        let exact = ExactEngine::new(spec);
        let echo_len = spec.echo_buffer_len();
        let v = &spec.volume_grid;
        let el = &spec.elements;
        let elements_per_voxel = el.count();
        let transmit_stride = v.voxel_count() * elements_per_voxel;
        let n_transmits = spec.n_transmits();
        let mut table = vec![0u16; transmit_stride * n_transmits];
        for tx in 0..n_transmits {
            let base = tx * transmit_stride;
            for i in 0..v.voxel_count() {
                let vox = v.voxel_at(i);
                for (j, e) in el.iter().enumerate() {
                    table[base + i * elements_per_voxel + j] =
                        exact.delay_index_for(tx, vox, e) as u16;
                }
            }
        }
        Ok(NaiveTableEngine {
            table,
            elements_per_voxel,
            transmit_stride,
            n_transmits,
            echo_len,
            n_phi: v.n_phi(),
            n_depth: v.n_depth(),
            nx: el.nx(),
        })
    }

    /// Actual storage used, in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.table.len() as u64 * 2
    }
}

impl DelayEngine for NaiveTableEngine {
    fn name(&self) -> &'static str {
        "NAIVE-TABLE"
    }

    fn transmit_count(&self) -> usize {
        self.n_transmits
    }

    fn delay_samples_for(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64 {
        self.delay_index_for(tx, vox, e) as f64
    }

    fn delay_index(&self, vox: VoxelIndex, e: ElementIndex) -> i64 {
        self.delay_index_for(0, vox, e)
    }

    fn delay_index_for(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> i64 {
        let vi = (vox.it * self.n_phi + vox.ip) * self.n_depth + vox.id;
        let ei = e.iy * self.nx + e.ix;
        self.table[tx * self.transmit_stride + vi * self.elements_per_voxel + ei] as i64
    }

    fn echo_buffer_len(&self) -> usize {
        self.echo_len
    }

    /// The naive table has **no separable receive leg** — it stores the
    /// final rounded index per `(transmit, voxel, element)`, with the two
    /// legs fused at precompute time. The rx pass therefore only stamps
    /// the slab's nappe marker and streams the (unspecified) rows;
    /// [`NaiveTableEngine::combine_tx_row`] produces each transmit's row
    /// entirely from the table, so the one tile kernel serves this engine
    /// too at the cost of one table-row widen per (voxel, transmit).
    fn fill_nappe_rx_streamed(
        &self,
        nappe_idx: usize,
        out: &mut NappeDelays,
        consume: &mut dyn FnMut(usize, &[f64]),
    ) {
        let n_elements = out.n_elements();
        let scanlines = out.scanline_count();
        let buf = out.begin_fill(nappe_idx);
        for slot in 0..scanlines {
            consume(slot, &buf[slot * n_elements..(slot + 1) * n_elements]);
        }
    }

    /// Transmit combine: each scanline's element block is one contiguous
    /// run of the precomputed table (offset into transmit `tx`'s stride),
    /// widened `u16 → f64` in place of per-query indexed lookups. The rx
    /// row is ignored.
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
        assert_eq!(rx_row.len(), out.len(), "combine row length mismatch");
        let vi = (vox.it * self.n_phi + vox.ip) * self.n_depth + vox.id;
        let base = tx * self.transmit_stride;
        let src = &self.table
            [base + vi * self.elements_per_voxel..base + (vi + 1) * self.elements_per_voxel];
        for (value, &raw) in out.iter_mut().zip(src) {
            *value = raw as i64 as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_exact_indices_everywhere() {
        let spec = SystemSpec::tiny();
        let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
        let exact = ExactEngine::new(&spec);
        for i in 0..spec.volume_grid.voxel_count() {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                assert_eq!(naive.delay_index(vox, e), exact.delay_index(vox, e));
            }
        }
    }

    #[test]
    fn paper_scale_is_infeasible() {
        // §II-B: "obviously impractical to pre-compute, due to the storage
        // requirements".
        let required = NaiveTableEngine::required_bytes(&SystemSpec::paper());
        assert_eq!(required, 163_840_000_000 * 2);
        assert!(required > 300_000_000_000u64);
    }

    #[test]
    fn storage_accounting() {
        let spec = SystemSpec::tiny();
        let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
        assert_eq!(
            naive.storage_bytes(),
            NaiveTableEngine::required_bytes(&spec)
        );
        // tiny: 8·8·16 voxels × 64 elements × 2 B = 131 072 B.
        assert_eq!(naive.storage_bytes(), 131_072);
    }

    #[test]
    fn budget_is_enforced_exactly() {
        let spec = SystemSpec::tiny();
        let required = NaiveTableEngine::required_bytes(&spec);
        assert!(NaiveTableEngine::build(&spec, required).is_ok());
        let err = NaiveTableEngine::build(&spec, required - 1).unwrap_err();
        match err {
            EngineError::TableTooLarge {
                required_bytes,
                limit_bytes,
            } => {
                assert_eq!(required_bytes, required);
                assert_eq!(limit_bytes, required - 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn multi_transmit_table_matches_exact_per_transmit() {
        let spec = SystemSpec::tiny().with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
            3,
            usbf_geometry::deg(8.0),
        ));
        let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
        let exact = ExactEngine::new(&spec);
        assert_eq!(naive.transmit_count(), 3);
        for tx in 0..3 {
            for i in (0..spec.volume_grid.voxel_count()).step_by(5) {
                let vox = spec.volume_grid.voxel_at(i);
                for e in spec.elements.iter() {
                    assert_eq!(
                        naive.delay_index_for(tx, vox, e),
                        exact.delay_index_for(tx, vox, e)
                    );
                }
            }
            let mut batched = NappeDelays::full(&spec);
            let mut scalar = NappeDelays::full(&spec);
            naive.fill_nappe_streamed_for(tx, 7, &mut batched, &mut |_, _| {});
            scalar.fill_scalar_for(&naive, tx, 7);
            assert_eq!(batched, scalar);
        }
    }

    #[test]
    fn multi_transmit_multiplies_storage() {
        let single = SystemSpec::tiny();
        let compound = SystemSpec::tiny().with_transmits(
            usbf_geometry::TransmitModel::plane_wave_fan(4, usbf_geometry::deg(10.0)),
        );
        assert_eq!(
            NaiveTableEngine::required_bytes(&compound),
            4 * NaiveTableEngine::required_bytes(&single)
        );
        let naive = NaiveTableEngine::build(&compound, u64::MAX).unwrap();
        assert_eq!(naive.storage_bytes(), 4 * 131_072);
    }

    #[test]
    fn factored_fill_bit_identical_to_scalar_fill() {
        let spec = SystemSpec::tiny().with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
            3,
            usbf_geometry::deg(9.0),
        ));
        let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
        let mut rx = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        let mut combined = vec![0.0; rx.n_elements()];
        for id in [0, 8, 15] {
            let mut delivered = 0;
            naive.fill_nappe_rx_streamed(id, &mut rx, &mut |_, _| delivered += 1);
            assert_eq!(delivered, rx.scanline_count());
            for tx in 0..3 {
                scalar.fill_scalar_for(&naive, tx, id);
                for (slot, it, ip) in scalar.scanlines() {
                    naive.combine_tx_row(
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
    fn name_and_buffer() {
        let spec = SystemSpec::tiny();
        let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
        assert_eq!(naive.name(), "NAIVE-TABLE");
        assert_eq!(naive.echo_buffer_len(), spec.echo_buffer_len());
    }
}
