//! Property-based invariants of the beamforming pipeline.

use proptest::prelude::*;
use usbf_beamform::{Apodization, Beamformer, BmodeConfig, Interpolation, PostChain, TileState};
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, TableFreeConfig, TableFreeEngine, TableSteerConfig,
    TableSteerEngine, Tile,
};
use usbf_geometry::scan::ScanOrder;
use usbf_geometry::{
    ElementIndex, SystemSpec, TransducerSpec, TransmitModel, Vec3, VolumeSpec, VoxelIndex,
    SPEED_OF_SOUND,
};
use usbf_sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

fn rf_for(spec: &SystemSpec, vox: VoxelIndex) -> usbf_sim::RfFrame {
    EchoSynthesizer::new(spec).synthesize(
        &Phantom::point(spec.volume_grid.position(vox)),
        &Pulse::from_spec(spec),
    )
}

/// A randomized tiny geometry with the paper's physical extents (the
/// same shape the core crate's slab-fill proptests randomize).
fn random_spec(nx: usize, ny: usize, n_theta: usize, n_phi: usize, n_depth: usize) -> SystemSpec {
    let fc = 4.0e6;
    let lambda = SPEED_OF_SOUND / fc;
    SystemSpec::new(
        SPEED_OF_SOUND,
        32.0e6,
        TransducerSpec {
            center_frequency: fc,
            bandwidth: 4.0e6,
            nx,
            ny,
            pitch: lambda / 2.0,
        },
        VolumeSpec {
            theta_max: usbf_geometry::deg(36.5),
            phi_max: usbf_geometry::deg(36.5),
            depth_max: 500.0 * lambda,
            n_theta,
            n_phi,
            n_depth,
        },
        Vec3::ZERO,
        15.0,
    )
}

/// Like [`random_spec`] but with a narrow cone (±4° over 60λ) so
/// plane-wave footprints actually intersect the grid: under the stock
/// ±36.5° cone every voxel back-projects outside a tiny aperture and
/// all compound masks degenerate to zero.
fn random_compound_spec(
    nx: usize,
    ny: usize,
    n_theta: usize,
    n_phi: usize,
    n_depth: usize,
) -> SystemSpec {
    let wide = random_spec(nx, ny, n_theta, n_phi, n_depth);
    let lambda = wide.wavelength();
    SystemSpec::new(
        wide.speed_of_sound,
        wide.sampling_frequency,
        wide.transducer.clone(),
        VolumeSpec {
            theta_max: usbf_geometry::deg(4.0),
            phi_max: usbf_geometry::deg(4.0),
            depth_max: 60.0 * lambda,
            ..wide.volume.clone()
        },
        wide.origin,
        wide.frame_rate,
    )
}

/// A random transmit sequence mixing steered plane waves with the
/// classic point emission (bit `i` of `kinds` picks the flavour).
fn random_transmits(n_tx: usize, kinds: usize, a: usize, b: usize) -> Vec<TransmitModel> {
    (0..n_tx)
        .map(|i| {
            if (kinds >> i) & 1 == 0 {
                TransmitModel::PointSource
            } else {
                let theta = ((a + 7 * i) % 25) as f64 - 12.0;
                let phi = ((b + 5 * i) % 25) as f64 - 12.0;
                TransmitModel::plane_wave(usbf_geometry::deg(theta), usbf_geometry::deg(phi))
            }
        })
        .collect()
}

/// The tile kernel's gather/MAC block width: the edge cases below are
/// tiles of 1, 8 − 1 and 8 + 1 scanlines.
const BLOCK: usize = 8;

/// A tile of `shape` (θ lines × φ lines) placed by `(a, b)` inside the
/// spec's fan.
fn tile_in(spec: &SystemSpec, (w_theta, w_phi): (usize, usize), a: usize, b: usize) -> Tile {
    let theta_start = a % (spec.volume_grid.n_theta() - w_theta + 1);
    let phi_start = b % (spec.volume_grid.n_phi() - w_phi + 1);
    Tile {
        theta_start,
        theta_end: theta_start + w_theta,
        phi_start,
        phi_end: phi_start + w_phi,
    }
}

/// Engine `i` of the four architectures, freshly built (zeroed counters).
fn engine(spec: &SystemSpec, i: usize) -> Box<dyn DelayEngine> {
    match i {
        0 => Box::new(ExactEngine::new(spec)),
        1 => Box::new(NaiveTableEngine::build(spec, u64::MAX).expect("tiny table fits")),
        2 => Box::new(TableFreeEngine::new(spec, TableFreeConfig::paper()).expect("builds")),
        _ => Box::new(TableSteerEngine::new(spec, TableSteerConfig::bits18()).expect("builds")),
    }
}

/// What one block-edge case exercised.
#[derive(Debug, Default)]
struct BlockEdgeCoverage {
    /// (nappe, transmit, block) triples whose block holds both masked and
    /// unmasked voxels.
    mixed_blocks: usize,
    /// RF samples set to NaN because only masked pairs could read them.
    nan_samples: usize,
}

/// Beamforms `tile` through [`Beamformer::beamform_tile_into`] for all
/// four engines × nearest/linear and checks every value bit for bit
/// against [`Beamformer::beamform_voxel`]. The RF is `rf` with every
/// sample that no unmasked (voxel, transmit) pair of the tile reads set
/// to NaN, so a masked pair that reached the gather/MAC would poison its
/// block; every value must stay finite. TABLESTEER's clamp count must
/// equal scalar `delay_index_for` queries over every pair of the tile,
/// masked ones included.
fn check_block_edges(
    spec: &SystemSpec,
    tile: Tile,
    rf: &RfFrame,
) -> Result<BlockEdgeCoverage, TestCaseError> {
    let n_depth = spec.volume_grid.n_depth();
    let n_tx = spec.n_transmits();
    let nx = spec.elements.nx();
    let n_samples = rf.n_samples() as i64;
    let voxels: Vec<(usize, VoxelIndex)> = tile
        .iter_scanlines()
        .flat_map(|(slot, it, ip)| {
            (0..n_depth).map(move |id| (slot * n_depth + id, VoxelIndex::new(it, ip, id)))
        })
        .collect();
    let live = |tx: usize, vox: VoxelIndex| {
        spec.transmit_weight(tx, spec.volume_grid.position(vox)) != 0.0
    };
    let mut coverage = BlockEdgeCoverage::default();
    for id in 0..n_depth {
        for tx in 0..n_tx {
            let slots: Vec<usize> = (0..tile.scanlines()).collect();
            for block in slots.chunks(BLOCK) {
                let lives: Vec<bool> = block
                    .iter()
                    .map(|&slot| {
                        let (it, ip) = tile.scanline_at(slot);
                        live(tx, VoxelIndex::new(it, ip, id))
                    })
                    .collect();
                if lives.contains(&true) && lives.contains(&false) {
                    coverage.mixed_blocks += 1;
                }
            }
        }
    }
    for interp in [Interpolation::Nearest, Interpolation::Linear] {
        let bf = Beamformer::new(spec).with_interpolation(interp);
        let channels = bf.aperture().channels();
        for i in 0..4 {
            let oracle = engine(spec, i);
            // Mark every sample an unmasked pair reads, then poison the
            // rest.
            let mut read = vec![false; n_tx * spec.elements.count() * n_samples as usize];
            let mut mark = |tx: usize, c: u32, idx: i64| {
                if (0..n_samples).contains(&idx) {
                    read[(tx * spec.elements.count() + c as usize) * n_samples as usize
                        + idx as usize] = true;
                }
            };
            for &(_, vox) in &voxels {
                for tx in (0..n_tx).filter(|&tx| live(tx, vox)) {
                    for &c in channels {
                        let e = ElementIndex::new(c as usize % nx, c as usize / nx);
                        match interp {
                            Interpolation::Nearest => {
                                mark(tx, c, oracle.delay_index_for(tx, vox, e));
                            }
                            Interpolation::Linear => {
                                let i0 = oracle.delay_samples_for(tx, vox, e).floor() as i64;
                                mark(tx, c, i0);
                                mark(tx, c, i0 + 1);
                            }
                        }
                    }
                }
            }
            let mut poisoned = rf.clone();
            let mut flags = read.chunks_exact(n_samples as usize);
            for tx in 0..n_tx {
                for e in spec.elements.iter() {
                    let trace_read = flags.next().expect("one flag row per trace");
                    for (v, &r) in poisoned.trace_for_mut(tx, e).iter_mut().zip(trace_read) {
                        if !r {
                            *v = f64::NAN;
                            coverage.nan_samples += 1;
                        }
                    }
                }
            }
            let kernel = engine(spec, i);
            let mut state = TileState::new(&bf, tile);
            bf.beamform_tile_into(kernel.as_ref(), &poisoned, &mut state);
            for &(v, vox) in &voxels {
                let (a, b) = (
                    state.values()[v],
                    bf.beamform_voxel(oracle.as_ref(), &poisoned, vox),
                );
                prop_assert!(
                    a.is_finite() && a.to_bits() == b.to_bits(),
                    "{} {:?} {} scanlines, voxel {}: {} vs {}",
                    kernel.name(),
                    interp,
                    tile.scanlines(),
                    vox,
                    a,
                    b
                );
            }
        }
    }
    let kernel = TableSteerEngine::new(spec, TableSteerConfig::bits18()).expect("builds");
    let scalar = kernel.clone(); // fresh zeroed counter
    let bf = Beamformer::new(spec);
    bf.beamform_tile_into(&kernel, rf, &mut TileState::new(&bf, tile));
    for &(_, vox) in &voxels {
        for tx in 0..n_tx {
            for &c in bf.aperture().channels() {
                scalar.delay_index_for(
                    tx,
                    vox,
                    ElementIndex::new(c as usize % nx, c as usize / nx),
                );
            }
        }
    }
    prop_assert_eq!(kernel.clamp_events(), scalar.clamp_events());
    Ok(coverage)
}

#[test]
fn block_edge_setup_masks_voxels_inside_blocks() {
    // A fixed case of the block-edge property below that provably
    // exercises what it is for: blocks holding both masked and unmasked
    // voxels, and NaN samples that only masked pairs could read.
    let spec = random_compound_spec(4, 4, 9, 9, 6)
        .with_transmits(TransmitModel::plane_wave_fan(3, usbf_geometry::deg(6.0)));
    let rf = rf_for(&spec, VoxelIndex::new(4, 4, 2));
    for shape in [
        (1, 1),
        (BLOCK - 1, 1),
        (1, BLOCK - 1),
        (3, 3),
        (BLOCK + 1, 1),
    ] {
        let mut mixed_blocks = 0;
        for (a, b) in [(1, 4), (4, 1)] {
            let coverage = check_block_edges(&spec, tile_in(&spec, shape, a, b), &rf)
                .unwrap_or_else(|e| panic!("{shape:?} at ({a}, {b}): {e}"));
            assert!(coverage.nan_samples > 0, "{shape:?}: {coverage:?}");
            mixed_blocks += coverage.mixed_blocks;
        }
        if shape != (1, 1) {
            assert!(
                mixed_blocks > 0,
                "{shape:?}: no block mixes masked and live voxels"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn block_kernel_is_bit_identical_at_block_edges(
        nx in 2usize..5,
        ny in 2usize..5,
        n_theta in 9usize..12,
        n_phi in 7usize..10,
        n_depth in 3usize..6,
        target in 0usize..1_000_000,
        shape_pick in 0usize..5,
        place_a in 0usize..1000,
        place_b in 0usize..1000,
        n_tx in 1usize..4,
        kinds in 0usize..8,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
    ) {
        // Tiles of 1, BLOCK − 1 and BLOCK + 1 scanlines end in a partial
        // block; steered plane waves mask some voxels inside blocks.
        let shape = [(1, 1), (BLOCK - 1, 1), (1, BLOCK - 1), (3, 3), (BLOCK + 1, 1)][shape_pick];
        let spec = random_compound_spec(nx, ny, n_theta, n_phi, n_depth)
            .with_transmits(random_transmits(n_tx, kinds, angle_a, angle_b));
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        check_block_edges(&spec, tile_in(&spec, shape, place_a, place_b), &rf)?;
    }

    #[test]
    fn compound_kernel_clamp_telemetry_matches_scalar_queries_on_random_transmits(
        nx in 1usize..6,
        ny in 1usize..6,
        n_theta in 2usize..6,
        n_phi in 2usize..6,
        n_depth in 4usize..10,
        target in 0usize..1_000_000,
        n_tx in 1usize..5,
        kinds in 0usize..16,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
    ) {
        // The nearest tile kernel quantizes every transmit's combined
        // row, masked ones included, for engines with rounding telemetry:
        // TABLESTEER's clamp counter must advance exactly as scalar
        // `delay_index_for` queries over every (voxel, transmit, active
        // channel) advance a fresh engine's counter.
        let spec = random_compound_spec(nx, ny, n_theta, n_phi, n_depth)
            .with_transmits(random_transmits(n_tx, kinds, angle_a, angle_b));
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        let kernel_engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let scalar_engine = kernel_engine.clone(); // fresh zeroed counter
        let bf = Beamformer::new(&spec);
        bf.beamform_volume_tiled(&kernel_engine, &rf, &usbf_core::NappeSchedule::fitted(&spec, 3));
        for i in 0..spec.volume_grid.voxel_count() {
            let vox = spec.volume_grid.voxel_at(i);
            for tx in 0..n_tx {
                for &c in bf.aperture().channels() {
                    let e = ElementIndex::new(c as usize % nx, c as usize / nx);
                    scalar_engine.delay_index_for(tx, vox, e);
                }
            }
        }
        prop_assert_eq!(kernel_engine.clamp_events(), scalar_engine.clamp_events());
    }

    #[test]
    fn beamforming_is_linear_in_rf(
        it in 0usize..8,
        ip in 0usize..8,
        id in 2usize..16,
        gain in 0.25f64..4.0,
    ) {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(it, ip, id);
        let rf = rf_for(&spec, vox);
        // Scale the RF by `gain` and compare beamformed values.
        let mut scaled = usbf_sim::RfFrame::zeros(8, 8, rf.n_samples());
        for e in spec.elements.iter() {
            let src = rf.trace(e).to_vec();
            for (d, s) in scaled.trace_mut(e).iter_mut().zip(src) {
                *d = gain * s;
            }
        }
        let bf = Beamformer::new(&spec);
        let engine = ExactEngine::new(&spec);
        let a = bf.beamform_voxel(&engine, &rf, vox);
        let b = bf.beamform_voxel(&engine, &scaled, vox);
        prop_assert!((b - gain * a).abs() < 1e-9 * gain.max(1.0) * a.abs().max(1.0));
    }

    #[test]
    fn apodized_peak_never_exceeds_rect_peak(
        it in 0usize..8,
        ip in 0usize..8,
        id in 2usize..16,
    ) {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(it, ip, id);
        let rf = rf_for(&spec, vox);
        let engine = ExactEngine::new(&spec);
        let rect = Beamformer::new(&spec)
            .with_apodization(Apodization::Rect)
            .beamform_voxel(&engine, &rf, vox)
            .abs();
        for apod in [Apodization::Hann, Apodization::Hamming, Apodization::Tukey(0.5)] {
            let v = Beamformer::new(&spec)
                .with_apodization(apod)
                .beamform_voxel(&engine, &rf, vox)
                .abs();
            prop_assert!(v <= rect + 1e-9, "{:?}: {} > {}", apod, v, rect);
        }
    }

    #[test]
    fn volume_values_order_independent(
        it in 0usize..8,
        ip in 0usize..8,
        id in 0usize..16,
    ) {
        let spec = SystemSpec::tiny();
        let probe = VoxelIndex::new(it, ip, id);
        let rf = rf_for(&spec, VoxelIndex::new(4, 4, 8));
        let engine = ExactEngine::new(&spec);
        let nappe = Beamformer::new(&spec).with_order(ScanOrder::NappeByNappe);
        let scan = Beamformer::new(&spec).with_order(ScanOrder::ScanlineByScanline);
        let a = nappe.beamform_volume(&engine, &rf);
        let b = scan.beamform_volume(&engine, &rf);
        prop_assert_eq!(a.get(probe), b.get(probe));
    }

    #[test]
    fn vectorized_kernel_bit_identical_to_scalar_reference_on_random_specs(
        nx in 1usize..6,
        ny in 1usize..6,
        n_theta in 2usize..6,
        n_phi in 2usize..6,
        n_depth in 4usize..10,
        target in 0usize..1_000_000,
        apod_pick in 0usize..3,
    ) {
        // The PR 5 tentpole invariant: the vectorized tile kernel
        // (batched quantize_row → gather → chunked accumulate over the
        // compacted aperture) reproduces the scalar ScanlineByScanline
        // walk bit for bit, for all four engines × both interpolations,
        // on randomized geometry — including apertures with zero-weight
        // borders (Hann) that exercise the row compaction.
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth);
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        let apod = [Apodization::Rect, Apodization::Hann, Apodization::Tukey(0.5)][apod_pick];
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
        for engine in engines {
            for interp in [Interpolation::Nearest, Interpolation::Linear] {
                let bf = |order| {
                    Beamformer::new(&spec)
                        .with_apodization(apod)
                        .with_interpolation(interp)
                        .with_order(order)
                };
                let vectorized = bf(ScanOrder::NappeByNappe).beamform_volume(engine, &rf);
                let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(engine, &rf);
                for (i, (a, b)) in vectorized
                    .as_slice()
                    .iter()
                    .zip(scalar.as_slice())
                    .enumerate()
                {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} {:?} {:?} voxel {}: {} vs {}",
                        engine.name(), interp, apod, i, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn compound_kernel_bit_identical_to_scalar_reference_on_random_transmits(
        nx in 1usize..6,
        ny in 1usize..6,
        n_theta in 2usize..6,
        n_phi in 2usize..6,
        n_depth in 4usize..10,
        target in 0usize..1_000_000,
        n_tx in 1usize..5,
        kinds in 0usize..16,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
    ) {
        // The PR 9 tentpole invariant: the compound tile kernel (per
        // transmit: batched fill → gather → MAC into the low-resolution
        // scratch, then the masked skip-on-zero accumulate) reproduces
        // the scalar per-voxel compound walk bit for bit, for all four
        // engines × both interpolations, on random transmit sequences
        // mixing steered plane waves with point emissions.
        let spec = random_compound_spec(nx, ny, n_theta, n_phi, n_depth)
            .with_transmits(random_transmits(n_tx, kinds, angle_a, angle_b));
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
        for engine in engines {
            for interp in [Interpolation::Nearest, Interpolation::Linear] {
                let bf = |order| {
                    Beamformer::new(&spec)
                        .with_interpolation(interp)
                        .with_order(order)
                };
                let tiled = bf(ScanOrder::NappeByNappe).beamform_volume(engine, &rf);
                let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(engine, &rf);
                for (i, (a, b)) in tiled.as_slice().iter().zip(scalar.as_slice()).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} {:?} {} transmits (kinds {:#x}) voxel {}: {} vs {}",
                        engine.name(), interp, n_tx, kinds, i, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn fused_bmode_chain_bit_identical_to_scalar_reference_on_random_specs(
        nx in 1usize..6,
        ny in 1usize..6,
        n_theta in 2usize..6,
        n_phi in 2usize..6,
        n_depth in 4usize..10,
        target in 0usize..1_000_000,
    ) {
        // The PR 8 tentpole invariant: the demod → envelope →
        // log-compress chain fused into the per-tile kernel (each tile
        // column runs through the chain on slab-resident scratch before
        // the scatter) reproduces the scalar reference — a
        // ScanlineByScanline walk followed by a separate whole-volume
        // post-processing pass — bit for bit, for all four engines, on
        // randomized geometry. Holds because every stage is
        // column-local and the log-compression reference level is
        // fixed, so the chain commutes with tiling.
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth);
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        let bmode = PostChain::bmode(BmodeConfig::from_spec(&spec));
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
        for engine in engines {
            let bf = |order| {
                Beamformer::new(&spec)
                    .with_order(order)
                    .with_postproc(bmode.clone())
            };
            let fused = bf(ScanOrder::NappeByNappe).beamform_volume(engine, &rf);
            let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(engine, &rf);
            for (i, (a, b)) in fused.as_slice().iter().zip(scalar.as_slice()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} voxel {}: {} vs {}",
                    engine.name(), i, a, b
                );
            }
        }
    }

    #[test]
    fn interpolation_agrees_on_integer_delays(
        it in 0usize..8,
        ip in 0usize..8,
        id in 2usize..16,
    ) {
        // With an all-ones apodization and a synthetic frame whose traces
        // are constant, nearest and linear fetch agree exactly.
        let spec = SystemSpec::tiny();
        let mut rf = usbf_sim::RfFrame::zeros(8, 8, spec.echo_buffer_len());
        for e in spec.elements.iter() {
            for v in rf.trace_mut(e) {
                *v = 1.0;
            }
        }
        let engine = ExactEngine::new(&spec);
        let vox = VoxelIndex::new(it, ip, id);
        let near = Beamformer::new(&spec)
            .with_apodization(Apodization::Rect)
            .with_interpolation(Interpolation::Nearest)
            .beamform_voxel(&engine, &rf, vox);
        let lin = Beamformer::new(&spec)
            .with_apodization(Apodization::Rect)
            .with_interpolation(Interpolation::Linear)
            .beamform_voxel(&engine, &rf, vox);
        // Constant traces: both read 1.0 per element wherever the index
        // lands inside the buffer.
        prop_assert!((near - lin).abs() < 1e-9);
    }
}
