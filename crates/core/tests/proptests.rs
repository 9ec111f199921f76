//! Property-based invariants of the delay engines.

use proptest::prelude::*;
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, NappeDelays, NappeSchedule, TableFreeConfig,
    TableFreeEngine, TableSteerConfig, TableSteerEngine, Tile,
};
use usbf_geometry::{
    SystemSpec, TransducerSpec, TransmitModel, Vec3, VolumeSpec, VoxelIndex, SPEED_OF_SOUND,
};
use usbf_tables::error::theoretical_bound_seconds;

use std::sync::OnceLock;

/// A randomized tiny geometry with the paper's physical extents: small
/// enough that all four engines build and fill in microseconds, varied
/// enough that slab layouts, fold maps and PWL walks see every
/// even/odd × wide/narrow combination.
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

/// A random transmit sequence mixing steered plane waves with the
/// classic point emission, deterministically derived from proptest
/// integers: bit `i` of `kinds` picks transmit `i`'s flavour, `a`/`b`
/// seed the steering angles (±12° in 1° steps, varied per transmit).
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

/// A random fan tile: `(a, b)` picks start/width within `n` lines.
fn random_span(n: usize, a: usize, b: usize) -> (usize, usize) {
    let start = a % n;
    let width = 1 + b % (n - start);
    (start, start + width)
}

struct Fixture {
    spec: SystemSpec,
    exact: ExactEngine,
    tablefree: TableFreeEngine,
    tablesteer: TableSteerEngine,
    bound_samples: f64,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let spec = SystemSpec::tiny();
        Fixture {
            exact: ExactEngine::new(&spec),
            tablefree: TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds"),
            tablesteer: TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds"),
            bound_samples: spec.seconds_to_samples(theoretical_bound_seconds(&spec)),
            spec,
        }
    })
}

proptest! {
    #[test]
    fn tablefree_error_envelope_everywhere(
        vox_pick in 0usize..100_000,
        e_pick in 0usize..64,
    ) {
        let f = fixture();
        let vox = f.spec.volume_grid.voxel_at(vox_pick % f.spec.volume_grid.voxel_count());
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        let err = (f.tablefree.delay_samples(vox, e) - f.exact.delay_samples(vox, e)).abs();
        // Two δ=0.25 PWL approximations + quantization headroom.
        prop_assert!(err <= 0.7, "err = {}", err);
        let sel = (f.tablefree.delay_index(vox, e) - f.exact.delay_index(vox, e)).abs();
        prop_assert!(sel <= 2, "selection error {}", sel);
    }

    #[test]
    fn tablesteer_error_below_theoretical_bound(
        vox_pick in 0usize..100_000,
        e_pick in 0usize..64,
    ) {
        let f = fixture();
        let vox = f.spec.volume_grid.voxel_at(vox_pick % f.spec.volume_grid.voxel_count());
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        let err = (f.tablesteer.delay_samples(vox, e) - f.exact.delay_samples(vox, e)).abs();
        prop_assert!(err <= f.bound_samples + 1.0, "err = {} bound = {}", err, f.bound_samples);
    }

    #[test]
    fn indices_always_inside_echo_buffer(
        vox_pick in 0usize..100_000,
        e_pick in 0usize..64,
    ) {
        let f = fixture();
        let vox = f.spec.volume_grid.voxel_at(vox_pick % f.spec.volume_grid.voxel_count());
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        for eng in [&f.exact as &dyn DelayEngine, &f.tablefree, &f.tablesteer] {
            let idx = eng.delay_index(vox, e);
            prop_assert!(idx >= 0 && (idx as usize) < eng.echo_buffer_len());
        }
    }

    #[test]
    fn engines_are_deterministic(
        vox_pick in 0usize..100_000,
        e_pick in 0usize..64,
    ) {
        let f = fixture();
        let vox = f.spec.volume_grid.voxel_at(vox_pick % f.spec.volume_grid.voxel_count());
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        for eng in [&f.exact as &dyn DelayEngine, &f.tablefree, &f.tablesteer] {
            prop_assert_eq!(eng.delay_samples(vox, e), eng.delay_samples(vox, e));
            prop_assert_eq!(eng.delay_index(vox, e), eng.delay_index(vox, e));
        }
    }

    #[test]
    fn batched_fills_bit_identical_to_scalar_for_all_engines_on_random_geometries(
        nx in 1usize..6,
        ny in 1usize..6,
        n_theta in 2usize..8,
        n_phi in 2usize..8,
        n_depth in 4usize..12,
        tile_theta in (0usize..1000, 0usize..1000),
        tile_phi in (0usize..1000, 0usize..1000),
        nappe_pick in 0usize..1000,
    ) {
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth);
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let tablesteer =
            TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let (theta_start, theta_end) = random_span(n_theta, tile_theta.0, tile_theta.1);
        let (phi_start, phi_end) = random_span(n_phi, tile_phi.0, tile_phi.1);
        let tile = Tile { theta_start, theta_end, phi_start, phi_end };
        let nappe = nappe_pick % n_depth;
        for engine in [&exact as &dyn DelayEngine, &naive, &tablefree, &tablesteer] {
            let mut batched = NappeDelays::for_tile(&spec, tile);
            engine.fill_nappe(nappe, &mut batched);
            let mut scalar = NappeDelays::for_tile(&spec, tile);
            scalar.fill_scalar(engine, nappe);
            prop_assert_eq!(
                batched.samples(), scalar.samples(),
                "{} {}x{} elements, {}x{}x{} fan, tile {:?}, nappe {}",
                engine.name(), nx, ny, n_theta, n_phi, n_depth, tile, nappe
            );
        }
    }

    #[test]
    fn multi_transmit_fills_bit_identical_to_scalar_per_transmit_on_random_sequences(
        nx in 1usize..6,
        ny in 1usize..6,
        n_theta in 2usize..8,
        n_phi in 2usize..8,
        n_depth in 4usize..12,
        tile_theta in (0usize..1000, 0usize..1000),
        tile_phi in (0usize..1000, 0usize..1000),
        nappe_pick in 0usize..1000,
        n_tx in 1usize..5,
        kinds in 0usize..16,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
    ) {
        // Every engine's receive fill + per-row combine, and the composed
        // streamed fill, must reproduce the scalar per-voxel reference bit
        // for bit on every transmit of a random compound sequence, and
        // the streamed path must deliver each row exactly once in slot
        // order.
        let transmits = random_transmits(n_tx, kinds, angle_a, angle_b);
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth).with_transmits(transmits);
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let tablesteer =
            TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let (theta_start, theta_end) = random_span(n_theta, tile_theta.0, tile_theta.1);
        let (phi_start, phi_end) = random_span(n_phi, tile_phi.0, tile_phi.1);
        let tile = Tile { theta_start, theta_end, phi_start, phi_end };
        let nappe = nappe_pick % n_depth;
        for engine in [&exact as &dyn DelayEngine, &naive, &tablefree, &tablesteer] {
            prop_assert_eq!(engine.transmit_count(), n_tx, "{}", engine.name());
            for tx in 0..n_tx {
                let mut scalar = NappeDelays::for_tile(&spec, tile);
                scalar.fill_scalar_for(engine, tx, nappe);

                let mut rx = NappeDelays::for_tile(&spec, tile);
                engine.fill_nappe_rx_streamed(nappe, &mut rx, &mut |_, _| {});
                let mut combined = vec![0.0; rx.n_elements()];
                for (slot, it, ip) in rx.scanlines() {
                    let vox = VoxelIndex::new(it, ip, nappe);
                    engine.combine_tx_row(tx, vox, rx.row(slot), &mut combined);
                    prop_assert_eq!(
                        combined.as_slice(), scalar.row(slot),
                        "{} tx {}/{} on {}x{} elements, {}x{}x{} fan, tile {:?}, nappe {}",
                        engine.name(), tx, n_tx, nx, ny, n_theta, n_phi, n_depth, tile, nappe
                    );
                }

                let mut streamed = NappeDelays::for_tile(&spec, tile);
                let mut delivered: Vec<(usize, Vec<f64>)> = Vec::new();
                engine.fill_nappe_streamed_for(tx, nappe, &mut streamed, &mut |slot, row| {
                    delivered.push((slot, row.to_vec()));
                });
                prop_assert_eq!(
                    streamed.samples(), scalar.samples(),
                    "{} streamed tx {}/{} drifted from scalar", engine.name(), tx, n_tx
                );
                prop_assert_eq!(delivered.len(), tile.scanlines());
                for (i, (slot, row)) in delivered.iter().enumerate() {
                    prop_assert_eq!(*slot, i, "{} rows out of order", engine.name());
                    prop_assert_eq!(row.as_slice(), streamed.row(i));
                }
            }
        }
    }

    #[test]
    fn tablefree_batched_fill_keeps_scalar_op_telemetry_on_random_geometries(
        nx in 1usize..6,
        ny in 1usize..6,
        n_theta in 2usize..8,
        n_phi in 2usize..8,
        n_depth in 4usize..12,
        tile_theta in (0usize..1000, 0usize..1000),
        tile_phi in (0usize..1000, 0usize..1000),
        nappe_pick in 0usize..1000,
        exact_transmit in any::<bool>(),
    ) {
        // The segment-major row fill must advance the sqrt-evaluation
        // counter by exactly the batched-datapath cost the paper argues
        // for — scanlines × (elements + 1 transmit eval unless exact) —
        // while the scalar walk pays the transmit eval per element; both
        // formulas are part of the engine's telemetry contract.
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth);
        let config = TableFreeConfig { exact_transmit, ..TableFreeConfig::paper() };
        let tablefree = TableFreeEngine::new(&spec, config).expect("builds");
        let (theta_start, theta_end) = random_span(n_theta, tile_theta.0, tile_theta.1);
        let (phi_start, phi_end) = random_span(n_phi, tile_phi.0, tile_phi.1);
        let tile = Tile { theta_start, theta_end, phi_start, phi_end };
        let nappe = nappe_pick % n_depth;

        let mut batched = NappeDelays::for_tile(&spec, tile);
        let before = tablefree.sqrt_evals();
        tablefree.fill_nappe(nappe, &mut batched);
        let batched_evals = tablefree.sqrt_evals() - before;

        let mut scalar = NappeDelays::for_tile(&spec, tile);
        let before = tablefree.sqrt_evals();
        scalar.fill_scalar(&tablefree, nappe);
        let scalar_evals = tablefree.sqrt_evals() - before;

        let scanlines = tile.scanlines() as u64;
        let elements = (nx * ny) as u64;
        let per_voxel = elements + u64::from(!exact_transmit);
        prop_assert_eq!(batched_evals, scanlines * per_voxel, "batched op counter drifted");
        let per_query = 1 + u64::from(!exact_transmit);
        prop_assert_eq!(scalar_evals, scanlines * elements * per_query, "scalar op counter drifted");
        prop_assert_eq!(batched.samples(), scalar.samples());
    }

    #[test]
    fn fitted_schedules_partition_random_fans_exactly(
        n_theta in 1usize..17,
        n_phi in 1usize..17,
        target_tiles in 1usize..40,
    ) {
        let spec = random_spec(2, 2, n_theta, n_phi, 4);
        let schedule = NappeSchedule::fitted(&spec, target_tiles);
        let mut covered = vec![0u32; n_theta * n_phi];
        for tile in schedule.tiles() {
            prop_assert!(tile.theta_end <= n_theta && tile.phi_end <= n_phi);
            for it in tile.theta_start..tile.theta_end {
                for ip in tile.phi_start..tile.phi_end {
                    covered[it * n_phi + ip] += 1;
                }
            }
        }
        // Exactly partitioned: every scanline in exactly one tile.
        prop_assert!(
            covered.iter().all(|&c| c == 1),
            "fan {}x{} target {}: coverage {:?}",
            n_theta, n_phi, target_tiles, covered
        );
        // And the slot enumeration agrees with the partition.
        for tile in schedule.tiles() {
            let mut slots: Vec<usize> = tile.iter_scanlines().map(|(s, _, _)| s).collect();
            slots.sort_unstable();
            prop_assert_eq!(slots, (0..tile.scanlines()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn steering_correction_antisymmetric_across_fan(
        it in 0usize..8,
        ip in 0usize..8,
        id in 0usize..16,
        e_pick in 0usize..64,
    ) {
        // Mirroring both the steering line and the element through the
        // array centre leaves the steered delay unchanged — the symmetry
        // TABLESTEER's folded storage exploits.
        let f = fixture();
        let v = &f.spec.volume_grid;
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        let m = usbf_geometry::ElementIndex::new(7 - e.ix, 7 - e.iy);
        let vox = VoxelIndex::new(it, ip, id);
        let mvox = VoxelIndex::new(v.n_theta() - 1 - it, v.n_phi() - 1 - ip, id);
        let a = f.tablesteer.float_delay_samples(vox, e);
        let b = f.tablesteer.float_delay_samples(mvox, m);
        prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
    }
}
