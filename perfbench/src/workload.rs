//! Workload inputs: engines, seeded speckle frames, the churn schedule,
//! the output check against the scalar oracle, and the selection-error
//! sample.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use usbf_beamform::{BeamformedVolume, Beamformer, PostChain};
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, TableFreeConfig, TableFreeEngine, TableSteerConfig,
    TableSteerEngine,
};
use usbf_geometry::{SystemSpec, Vec3, VoxelIndex};
use usbf_sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

/// The four delay architectures of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EngineKind {
    /// Double-precision reference.
    Exact,
    /// Fully precomputed table.
    NaiveTable,
    /// Table-free PWL square roots (`TableFreeConfig::paper()`).
    TableFree,
    /// Steered reference table, 18-bit (`TableSteerConfig::bits18()`).
    TableSteer18,
}

impl EngineKind {
    /// Every kind, in the order above.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Exact,
        EngineKind::NaiveTable,
        EngineKind::TableFree,
        EngineKind::TableSteer18,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Exact => "EXACT",
            EngineKind::NaiveTable => "NAIVE-TABLE",
            EngineKind::TableFree => "TABLEFREE",
            EngineKind::TableSteer18 => "TABLESTEER-18b",
        }
    }

    /// Constructs the engine for `spec` — the first call into the
    /// program in every set-up.
    pub fn build(self, spec: &SystemSpec) -> Engine {
        match self {
            EngineKind::Exact => Engine::plain(Arc::new(ExactEngine::new(spec))),
            EngineKind::NaiveTable => {
                let e = Arc::new(
                    NaiveTableEngine::build(spec, u64::MAX).expect("benchmark table fits in RAM"),
                );
                Engine {
                    dyn_engine: e.clone(),
                    counters: Counters::Naive(e),
                }
            }
            EngineKind::TableFree => {
                let e = Arc::new(
                    TableFreeEngine::new(spec, TableFreeConfig::paper())
                        .expect("paper TABLEFREE config builds"),
                );
                Engine {
                    dyn_engine: e.clone(),
                    counters: Counters::TableFree(e),
                }
            }
            EngineKind::TableSteer18 => {
                let e = Arc::new(
                    TableSteerEngine::new(spec, TableSteerConfig::bits18())
                        .expect("18-bit TABLESTEER config builds"),
                );
                Engine {
                    dyn_engine: e.clone(),
                    counters: Counters::TableSteer(e),
                }
            }
        }
    }
}

/// A built engine: the shared trait object the runtime takes, plus a
/// typed handle on the same engine for its counters.
pub struct Engine {
    /// What pipelines and shards are built with.
    pub dyn_engine: Arc<dyn DelayEngine + Send + Sync>,
    /// Typed access to the same engine's counters and table size.
    pub counters: Counters,
}

impl Engine {
    fn plain(e: Arc<dyn DelayEngine + Send + Sync>) -> Self {
        Engine {
            dyn_engine: e,
            counters: Counters::None,
        }
    }
}

/// The engine-specific counters and storage a workload reads.
pub enum Counters {
    /// EXACT: no counters, no table.
    None,
    /// NAIVE-TABLE: a table, no counters.
    Naive(Arc<NaiveTableEngine>),
    /// TABLEFREE: the square-root evaluation counter.
    TableFree(Arc<TableFreeEngine>),
    /// TABLESTEER: the clamp counter and two tables.
    TableSteer(Arc<TableSteerEngine>),
}

impl Counters {
    /// `TableSteerEngine::clamp_events` (0 for other engines).
    pub fn clamps(&self) -> u64 {
        match self {
            Counters::TableSteer(e) => e.clamp_events(),
            _ => 0,
        }
    }

    /// `TableFreeEngine::sqrt_evals` (0 for other engines).
    pub fn sqrt_evals(&self) -> u64 {
        match self {
            Counters::TableFree(e) => e.sqrt_evals(),
            _ => 0,
        }
    }

    /// Delay-table bytes: `NaiveTableEngine::storage_bytes`, or the
    /// reference plus steering bits of `TableSteerEngine::storage_bits`.
    pub fn table_bytes(&self) -> u64 {
        match self {
            Counters::Naive(e) => e.storage_bytes(),
            Counters::TableSteer(e) => {
                let (reference, steering) = e.storage_bits();
                (reference + steering).div_ceil(8)
            }
            _ => 0,
        }
    }
}

/// One seeded speckle frame: `scatterers` unit-mean scatterers spread
/// uniformly over the bounding box of the spec's focal grid.
pub fn speckle_frame(spec: &SystemSpec, scatterers: usize, seed: u64) -> RfFrame {
    let g = &spec.volume_grid;
    let mut lo = Vec3::new(f64::MAX, f64::MAX, f64::MAX);
    let mut hi = Vec3::new(f64::MIN, f64::MIN, f64::MIN);
    for it in 0..g.n_theta() {
        for ip in 0..g.n_phi() {
            for id in [0, g.n_depth() - 1] {
                let p = g.position(VoxelIndex::new(it, ip, id));
                lo = Vec3::new(lo.x.min(p.x), lo.y.min(p.y), lo.z.min(p.z));
                hi = Vec3::new(hi.x.max(p.x), hi.y.max(p.y), hi.z.max(p.z));
            }
        }
    }
    let phantom = Phantom::speckle(scatterers, lo, hi, seed);
    EchoSynthesizer::new(spec).synthesize(&phantom, &Pulse::from_spec(spec))
}

/// Relative tolerance of the output check. A value computed with its
/// terms summed in another order differs from the oracle by about
/// `active elements × 2⁻⁵³` of the summed magnitudes (≈ 1e-13 at 900
/// elements); one sample fetched at a wrong delay index changes it by a
/// whole weighted sample difference, orders of magnitude above 1e-9.
pub const CHECK_REL_TOL: f64 = 1e-9;

/// The scalar oracle for one voxel: `Beamformer::beamform_voxel_for`
/// per transmit, weighted by `SystemSpec::transmit_weight` (masked
/// transmits skipped), on raw delay-and-sum values.
pub fn oracle_voxel(
    bf: &Beamformer,
    engine: &dyn DelayEngine,
    rf: &RfFrame,
    vox: VoxelIndex,
) -> f64 {
    let spec = bf.spec();
    if spec.is_single_point_source() {
        return bf.beamform_voxel_for(engine, rf, 0, vox);
    }
    let s = spec.volume_grid.position(vox);
    let mut acc = 0.0;
    for tx in 0..spec.n_transmits() {
        let m = spec.transmit_weight(tx, s);
        if m != 0.0 {
            acc += m * bf.beamform_voxel_for(engine, rf, tx, vox);
        }
    }
    acc
}

/// The absolute tolerance for `vox`: [`CHECK_REL_TOL`] times a bound
/// on the summed term magnitudes, `Σ|w| · max|rf| · Σ_tx m_tx`.
pub fn oracle_tolerance(bf: &Beamformer, rf_max_abs: f64, vox: VoxelIndex) -> f64 {
    let spec = bf.spec();
    let w: f64 = bf.aperture().weights().iter().map(|w| w.abs()).sum();
    let s = spec.volume_grid.position(vox);
    let m: f64 = (0..spec.n_transmits())
        .map(|tx| spec.transmit_weight(tx, s).abs())
        .sum();
    CHECK_REL_TOL * w * rf_max_abs * m.max(1.0)
}

/// Expected values at a set of voxels of one frame, with tolerances.
#[derive(Debug, Clone)]
pub struct Oracle {
    voxels: Vec<VoxelIndex>,
    expected: Vec<f64>,
    tolerance: Vec<f64>,
}

impl Oracle {
    /// The raw oracle at `voxels` of `rf`.
    pub fn raw(
        bf: &Beamformer,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        voxels: Vec<VoxelIndex>,
    ) -> Self {
        let max_abs = rf.max_abs();
        let expected = voxels
            .iter()
            .map(|&v| oracle_voxel(bf, engine, rf, v))
            .collect();
        let tolerance = voxels
            .iter()
            .map(|&v| oracle_tolerance(bf, max_abs, v))
            .collect();
        Oracle {
            voxels,
            expected,
            tolerance,
        }
    }

    /// The whole volume through the oracle, then through `post` (the
    /// chain's whole-volume reference pass). Tolerances are
    /// [`CHECK_REL_TOL`] relative to each post-processed value.
    pub fn post_processed(
        bf: &Beamformer,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        post: &PostChain,
    ) -> Self {
        let spec = bf.spec();
        let mut vol = BeamformedVolume::zeros(spec);
        let voxels = all_voxels(spec);
        for &v in &voxels {
            vol.set(v, oracle_voxel(bf, engine, rf, v));
        }
        post.apply_volume(&mut vol);
        let expected: Vec<f64> = voxels.iter().map(|&v| vol.get(v)).collect();
        let tolerance = expected
            .iter()
            .map(|e| CHECK_REL_TOL * (1.0 + e.abs()))
            .collect();
        Oracle {
            voxels,
            expected,
            tolerance,
        }
    }

    /// Voxels of `vol` outside tolerance (non-finite values count).
    pub fn mismatches(&self, vol: &BeamformedVolume) -> usize {
        self.voxels
            .iter()
            .zip(&self.expected)
            .zip(&self.tolerance)
            .filter(|((&v, &e), &t)| {
                let got = vol.get(v);
                !(got.is_finite() && (got - e).abs() <= t)
            })
            .count()
    }
}

/// `n` seeded voxels of `spec`'s grid.
pub fn sample_voxels(spec: &SystemSpec, n: usize, rng: &mut StdRng) -> Vec<VoxelIndex> {
    let g = &spec.volume_grid;
    (0..n)
        .map(|_| g.voxel_at(rng.random_range(0..g.voxel_count())))
        .collect()
}

/// Every voxel of `spec`'s grid, in linear order.
pub fn all_voxels(spec: &SystemSpec) -> Vec<VoxelIndex> {
    let g = &spec.volume_grid;
    (0..g.voxel_count()).map(|i| g.voxel_at(i)).collect()
}

/// Mean |delay index − EXACT's index| over `n` seeded (voxel, element,
/// transmit) triples per engine, via `DelayEngine::delay_index_for`.
/// Returns the mean and the number of triples.
pub fn selection_error_mean(
    spec: &SystemSpec,
    engines: &[&dyn DelayEngine],
    n: usize,
    seed: u64,
) -> (f64, usize) {
    let exact = ExactEngine::new(spec);
    let g = &spec.volume_grid;
    let n_elements = spec.elements.count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1E_C7ED);
    let mut sum = 0u64;
    let mut count = 0usize;
    for engine in engines {
        for _ in 0..n {
            let vox = g.voxel_at(rng.random_range(0..g.voxel_count()));
            let e = spec.elements.element_at(rng.random_range(0..n_elements));
            let tx = rng.random_range(0..spec.n_transmits());
            let got = engine.delay_index_for(tx, vox, e);
            let want = exact.delay_index_for(tx, vox, e);
            sum += got.abs_diff(want);
            count += 1;
        }
    }
    (sum as f64 / count.max(1) as f64, count)
}

/// One churn step of `fleet-churn`: which live shard leaves (a position
/// in the live-id list) and what the replacement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnStep {
    /// Position of the detached shard among the live ids.
    pub victim: usize,
    /// Engine of the attached shard.
    pub kind: EngineKind,
    /// Which generated frame the attached shard's ring replays.
    pub frame: usize,
}

/// The seeded churn schedule: an endless sequence of [`ChurnStep`]s.
#[derive(Debug, Clone)]
pub struct ChurnSchedule {
    rng: StdRng,
    live: usize,
    frames: usize,
}

impl ChurnSchedule {
    /// The schedule for `seed` over a fleet of `live` shards replaying
    /// one of `frames` generated frames each.
    pub fn new(seed: u64, live: usize, frames: usize) -> Self {
        ChurnSchedule {
            rng: StdRng::seed_from_u64(seed ^ 0xC4_0C4E),
            live,
            frames,
        }
    }
}

impl Iterator for ChurnSchedule {
    type Item = ChurnStep;

    fn next(&mut self) -> Option<ChurnStep> {
        Some(ChurnStep {
            victim: self.rng.random_range(0..self.live),
            kind: EngineKind::ALL[self.rng.random_range(0..EngineKind::ALL.len())],
            frame: self.rng.random_range(0..self.frames),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_tolerance_passes_reassociation_and_fails_a_wrong_index() {
        let spec = SystemSpec::tiny();
        let bf = Beamformer::new(&spec);
        let rf = speckle_frame(&spec, 200, 3);
        let engine = ExactEngine::new(&spec);
        let g = &spec.volume_grid;
        let vox = VoxelIndex::new(g.n_theta() / 2, g.n_phi() / 2, g.n_depth() / 2);
        let tol = oracle_tolerance(&bf, rf.max_abs(), vox);
        let want = oracle_voxel(&bf, &engine, &rf, vox);

        // The same terms summed backwards (a reassociated sum) passes.
        let nx = spec.elements.nx();
        let terms: Vec<f64> = bf
            .aperture()
            .channels()
            .iter()
            .zip(bf.aperture().weights())
            .map(|(&c, &w)| {
                let e = usbf_geometry::ElementIndex::new(c as usize % nx, c as usize / nx);
                w * rf.sample_for(0, e, engine.delay_index_for(0, vox, e))
            })
            .collect();
        let backwards: f64 = terms.iter().rev().sum();
        assert!((backwards - want).abs() <= tol);

        // One element fetched one sample late fails, on the elements
        // whose trace changes between the two samples.
        let mut failed = 0;
        for (k, (&c, &w)) in bf
            .aperture()
            .channels()
            .iter()
            .zip(bf.aperture().weights())
            .enumerate()
        {
            let e = usbf_geometry::ElementIndex::new(c as usize % nx, c as usize / nx);
            let idx = engine.delay_index_for(0, vox, e);
            let late = w * rf.sample_for(0, e, idx + 1);
            if late == terms[k] {
                continue;
            }
            let wrong = want - terms[k] + late;
            assert!((wrong - want).abs() > tol, "element {k}");
            failed += 1;
        }
        assert!(failed > 0, "speckle must reach the checked voxel");
    }

    #[test]
    fn same_seed_same_rf_bytes() {
        let spec = SystemSpec::tiny();
        let a = speckle_frame(&spec, 100, 11);
        let b = speckle_frame(&spec, 100, 11);
        let c = speckle_frame(&spec, 100, 12);
        let bytes = |rf: &RfFrame| -> Vec<u64> {
            spec.elements
                .iter()
                .flat_map(|e| rf.trace(e).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        assert!(a.max_abs() > 0.0);
    }

    #[test]
    fn same_seed_same_churn_schedule() {
        let a: Vec<ChurnStep> = ChurnSchedule::new(5, 8, 4).take(64).collect();
        let b: Vec<ChurnStep> = ChurnSchedule::new(5, 8, 4).take(64).collect();
        let c: Vec<ChurnStep> = ChurnSchedule::new(6, 8, 4).take(64).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|s| s.victim < 8 && s.frame < 4));
    }

    #[test]
    fn selection_error_of_exact_is_zero() {
        let spec = SystemSpec::tiny();
        let exact = ExactEngine::new(&spec);
        let (mean, n) = selection_error_mean(&spec, &[&exact], 500, 1);
        assert_eq!((mean, n), (0.0, 500));
        let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        let (mean, _) = selection_error_mean(&spec, &[&tf], 5000, 1);
        assert!(mean > 0.0 && mean < 1.0, "{mean}");
    }
}
