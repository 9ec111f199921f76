//! The single-probe workloads (`volume-1tx`, `cpwc-16`): one
//! `FramePipeline` over a `FrameRing` of seeded speckle frames, driven
//! from one thread in a closed loop.

use crate::alloc;
use crate::layers::{self, LayerInputs};
use crate::report::{EndToEnd, Metrics, SetupTimes};
use crate::stats::{self, Latency, Slice, Slicer};
use crate::trace::Tracer;
use crate::workload::{self, Engine, EngineKind, Oracle};
use crate::{RunResult, Tally};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use usbf_beamform::{Beamformer, FramePipeline, FrameRing};
use usbf_core::{NappeSchedule, Tile};
use usbf_geometry::SystemSpec;
use usbf_par::ThreadPool;
use usbf_sim::RfFrame;

/// The shape of a single-pipeline workload.
#[derive(Debug, Clone)]
pub struct PipelineShape {
    /// The system spec.
    pub spec: SystemSpec,
    /// The delay engine.
    pub kind: EngineKind,
    /// Frames in the replayed ring.
    pub ring: usize,
    /// Speckle scatterers per frame.
    pub scatterers: usize,
    /// Voxels the output check compares per frame (0: all).
    pub check_voxels: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Warm-up frames after set-up, before timing.
    pub warmup_frames: usize,
    /// (voxel, element, transmit) triples behind `sel_err_mean`.
    pub sel_err_triples: usize,
}

impl PipelineShape {
    /// `volume-1tx`: the reduced spec (32×32 elements, 32×32×128
    /// voxels), one point-source transmit, TABLEFREE.
    pub fn volume_1tx() -> Self {
        PipelineShape {
            spec: SystemSpec::reduced(),
            kind: EngineKind::TableFree,
            ring: 2,
            scatterers: 1500,
            check_voxels: 64,
            setup_reps: 3,
            warmup_frames: 1,
            sel_err_triples: 400_000,
        }
    }

    /// `cpwc-16`: `usbf_bench::cpwc_spec(16)`, 16 plane waves over ±10°
    /// on 8×8 elements, TABLESTEER-18b.
    pub fn cpwc_16() -> Self {
        PipelineShape {
            spec: usbf_bench::cpwc_spec(16),
            kind: EngineKind::TableSteer18,
            ring: 2,
            scatterers: 300,
            check_voxels: 256,
            setup_reps: 15,
            warmup_frames: 20,
            sel_err_triples: 400_000,
        }
    }

    /// The beamformer every path of the workload uses: Hann
    /// apodization, nearest-index fetch, no post-chain.
    pub fn beamformer(&self) -> Beamformer {
        Beamformer::new(&self.spec)
    }

    /// The pool-fitted schedule (`workers × 4` tiles), as
    /// `FramePipeline::new` would fit it.
    pub fn schedule(&self) -> NappeSchedule {
        NappeSchedule::fitted(&self.spec, crate::WORKERS * 4)
    }
}

/// Generated inputs: the ring frames, one ring per set-up, and the
/// oracle for each ring frame.
pub struct Inputs {
    /// The ring's frames.
    pub frames: Vec<RfFrame>,
    /// One ring per planned set-up (a pipeline consumes its source).
    pub rings: Vec<FrameRing>,
    /// Expected values per ring frame.
    pub oracles: Vec<Oracle>,
}

/// Seed of ring frame `k` for run seed `seed`.
pub fn frame_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

/// Generates `shape`'s inputs for `seed`, with `rings` replay rings.
pub fn generate(shape: &PipelineShape, seed: u64, rings: usize) -> Inputs {
    let frames: Vec<RfFrame> = (0..shape.ring)
        .map(|k| workload::speckle_frame(&shape.spec, shape.scatterers, frame_seed(seed, k)))
        .collect();
    let bf = shape.beamformer();
    let oracle_engine = shape.kind.build(&shape.spec);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0AC1E);
    let voxels = if shape.check_voxels == 0 {
        workload::all_voxels(&shape.spec)
    } else {
        workload::sample_voxels(&shape.spec, shape.check_voxels, &mut rng)
    };
    let oracles = frames
        .iter()
        .map(|rf| Oracle::raw(&bf, oracle_engine.dyn_engine.as_ref(), rf, voxels.clone()))
        .collect();
    let rings = (0..rings).map(|_| FrameRing::new(frames.clone())).collect();
    Inputs {
        frames,
        rings,
        oracles,
    }
}

/// A set-up pipeline and its bookkeeping.
pub struct Live {
    /// The pipeline.
    pub pipe: FramePipeline,
    /// Its engine's counters.
    pub engine: Engine,
    /// Frames submitted so far (selects the ring frame of the next).
    pub submits: u64,
}

/// Builds the engine and pipeline and produces the first volume.
pub fn setup(
    shape: &PipelineShape,
    ring: FrameRing,
    pool: &Arc<ThreadPool>,
    oracles: &[Oracle],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Live, SetupTimes) {
    let bf = shape.beamformer();
    let schedule = shape.schedule();
    let root = tracer.begin("setup");
    let t0 = Instant::now();
    let g = tracer.begin("setup.engine");
    let engine = shape.kind.build(&shape.spec);
    tracer.end(g);
    let t1 = Instant::now();
    let g = tracer.begin("setup.pipeline");
    let mut pipe = FramePipeline::with_pool(
        bf,
        Arc::clone(&engine.dyn_engine),
        ring,
        Arc::clone(pool),
        &schedule,
    );
    tracer.end(g);
    let t2 = Instant::now();
    let g = tracer.begin("setup.first_volume");
    tally.attempted += 1;
    tally.failed += match pipe.next_volume() {
        Ok(vol) => u64::from(oracles[0].mismatches(vol) > 0),
        Err(_) => 1,
    };
    tracer.end(g);
    let t3 = Instant::now();
    tracer.end(root);
    let times = SetupTimes {
        engine_s: (t1 - t0).as_secs_f64(),
        pipeline_s: (t2 - t1).as_secs_f64(),
        first_volume_s: (t3 - t2).as_secs_f64(),
        total_s: (t3 - t0).as_secs_f64(),
    };
    let live = Live {
        pipe,
        engine,
        submits: 1,
    };
    (live, times)
}

/// What one timed window measured.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Submit-to-volume latency of every completed frame, ms.
    pub latencies_ms: Vec<f64>,
    /// Frames submitted.
    pub attempted: u64,
    /// Check failures and pipeline errors.
    pub failed: u64,
    /// The window's sub-windows.
    pub slices: Vec<Slice>,
    /// Share of machine CPU time stolen by the hypervisor.
    pub steal: Option<f64>,
    /// Allocation calls.
    pub allocs: u64,
    /// `ThreadPool::steal_count` delta.
    pub steals: u64,
    /// `TableSteerEngine::clamp_events` delta.
    pub clamps: u64,
    /// `TableFreeEngine::sqrt_evals` delta.
    pub sqrt_evals: u64,
    /// `PipelineStats::acquire_wait` delta, s.
    pub acquire_wait_s: f64,
    /// `PipelineStats::wall` delta, s.
    pub stats_wall_s: f64,
    /// Span index where the window's spans start.
    pub span_mark: usize,
}

impl Window {
    /// Completed volumes.
    pub fn volumes(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// The window's end-to-end inputs, with the run's set-ups, peak heap,
    /// selection error and tally.
    fn end_to_end<'a>(
        &'a self,
        setups: &'a [SetupTimes],
        peak_heap_bytes: usize,
        sel_err: (f64, usize),
        tally: Tally,
    ) -> EndToEnd<'a> {
        EndToEnd {
            latencies_ms: &self.latencies_ms,
            slices: &self.slices,
            steal: self.steal,
            setups,
            peak_heap_bytes,
            sel_err,
            tally,
        }
    }
}

/// Runs frames in a closed loop until `seconds` have passed (at least
/// one frame), checking every volume against its ring frame's oracle.
/// Nothing in the loop allocates, so `allocs` counts the program's own.
pub fn run_window(
    live: &mut Live,
    pool: &ThreadPool,
    oracles: &[Oracle],
    tracer: &mut Tracer,
    seconds: f64,
    tally: &mut Tally,
) -> Window {
    let mut w = Window {
        latencies_ms: Vec::with_capacity(1 << 18),
        span_mark: tracer.mark(),
        ..Window::default()
    };
    let stats0 = live.pipe.stats();
    let steals0 = pool.steal_count();
    let clamps0 = live.engine.counters.clamps();
    let sqrt0 = live.engine.counters.sqrt_evals();
    let allocs0 = alloc::alloc_calls();
    let mut slicer = Slicer::new(seconds);
    loop {
        let ring_frame = (live.submits % oracles.len() as u64) as usize;
        tracer.set_frame(live.submits);
        live.submits += 1;
        w.attempted += 1;
        let root = tracer.begin("frame");
        let t0 = Instant::now();
        let g = tracer.begin("pipeline.submit");
        let submitted = live.pipe.submit();
        tracer.end(g);
        match submitted {
            Ok(ticket) => {
                let g = tracer.begin("pipeline.wait");
                let done = ticket.wait();
                let latency = t0.elapsed();
                tracer.end(g);
                match done {
                    Ok(vol) => {
                        w.latencies_ms.push(latency.as_secs_f64() * 1e3);
                        let g = tracer.begin("check.oracle");
                        if oracles[ring_frame].mismatches(vol) > 0 {
                            w.failed += 1;
                        }
                        tracer.end(g);
                    }
                    Err(_) => w.failed += 1,
                }
            }
            Err(_) => w.failed += 1,
        }
        tracer.end(root);
        if slicer.tick(w.latencies_ms.len(), w.volumes()) {
            break;
        }
    }
    w.allocs = alloc::alloc_calls() - allocs0;
    (w.slices, w.steal) = slicer.finish();
    let stats1 = live.pipe.stats();
    w.steals = pool.steal_count() - steals0;
    w.clamps = live.engine.counters.clamps() - clamps0;
    w.sqrt_evals = live.engine.counters.sqrt_evals() - sqrt0;
    w.acquire_wait_s = (stats1.acquire_wait - stats0.acquire_wait).as_secs_f64();
    w.stats_wall_s = (stats1.wall - stats0.wall).as_secs_f64();
    tally.attempted += w.attempted;
    tally.failed += w.failed;
    w
}

/// Frames run untimed after set-up, each checked like a timed one.
pub fn warm_up(live: &mut Live, oracles: &[Oracle], frames: usize, tally: &mut Tally) {
    for _ in 0..frames {
        let oracle = &oracles[(live.submits % oracles.len() as u64) as usize];
        live.submits += 1;
        tally.attempted += 1;
        tally.failed += match live.pipe.next_volume() {
            Ok(vol) => u64::from(oracle.mismatches(vol) > 0),
            Err(_) => 1,
        };
    }
}

/// Records the traced window's `pipeline`, `par` and counter metrics.
fn record_traced_window(m: &mut Metrics, w: &Window, tracer: &Tracer) {
    let volumes = w.volumes().max(1);
    let v = volumes as f64;
    let submits = tracer.durations_ms(w.span_mark, "pipeline.submit");
    let waits = tracer.durations_ms(w.span_mark, "pipeline.wait");
    m.set(
        "pipeline.submit_us",
        stats::median(&submits) * 1e3,
        submits.len() as u64,
        "median span",
    );
    m.set(
        "pipeline.wait_ms",
        stats::median(&waits),
        waits.len() as u64,
        "median span",
    );
    m.set(
        "pipeline.acquire_wait_ms",
        w.acquire_wait_s * 1e3 / v,
        volumes,
        "PipelineStats delta per volume",
    );
    m.set(
        "pipeline.overlap_frac",
        1.0 - (w.acquire_wait_s / w.stats_wall_s).min(1.0),
        volumes,
        "PipelineStats delta",
    );
    m.set(
        "par.steals_per_volume",
        w.steals as f64 / v,
        volumes,
        "ThreadPool::steal_count delta",
    );
    m.set(
        "core.clamps_per_volume",
        w.clamps as f64 / v,
        volumes,
        "clamp_events delta",
    );
    m.set(
        "core.sqrt_evals_per_volume",
        w.sqrt_evals as f64 / v,
        volumes,
        "sqrt_evals delta",
    );
}

/// `sel_err_mean` of the workload's engine.
fn sel_err(shape: &PipelineShape, seed: u64) -> (f64, usize) {
    let engine = shape.kind.build(&shape.spec);
    workload::selection_error_mean(
        &shape.spec,
        &[engine.dyn_engine.as_ref()],
        shape.sel_err_triples,
        seed,
    )
}

/// The `config` line: workload, engine, sizes, RF working set vs LLC.
pub fn config_line(name: &str, shape: &PipelineShape, rf: &RfFrame) -> String {
    let g = &shape.spec.volume_grid;
    format!(
        "config workload={name} engine={} elements={}x{} voxels={}x{}x{}={} transmits={} tiles={} ring={} scatterers={} rf_frame_mb={:.1} ({})",
        shape.kind.name(),
        shape.spec.elements.nx(),
        shape.spec.elements.ny(),
        g.n_theta(),
        g.n_phi(),
        g.n_depth(),
        g.voxel_count(),
        shape.spec.n_transmits(),
        shape.schedule().tiles().len(),
        shape.ring,
        shape.scatterers,
        layers::rf_bytes(rf) as f64 / 1e6,
        layers::llc_note()
    )
}

/// Runs the workload: the untraced run measures the end-to-end metrics;
/// the traced run measures the per-layer metrics and the tracing
/// overhead.
pub fn run(name: &str, shape: &PipelineShape, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let pool = Arc::new(ThreadPool::new(crate::WORKERS));
    let mut inputs = generate(shape, seed, shape.setup_reps);
    println!("{}", config_line(name, shape, &inputs.frames[0]));
    let mut tracer = Tracer::new(trace, 1 << 18);
    let mut out = RunResult::default();
    let mut tally = Tally::default();

    // Set-ups. The traced run alternates untraced and traced set-ups so
    // their medians give the set-up tracing overhead.
    let baseline = alloc::live_bytes();
    alloc::reset_peak();
    let mut setups: [Vec<SetupTimes>; 2] = [Vec::new(), Vec::new()];
    let mut live = None;
    for (rep, ring) in inputs.rings.drain(..).enumerate() {
        drop(live.take());
        let traced = trace && rep % 2 == 1;
        tracer.set_enabled(traced);
        let (l, times) = setup(shape, ring, &pool, &inputs.oracles, &mut tracer, &mut tally);
        setups[usize::from(traced)].push(times);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    tracer.set_enabled(false);
    warm_up(&mut live, &inputs.oracles, shape.warmup_frames, &mut tally);

    if !trace {
        let w = run_window(
            &mut live,
            &pool,
            &inputs.oracles,
            &mut tracer,
            seconds,
            &mut tally,
        );
        let peak = alloc::peak_bytes().saturating_sub(baseline);
        let sel = sel_err(shape, seed);
        out.metrics
            .record_end_to_end(&w.end_to_end(&setups[0], peak, sel, tally));
    } else {
        // Untraced and traced windows of half the run each, on the
        // same warm pipeline.
        let half = seconds / 2.0;
        let untraced = run_window(
            &mut live,
            &pool,
            &inputs.oracles,
            &mut tracer,
            half,
            &mut tally,
        );
        let peak_u = alloc::peak_bytes().saturating_sub(baseline);
        alloc::reset_peak();
        tracer.set_enabled(true);
        let traced = run_window(
            &mut live,
            &pool,
            &inputs.oracles,
            &mut tracer,
            half,
            &mut tally,
        );
        let peak_t = alloc::peak_bytes().saturating_sub(baseline).max(peak_u);
        let sel = sel_err(shape, seed);
        let mut u = Metrics::default();
        u.record_end_to_end(&untraced.end_to_end(&setups[0], peak_u, sel, tally));
        let mut t = Metrics::default();
        t.record_end_to_end(&traced.end_to_end(&setups[1], peak_t, sel, tally));
        out.overhead = Some((u, t));

        let m = &mut out.metrics;
        record_traced_window(m, &traced, &tracer);
        m.set(
            "pipeline.allocs_per_volume",
            untraced.allocs as f64 / untraced.volumes().max(1) as f64,
            untraced.volumes(),
            "counting allocator over warm frames",
        );
        m.record_setup_layers(&setups[1]);

        // Single-thread layer timings on a fresh engine instance.
        let layer_root = tracer.begin("layers");
        let schedule = shape.schedule();
        let tiles: Vec<Tile> = schedule.tiles();
        let bf = shape.beamformer();
        let engine = shape.kind.build(&shape.spec);
        let x = LayerInputs {
            spec: &shape.spec,
            bf: &bf,
            engine: engine.dyn_engine.as_ref(),
            rf: &inputs.frames[0],
            tiles: &tiles,
        };
        let e = layers::engine_layers(&x, &mut tracer);
        layers::record_engine_layers(m, &shape.spec, &bf, &inputs.frames[0], &e, 1);
        m.set(
            "core.table_mb",
            engine.counters.table_bytes() as f64 / 1e6,
            1,
            "engine storage",
        );
        m.set(
            "sim.copy_ms_per_frame",
            layers::copy_ms_per_frame(&inputs.frames[0], &mut tracer),
            5,
            "median of 5 copies",
        );
        m.set(
            "par.dispatch_us",
            layers::dispatch_us(&pool, tiles.len(), &mut tracer),
            5,
            format!("no-op run of {} tasks", tiles.len()),
        );
        let mut lat = traced.latencies_ms.clone();
        let frame_s = Latency::of(&mut lat).p50 / 1e3;
        m.set(
            "par.busy_frac",
            e.volume_tile_s / (crate::WORKERS as f64 * frame_s),
            tiles.len() as u64,
            "single-thread tile time / (workers x frame p50)",
        );
        tracer.end(layer_root);
    }
    drop(live);
    out.tally = tally;
    out.tracer = Some(tracer);
    out
}
