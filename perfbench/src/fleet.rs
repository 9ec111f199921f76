//! The `fleet-churn` workload: one `ShardedRuntime` of tiny-spec
//! shards under a seeded attach/detach schedule, driven round by round
//! from one thread in a closed loop.

use crate::alloc;
use crate::layers::{self, LayerInputs};
use crate::report::{EndToEnd, Metrics, SetupTimes};
use crate::stats::{self, Latency, Slice, Slicer};
use crate::trace::Tracer;
use crate::workload::{self, ChurnSchedule, Counters, EngineKind, Oracle};
use crate::{RunResult, Tally};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use usbf_beamform::{
    shard_fitted_schedule, Beamformer, BmodeConfig, PostChain, PostScratch, ProjectionAxis,
    RuntimeBudget, ShardConfig, ShardId, ShardRound, ShardedRuntime, TileState,
};
use usbf_core::Tile;
use usbf_geometry::SystemSpec;
use usbf_par::ThreadPool;
use usbf_sim::RfFrame;

/// The shape of the fleet workload.
#[derive(Debug, Clone)]
pub struct FleetShape {
    /// Every shard's spec.
    pub spec: SystemSpec,
    /// Live shards (constant: each churn detaches one and attaches one).
    pub shards: usize,
    /// `RuntimeBudget::max_in_flight`, below `shards` so the fair
    /// deferral window runs every round.
    pub in_flight: usize,
    /// Rounds between churn steps.
    pub churn_every: u64,
    /// Generated frames shards replay from.
    pub frames: usize,
    /// Speckle scatterers per frame.
    pub scatterers: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Untimed rounds after set-up.
    pub warmup_rounds: usize,
    /// Triples per engine behind `sel_err_mean`.
    pub sel_err_triples: usize,
}

impl FleetShape {
    /// `fleet-churn`: 8 tiny shards (EXACT, NAIVE-TABLE, TABLEFREE,
    /// TABLESTEER-18b, two of each, every other one with the B-mode
    /// chain), 6 frames in flight per round, churn every 4 rounds.
    pub fn fleet_churn() -> Self {
        FleetShape {
            spec: SystemSpec::tiny(),
            shards: 8,
            in_flight: 6,
            churn_every: 4,
            frames: 4,
            scatterers: 200,
            setup_reps: 11,
            warmup_rounds: 20,
            sel_err_triples: 100_000,
        }
    }

    /// The beamformer of a shard, with or without the B-mode chain.
    pub fn beamformer(&self, post: bool) -> Beamformer {
        let bf = Beamformer::new(&self.spec);
        if post {
            bf.with_postproc(bmode(&self.spec))
        } else {
            bf
        }
    }

    /// The budget: room for every shard, fewer frames in flight.
    pub fn budget(&self) -> RuntimeBudget {
        RuntimeBudget {
            max_live_shards: self.shards,
            max_in_flight: self.in_flight,
            max_round_voxels: None,
        }
    }

    /// Engine and chain of initial shard `i`: two of each engine, the
    /// second of each pair with the B-mode chain.
    pub fn initial(&self, i: usize) -> (EngineKind, bool) {
        (EngineKind::ALL[(i / 2) % EngineKind::ALL.len()], i % 2 == 1)
    }
}

fn bmode(spec: &SystemSpec) -> PostChain {
    PostChain::bmode(BmodeConfig::from_spec(spec))
}

/// Generated inputs: frames and, per (engine, frame, chain), the
/// expected volume.
pub struct Inputs {
    /// The frames shards replay, shared by every shard's source.
    pub frames: Vec<Arc<RfFrame>>,
    /// `oracles[kind][frame][post]`, over every voxel.
    pub oracles: Vec<Vec<[Oracle; 2]>>,
}

/// Generates the fleet's inputs for `seed`.
pub fn generate(shape: &FleetShape, seed: u64) -> Inputs {
    let frames: Vec<RfFrame> = (0..shape.frames)
        .map(|k| {
            workload::speckle_frame(
                &shape.spec,
                shape.scatterers,
                crate::pipeline::frame_seed(seed, k),
            )
        })
        .collect();
    let raw = shape.beamformer(false);
    let chain = bmode(&shape.spec);
    let voxels = workload::all_voxels(&shape.spec);
    let oracles = EngineKind::ALL
        .iter()
        .map(|kind| {
            let engine = kind.build(&shape.spec);
            let e = engine.dyn_engine.as_ref();
            frames
                .iter()
                .map(|rf| {
                    [
                        Oracle::raw(&raw, e, rf, voxels.clone()),
                        Oracle::post_processed(&raw, e, rf, &chain),
                    ]
                })
                .collect()
        })
        .collect();
    Inputs {
        frames: frames.into_iter().map(Arc::new).collect(),
        oracles,
    }
}

/// What the benchmark knows about a live shard.
struct Shard {
    id: ShardId,
    kind: EngineKind,
    post: bool,
    frame: usize,
    counters: Counters,
    /// Counter readings and completed frames when accounting started.
    clamps0: u64,
    sqrt0: u64,
    frames0: u64,
}

/// A shard's config: its beamformer, a freshly built engine and a source
/// replaying one generated frame.
fn config(
    shape: &FleetShape,
    kind: EngineKind,
    post: bool,
    frame: &Arc<RfFrame>,
    tracer: &mut Tracer,
) -> (ShardConfig, Counters) {
    let g = tracer.begin("core.engine_new");
    let engine = kind.build(&shape.spec);
    tracer.end(g);
    let frame = Arc::clone(frame);
    let source = move |out: &mut RfFrame| out.copy_from(&frame);
    let cfg = ShardConfig::new(shape.beamformer(post), engine.dyn_engine, source);
    (cfg, engine.counters)
}

/// A set-up fleet.
struct Fleet {
    rt: ShardedRuntime,
    shards: Vec<Shard>,
    outcomes: Vec<ShardRound>,
}

fn setup(
    shape: &FleetShape,
    inputs: &Inputs,
    pool: &Arc<ThreadPool>,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Fleet, SetupTimes) {
    let plan: Vec<(EngineKind, bool, usize)> = (0..shape.shards)
        .map(|i| {
            let (kind, post) = shape.initial(i);
            (kind, post, rng.random_range(0..shape.frames))
        })
        .collect();
    let root = tracer.begin("setup");
    let t0 = Instant::now();
    let g = tracer.begin("setup.engine");
    let (configs, counters): (Vec<ShardConfig>, Vec<Counters>) = plan
        .iter()
        .map(|&(kind, post, frame)| config(shape, kind, post, &inputs.frames[frame], tracer))
        .unzip();
    tracer.end(g);
    let t1 = Instant::now();
    let g = tracer.begin("setup.pipeline");
    let mut rt = ShardedRuntime::new(Arc::clone(pool), configs);
    rt.set_budget(shape.budget());
    tracer.end(g);
    let t2 = Instant::now();
    let shards: Vec<Shard> = rt
        .shard_ids()
        .into_iter()
        .zip(plan)
        .zip(counters)
        .map(|((id, (kind, post, frame)), counters)| Shard {
            id,
            kind,
            post,
            frame,
            counters,
            clamps0: 0,
            sqrt0: 0,
            frames0: 0,
        })
        .collect();
    let mut fleet = Fleet {
        rt,
        shards,
        outcomes: Vec::with_capacity(shape.shards),
    };
    let g = tracer.begin("setup.first_volume");
    let first = round(&mut fleet, inputs);
    tracer.end(g);
    let t3 = Instant::now();
    tracer.end(root);
    tally.attempted += first.attempted;
    tally.failed += first.failed;
    let times = SetupTimes {
        engine_s: (t1 - t0).as_secs_f64(),
        pipeline_s: (t2 - t1).as_secs_f64(),
        first_volume_s: (t3 - t2).as_secs_f64(),
        total_s: (t3 - t0).as_secs_f64(),
    };
    (fleet, times)
}

/// Outcome counts of one round.
#[derive(Debug, Clone, Copy, Default)]
struct RoundCounts {
    completed: u64,
    deferred: u64,
    attempted: u64,
    failed: u64,
}

/// One `round_into`, with every completed volume checked.
fn round(fleet: &mut Fleet, inputs: &Inputs) -> RoundCounts {
    fleet.rt.round_into(&mut fleet.outcomes);
    check_round(fleet, inputs)
}

fn check_round(fleet: &Fleet, inputs: &Inputs) -> RoundCounts {
    let mut c = RoundCounts::default();
    for o in &fleet.outcomes {
        match o {
            ShardRound::Completed(id) => {
                c.completed += 1;
                c.attempted += 1;
                let shard = fleet.shards.iter().find(|s| s.id == *id);
                let ok = match (shard, fleet.rt.volume_of(*id)) {
                    (Some(s), Some(vol)) => {
                        inputs.oracles[s.kind as usize][s.frame][usize::from(s.post)]
                            .mismatches(vol)
                            == 0
                    }
                    _ => false,
                };
                c.failed += u64::from(!ok);
            }
            ShardRound::Deferred(_) => c.deferred += 1,
            ShardRound::Failed(..) => {
                c.attempted += 1;
                c.failed += 1;
            }
        }
    }
    c
}

/// What one timed window measured.
#[derive(Debug, Clone, Default)]
struct Window {
    /// Wall time of every round that completed frames, ms: each of
    /// the round's shard frames is in hand when `round_into` returns,
    /// so a round is one latency sample for all of them.
    frame_ms: Vec<f64>,
    volumes: u64,
    rounds: u64,
    deferred: u64,
    attempted: u64,
    failed: u64,
    rejected: u64,
    slices: Vec<Slice>,
    steal: Option<f64>,
    steals: u64,
    clamps: u64,
    clamp_volumes: u64,
    sqrt_evals: u64,
    sqrt_volumes: u64,
    span_mark: usize,
}

impl Window {
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
            latencies_ms: &self.frame_ms,
            slices: &self.slices,
            steal: self.steal,
            setups,
            peak_heap_bytes,
            sel_err,
            tally,
        }
    }
}

fn frames_of(rt: &ShardedRuntime, id: ShardId) -> u64 {
    rt.stats_of(id).map_or(0, |s| s.frames)
}

/// Adds a shard's counter deltas since it was last reset.
fn account(w: &mut Window, rt: &ShardedRuntime, s: &Shard) {
    let frames = frames_of(rt, s.id) - s.frames0;
    match s.kind {
        EngineKind::TableSteer18 => {
            w.clamps += s.counters.clamps() - s.clamps0;
            w.clamp_volumes += frames;
        }
        EngineKind::TableFree => {
            w.sqrt_evals += s.counters.sqrt_evals() - s.sqrt0;
            w.sqrt_volumes += frames;
        }
        _ => {}
    }
}

fn reset_accounting(rt: &ShardedRuntime, s: &mut Shard) {
    s.clamps0 = s.counters.clamps();
    s.sqrt0 = s.counters.sqrt_evals();
    s.frames0 = frames_of(rt, s.id);
}

#[allow(clippy::too_many_arguments)]
fn run_window(
    shape: &FleetShape,
    fleet: &mut Fleet,
    inputs: &Inputs,
    pool: &ThreadPool,
    churn: &mut ChurnSchedule,
    tracer: &mut Tracer,
    seconds: f64,
    tally: &mut Tally,
) -> Window {
    let mut w = Window {
        frame_ms: Vec::with_capacity(1 << 20),
        span_mark: tracer.mark(),
        ..Window::default()
    };
    let axis = ProjectionAxis::Depth;
    let mip_len = fleet
        .shards
        .iter()
        .find_map(|s| fleet.rt.view_of(s.id))
        .expect("a warm shard has a view")
        .mip_len(axis);
    let mut mip = vec![0.0; mip_len];
    let rt = &fleet.rt;
    for s in &mut fleet.shards {
        reset_accounting(rt, s);
    }
    let steals0 = pool.steal_count();
    let mut slicer = Slicer::new(seconds);
    loop {
        let r = w.rounds;
        w.rounds += 1;
        tracer.set_frame(r);
        let root = tracer.begin("round");
        let t0 = Instant::now();
        let g = tracer.begin("sharded.round_into");
        fleet.rt.round_into(&mut fleet.outcomes);
        tracer.end(g);
        let round_ms = t0.elapsed().as_secs_f64() * 1e3;
        let g = tracer.begin("check.oracle");
        let c = check_round(fleet, inputs);
        tracer.end(g);
        w.deferred += c.deferred;
        w.attempted += c.attempted;
        w.failed += c.failed;
        if c.completed > 0 {
            w.frame_ms.push(round_ms);
            w.volumes += c.completed;
        }
        for o in &fleet.outcomes {
            if let ShardRound::Completed(id) = o {
                if let Some(view) = fleet.rt.view_of(*id) {
                    let g = tracer.begin("view.mip");
                    view.mip_into(axis, &mut mip);
                    tracer.end(g);
                    black_box(mip[0]);
                }
            }
        }
        if r % shape.churn_every == shape.churn_every - 1 {
            let step = churn.next().expect("the schedule is endless");
            let pos = step.victim % fleet.shards.len();
            let g = tracer.begin("churn");
            account(&mut w, &fleet.rt, &fleet.shards[pos]);
            let victim = fleet.shards[pos].id;
            let post = fleet.shards[pos].post;
            let g2 = tracer.begin("sharded.detach");
            let detached = fleet.rt.detach_shard(victim);
            tracer.end(g2);
            w.failed += u64::from(detached.is_none());
            let (cfg, counters) =
                config(shape, step.kind, post, &inputs.frames[step.frame], tracer);
            let g2 = tracer.begin("sharded.attach");
            let attached = fleet.rt.attach_shard(cfg);
            tracer.end(g2);
            w.attempted += 1;
            match attached {
                Ok(id) => {
                    fleet.shards[pos] = Shard {
                        id,
                        kind: step.kind,
                        post,
                        frame: step.frame,
                        counters,
                        clamps0: 0,
                        sqrt0: 0,
                        frames0: 0,
                    };
                }
                Err(_) => {
                    w.rejected += 1;
                    w.failed += 1;
                    fleet.shards.remove(pos);
                }
            }
            tracer.end(g);
        }
        tracer.end(root);
        if slicer.tick(w.frame_ms.len(), w.volumes) || fleet.shards.is_empty() {
            break;
        }
    }
    (w.slices, w.steal) = slicer.finish();
    w.steals = pool.steal_count() - steals0;
    for s in &fleet.shards {
        account(&mut w, &fleet.rt, s);
    }
    tally.attempted += w.attempted;
    tally.failed += w.failed;
    w
}

fn sel_err(shape: &FleetShape, seed: u64) -> (f64, usize) {
    let engines: Vec<_> = EngineKind::ALL
        .iter()
        .map(|k| k.build(&shape.spec))
        .collect();
    let refs: Vec<&dyn usbf_core::DelayEngine> =
        engines.iter().map(|e| e.dyn_engine.as_ref() as _).collect();
    workload::selection_error_mean(&shape.spec, &refs, shape.sel_err_triples, seed)
}

/// Runs the workload (see [`crate::pipeline::run`] for the two modes).
pub fn run(name: &str, shape: &FleetShape, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let pool = Arc::new(ThreadPool::new(crate::WORKERS));
    let inputs = generate(shape, seed);
    let g = &shape.spec.volume_grid;
    println!(
        "config workload={name} shards={} in_flight={} churn_every={} engines=EXACT,NAIVE-TABLE,TABLEFREE,TABLESTEER-18b x2 post=every-other elements={}x{} voxels={} tiles_per_shard={} rf_frame_mb={:.1} ({})",
        shape.shards,
        shape.in_flight,
        shape.churn_every,
        shape.spec.elements.nx(),
        shape.spec.elements.ny(),
        g.voxel_count(),
        shard_fitted_schedule(&shape.spec, crate::WORKERS, shape.shards).tiles().len(),
        layers::rf_bytes(&inputs.frames[0]) as f64 / 1e6,
        layers::llc_note()
    );
    let mut tracer = Tracer::new(trace, 1 << 20);
    let mut out = RunResult::default();
    let mut tally = Tally::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
    let mut churn = ChurnSchedule::new(seed, shape.shards, shape.frames);

    let baseline = alloc::live_bytes();
    alloc::reset_peak();
    let mut setups: [Vec<SetupTimes>; 2] = [Vec::new(), Vec::new()];
    let mut fleet = None;
    for rep in 0..shape.setup_reps {
        drop(fleet.take());
        let traced = trace && rep % 2 == 1;
        tracer.set_enabled(traced);
        let (f, times) = setup(shape, &inputs, &pool, &mut rng, &mut tracer, &mut tally);
        setups[usize::from(traced)].push(times);
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    tracer.set_enabled(false);
    warm_allocs(&mut fleet, &inputs, &mut tally, shape.warmup_rounds, 0);

    if !trace {
        let w = run_window(
            shape,
            &mut fleet,
            &inputs,
            &pool,
            &mut churn,
            &mut tracer,
            seconds,
            &mut tally,
        );
        let peak = alloc::peak_bytes().saturating_sub(baseline);
        out.metrics
            .record_end_to_end(&w.end_to_end(&setups[0], peak, sel_err(shape, seed), tally));
    } else {
        let half = seconds / 2.0;
        let untraced = run_window(
            shape,
            &mut fleet,
            &inputs,
            &pool,
            &mut churn,
            &mut tracer,
            half,
            &mut tally,
        );
        let peak_u = alloc::peak_bytes().saturating_sub(baseline);
        alloc::reset_peak();
        tracer.set_enabled(true);
        let traced = run_window(
            shape,
            &mut fleet,
            &inputs,
            &pool,
            &mut churn,
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
        let (allocs, volumes) = warm_allocs(&mut fleet, &inputs, &mut tally, 20, 50);
        m.set(
            "pipeline.allocs_per_volume",
            allocs as f64 / volumes.max(1) as f64,
            volumes,
            "counting allocator over 50 warm rounds without churn",
        );
        m.record_setup_layers(&setups[1]);
        m.set(
            "core.table_mb",
            fleet
                .shards
                .iter()
                .map(|s| s.counters.table_bytes())
                .sum::<u64>() as f64
                / 1e6,
            fleet.shards.len() as u64,
            "engine storage summed over the live fleet",
        );

        let layer_root = tracer.begin("layers");
        let tiles: Vec<Tile> =
            shard_fitted_schedule(&shape.spec, crate::WORKERS, shape.shards).tiles();
        let raw = shape.beamformer(false);
        let rf = &inputs.frames[0];
        let per_engine: Vec<layers::EngineLayers> = EngineKind::ALL
            .iter()
            .map(|k| {
                let engine = k.build(&shape.spec);
                let x = LayerInputs {
                    spec: &shape.spec,
                    bf: &raw,
                    engine: engine.dyn_engine.as_ref(),
                    rf,
                    tiles: &tiles,
                };
                layers::engine_layers(&x, &mut tracer)
            })
            .collect();
        let e = layers::mean_layers(&per_engine);
        layers::record_engine_layers(m, &shape.spec, &raw, rf, &e, per_engine.len());
        m.set(
            "sim.copy_ms_per_frame",
            layers::copy_ms_per_frame(rf, &mut tracer),
            5,
            "median of 5 copies",
        );
        m.set(
            "par.dispatch_us",
            layers::dispatch_us(&pool, tiles.len(), &mut tracer),
            5,
            format!("no-op run of {} tasks", tiles.len()),
        );
        let completed_per_round = traced.volumes as f64 / traced.rounds.max(1) as f64;
        let rounds = tracer.durations_ms(traced.span_mark, "sharded.round_into");
        let round_s = stats::median(&rounds) / 1e3;
        m.set(
            "par.busy_frac",
            e.volume_tile_s * completed_per_round / (crate::WORKERS as f64 * round_s),
            traced.rounds,
            "single-thread shard-volume time x volumes per round / (workers x round p50)",
        );
        m.set(
            "post.bmode_ns_per_voxel",
            bmode_ns_per_voxel(shape, rf, &tiles, &mut tracer),
            5,
            "median of 5 reps",
        );
        let view = fleet
            .shards
            .iter()
            .find_map(|s| fleet.rt.view_of(s.id))
            .expect("a shard has completed a frame");
        let mut mip = vec![0.0; view.mip_len(ProjectionAxis::Depth)];
        let g = tracer.begin("view.mip_into");
        let mip_us = 1e6
            * layers::seconds_per_call(0.01, || {
                view.mip_into(ProjectionAxis::Depth, &mut mip);
                black_box(mip[0]);
            });
        tracer.end(g);
        m.set("view.mip_us", mip_us, 5, "median of 5 reps");
        tracer.end(layer_root);
    }
    drop(fleet);
    out.tally = tally;
    out.tracer = Some(tracer);
    out
}

/// Times `PostChain::apply_column` of the B-mode chain over one raw
/// EXACT volume's columns, ns per voxel.
fn bmode_ns_per_voxel(
    shape: &FleetShape,
    rf: &RfFrame,
    tiles: &[Tile],
    tracer: &mut Tracer,
) -> f64 {
    let raw = shape.beamformer(false);
    let exact = EngineKind::Exact.build(&shape.spec);
    let n_depth = shape.spec.volume_grid.n_depth();
    let mut columns = Vec::new();
    for &t in tiles {
        let mut state = TileState::new(&raw, t);
        raw.beamform_tile_into(exact.dyn_engine.as_ref(), rf, &mut state);
        columns.extend_from_slice(state.values());
    }
    let chain = bmode(&shape.spec);
    let mut scratch = PostScratch::new(n_depth);
    let mut col = vec![0.0; n_depth];
    let g = tracer.begin("post.apply_column");
    let s = layers::seconds_per_call(0.01, || {
        for src in columns.chunks_exact(n_depth) {
            col.copy_from_slice(src);
            chain.apply_column(&mut col, &mut scratch);
        }
        black_box(col[0]);
    });
    tracer.end(g);
    s * 1e9 / columns.len() as f64
}

/// Allocation calls and volumes over `rounds` rounds without churn,
/// after `warm` rounds that let every shard — and the acquisition
/// thread each attach spawns, which allocates on its first schedule —
/// finish starting up.
fn warm_allocs(
    fleet: &mut Fleet,
    inputs: &Inputs,
    tally: &mut Tally,
    warm: usize,
    rounds: usize,
) -> (u64, u64) {
    let mut allocs = 0;
    let mut volumes = 0;
    for i in 0..warm + rounds {
        let allocs0 = alloc::alloc_calls();
        let c = round(fleet, inputs);
        if i >= warm {
            allocs += alloc::alloc_calls() - allocs0;
            volumes += c.completed;
        }
        tally.attempted += c.attempted;
        tally.failed += c.failed;
    }
    (allocs, volumes)
}

fn record_traced_window(m: &mut Metrics, w: &Window, tracer: &Tracer) {
    let mut rounds = tracer.durations_ms(w.span_mark, "sharded.round_into");
    let l = Latency::of(&mut rounds);
    m.set("sharded.round_ms_p50", l.p50, l.n as u64, "median span");
    m.set(
        "sharded.round_ms_tail",
        l.tail,
        l.n as u64,
        format!("p{}", l.tail_p),
    );
    let attach = tracer.durations_ms(w.span_mark, "sharded.attach");
    let detach = tracer.durations_ms(w.span_mark, "sharded.detach");
    m.set(
        "sharded.attach_ms",
        stats::median(&attach),
        attach.len() as u64,
        "median span",
    );
    m.set(
        "sharded.detach_ms",
        stats::median(&detach),
        detach.len() as u64,
        "median span",
    );
    m.set(
        "sharded.deferred_per_round",
        w.deferred as f64 / w.rounds.max(1) as f64,
        w.rounds,
        "ShardRound::is_deferred",
    );
    m.set(
        "sharded.rejected",
        w.rejected as f64,
        w.attempted,
        "AdmissionError on attach",
    );
    m.set(
        "par.steals_per_volume",
        w.steals as f64 / w.volumes.max(1) as f64,
        w.volumes,
        "ThreadPool::steal_count delta",
    );
    m.set(
        "core.clamps_per_volume",
        w.clamps as f64 / w.clamp_volumes.max(1) as f64,
        w.clamp_volumes,
        "clamp_events delta per TABLESTEER volume",
    );
    m.set(
        "core.sqrt_evals_per_volume",
        w.sqrt_evals as f64 / w.sqrt_volumes.max(1) as f64,
        w.sqrt_volumes,
        "sqrt_evals delta per TABLEFREE volume",
    );
}
