//! Perf-trajectory snapshot: measures the PR 10 hot paths and writes
//! `BENCH_PR10.json` (schema documented in `tests/README.md`).
//!
//! Eight sections:
//!
//! * `kernel` — single-thread `Beamformer::beamform_tile_into` ns/voxel
//!   on one reduced-spec schedule tile, per engine;
//! * `fill` — per-engine `fill_nappe` throughput in delays/s over a
//!   full-fan slab. NAIVE-TABLE is measured at both scales: its reduced
//!   table (~hundreds of MB) is buildable on a CI runner, and the tiny
//!   entry is kept so the cache-resident trajectory stays comparable
//!   across snapshots — every entry records its `spec`;
//! * `tablefree_fill` — TABLEFREE's segment-major batched row evaluator
//!   behind `fill_nappe`, in delays/s;
//! * `pipeline` — warm `FramePipeline` frames/s on the tiny spec;
//! * `shard_churn` — the PR 7 elastic runtime under session churn:
//!   fleets of 3 and 16 shards on a 4-worker pool, one attach + detach
//!   every few rounds, reporting sustained frames/s and the fleet's
//!   p50/p99 frame latency from the per-shard histograms;
//! * `bmode_chain` — the PR 8 fused post-processing stages: warm
//!   `FramePipeline` frames/s on a pinned 4-worker pool, raw
//!   beamforming vs the fused demod → envelope → log-compress chain;
//! * `cpwc_compound` — coherent plane-wave compounding: warm
//!   `FramePipeline` frames/s with an N-angle compound running as one
//!   frame (narrow-cone [`usbf_bench::cpwc_spec`] geometry, pinned
//!   4-worker pool), swept over 1/4/16 angles for ALL four engines
//!   (the PR 10 factored receive leg makes the sweep sublinear in N);
//!   `exact_angle_sweep` is kept as an alias of the EXACT column;
//! * `stage_split` — the PR 10 factored compound loop decomposed on one
//!   tile, per engine: receive-leg slab fill ns vs per-transmit combine
//!   ns vs quantize/gather/MAC ns, measured by peeling the factored
//!   stages through the public engine API.
//!
//! Knobs: `USBF_SNAPSHOT_QUICK=1` shrinks measurement budgets for CI
//! smoke runs; `USBF_SNAPSHOT_OUT` overrides the output path.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use usbf_beamform::{
    Apodization, Beamformer, BmodeConfig, FramePipeline, FrameRing, PostChain, ShardConfig,
    ShardedRuntime, TileState,
};
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, NappeDelays, NappeSchedule, TableFreeConfig,
    TableFreeEngine, TableSteerConfig, TableSteerEngine,
};
use usbf_geometry::{SystemSpec, VoxelIndex};
use usbf_sim::{EchoSynthesizer, Phantom, Pulse};

/// Runs `f` repeatedly for at least `budget_s` seconds (and at least
/// twice), returning the mean seconds per call.
fn time_mean(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up / lazy init
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_secs_f64() < budget_s || iters < 2 {
        f();
        iters += 1;
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    let quick = std::env::var("USBF_SNAPSHOT_QUICK").is_ok_and(|v| v != "0");
    let budget = if quick { 0.05 } else { 0.5 };
    let red = SystemSpec::reduced();
    let tiny = SystemSpec::tiny();

    // --- kernel: single-thread tile kernel ---
    let bf = Beamformer::new(&red).with_apodization(Apodization::Hann);
    let tile = NappeSchedule::fitted(&red, 64).tiles()[27];
    let tile_voxels = (tile.scanlines() * red.volume_grid.n_depth()) as f64;
    let rf = EchoSynthesizer::new(&red).synthesize(
        &Phantom::point(red.volume_grid.position(VoxelIndex::new(16, 16, 64))),
        &Pulse::from_spec(&red),
    );
    let exact = ExactEngine::new(&red);
    let tablefree = TableFreeEngine::new(&red, TableFreeConfig::paper()).expect("builds");
    let tablesteer = TableSteerEngine::new(&red, TableSteerConfig::bits18()).expect("builds");
    let engines: [(&str, &dyn DelayEngine); 3] = [
        ("EXACT", &exact),
        ("TABLEFREE", &tablefree),
        ("TABLESTEER-18b", &tablesteer),
    ];
    let mut kernel_rows: Vec<(&str, f64)> = Vec::new();
    for (name, eng) in engines {
        let mut state = TileState::new(&bf, tile);
        let vec_s = time_mean(budget, || {
            bf.beamform_tile_into(eng, &rf, &mut state);
            std::hint::black_box(state.values()[0]);
        });
        let ns_per_voxel = vec_s * 1e9 / tile_voxels;
        println!("kernel {name:<15} vectorized {ns_per_voxel:9.1} ns/voxel");
        kernel_rows.push((name, ns_per_voxel));
    }

    // --- fill: per-engine slab fill throughput ---
    let mut fill_rows: Vec<(&str, &str, f64)> = Vec::new();
    for (name, eng) in engines {
        let mut slab = NappeDelays::full(&red);
        let per_pass = red.volume_grid.n_depth() as f64
            * slab.scanline_count() as f64
            * slab.n_elements() as f64;
        let s = time_mean(budget, || {
            for id in 0..red.volume_grid.n_depth() {
                eng.fill_nappe(id, &mut slab);
            }
            std::hint::black_box(slab.samples()[0]);
        });
        fill_rows.push((name, "reduced", per_pass / s));
    }
    {
        // NAIVE-TABLE at reduced scale: the honest memory-bound number —
        // the table no longer fits any cache, so this is the DDR-stream
        // rate the paper's Table I argues against.
        let naive = NaiveTableEngine::build(&red, u64::MAX).expect("reduced table fits in RAM");
        let mut slab = NappeDelays::full(&red);
        let per_pass = red.volume_grid.n_depth() as f64
            * slab.scanline_count() as f64
            * slab.n_elements() as f64;
        let s = time_mean(budget, || {
            for id in 0..red.volume_grid.n_depth() {
                naive.fill_nappe(id, &mut slab);
            }
            std::hint::black_box(slab.samples()[0]);
        });
        fill_rows.push(("NAIVE-TABLE", "reduced", per_pass / s));
    }
    {
        // Tiny entry kept for cross-snapshot comparability (the earlier
        // snapshots only had this, cache-resident, number).
        let naive = NaiveTableEngine::build(&tiny, u64::MAX).expect("tiny table fits");
        let mut slab = NappeDelays::full(&tiny);
        let per_pass = tiny.volume_grid.n_depth() as f64
            * slab.scanline_count() as f64
            * slab.n_elements() as f64;
        let s = time_mean(budget, || {
            for id in 0..tiny.volume_grid.n_depth() {
                naive.fill_nappe(id, &mut slab);
            }
            std::hint::black_box(slab.samples()[0]);
        });
        fill_rows.push(("NAIVE-TABLE@tiny", "tiny", per_pass / s));
    }
    for (name, spec, rate) in &fill_rows {
        println!("fill   {name:<15} [{spec:<7}] {:.1} Mdelays/s", rate / 1e6);
    }

    // --- tablefree_fill: the segment-major batched row evaluator ---
    let tf_batched_rate = {
        let mut slab = NappeDelays::full(&red);
        let per_pass = red.volume_grid.n_depth() as f64
            * slab.scanline_count() as f64
            * slab.n_elements() as f64;
        let batched_s = time_mean(budget, || {
            for id in 0..red.volume_grid.n_depth() {
                tablefree.fill_nappe(id, &mut slab);
            }
            std::hint::black_box(slab.samples()[0]);
        });
        per_pass / batched_s
    };
    println!(
        "tablefree-fill [reduced] batched {:.1} Mdelays/s",
        tf_batched_rate / 1e6
    );

    // --- pipeline: warm frames/s on the tiny spec ---
    let frames = if quick { 20 } else { 200 };
    let engine: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&tiny));
    let frame = EchoSynthesizer::new(&tiny).synthesize(
        &Phantom::point(tiny.volume_grid.position(VoxelIndex::new(4, 4, 8))),
        &Pulse::from_spec(&tiny),
    );
    let mut pipe = FramePipeline::new(Beamformer::new(&tiny), engine, FrameRing::new(vec![frame]));
    for _ in 0..5 {
        pipe.next_volume().expect("warm-up frame");
    }
    let start = Instant::now();
    for _ in 0..frames {
        pipe.next_volume().expect("warm frame");
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = pipe.stats();
    let fps = frames as f64 / wall;
    let mean_beamform_ms = wall / frames as f64 * 1e3;
    println!(
        "pipeline [tiny] {fps:.1} frames/s, {mean_beamform_ms:.3} ms/frame, overlap {:.3}",
        stats.overlap_fraction()
    );

    // --- shard_churn: the elastic runtime under session churn ---
    struct ChurnRow {
        n_shards: usize,
        rounds: usize,
        frames_per_second: f64,
        p50_ms: f64,
        p99_ms: f64,
    }
    let churn_rounds = if quick { 24 } else { 120 };
    let churn_workers = 4usize;
    let churn_frame = EchoSynthesizer::new(&tiny).synthesize(
        &Phantom::point(tiny.volume_grid.position(VoxelIndex::new(5, 3, 9))),
        &Pulse::from_spec(&tiny),
    );
    let mut churn_rows = Vec::new();
    for n_shards in [3usize, 16] {
        let pool = Arc::new(usbf_par::ThreadPool::new(churn_workers));
        let steer: Arc<dyn DelayEngine + Send + Sync> =
            Arc::new(TableSteerEngine::new(&tiny, TableSteerConfig::bits18()).expect("builds"));
        let mk = |i: usize| {
            let engine: Arc<dyn DelayEngine + Send + Sync> = if i.is_multiple_of(2) {
                Arc::new(ExactEngine::new(&tiny))
            } else {
                Arc::clone(&steer)
            };
            ShardConfig::new(
                Beamformer::new(&tiny),
                engine,
                FrameRing::new(vec![churn_frame.clone()]),
            )
        };
        let mut rt = ShardedRuntime::new(Arc::clone(&pool), (0..n_shards).map(mk).collect());
        let mut outcomes = Vec::new();
        for _ in 0..3 {
            rt.round_into(&mut outcomes); // warm the resident fleet
        }
        let start = Instant::now();
        let mut churn_slot = 0usize;
        for round in 0..churn_rounds {
            rt.round_into(&mut outcomes);
            assert!(outcomes.iter().all(|o| o.is_ok()), "unhealthy churn round");
            if round % 4 == 3 {
                // Session churn: replace one shard while siblings stream.
                let gone = rt.shard_ids()[churn_slot % n_shards];
                rt.detach_shard(gone).expect("live shard");
                rt.attach_shard(mk(churn_slot)).expect("under budget");
                churn_slot += 1;
            }
        }
        let wall = start.elapsed().as_secs_f64();
        // Every round completes one frame per live shard (unlimited
        // budget), so the measured window is exactly rounds × shards.
        let measured_frames = churn_rounds as u64 * n_shards as u64;
        // The fleet histogram spans the survivors' lifetimes (warm-up
        // included, detached sessions excluded) — a ≤3-round bias on a
        // much longer soak.
        let latency = rt.fleet_latency();
        let row = ChurnRow {
            n_shards,
            rounds: churn_rounds,
            frames_per_second: measured_frames as f64 / wall,
            p50_ms: latency.p50().as_secs_f64() * 1e3,
            p99_ms: latency.p99().as_secs_f64() * 1e3,
        };
        println!(
            "shard-churn [tiny] {:>2} shards on {churn_workers} workers: {:8.1} frames/s, p50 {:7.3} ms, p99 {:7.3} ms ({} rounds, churn every 4)",
            row.n_shards, row.frames_per_second, row.p50_ms, row.p99_ms, row.rounds
        );
        churn_rows.push(row);
    }

    // --- bmode_chain: warm FramePipeline frames/s on a pinned pool,
    // raw beamforming vs the fused demod → envelope → log-compress
    // post-stages (the PR 8 tentpole) ---
    let bmode_frames = if quick { 20 } else { 200 };
    let bmode_workers = 4usize;
    let bmode_pool = Arc::new(usbf_par::ThreadPool::new(bmode_workers));
    let bmode_schedule = NappeSchedule::fitted(&tiny, 64);
    let bmode_engine: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&tiny));
    let bmode_fps = |post: PostChain| {
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&tiny).with_postproc(post),
            Arc::clone(&bmode_engine),
            FrameRing::new(vec![churn_frame.clone()]),
            Arc::clone(&bmode_pool),
            &bmode_schedule,
        );
        for _ in 0..5 {
            pipe.next_volume().expect("warm-up frame");
        }
        let start = Instant::now();
        for _ in 0..bmode_frames {
            pipe.next_volume().expect("warm frame");
        }
        bmode_frames as f64 / start.elapsed().as_secs_f64()
    };
    let raw_fps = bmode_fps(PostChain::empty());
    let fused_fps = bmode_fps(PostChain::bmode(BmodeConfig::from_spec(&tiny)));
    println!(
        "bmode-chain [tiny] {bmode_workers} workers: raw {raw_fps:.1} frames/s   fused {fused_fps:.1} frames/s   chain cost {:.1}%",
        (raw_fps / fused_fps - 1.0) * 100.0
    );

    // --- cpwc_compound: the PR 9 tentpole — an N-angle plane-wave
    // compound as one warm pipeline frame, per engine, plus EXACT's
    // angle sweep ---
    let cpwc_frames = if quick { 20 } else { 200 };
    let cpwc_workers = 4usize;
    let cpwc_pool = Arc::new(usbf_par::ThreadPool::new(cpwc_workers));
    let cpwc_fps = |spec: &SystemSpec, engine: Arc<dyn DelayEngine + Send + Sync>| {
        let schedule = NappeSchedule::fitted(spec, cpwc_workers * 4);
        let g = &spec.volume_grid;
        let rf = EchoSynthesizer::new(spec).synthesize(
            &Phantom::point(g.position(VoxelIndex::new(
                g.n_theta() / 2,
                g.n_phi() / 2,
                g.n_depth() * 5 / 8,
            ))),
            &Pulse::from_spec(spec),
        );
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(spec),
            engine,
            FrameRing::new(vec![rf]),
            Arc::clone(&cpwc_pool),
            &schedule,
        );
        for _ in 0..5 {
            pipe.next_volume().expect("warm-up compound frame");
        }
        let start = Instant::now();
        for _ in 0..cpwc_frames {
            pipe.next_volume().expect("warm compound frame");
        }
        cpwc_frames as f64 / start.elapsed().as_secs_f64()
    };
    let mk_cpwc_engine = |spec: &SystemSpec, name: &str| -> Arc<dyn DelayEngine + Send + Sync> {
        match name {
            "EXACT" => Arc::new(ExactEngine::new(spec)),
            "NAIVE-TABLE" => {
                Arc::new(NaiveTableEngine::build(spec, u64::MAX).expect("cpwc table fits"))
            }
            "TABLEFREE" => {
                Arc::new(TableFreeEngine::new(spec, TableFreeConfig::paper()).expect("builds"))
            }
            "TABLESTEER-18b" => {
                Arc::new(TableSteerEngine::new(spec, TableSteerConfig::bits18()).expect("builds"))
            }
            other => unreachable!("unknown engine {other}"),
        }
    };
    let cpwc_angles = [1usize, 4, 16];
    let cpwc_engine_rows: Vec<(&str, Vec<(usize, f64)>)> =
        ["EXACT", "NAIVE-TABLE", "TABLEFREE", "TABLESTEER-18b"]
            .into_iter()
            .map(|name| {
                let sweep: Vec<(usize, f64)> = cpwc_angles
                    .iter()
                    .map(|&n| {
                        let spec = usbf_bench::cpwc_spec(n);
                        let fps = cpwc_fps(&spec, mk_cpwc_engine(&spec, name));
                        println!(
                    "cpwc-compound [cpwc] {name:<15} {n:>2} angles: {fps:.1} compound frames/s"
                );
                        (n, fps)
                    })
                    .collect();
                (name, sweep)
            })
            .collect();
    // EXACT's column doubles as the historical `exact_angle_sweep` key.
    let cpwc_sweep: Vec<(usize, f64)> = cpwc_engine_rows[0].1.clone();

    // --- stage_split: the PR 10 factored compound loop peeled apart on
    // one single-threaded tile — receive-leg slab fill vs per-transmit
    // combine vs the rest (quantize + gather + MAC). The first two
    // stages are re-run standalone through the public engine API
    // (mirroring the kernel's masked-transmit skip for engines without
    // rounding telemetry); the third is the remainder against the full
    // factored `beamform_tile_into`. ---
    struct StageRow {
        name: &'static str,
        rx_fill_ns: f64,
        combine_ns: f64,
        quantize_gather_mac_ns: f64,
        total_ns: f64,
    }
    let split_spec = usbf_bench::cpwc_spec(4);
    let split_bf = Beamformer::new(&split_spec);
    let split_tile = NappeSchedule::fitted(&split_spec, 16).tiles()[5];
    let split_depth = split_spec.volume_grid.n_depth();
    let split_tx = split_spec.n_transmits();
    let split_grid = &split_spec.volume_grid;
    let split_rf = EchoSynthesizer::new(&split_spec).synthesize(
        &Phantom::point(split_grid.position(VoxelIndex::new(
            split_grid.n_theta() / 2,
            split_grid.n_phi() / 2,
            split_grid.n_depth() * 5 / 8,
        ))),
        &Pulse::from_spec(&split_spec),
    );
    let split_exact = ExactEngine::new(&split_spec);
    let split_naive = NaiveTableEngine::build(&split_spec, u64::MAX).expect("cpwc table fits");
    let split_tablefree =
        TableFreeEngine::new(&split_spec, TableFreeConfig::paper()).expect("builds");
    let split_tablesteer =
        TableSteerEngine::new(&split_spec, TableSteerConfig::bits18()).expect("builds");
    let split_engines: [(&'static str, &dyn DelayEngine); 4] = [
        ("EXACT", &split_exact),
        ("NAIVE-TABLE", &split_naive),
        ("TABLEFREE", &split_tablefree),
        ("TABLESTEER-18b", &split_tablesteer),
    ];
    let mut stage_rows = Vec::new();
    // The kernel's precomputed footprint mask, in the same layout
    // `TileState` uses: engines without rounding telemetry skip masked
    // (voxel, transmit) pairs entirely, so the peel must too or the
    // combine stage is charged for work the kernel never does.
    let split_values = split_tile.scanlines() * split_depth;
    let mut split_mask = vec![0.0; split_tx * split_values];
    for tx in 0..split_tx {
        let block = &mut split_mask[tx * split_values..(tx + 1) * split_values];
        for (slot, it, ip) in split_tile.iter_scanlines() {
            for id in 0..split_depth {
                let s = split_grid.position(VoxelIndex::new(it, ip, id));
                block[slot * split_depth + id] = split_spec.transmit_weight(tx, s);
            }
        }
    }
    for (name, eng) in split_engines {
        let mut slab = NappeDelays::for_tile(&split_spec, split_tile);
        let mut tx_row = vec![0.0; split_spec.elements.count()];
        let skip_masked = !eng.rounding_telemetry();
        let mask = &split_mask;
        let fill_s = time_mean(budget, || {
            for id in 0..split_depth {
                eng.fill_nappe_rx_streamed(id, &mut slab, &mut |_, _| {});
            }
            std::hint::black_box(slab.samples()[0]);
        });
        let fill_combine_s = time_mean(budget, || {
            for id in 0..split_depth {
                eng.fill_nappe_rx_streamed(id, &mut slab, &mut |slot, rx_row| {
                    let (it, ip) = split_tile.scanline_at(slot);
                    let vox = VoxelIndex::new(it, ip, id);
                    for tx in 0..split_tx {
                        if skip_masked && mask[tx * split_values + slot * split_depth + id] == 0.0 {
                            continue;
                        }
                        eng.combine_tx_row(tx, vox, rx_row, &mut tx_row);
                    }
                });
            }
            std::hint::black_box(tx_row[0]);
        });
        let mut state = TileState::new(&split_bf, split_tile);
        let total_s = time_mean(budget, || {
            split_bf.beamform_tile_into(eng, &split_rf, &mut state);
            std::hint::black_box(state.values()[0]);
        });
        let row = StageRow {
            name,
            rx_fill_ns: fill_s * 1e9,
            combine_ns: (fill_combine_s - fill_s).max(0.0) * 1e9,
            quantize_gather_mac_ns: (total_s - fill_combine_s).max(0.0) * 1e9,
            total_ns: total_s * 1e9,
        };
        println!(
            "stage-split [cpwc, 4 angles] {name:<15} rx-fill {:9.0} ns   combine {:9.0} ns   quantize+gather+MAC {:9.0} ns   total {:9.0} ns",
            row.rx_fill_ns, row.combine_ns, row.quantize_gather_mac_ns, row.total_ns
        );
        stage_rows.push(row);
    }

    // Inline-audit note (PR 5 satellite): leaf functions checked for
    // cross-crate inlining. `QFormat::resolution` (now exp2-free) and
    // `Fixed::wide_add`/`QFormat::sum_format` (#[inline] added) showed up
    // directly in TABLESTEER's fill throughput above; `Fixed::to_f64`,
    // `QuantizedPwl::eval_tracked` and the `RfFrame` gather helpers were
    // already `#[inline]` / newly marked and measure no further shift.
    println!(
        "inline-audit: wide_add+sum_format #[inline] and branch-free resolution() \
         are load-bearing for the TABLESTEER fill rate; gather helpers inline clean"
    );

    // --- JSON ---
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"schema\": \"usbf-perf-snapshot/1\",");
    let _ = writeln!(j, "  \"pr\": 10,");
    let _ = writeln!(j, "  \"quick\": {quick},");
    let _ = writeln!(j, "  \"kernel\": {{");
    let _ = writeln!(j, "    \"spec\": \"reduced\",");
    let _ = writeln!(j, "    \"interpolation\": \"nearest\",");
    let _ = writeln!(
        j,
        "    \"tile_voxels\": {},",
        tile.scanlines() * red.volume_grid.n_depth()
    );
    let _ = writeln!(j, "    \"active_elements\": {},", bf.aperture().len());
    let _ = writeln!(j, "    \"engines\": {{");
    for (i, (name, ns)) in kernel_rows.iter().enumerate() {
        let comma = if i + 1 < kernel_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "      \"{name}\": {{\"vectorized_ns_per_voxel\": {ns:.1}}}{comma}"
        );
    }
    let _ = writeln!(j, "    }}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"fill\": {{");
    for (i, (name, spec, rate)) in fill_rows.iter().enumerate() {
        let comma = if i + 1 < fill_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{name}\": {{\"spec\": \"{spec}\", \"delays_per_second\": {rate:.0}}}{comma}"
        );
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"tablefree_fill\": {{");
    let _ = writeln!(j, "    \"spec\": \"reduced\",");
    let _ = writeln!(j, "    \"batched_delays_per_second\": {tf_batched_rate:.0}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"pipeline\": {{");
    let _ = writeln!(j, "    \"spec\": \"tiny\",");
    let _ = writeln!(j, "    \"frames\": {frames},");
    let _ = writeln!(j, "    \"frames_per_second\": {fps:.1},");
    let _ = writeln!(j, "    \"mean_frame_ms\": {mean_beamform_ms:.3},");
    let _ = writeln!(
        j,
        "    \"overlap_fraction\": {:.4}",
        stats.overlap_fraction()
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"shard_churn\": {{");
    let _ = writeln!(j, "    \"spec\": \"tiny\",");
    let _ = writeln!(j, "    \"workers\": {churn_workers},");
    let _ = writeln!(j, "    \"churn_every_rounds\": 4,");
    let _ = writeln!(j, "    \"fleets\": {{");
    for (i, r) in churn_rows.iter().enumerate() {
        let comma = if i + 1 < churn_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "      \"{}\": {{\"rounds\": {}, \"frames_per_second\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{comma}",
            r.n_shards, r.rounds, r.frames_per_second, r.p50_ms, r.p99_ms
        );
    }
    let _ = writeln!(j, "    }}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"bmode_chain\": {{");
    let _ = writeln!(j, "    \"spec\": \"tiny\",");
    let _ = writeln!(j, "    \"workers\": {bmode_workers},");
    let _ = writeln!(j, "    \"frames\": {bmode_frames},");
    let _ = writeln!(j, "    \"raw_frames_per_second\": {raw_fps:.1},");
    let _ = writeln!(j, "    \"fused_frames_per_second\": {fused_fps:.1},");
    let _ = writeln!(j, "    \"fused_over_raw\": {:.4}", fused_fps / raw_fps);
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"cpwc_compound\": {{");
    let _ = writeln!(j, "    \"spec\": \"cpwc\",");
    let _ = writeln!(j, "    \"workers\": {cpwc_workers},");
    let _ = writeln!(j, "    \"frames\": {cpwc_frames},");
    let _ = writeln!(j, "    \"angles\": [1, 4, 16],");
    let _ = writeln!(j, "    \"engines\": {{");
    for (i, (name, sweep)) in cpwc_engine_rows.iter().enumerate() {
        let comma = if i + 1 < cpwc_engine_rows.len() {
            ","
        } else {
            ""
        };
        let cells: Vec<String> = sweep
            .iter()
            .map(|(n, fps)| format!("\"{n}\": {{\"frames_per_second\": {fps:.1}}}"))
            .collect();
        let _ = writeln!(j, "      \"{name}\": {{{}}}{comma}", cells.join(", "));
    }
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"exact_angle_sweep\": {{");
    for (i, (n, fps)) in cpwc_sweep.iter().enumerate() {
        let comma = if i + 1 < cpwc_sweep.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "      \"{n}\": {{\"frames_per_second\": {fps:.1}}}{comma}"
        );
    }
    let _ = writeln!(j, "    }}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"stage_split\": {{");
    let _ = writeln!(j, "    \"spec\": \"cpwc\",");
    let _ = writeln!(j, "    \"angles\": 4,");
    let _ = writeln!(
        j,
        "    \"tile_voxels\": {},",
        split_tile.scanlines() * split_depth
    );
    let _ = writeln!(j, "    \"engines\": {{");
    for (i, r) in stage_rows.iter().enumerate() {
        let comma = if i + 1 < stage_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "      \"{}\": {{\"rx_fill_ns\": {:.0}, \"combine_ns\": {:.0}, \"quantize_gather_mac_ns\": {:.0}, \"total_ns\": {:.0}}}{comma}",
            r.name, r.rx_fill_ns, r.combine_ns, r.quantize_gather_mac_ns, r.total_ns
        );
    }
    let _ = writeln!(j, "    }}");
    let _ = writeln!(j, "  }}");
    j.push_str("}\n");
    let out = std::env::var("USBF_SNAPSHOT_OUT").unwrap_or_else(|_| "BENCH_PR10.json".to_string());
    std::fs::write(&out, &j).expect("write snapshot JSON");
    println!("wrote {out}");
}
