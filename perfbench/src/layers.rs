//! Single-thread timings of each layer's public calls, on a workload's
//! own spec, engine, tile and generated frame.

use crate::report::Metrics;
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use usbf_beamform::{Beamformer, TileState};
use usbf_core::{DelayEngine, NappeDelays, Tile};
use usbf_geometry::{SystemSpec, VoxelIndex};
use usbf_par::ThreadPool;
use usbf_sim::RfFrame;

/// Repetitions whose median a timing reports.
const REPS: usize = 5;

/// Median seconds per call of `f` over [`REPS`] repetitions, each
/// calling `f` at least once and until `rep_s` seconds have passed.
/// One untimed call first lets lazy state settle.
pub fn seconds_per_call(rep_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut per_call = [0.0; REPS];
    for slot in &mut per_call {
        let start = Instant::now();
        let mut calls = 0u32;
        loop {
            f();
            calls += 1;
            if start.elapsed().as_secs_f64() >= rep_s {
                break;
            }
        }
        *slot = start.elapsed().as_secs_f64() / f64::from(calls);
    }
    crate::stats::median(&per_call)
}

/// What the layer timings need from a workload.
pub struct LayerInputs<'a> {
    /// The workload's spec.
    pub spec: &'a SystemSpec,
    /// The workload's beamformer configuration.
    pub bf: &'a Beamformer,
    /// A fresh instance of the workload's engine (its counters are not
    /// the ones the end-to-end loop reads).
    pub engine: &'a dyn DelayEngine,
    /// A generated frame of the workload.
    pub rf: &'a RfFrame,
    /// The workload's schedule tiles.
    pub tiles: &'a [Tile],
}

/// Timings of the `core`, `sim` and `kernel` layers for one engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineLayers {
    /// `fill_nappe_streamed_for` (transmit 0), ns per row.
    pub fill_ns_per_row: f64,
    /// `fill_nappe_rx_streamed`, ns per row (0 without the factored fill).
    pub rx_fill_ns_per_row: f64,
    /// `combine_tx_row`, ns per (voxel, transmit) pair.
    pub combine_ns_per_pair: f64,
    /// `quantize_row` over the active aperture, ns per row.
    pub quantize_ns_per_row: f64,
    /// Full-slab `fill_nappe`, delays per second.
    pub delays_per_s: f64,
    /// `RfFrame::gather_nearest_into_for`, ns per sample.
    pub gather_ns_per_sample: f64,
    /// `beamform_tile_into` on one tile, ns per voxel·transmit.
    pub kernel_ns_per_voxel_tx: f64,
    /// Kernel minus delay generation minus quantize (derived).
    pub gather_mac_ns_per_voxel_tx: f64,
    /// Σ of one single-thread `beamform_tile_into` per schedule tile, s.
    pub volume_tile_s: f64,
}

/// Nappe indices the row timings walk: up to `k`, spread over depth.
fn spread_nappes(n_depth: usize, k: usize) -> Vec<usize> {
    let k = k.min(n_depth).max(1);
    (0..k).map(|i| (2 * i + 1) * n_depth / (2 * k)).collect()
}

/// Share of (voxel, transmit) pairs over the whole grid whose
/// `SystemSpec::transmit_weight` is zero.
pub fn masked_pair_frac(spec: &SystemSpec) -> (f64, u64) {
    let g = &spec.volume_grid;
    let n_tx = spec.n_transmits();
    let mut masked = 0u64;
    let mut pairs = 0u64;
    for it in 0..g.n_theta() {
        for ip in 0..g.n_phi() {
            for id in 0..g.n_depth() {
                let s = g.position(VoxelIndex::new(it, ip, id));
                for tx in 0..n_tx {
                    pairs += 1;
                    masked += u64::from(spec.transmit_weight(tx, s) == 0.0);
                }
            }
        }
    }
    (masked as f64 / pairs.max(1) as f64, pairs)
}

/// Delay rows one volume generates: nappes × scanlines × transmits.
pub fn rows_per_volume(spec: &SystemSpec) -> u64 {
    let g = &spec.volume_grid;
    (g.n_depth() * g.scanline_count() * spec.n_transmits()) as u64
}

/// Times the `core`, `sim` and `kernel` calls of one engine.
pub fn engine_layers(x: &LayerInputs<'_>, tracer: &mut Tracer) -> EngineLayers {
    let spec = x.spec;
    let engine = x.engine;
    let n_tx = spec.n_transmits();
    let n_depth = spec.volume_grid.n_depth();
    let n_elements = spec.elements.count();
    let tile = x.tiles[x.tiles.len() / 2];
    let nappes = spread_nappes(n_depth, 8);
    let rows = (nappes.len() * tile.scanlines()) as f64;
    let channels = x.bf.aperture().channels();
    let active = channels.len();
    let compact = |row: &[f64], out: &mut Vec<f64>| {
        out.extend(channels.iter().map(|&c| row[c as usize]));
    };
    let mut slab = NappeDelays::for_tile(spec, tile);
    let mut out = EngineLayers::default();

    let g = tracer.begin("core.fill_nappe_streamed_for");
    out.fill_ns_per_row = 1e9 / rows
        * seconds_per_call(0.02, || {
            for &id in &nappes {
                engine.fill_nappe_streamed_for(0, id, &mut slab, &mut |_, row| {
                    black_box(row[0]);
                });
            }
        });
    tracer.end(g);

    // Fused rows of transmit 0, compacted to the active aperture: the
    // quantize and gather inputs.
    let mut fused_active = Vec::with_capacity(nappes.len() * tile.scanlines() * active);
    for &id in &nappes {
        engine.fill_nappe_streamed_for(0, id, &mut slab, &mut |_, row| {
            compact(row, &mut fused_active);
        });
    }
    let mut indices = vec![0i32; fused_active.len()];
    let g = tracer.begin("core.quantize_row");
    out.quantize_ns_per_row = 1e9 / rows
        * seconds_per_call(0.02, || {
            for (row, idx) in fused_active
                .chunks_exact(active)
                .zip(indices.chunks_exact_mut(active))
            {
                engine.quantize_row(row, idx);
            }
            black_box(indices[0]);
        });
    tracer.end(g);

    if engine.supports_factored_fill() {
        let g = tracer.begin("core.fill_nappe_rx_streamed");
        out.rx_fill_ns_per_row = 1e9 / rows
            * seconds_per_call(0.02, || {
                for &id in &nappes {
                    engine.fill_nappe_rx_streamed(id, &mut slab, &mut |_, row| {
                        black_box(row[0]);
                    });
                }
            });
        tracer.end(g);
        let mut rx_rows = Vec::with_capacity(nappes.len() * tile.scanlines() * n_elements);
        for &id in &nappes {
            engine.fill_nappe_rx_streamed(id, &mut slab, &mut |_, row| {
                rx_rows.extend_from_slice(row);
            });
        }
        let mut tx_row = vec![0.0; n_elements];
        let g = tracer.begin("core.combine_tx_row");
        out.combine_ns_per_pair = 1e9 / (rows * n_tx as f64)
            * seconds_per_call(0.02, || {
                let mut rx = rx_rows.chunks_exact(n_elements);
                for &id in &nappes {
                    for slot in 0..tile.scanlines() {
                        let (it, ip) = tile.scanline_at(slot);
                        let vox = VoxelIndex::new(it, ip, id);
                        let row = rx.next().expect("one captured row per slot");
                        for tx in 0..n_tx {
                            engine.combine_tx_row(tx, vox, row, &mut tx_row);
                        }
                    }
                }
                black_box(tx_row[0]);
            });
        tracer.end(g);
    }

    let mut full = NappeDelays::full(spec);
    let full_nappes = spread_nappes(n_depth, 4);
    let delays = (full_nappes.len() * full.scanline_count() * n_elements) as f64;
    let g = tracer.begin("core.fill_nappe");
    out.delays_per_s = delays
        / seconds_per_call(0.02, || {
            for &id in &full_nappes {
                engine.fill_nappe(id, &mut full);
            }
            black_box(full.samples()[0]);
        });
    tracer.end(g);
    drop(full);

    let mut samples = vec![0.0; active];
    let g = tracer.begin("sim.gather_nearest_into_for");
    out.gather_ns_per_sample = 1e9 / (rows * active as f64)
        * seconds_per_call(0.02, || {
            for idx in indices.chunks_exact(active) {
                x.rf.gather_nearest_into_for(0, channels, idx, &mut samples);
            }
            black_box(samples[0]);
        });
    tracer.end(g);

    let voxel_tx = (tile.scanlines() * n_depth * n_tx) as f64;
    let mut state = TileState::new(x.bf, tile);
    let g = tracer.begin("kernel.beamform_tile_into");
    out.kernel_ns_per_voxel_tx = 1e9 / voxel_tx
        * seconds_per_call(0.0, || {
            x.bf.beamform_tile_into(engine, x.rf, &mut state);
            black_box(state.values()[0]);
        });
    tracer.end(g);

    // One call per schedule tile: the single-thread work of a volume.
    let g = tracer.begin("kernel.volume_tiles");
    let start = Instant::now();
    for &t in x.tiles {
        let mut state = TileState::new(x.bf, t);
        x.bf.beamform_tile_into(engine, x.rf, &mut state);
        black_box(state.values()[0]);
    }
    out.volume_tile_s = start.elapsed().as_secs_f64();
    tracer.end(g);

    // Derived: the kernel's time minus the delay generation and
    // quantize it performs per voxel·transmit. In the factored compound
    // kernel, engines without rounding telemetry skip masked pairs
    // entirely, so combine and quantize run for the unmasked share only.
    let (delay_gen, quantize) = if spec.is_single_point_source() || !engine.supports_factored_fill()
    {
        (out.fill_ns_per_row, out.quantize_ns_per_row)
    } else {
        let share = if engine.rounding_telemetry() {
            1.0
        } else {
            1.0 - masked_pair_frac(spec).0
        };
        (
            out.rx_fill_ns_per_row / n_tx as f64 + share * out.combine_ns_per_pair,
            share * out.quantize_ns_per_row,
        )
    };
    out.gather_mac_ns_per_voxel_tx = out.kernel_ns_per_voxel_tx - delay_gen - quantize;
    out
}

/// Records the `core`, `sim` and `kernel` metrics of `e` (already
/// averaged over the workload's engines) plus the computed ones.
pub fn record_engine_layers(
    m: &mut Metrics,
    spec: &SystemSpec,
    bf: &Beamformer,
    rf: &RfFrame,
    e: &EngineLayers,
    engines: usize,
) {
    let n = engines as u64;
    let note = if engines > 1 {
        format!("mean over {engines} engines, median of {REPS} reps")
    } else {
        format!("median of {REPS} reps")
    };
    m.set("core.fill_ns_per_row", e.fill_ns_per_row, n, note.clone());
    m.set(
        "core.rx_fill_ns_per_row",
        e.rx_fill_ns_per_row,
        n,
        note.clone(),
    );
    m.set(
        "core.combine_ns_per_pair",
        e.combine_ns_per_pair,
        n,
        note.clone(),
    );
    m.set(
        "core.quantize_ns_per_row",
        e.quantize_ns_per_row,
        n,
        note.clone(),
    );
    m.set("core.delays_per_s", e.delays_per_s, n, note.clone());
    m.set(
        "core.rows_per_volume",
        rows_per_volume(spec) as f64,
        1,
        "count: nappes x scanlines x transmits",
    );
    let (masked, pairs) = masked_pair_frac(spec);
    m.set(
        "core.masked_pair_frac",
        masked,
        pairs,
        "count over every (voxel, transmit) pair",
    );
    m.set(
        "sim.gather_ns_per_sample",
        e.gather_ns_per_sample,
        n,
        note.clone(),
    );
    m.set("sim.rf_mb", rf_bytes(rf) as f64 / 1e6, 1, llc_note());
    m.set("kernel.ns_per_voxel_tx", e.kernel_ns_per_voxel_tx, n, note);
    m.set(
        "kernel.gather_mac_ns_per_voxel_tx",
        e.gather_mac_ns_per_voxel_tx,
        n,
        "derived: kernel - fill/combine - quantize",
    );
    let active = bf.aperture().len() as f64;
    let n_elements = spec.elements.count() as f64;
    m.set(
        "kernel.bytes_per_voxel_tx",
        active * 8.0 + n_elements * 8.0,
        1,
        "computed: active elements x 8 B gathered + 8 B delay-row entry per element",
    );
    m.set(
        "kernel.macs_per_s",
        active / (e.kernel_ns_per_voxel_tx * 1e-9),
        n,
        "active elements x voxel-transmits / kernel time",
    );
}

/// Bytes of one RF frame's samples.
pub fn rf_bytes(rf: &RfFrame) -> u64 {
    (rf.n_transmits() * rf.n_elements() * rf.n_samples() * 8) as u64
}

/// "LLC <size> MB" for printing next to working-set sizes.
pub fn llc_note() -> String {
    match crate::host::last_level_cache() {
        Some((level, bytes)) => format!("host L{level} cache {:.1} MB", bytes as f64 / 1e6),
        None => "host LLC unknown".to_string(),
    }
}

/// Times `RfFrame::copy_from` of one frame, ms per copy.
pub fn copy_ms_per_frame(rf: &RfFrame, tracer: &mut Tracer) -> f64 {
    let mut dst = RfFrame::zeros_multi(rf.nx(), rf.ny(), rf.n_samples(), rf.n_transmits());
    let g = tracer.begin("sim.copy_from");
    let ms = 1e3
        * seconds_per_call(0.0, || {
            dst.copy_from(rf);
            black_box(&dst);
        });
    tracer.end(g);
    ms
}

/// Times a no-op `JobHandle::run` over `tasks` tasks on `pool`, µs per
/// run.
pub fn dispatch_us(pool: &Arc<ThreadPool>, tasks: usize, tracer: &mut Tracer) -> f64 {
    let mut job = ThreadPool::register(pool);
    let mut states = vec![0u8; tasks.max(2)];
    let g = tracer.begin("par.job_run");
    let us = 1e6
        * seconds_per_call(0.02, || {
            job.run(&mut states, &|_, _| {});
        });
    tracer.end(g);
    us
}

/// Averages engine timings field by field.
pub fn mean_layers(all: &[EngineLayers]) -> EngineLayers {
    let n = all.len().max(1) as f64;
    let sum = |f: fn(&EngineLayers) -> f64| all.iter().map(f).sum::<f64>() / n;
    EngineLayers {
        fill_ns_per_row: sum(|e| e.fill_ns_per_row),
        rx_fill_ns_per_row: sum(|e| e.rx_fill_ns_per_row),
        combine_ns_per_pair: sum(|e| e.combine_ns_per_pair),
        quantize_ns_per_row: sum(|e| e.quantize_ns_per_row),
        delays_per_s: sum(|e| e.delays_per_s),
        gather_ns_per_sample: sum(|e| e.gather_ns_per_sample),
        kernel_ns_per_voxel_tx: sum(|e| e.kernel_ns_per_voxel_tx),
        gather_mac_ns_per_voxel_tx: sum(|e| e.gather_mac_ns_per_voxel_tx),
        volume_tile_s: sum(|e| e.volume_tile_s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usbf_core::{NappeSchedule, TableSteerConfig, TableSteerEngine};

    #[test]
    fn rows_per_volume_matches_a_direct_count() {
        for spec in [SystemSpec::tiny(), usbf_bench::cpwc_spec(4)] {
            let engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
            let mut rows = 0u64;
            for tile in NappeSchedule::fitted(&spec, 4).tiles() {
                let mut slab = NappeDelays::for_tile(&spec, tile);
                for tx in 0..spec.n_transmits() {
                    for id in 0..spec.volume_grid.n_depth() {
                        engine.fill_nappe_streamed_for(tx, id, &mut slab, &mut |_, _| rows += 1);
                    }
                }
            }
            assert_eq!(rows_per_volume(&spec), rows);
        }
    }

    #[test]
    fn masked_pair_frac_matches_a_direct_count() {
        for spec in [SystemSpec::tiny(), usbf_bench::cpwc_spec(16)] {
            let g = &spec.volume_grid;
            let mut masked = 0usize;
            for i in 0..g.voxel_count() {
                let s = g.position(g.voxel_at(i));
                masked += (0..spec.n_transmits())
                    .filter(|&tx| spec.transmit_weight(tx, s) == 0.0)
                    .count();
            }
            let pairs = g.voxel_count() * spec.n_transmits();
            let (frac, n) = masked_pair_frac(&spec);
            assert_eq!(n, pairs as u64);
            assert_eq!(frac, masked as f64 / pairs as f64);
        }
    }
}
