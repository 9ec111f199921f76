//! Metric names and units, the human-readable record and the final JSON
//! line.

use crate::stats::{self, Slice};
use crate::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics printed by the untraced run, as `(name, unit)`.
/// `BENCHMARK.json` lists exactly these.
pub const END_TO_END: [(&str, &str); 7] = [
    ("volumes_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("cpu_ms_per_volume", "ms"),
    ("sel_err_mean", "samples"),
];

/// `failed_frac` is printed with the end-to-end metrics but is not one
/// of the JSON metrics: it reads 0 on a correct program, and the JSON
/// line carries the same figure as its `attempted` and `failed` counts.
pub const FAILED_FRAC: (&str, &str) = ("failed_frac", "ratio");

/// Per-layer metrics printed by the traced run, as `(name, unit)`.
/// `BENCHMARK.json` lists exactly these.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.fill_ns_per_row", "ns"),
    ("core.rx_fill_ns_per_row", "ns"),
    ("core.combine_ns_per_pair", "ns"),
    ("core.quantize_ns_per_row", "ns"),
    ("core.delays_per_s", "1/s"),
    ("core.rows_per_volume", "count"),
    ("core.masked_pair_frac", "ratio"),
    ("core.clamps_per_volume", "count"),
    ("core.sqrt_evals_per_volume", "count"),
    ("core.table_mb", "MB"),
    ("sim.copy_ms_per_frame", "ms"),
    ("sim.gather_ns_per_sample", "ns"),
    ("sim.rf_mb", "MB"),
    ("kernel.ns_per_voxel_tx", "ns"),
    ("kernel.gather_mac_ns_per_voxel_tx", "ns"),
    ("kernel.bytes_per_voxel_tx", "B"),
    ("kernel.macs_per_s", "1/s"),
    ("post.bmode_ns_per_voxel", "ns"),
    ("view.mip_us", "us"),
    ("par.dispatch_us", "us"),
    ("par.steals_per_volume", "count"),
    ("par.busy_frac", "ratio"),
    ("pipeline.submit_us", "us"),
    ("pipeline.wait_ms", "ms"),
    ("pipeline.acquire_wait_ms", "ms"),
    ("pipeline.overlap_frac", "ratio"),
    ("pipeline.allocs_per_volume", "count"),
    ("sharded.round_ms_p50", "ms"),
    ("sharded.round_ms_tail", "ms"),
    ("sharded.attach_ms", "ms"),
    ("sharded.detach_ms", "ms"),
    ("sharded.deferred_per_round", "count"),
    ("sharded.rejected", "count"),
    ("setup.engine_ms", "ms"),
    ("setup.pipeline_ms", "ms"),
    ("setup.first_volume_ms", "ms"),
];

/// One measured value with its sample count and an optional note
/// (percentile, "derived", "computed", ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The figure, in the metric's unit.
    pub value: f64,
    /// How many samples it summarises.
    pub n: u64,
    /// Printed after the sample count.
    pub note: String,
}

/// Metric values of one run, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    /// Records `name`.
    pub fn set(&mut self, name: &'static str, value: f64, n: u64, note: impl Into<String>) {
        self.0.insert(
            name,
            Value {
                value,
                n,
                note: note.into(),
            },
        );
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.value)
    }

    /// One `prefix name = value unit (n=.., note)` line per entry of
    /// `table`; entries never recorded print as not run.
    pub fn lines(&self, prefix: &str, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in table {
            match self.0.get(name) {
                Some(v) => {
                    let note = if v.note.is_empty() {
                        String::new()
                    } else {
                        format!(", {}", v.note)
                    };
                    let _ = writeln!(
                        out,
                        "{prefix} {name:<36} = {:>14.6} {unit:<8} (n={}{note})",
                        v.value, v.n
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{prefix} {name:<36} = {:>14} {unit:<8} (layer does not run on this workload; reported as 0)",
                        "n/a"
                    );
                }
            }
        }
        out
    }

    /// The final JSON line: every metric of `table` (0 where the layer
    /// does not run), with the run's verdict and counts.
    pub fn json(
        &self,
        table: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            attempted.max(1)
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Phase times of one set-up, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Engine construction.
    pub engine_s: f64,
    /// Pipeline or runtime construction.
    pub pipeline_s: f64,
    /// The first volume (or round).
    pub first_volume_s: f64,
    /// From the engine constructor to the first volume in hand.
    pub total_s: f64,
}

/// What the end-to-end metrics of one timed window are computed from.
pub struct EndToEnd<'a> {
    /// Latency samples, ms, in completion order.
    pub latencies_ms: &'a [f64],
    /// The window's sub-windows (see [`stats::SUBWINDOWS`]).
    pub slices: &'a [Slice],
    /// Share of machine CPU time stolen by the hypervisor meanwhile.
    pub steal: Option<f64>,
    /// The run's set-ups.
    pub setups: &'a [SetupTimes],
    /// Peak live heap above the post-input baseline, bytes.
    pub peak_heap_bytes: usize,
    /// Mean selection error and its sample count.
    pub sel_err: (f64, usize),
    /// Attempted and failed frames of the whole run.
    pub tally: Tally,
}

impl Metrics {
    /// Records every end-to-end metric, `failed_frac` included. Rates
    /// and latencies are medians over the sub-windows; every sub-window's
    /// tail uses the same percentile, chosen for the smallest one.
    pub fn record_end_to_end(&mut self, e: &EndToEnd<'_>) {
        let volumes: u64 = e.slices.iter().map(|s| s.volumes).sum();
        let samples = e.latencies_ms.len() as u64;
        let min_n = e.slices.iter().map(|s| s.end - s.first).min().unwrap_or(0);
        let tail_p = stats::tail_percentile(min_n);
        let per_slice = |f: &dyn Fn(&Slice) -> f64| {
            stats::median(&e.slices.iter().map(f).collect::<Vec<f64>>())
        };
        let sorted = |s: &Slice| {
            let mut v = e.latencies_ms[s.first..s.end].to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let steal = e
            .steal
            .map_or(String::new(), |f| format!(", host steal {:.1}%", f * 100.0));
        let subs = format!("median of {} sub-windows", e.slices.len());
        self.set(
            "volumes_per_s",
            per_slice(&|s| s.volumes as f64 / s.wall_s),
            volumes,
            format!("{subs}{steal}"),
        );
        self.set(
            "frame_ms_p50",
            per_slice(&|s| stats::percentile_sorted(&sorted(s), 50.0)),
            samples,
            subs.clone(),
        );
        self.set(
            "frame_ms_tail",
            per_slice(&|s| stats::percentile_sorted(&sorted(s), tail_p)),
            samples,
            format!("p{tail_p} of each sub-window, {subs}"),
        );
        let setup_s: Vec<f64> = e.setups.iter().map(|t| t.total_s).collect();
        self.set(
            "setup_s",
            stats::median(&setup_s),
            setup_s.len() as u64,
            "median of set-ups",
        );
        self.set(
            "peak_heap_mb",
            e.peak_heap_bytes as f64 / 1e6,
            1,
            "above the post-input baseline",
        );
        self.set(
            "cpu_ms_per_volume",
            per_slice(&|s| s.cpu_s * 1e3 / s.volumes as f64),
            volumes,
            format!("user+sys, {subs}"),
        );
        self.set(
            "failed_frac",
            e.tally.failed as f64 / e.tally.attempted.max(1) as f64,
            e.tally.attempted,
            "every frame of the run",
        );
        self.set("sel_err_mean", e.sel_err.0, e.sel_err.1 as u64, "vs EXACT");
    }

    /// Records the `setup.*` metrics: medians over the traced set-ups.
    pub fn record_setup_layers(&mut self, traced: &[SetupTimes]) {
        let n = traced.len() as u64;
        let med = |f: fn(&SetupTimes) -> f64| {
            stats::median(&traced.iter().map(f).collect::<Vec<f64>>()) * 1e3
        };
        self.set("setup.engine_ms", med(|t| t.engine_s), n, "median span");
        self.set("setup.pipeline_ms", med(|t| t.pipeline_s), n, "median span");
        self.set(
            "setup.first_volume_ms",
            med(|t| t.first_volume_s),
            n,
            "median span",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_every_metric_once() {
        let mut m = Metrics::default();
        m.set("volumes_per_s", 1.25, 10, "");
        let j = m.json(&END_TO_END, true, 10, 0);
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(j.contains("\"volumes_per_s\": {\"value\": 1.25, \"unit\": \"1/s\"}"));
        assert!(j.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert_eq!(j.matches(&format!("\"{name}\"")).count(), 1);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }
}
