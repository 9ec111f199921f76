//! A seeded benchmark of the usbf beamformer.
//!
//! One command takes a workload name and a seed, generates that
//! workload's inputs, drives the program from a single thread through
//! its public API, checks the outputs against the scalar oracle, and
//! prints its metrics. The untraced run (`--trace 0`) prints the
//! end-to-end metrics; the traced run (`--trace 1`) records spans around
//! the calls into each layer and prints the per-layer metrics, each
//! layer's self time and the tracing overhead. See `README.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod fleet;
pub mod host;
pub mod layers;
pub mod pipeline;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

use report::{Metrics, END_TO_END, FAILED_FRAC, PER_LAYER};
use std::fmt::Write as _;
use trace::Tracer;

/// Pool workers of every workload (the host has 2 vCPUs).
pub const WORKERS: usize = 2;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["volume-1tx", "cpwc-16", "fleet-churn"];

/// Frames (or shard frames and attaches) attempted and failed in a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Frames submitted, plus attaches for `fleet-churn`.
    pub attempted: u64,
    /// Output-check failures, pipeline and round errors, rejected
    /// attaches.
    pub failed: u64,
}

/// Everything a run measured.
#[derive(Default)]
pub struct RunResult {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Traced run only: the end-to-end metrics of its untraced and its
    /// traced window.
    pub overhead: Option<(Metrics, Metrics)>,
    /// Attempted and failed frames over the whole run.
    pub tally: Tally,
    /// The run's spans (empty unless traced).
    pub tracer: Option<Tracer>,
}

/// Runs `workload` (one of [`WORKLOADS`]); `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<RunResult> {
    Some(match workload {
        "volume-1tx" => pipeline::run(
            workload,
            &pipeline::PipelineShape::volume_1tx(),
            seed,
            seconds,
            trace,
        ),
        "cpwc-16" => pipeline::run(
            workload,
            &pipeline::PipelineShape::cpwc_16(),
            seed,
            seconds,
            trace,
        ),
        "fleet-churn" => fleet::run(
            workload,
            &fleet::FleetShape::fleet_churn(),
            seed,
            seconds,
            trace,
        ),
        _ => return None,
    })
}

/// The printed report of a run, ending with the JSON result line.
pub fn render(result: &RunResult, trace: bool) -> String {
    let mut out = String::new();
    let correct = result.tally.failed == 0;
    let mut e2e = END_TO_END.to_vec();
    e2e.push(FAILED_FRAC);
    if !trace {
        out.push_str(&result.metrics.lines("e2e", &e2e));
    } else {
        out.push_str(&result.metrics.lines("layer", &PER_LAYER));
        if let Some(tracer) = &result.tracer {
            out.push_str(&self_time_table(tracer));
        }
        if let Some((untraced, traced)) = &result.overhead {
            out.push_str("tracing overhead: traced window - untraced window, same run\n");
            for (name, unit) in &e2e {
                let (u, t) = (
                    untraced.get(name).unwrap_or(f64::NAN),
                    traced.get(name).unwrap_or(f64::NAN),
                );
                let _ = writeln!(
                    out,
                    "overhead {name:<20} untraced {u:>14.6} traced {t:>14.6} diff {:>+14.6} {unit}",
                    t - u
                );
            }
        }
    }
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    out.push_str(
        &result
            .metrics
            .json(table, correct, result.tally.attempted, result.tally.failed),
    );
    out.push('\n');
    out
}

/// Per span name and per layer: spans, total and self time.
pub fn self_time_table(tracer: &Tracer) -> String {
    let times = trace::self_times(tracer.spans());
    let mut out = format!(
        "spans recorded {} (dropped {}); self time = span time minus child spans\n",
        tracer.spans().len(),
        tracer.dropped()
    );
    let mut layers: std::collections::BTreeMap<&str, u64> = Default::default();
    for (name, t) in &times {
        let _ = writeln!(
            out,
            "span {name:<34} n={:<8} total {:>12.3} ms  self {:>12.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
        *layers.entry(trace::layer_of(name)).or_default() += t.self_ns;
    }
    // Per layer only self time adds up: a layer's spans may nest inside
    // each other (`setup` around `setup.engine`).
    for (layer, own) in &layers {
        let _ = writeln!(out, "self-time {layer:<12} {:>12.3} ms", *own as f64 / 1e6);
    }
    out
}
