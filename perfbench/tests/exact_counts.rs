//! Counts the benchmark reports as exact — TABLESTEER clamps, TABLEFREE
//! square-root evaluations and warm-frame allocations per volume —
//! repeat exactly across two runs. One test only: the allocation
//! counter is process-wide, so no other test may run beside it.

use perfbench::pipeline::{self, PipelineShape};
use perfbench::trace::Tracer;
use perfbench::workload::EngineKind;
use perfbench::Tally;
use std::sync::Arc;
use usbf_geometry::SystemSpec;
use usbf_par::ThreadPool;

fn small(spec: SystemSpec, kind: EngineKind) -> PipelineShape {
    PipelineShape {
        spec,
        kind,
        ring: 2,
        scatterers: 100,
        check_voxels: 0,
        setup_reps: 1,
        warmup_frames: 3,
        sel_err_triples: 100,
    }
}

/// Clamps, square-root evaluations and allocation calls per volume over
/// a short warm window.
fn per_volume(shape: &PipelineShape) -> [f64; 3] {
    let pool = Arc::new(ThreadPool::new(perfbench::WORKERS));
    let mut inputs = pipeline::generate(shape, 7, 1);
    let mut tracer = Tracer::new(false, 0);
    let mut tally = Tally::default();
    let ring = inputs.rings.pop().expect("one ring");
    let (mut live, _) =
        pipeline::setup(shape, ring, &pool, &inputs.oracles, &mut tracer, &mut tally);
    pipeline::warm_up(&mut live, &inputs.oracles, shape.warmup_frames, &mut tally);
    let w = pipeline::run_window(
        &mut live,
        &pool,
        &inputs.oracles,
        &mut tracer,
        0.2,
        &mut tally,
    );
    assert_eq!(tally.failed, 0, "outputs match the oracle");
    let v = w.volumes() as f64;
    assert!(v >= 1.0);
    [
        w.clamps as f64 / v,
        w.sqrt_evals as f64 / v,
        w.allocs as f64 / v,
    ]
}

#[test]
fn exact_counts_repeat_across_runs() {
    let steer = small(usbf_bench::cpwc_spec(4), EngineKind::TableSteer18);
    let free = small(SystemSpec::tiny(), EngineKind::TableFree);
    for shape in [&steer, &free] {
        let a = per_volume(shape);
        let b = per_volume(shape);
        assert_eq!(a, b, "{}", shape.kind.name());
        assert_eq!(a[2], 0.0, "warm frames allocate nothing");
    }
    assert!(
        per_volume(&free)[1] > 0.0,
        "TABLEFREE evaluates square roots"
    );

    // The fleet's counters, through the traced run.
    let keys = [
        "core.clamps_per_volume",
        "core.sqrt_evals_per_volume",
        "core.rows_per_volume",
        "core.masked_pair_frac",
        "pipeline.allocs_per_volume",
    ];
    let run = || {
        let r = perfbench::run("fleet-churn", 3, 0.6, true).expect("known workload");
        assert_eq!(r.tally.failed, 0);
        keys.map(|k| r.metrics.get(k).expect("recorded"))
    };
    assert_eq!(run(), run());
}
