//! Order statistics for latency samples and repeated timings, and the
//! sub-windows a timed window is cut into.

use std::time::Instant;

/// Percentiles the tail metric may report, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank quantile of ascending `sorted` at percentile `p`
/// (0 < p ≤ 100). `NaN` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// epsilon keeps decimal percentiles such as 99.9 from rounding one
/// rank up through binary floating point.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Median of `values` (nearest-rank; `NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p).max(1))
}

/// The tail percentile for `n` samples: the highest entry of
/// [`TAIL_LADDER`] with at least [`TAIL_BEYOND`] samples beyond it, or
/// the ladder's lowest entry when even that has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// Median and tail of one set of latency samples.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Nearest-rank median.
    pub p50: f64,
    /// The value at [`Latency::tail_p`].
    pub tail: f64,
    /// The percentile [`tail_percentile`] chose.
    pub tail_p: f64,
    /// Sample count.
    pub n: usize,
}

impl Latency {
    /// Summarises `samples` (sorted in place).
    pub fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail_p = tail_percentile(n);
        Latency {
            p50: percentile_sorted(samples, 50.0),
            tail: percentile_sorted(samples, tail_p),
            tail_p,
            n,
        }
    }
}

/// Sub-windows a timed window is split into. The end-to-end rates and
/// latencies are medians over them, so host noise (other guests'
/// steal time, cache and memory pressure) that hits part of a run moves
/// them less than a whole-window figure.
pub const SUBWINDOWS: usize = 5;

/// One sub-window of a timed window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Slice {
    /// Index of its first latency sample.
    pub first: usize,
    /// One past its last latency sample.
    pub end: usize,
    /// Volumes completed in it.
    pub volumes: u64,
    /// Wall time, s.
    pub wall_s: f64,
    /// Process CPU time, s.
    pub cpu_s: f64,
}

/// Cuts a closed loop into [`SUBWINDOWS`] slices of equal planned length
/// as it runs, and reports when the whole window is over. Sampling
/// allocates nothing.
pub struct Slicer {
    start: Instant,
    seconds: f64,
    slices: [Slice; SUBWINDOWS],
    closed: usize,
    open_at: Instant,
    open_cpu: f64,
    open_first: usize,
    open_volumes: u64,
    steal0: Option<(u64, u64)>,
}

impl Slicer {
    /// Starts a window of `seconds`.
    pub fn new(seconds: f64) -> Self {
        let now = Instant::now();
        Slicer {
            start: now,
            seconds,
            slices: [Slice::default(); SUBWINDOWS],
            closed: 0,
            open_at: now,
            open_cpu: crate::host::process_cpu_seconds().unwrap_or(0.0),
            open_first: 0,
            open_volumes: 0,
            steal0: crate::host::steal_ticks(),
        }
    }

    /// Call after every frame or round with the running latency-sample
    /// and volume counts; closes the sub-windows whose planned end has
    /// passed and returns `true` once the whole window has.
    pub fn tick(&mut self, samples: usize, volumes: u64) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        while self.closed < SUBWINDOWS
            && elapsed >= (self.closed + 1) as f64 * self.seconds / SUBWINDOWS as f64
        {
            let now = Instant::now();
            let cpu = crate::host::process_cpu_seconds().unwrap_or(0.0);
            self.slices[self.closed] = Slice {
                first: self.open_first,
                end: samples,
                volumes: volumes - self.open_volumes,
                wall_s: (now - self.open_at).as_secs_f64(),
                cpu_s: cpu - self.open_cpu,
            };
            self.closed += 1;
            (self.open_at, self.open_cpu) = (now, cpu);
            (self.open_first, self.open_volumes) = (samples, volumes);
        }
        self.closed == SUBWINDOWS
    }

    /// The sub-windows that completed at least one volume, and the share
    /// of machine CPU time the hypervisor stole meanwhile.
    pub fn finish(self) -> (Vec<Slice>, Option<f64>) {
        let steal = crate::host::steal_fraction(self.steal0, crate::host::steal_ticks());
        let slices = self.slices[..self.closed]
            .iter()
            .copied()
            .filter(|s| s.volumes > 0)
            .collect();
        (slices, steal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 9.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(5), 50.0);
        for n in [20, 40, 100, 1000, 10_000, 100_000] {
            assert!(beyond(n, tail_percentile(n)) >= TAIL_BEYOND, "n={n}");
        }
    }

    #[test]
    fn slicer_closes_every_sub_window() {
        let mut s = Slicer::new(0.05);
        let mut samples = 0;
        while !s.tick(samples, samples as u64) {
            samples += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (slices, _) = s.finish();
        assert_eq!(slices.len(), SUBWINDOWS);
        assert!(slices.iter().map(|s| s.wall_s).sum::<f64>() >= 0.05);
        assert_eq!(slices[0].first, 0);
        assert_eq!(slices[SUBWINDOWS - 1].end, samples);
        for w in slices.windows(2) {
            assert_eq!(w[0].end, w[1].first);
        }
        assert_eq!(
            slices.iter().map(|s| s.volumes).sum::<u64>(),
            samples as u64
        );
    }
}
