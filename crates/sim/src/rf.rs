//! Sampled RF receive data: one echo buffer per element.

use usbf_geometry::ElementIndex;

/// A frame of receive data: `n_elements` traces of `n_samples` each,
/// sampled at the system's `fs`. Element traces are stored row-major in
/// the transducer's linear order (`iy·nx + ix`).
///
/// Consecutive traces start one 64-byte cache line (8 samples) apart
/// beyond their length: the channel stride is `n_samples +
/// TRACE_PAD`. A power-of-two trace length would otherwise put sample
/// `i` of every channel in the same cache set, and a gather that reads
/// one sample from each of hundreds of channels would evict itself
/// (a reduced-spec trace is 8192 samples, a 64 KiB stride). The
/// padding samples stay `0.0` and no accessor exposes them: traces,
/// samples and gathers see exactly `n_samples` per channel.
///
/// A frame may hold the acquisitions of several **transmit events**
/// (coherent plane-wave compounding fires the full aperture once per
/// steering angle and keeps every acquisition until the compound sum):
/// the sample buffer is transmit-major, one full `n_elements ×
/// n_samples` block per transmit. A single-transmit frame
/// ([`RfFrame::zeros`]) is block 0 alone, so every historical accessor
/// keeps its meaning unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct RfFrame {
    data: Vec<f64>,
    nx: usize,
    ny: usize,
    n_samples: usize,
    n_transmits: usize,
    /// Start offset of every channel's trace within one transmit block,
    /// in linear element order — precomputed once so the gather paths
    /// never re-derive `linear(e) * stride` per fetch.
    bases: Vec<usize>,
}

/// Zero samples appended to every channel trace: one 64-byte cache line
/// of `f64`, so the channel stride is never a power of two.
const TRACE_PAD: usize = 8;

impl RfFrame {
    /// Allocates a zeroed single-transmit frame for an `nx × ny` probe
    /// with `n_samples` per trace.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(nx: usize, ny: usize, n_samples: usize) -> Self {
        Self::zeros_multi(nx, ny, n_samples, 1)
    }

    /// Allocates a zeroed frame holding `n_transmits` acquisitions — one
    /// `nx × ny × n_samples` block per transmit event of a compound
    /// sequence.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros_multi(nx: usize, ny: usize, n_samples: usize, n_transmits: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && n_samples > 0 && n_transmits > 0,
            "dimensions must be nonzero"
        );
        let stride = n_samples + TRACE_PAD;
        RfFrame {
            data: vec![0.0; n_transmits * nx * ny * stride],
            nx,
            ny,
            n_samples,
            n_transmits,
            bases: (0..nx * ny).map(|l| l * stride).collect(),
        }
    }

    /// Number of element traces.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.nx * self.ny
    }

    /// Element-grid width (probe `nx`).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Element-grid height (probe `ny`).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Samples per trace (the echo-buffer depth).
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Transmit acquisitions held by this frame (1 for the classic
    /// single-emission frame).
    #[inline]
    pub fn n_transmits(&self) -> usize {
        self.n_transmits
    }

    /// Distance between the starts of consecutive channel traces, in
    /// samples: `n_samples + TRACE_PAD`.
    #[inline]
    fn stride(&self) -> usize {
        self.n_samples + TRACE_PAD
    }

    /// Flat-sample offset of transmit block `tx`.
    #[inline]
    fn transmit_base(&self, tx: usize) -> usize {
        debug_assert!(tx < self.n_transmits, "transmit {tx} out of range");
        tx * self.nx * self.ny * self.stride()
    }

    #[inline]
    fn linear(&self, e: ElementIndex) -> usize {
        debug_assert!(e.ix < self.nx && e.iy < self.ny, "element {e} out of range");
        e.iy * self.nx + e.ix
    }

    /// One element's full trace (transmit 0).
    pub fn trace(&self, e: ElementIndex) -> &[f64] {
        self.trace_for(0, e)
    }

    /// Mutable trace access for transmit 0 (used by the synthesizer).
    pub fn trace_mut(&mut self, e: ElementIndex) -> &mut [f64] {
        self.trace_for_mut(0, e)
    }

    /// One element's trace of transmit event `tx`.
    pub fn trace_for(&self, tx: usize, e: ElementIndex) -> &[f64] {
        let start = self.transmit_base(tx) + self.bases[self.linear(e)];
        &self.data[start..start + self.n_samples]
    }

    /// Mutable trace access for transmit event `tx`.
    pub fn trace_for_mut(&mut self, tx: usize, e: ElementIndex) -> &mut [f64] {
        let start = self.transmit_base(tx) + self.bases[self.linear(e)];
        &mut self.data[start..start + self.n_samples]
    }

    /// Sample `idx` of element `e` (transmit 0), with out-of-range
    /// indices reading as zero (the hardware clamps fetches to the buffer
    /// window; zero keeps clamped fetches from biasing sums).
    #[inline]
    pub fn sample(&self, e: ElementIndex, idx: i64) -> f64 {
        self.sample_for(0, e, idx)
    }

    /// Sample `idx` of element `e` in transmit block `tx`, with
    /// out-of-range indices reading as zero.
    #[inline]
    pub fn sample_for(&self, tx: usize, e: ElementIndex, idx: i64) -> f64 {
        if idx < 0 || idx >= self.n_samples as i64 {
            return 0.0;
        }
        self.data[self.transmit_base(tx) + self.bases[self.linear(e)] + idx as usize]
    }

    /// Linearly interpolated fractional-sample read of transmit 0
    /// (extension beyond the paper's nearest-index fetch).
    #[inline]
    pub fn sample_interp(&self, e: ElementIndex, t: f64) -> f64 {
        self.sample_interp_for(0, e, t)
    }

    /// Linearly interpolated fractional-sample read of transmit `tx`.
    #[inline]
    pub fn sample_interp_for(&self, tx: usize, e: ElementIndex, t: f64) -> f64 {
        let i0 = t.floor() as i64;
        let frac = t - i0 as f64;
        self.sample_for(tx, e, i0) * (1.0 - frac) + self.sample_for(tx, e, i0 + 1) * frac
    }

    /// Start offset of every channel's trace in the flat sample buffer,
    /// in linear element order (`iy·nx + ix`) — precomputed at
    /// construction for the gather paths. Consecutive bases are
    /// `n_samples + TRACE_PAD` apart.
    #[inline]
    pub fn channel_bases(&self) -> &[usize] {
        &self.bases
    }

    /// Gathers one nearest-index sample per channel: for each position
    /// `k`, reads sample `indices[k]` of flat channel `channels[k]` into
    /// `out[k]`. Out-of-window indices read as `0.0` through a branchless
    /// in-range mask — the same clamped-fetch semantics as
    /// [`RfFrame::sample`], without its per-fetch channel-offset
    /// recompute or early return. This is the fetch stage of the
    /// beamformer's vectorized inner kernel.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a channel is out of
    /// range.
    #[inline]
    pub fn gather_nearest_into(&self, channels: &[u32], indices: &[i32], out: &mut [f64]) {
        self.gather_nearest_into_for(0, channels, indices, out);
    }

    /// [`gather_nearest_into`](Self::gather_nearest_into) over transmit
    /// block `tx` — the fetch stage of the compound kernel, reading one
    /// steering angle's acquisition. Transmit 0 is bit-identical to the
    /// single-transmit gather (the block offset is zero).
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a channel is out of
    /// range.
    #[inline]
    pub fn gather_nearest_into_for(
        &self,
        tx: usize,
        channels: &[u32],
        indices: &[i32],
        out: &mut [f64],
    ) {
        assert_eq!(channels.len(), indices.len(), "one index per channel");
        assert_eq!(channels.len(), out.len(), "one output slot per channel");
        let n = self.n_samples;
        let base = self.transmit_base(tx);
        // Four independent fetch lanes per iteration: each lane is a pure
        // load + select with no cross-lane dependency, so unrolling wides
        // the memory-level parallelism without touching the arithmetic —
        // every lane computes exactly what the scalar loop computes, and
        // no accumulation exists to reassociate, so the unroll is
        // trivially bit-identical.
        let mut oc = out.chunks_exact_mut(4);
        let mut cc = channels.chunks_exact(4);
        let mut ic = indices.chunks_exact(4);
        for ((o, c), i) in (&mut oc).zip(&mut cc).zip(&mut ic) {
            o[0] = self.fetch_nearest(base, c[0], i[0], n);
            o[1] = self.fetch_nearest(base, c[1], i[1], n);
            o[2] = self.fetch_nearest(base, c[2], i[2], n);
            o[3] = self.fetch_nearest(base, c[3], i[3], n);
        }
        for ((o, &c), &i) in oc
            .into_remainder()
            .iter_mut()
            .zip(cc.remainder())
            .zip(ic.remainder())
        {
            *o = self.fetch_nearest(base, c, i, n);
        }
    }

    /// One nearest-index fetch lane of the gather: negative indices wrap
    /// to huge values under the unsigned compare, so one test covers both
    /// window edges; the conditional compiles to a select, not a branch,
    /// and the masked fetch reads the trace head so it never faults.
    #[inline(always)]
    fn fetch_nearest(&self, base: usize, c: u32, i: i32, n: usize) -> f64 {
        let inside = (i as usize) < n;
        let v = self.data[base + self.bases[c as usize] + if inside { i as usize } else { 0 }];
        if inside {
            v
        } else {
            0.0
        }
    }

    /// Gathers one linearly interpolated sample per channel: for each
    /// position `k`, reads the fractional delay `delays[k]` of flat
    /// channel `channels[k]` into `out[k]`, bit-identical to
    /// [`RfFrame::sample_interp`] (same floor/blend arithmetic, same
    /// zero reads outside the window) with the channel offset looked up
    /// once and branchless edge masks.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a channel is out of
    /// range.
    #[inline]
    pub fn gather_linear_into(&self, channels: &[u32], delays: &[f64], out: &mut [f64]) {
        self.gather_linear_into_for(0, channels, delays, out);
    }

    /// [`gather_linear_into`](Self::gather_linear_into) over transmit
    /// block `tx`. Transmit 0 is bit-identical to the single-transmit
    /// gather.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a channel is out of
    /// range.
    #[inline]
    pub fn gather_linear_into_for(
        &self,
        tx: usize,
        channels: &[u32],
        delays: &[f64],
        out: &mut [f64],
    ) {
        assert_eq!(channels.len(), delays.len(), "one delay per channel");
        assert_eq!(channels.len(), out.len(), "one output slot per channel");
        let n = self.n_samples as u64;
        let tx_base = self.transmit_base(tx);
        // Same 4-lane unroll as the nearest gather: each lane's
        // floor/blend arithmetic is per-element and independent, so the
        // unroll stays bit-identical to the scalar loop.
        let mut oc = out.chunks_exact_mut(4);
        let mut cc = channels.chunks_exact(4);
        let mut dc = delays.chunks_exact(4);
        for ((o, c), t) in (&mut oc).zip(&mut cc).zip(&mut dc) {
            o[0] = self.fetch_linear(tx_base, c[0], t[0], n);
            o[1] = self.fetch_linear(tx_base, c[1], t[1], n);
            o[2] = self.fetch_linear(tx_base, c[2], t[2], n);
            o[3] = self.fetch_linear(tx_base, c[3], t[3], n);
        }
        for ((o, &c), &t) in oc
            .into_remainder()
            .iter_mut()
            .zip(cc.remainder())
            .zip(dc.remainder())
        {
            *o = self.fetch_linear(tx_base, c, t, n);
        }
    }

    /// One linear-interpolation fetch lane: the same floor/blend
    /// arithmetic as [`RfFrame::sample_interp`], with branchless edge
    /// masks on both neighbouring reads.
    #[inline(always)]
    fn fetch_linear(&self, tx_base: usize, c: u32, t: f64, n: u64) -> f64 {
        let base = tx_base + self.bases[c as usize];
        let i0 = t.floor() as i64;
        let frac = t - i0 as f64;
        let in0 = (i0 as u64) < n;
        let in1 = ((i0 + 1) as u64) < n;
        let r0 = self.data[base + if in0 { i0 as usize } else { 0 }];
        let r1 = self.data[base + if in1 { (i0 + 1) as usize } else { 0 }];
        let v0 = if in0 { r0 } else { 0.0 };
        let v1 = if in1 { r1 } else { 0.0 };
        v0 * (1.0 - frac) + v1 * frac
    }

    /// Block gather + multiply-accumulate over transmit block `tx`, with
    /// nearest-index fetch: for each of the `B` block voxels `j`,
    /// `acc[j] += weights[k] · sample(channels[k], indices[j·a + k])`
    /// over the aperture positions `k` in ascending order, where `a =
    /// channels.len()` and `indices` holds one quantized index row per
    /// block voxel. Out-of-window indices read as `0.0`, as in
    /// [`gather_nearest_into_for`](Self::gather_nearest_into_for).
    ///
    /// The loop is channel-major: the block's reads of one channel land
    /// on the same one or two cache lines, and the `B` accumulators are
    /// independent chains held in registers. Each voxel still adds its
    /// channels in ascending order into its own accumulator, so `acc[j]`
    /// is bit-identical to a sequential `Σ_k w[k] · s[k]` over the
    /// gathered row.
    ///
    /// # Panics
    ///
    /// Panics if `weights` and `channels` differ in length, if `indices`
    /// does not hold one row per accumulator, or a channel is out of
    /// range.
    pub fn gather_mac_nearest_block_for<const B: usize>(
        &self,
        tx: usize,
        channels: &[u32],
        weights: &[f64],
        indices: &[i32],
        acc: &mut [f64; B],
    ) {
        let a = channels.len();
        assert_eq!(weights.len(), a, "one weight per channel");
        assert_eq!(indices.len(), B * a, "one index row per voxel");
        let rows: [&[i32]; B] = std::array::from_fn(|j| &indices[j * a..(j + 1) * a]);
        let n = self.n_samples;
        let base = self.transmit_base(tx);
        let mut sums = *acc;
        for (k, (&c, &w)) in channels.iter().zip(weights).enumerate() {
            let start = base + self.bases[c as usize];
            let trace = &self.data[start..start + n];
            for (s, row) in sums.iter_mut().zip(&rows) {
                let i = row[k];
                // Negative indices wrap past `n` under the unsigned
                // compare; the masked read hits the trace head.
                let inside = (i as usize) < n;
                let v = trace[if inside { i as usize } else { 0 }];
                *s += w * if inside { v } else { 0.0 };
            }
        }
        *acc = sums;
    }

    /// [`gather_mac_nearest_block_for`](Self::gather_mac_nearest_block_for)
    /// with a linearly interpolated fetch: `delays` holds one row of
    /// fractional delays per block voxel, read exactly as
    /// [`gather_linear_into_for`](Self::gather_linear_into_for) reads
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `weights` and `channels` differ in length, if `delays`
    /// does not hold one row per accumulator, or a channel is out of
    /// range.
    pub fn gather_mac_linear_block_for<const B: usize>(
        &self,
        tx: usize,
        channels: &[u32],
        weights: &[f64],
        delays: &[f64],
        acc: &mut [f64; B],
    ) {
        let a = channels.len();
        assert_eq!(weights.len(), a, "one weight per channel");
        assert_eq!(delays.len(), B * a, "one delay row per voxel");
        let rows: [&[f64]; B] = std::array::from_fn(|j| &delays[j * a..(j + 1) * a]);
        let n = self.n_samples as u64;
        let tx_base = self.transmit_base(tx);
        let mut sums = *acc;
        for (k, (&c, &w)) in channels.iter().zip(weights).enumerate() {
            for (s, row) in sums.iter_mut().zip(&rows) {
                *s += w * self.fetch_linear(tx_base, c, row[k], n);
            }
        }
        *acc = sums;
    }

    /// Sets every sample of every trace to `value` (no reallocation) —
    /// how warm frame buffers are cleared between acquisitions. The
    /// padding between traces stays zero.
    pub fn fill(&mut self, value: f64) {
        let (n, stride) = (self.n_samples, self.stride());
        for trace in self.data.chunks_exact_mut(stride) {
            trace[..n].fill(value);
        }
    }

    /// Copies another frame's samples into this one, reusing this
    /// frame's buffer — the handoff a prerecorded frame ring performs
    /// per acquisition.
    ///
    /// # Panics
    ///
    /// Panics if the two frames' dimensions differ.
    pub fn copy_from(&mut self, src: &RfFrame) {
        assert!(
            self.nx == src.nx
                && self.ny == src.ny
                && self.n_samples == src.n_samples
                && self.n_transmits == src.n_transmits,
            "frame shapes must match: {}x{}x{}x{} vs {}x{}x{}x{}",
            self.n_transmits,
            self.nx,
            self.ny,
            self.n_samples,
            src.n_transmits,
            src.nx,
            src.ny,
            src.n_samples
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Largest |sample| in the frame (the zero padding cannot raise it).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Total energy (sum of squares; the zero padding adds exact zeros).
    pub fn energy(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_independent() {
        let mut rf = RfFrame::zeros(3, 2, 10);
        rf.trace_mut(ElementIndex::new(1, 0))[5] = 2.5;
        assert_eq!(rf.sample(ElementIndex::new(1, 0), 5), 2.5);
        assert_eq!(rf.sample(ElementIndex::new(0, 0), 5), 0.0);
        assert_eq!(rf.sample(ElementIndex::new(1, 1), 5), 0.0);
    }

    #[test]
    fn out_of_range_reads_zero() {
        let rf = RfFrame::zeros(2, 2, 8);
        let e = ElementIndex::new(0, 0);
        assert_eq!(rf.sample(e, -1), 0.0);
        assert_eq!(rf.sample(e, 8), 0.0);
        assert_eq!(rf.sample(e, 7), 0.0);
    }

    #[test]
    fn interpolation_is_linear() {
        let mut rf = RfFrame::zeros(1, 1, 4);
        let e = ElementIndex::new(0, 0);
        rf.trace_mut(e).copy_from_slice(&[0.0, 1.0, 3.0, 0.0]);
        assert_eq!(rf.sample_interp(e, 1.0), 1.0);
        assert!((rf.sample_interp(e, 1.5) - 2.0).abs() < 1e-12);
        assert!((rf.sample_interp(e, 0.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn channel_bases_cover_every_trace() {
        // Stride = 10 samples + one cache line of padding.
        let rf = RfFrame::zeros(3, 2, 10);
        assert_eq!(rf.channel_bases(), &[0, 18, 36, 54, 72, 90]);
    }

    /// Every padding sample of the frame, in buffer order.
    fn padding(rf: &RfFrame) -> Vec<f64> {
        let n = rf.n_samples();
        rf.data
            .chunks_exact(n + TRACE_PAD)
            .flat_map(|trace| trace[n..].iter().copied())
            .collect()
    }

    /// A frame whose every trace sample is nonzero and distinct, with the
    /// padding left untouched.
    fn ramp_frame(nx: usize, ny: usize, n: usize, n_tx: usize) -> RfFrame {
        let mut rf = RfFrame::zeros_multi(nx, ny, n, n_tx);
        for tx in 0..n_tx {
            for l in 0..nx * ny {
                let e = ElementIndex::new(l % nx, l / nx);
                for (i, v) in rf.trace_for_mut(tx, e).iter_mut().enumerate() {
                    *v = 1.0 + (tx * 1000 + l * n + i) as f64;
                }
            }
        }
        rf
    }

    #[test]
    fn traces_never_show_the_padding() {
        let rf = ramp_frame(3, 2, 10, 2);
        assert_eq!(padding(&rf).len(), 2 * 6 * TRACE_PAD);
        assert!(padding(&rf).iter().all(|&v| v == 0.0));
        for tx in 0..2 {
            for l in 0..6 {
                let e = ElementIndex::new(l % 3, l / 3);
                let trace = rf.trace_for(tx, e);
                assert_eq!(trace.len(), 10);
                assert!(trace.iter().all(|&v| v != 0.0), "tx {tx} element {e}");
                assert_eq!(trace[9], 1.0 + (tx * 1000 + l * 10 + 9) as f64);
            }
        }
        let e = ElementIndex::new(2, 1);
        assert_eq!(rf.trace(e), rf.trace_for(0, e));
    }

    #[test]
    fn fill_writes_traces_only() {
        let mut rf = RfFrame::zeros_multi(3, 2, 10, 2);
        rf.fill(-3.0);
        assert!(padding(&rf).iter().all(|&v| v == 0.0));
        assert_eq!(rf.max_abs(), 3.0);
        assert_eq!(rf.energy(), 9.0 * (2 * 6 * 10) as f64);
        rf.fill(0.5);
        assert_eq!(rf.max_abs(), 0.5);
        assert_eq!(rf.energy(), 0.25 * (2 * 6 * 10) as f64);
    }

    #[test]
    fn equality_and_copy_see_traces_only() {
        let src = ramp_frame(3, 2, 10, 2);
        assert_eq!(src, ramp_frame(3, 2, 10, 2));
        let mut dst = RfFrame::zeros_multi(3, 2, 10, 2);
        dst.fill(7.0);
        assert_ne!(dst, src);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert!(padding(&dst).iter().all(|&v| v == 0.0));
        assert_eq!(dst.energy(), src.energy());
    }

    #[test]
    fn edge_reads_never_reach_the_padding() {
        // Poison the padding: any read that strays past a trace end (or
        // before a trace start, into the previous trace's padding) shows
        // up as NaN.
        let (nx, n) = (3, 10);
        let mut rf = ramp_frame(nx, 2, n, 2);
        let stride = n + TRACE_PAD;
        for trace in rf.data.chunks_exact_mut(stride) {
            trace[n..].fill(f64::NAN);
        }
        let channels: Vec<u32> = (0..6).collect();
        let ones = [1.0; 6];
        for tx in 0..2 {
            for idx in [-1i32, n as i32 - 1, n as i32] {
                let indices = [idx; 6];
                let mut out = [f64::NAN; 6];
                rf.gather_nearest_into_for(tx, &channels, &indices, &mut out);
                let mut acc = [0.0];
                rf.gather_mac_nearest_block_for(tx, &channels, &ones, &indices, &mut acc);
                for (l, &o) in out.iter().enumerate() {
                    let e = ElementIndex::new(l % nx, l / nx);
                    let want = if idx == n as i32 - 1 {
                        rf.trace_for(tx, e)[n - 1]
                    } else {
                        0.0
                    };
                    assert_eq!(o, want, "tx {tx} channel {l} index {idx}");
                    assert_eq!(rf.sample_for(tx, e, i64::from(idx)), want);
                }
                assert_eq!(acc[0], out.iter().sum::<f64>(), "tx {tx} index {idx}");
            }
            // Linear reads straddling both window edges.
            for t in [-1.0, -0.5, n as f64 - 1.0, n as f64 - 0.5, n as f64] {
                let delays = [t; 6];
                let mut out = [f64::NAN; 6];
                rf.gather_linear_into_for(tx, &channels, &delays, &mut out);
                let mut acc = [0.0];
                rf.gather_mac_linear_block_for(tx, &channels, &ones, &delays, &mut acc);
                for (l, &o) in out.iter().enumerate() {
                    let e = ElementIndex::new(l % nx, l / nx);
                    assert!(o.is_finite(), "tx {tx} channel {l} delay {t}");
                    assert_eq!(o.to_bits(), rf.sample_interp_for(tx, e, t).to_bits());
                }
                assert_eq!(acc[0], out.iter().sum::<f64>(), "tx {tx} delay {t}");
            }
        }
    }

    #[test]
    fn block_mac_matches_a_sequential_sum_over_the_gathered_row() {
        let rf = ramp_frame(4, 3, 16, 2);
        let channels = [0u32, 2, 3, 5, 7, 8, 11];
        let weights = [0.5, -1.25, 2.0, 0.75, 1e-3, 3.5, -0.125];
        let a = channels.len();
        let indices: Vec<i32> = (0..8 * a).map(|i| (i as i32 * 7) % 19 - 2).collect();
        let delays: Vec<f64> = indices.iter().map(|&i| f64::from(i) * 0.93).collect();
        let sequential = |row: &[f64]| -> f64 {
            let mut acc = 0.0;
            for (&w, &s) in weights.iter().zip(row) {
                acc += w * s;
            }
            acc
        };
        fn check<const B: usize>(
            rf: &RfFrame,
            channels: &[u32],
            weights: &[f64],
            indices: &[i32],
            delays: &[f64],
            sequential: &dyn Fn(&[f64]) -> f64,
        ) {
            let a = channels.len();
            let (mut near, mut lin) = ([0.0; B], [0.0; B]);
            rf.gather_mac_nearest_block_for(1, channels, weights, &indices[..B * a], &mut near);
            rf.gather_mac_linear_block_for(1, channels, weights, &delays[..B * a], &mut lin);
            let mut row = vec![0.0; a];
            for j in 0..B {
                rf.gather_nearest_into_for(1, channels, &indices[j * a..][..a], &mut row);
                assert_eq!(near[j].to_bits(), sequential(&row).to_bits(), "B={B} j={j}");
                rf.gather_linear_into_for(1, channels, &delays[j * a..][..a], &mut row);
                assert_eq!(lin[j].to_bits(), sequential(&row).to_bits(), "B={B} j={j}");
            }
        }
        check::<1>(&rf, &channels, &weights, &indices, &delays, &sequential);
        check::<3>(&rf, &channels, &weights, &indices, &delays, &sequential);
        check::<8>(&rf, &channels, &weights, &indices, &delays, &sequential);
    }

    #[test]
    #[should_panic(expected = "one index row per voxel")]
    fn block_mac_rejects_a_short_index_block() {
        let rf = RfFrame::zeros(2, 2, 4);
        rf.gather_mac_nearest_block_for(0, &[0, 1], &[1.0, 1.0], &[0, 0, 0], &mut [0.0; 2]);
    }

    #[test]
    fn gather_nearest_matches_per_element_sample() {
        let mut rf = RfFrame::zeros(3, 2, 4);
        for (l, e) in [(0, (0, 0)), (2, (2, 0)), (4, (1, 1))] {
            let e = ElementIndex::new(e.0, e.1);
            for (i, v) in rf.trace_mut(e).iter_mut().enumerate() {
                *v = -(l as f64) - i as f64 * 0.25;
            }
        }
        let channels: Vec<u32> = (0..6).collect();
        let indices = [0i32, -1, 3, 4, 2, 1];
        let mut out = [9.0; 6];
        rf.gather_nearest_into(&channels, &indices, &mut out);
        for ((&c, &i), &o) in channels.iter().zip(&indices).zip(&out) {
            let e = ElementIndex::new(c as usize % 3, c as usize / 3);
            assert_eq!(o, rf.sample(e, i as i64), "channel {c} index {i}");
        }
    }

    #[test]
    fn gather_linear_matches_per_element_interp() {
        let mut rf = RfFrame::zeros(2, 2, 4);
        for e in [ElementIndex::new(0, 0), ElementIndex::new(1, 1)] {
            rf.trace_mut(e).copy_from_slice(&[-1.0, 2.0, -3.0, 4.0]);
        }
        let channels = [0u32, 1, 2, 3, 0, 3];
        let delays = [0.5, 1.25, -0.75, 3.5, -2.0, 2.999];
        let mut out = [0.0; 6];
        rf.gather_linear_into(&channels, &delays, &mut out);
        for ((&c, &t), &o) in channels.iter().zip(&delays).zip(&out) {
            let e = ElementIndex::new(c as usize % 2, c as usize / 2);
            assert_eq!(
                o.to_bits(),
                rf.sample_interp(e, t).to_bits(),
                "channel {c} delay {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one index per channel")]
    fn gather_rejects_length_mismatch() {
        let rf = RfFrame::zeros(2, 2, 4);
        rf.gather_nearest_into(&[0, 1], &[0], &mut [0.0, 0.0]);
    }

    #[test]
    fn energy_and_max_abs() {
        let mut rf = RfFrame::zeros(1, 2, 3);
        rf.trace_mut(ElementIndex::new(0, 0))
            .copy_from_slice(&[1.0, -2.0, 0.0]);
        assert_eq!(rf.max_abs(), 2.0);
        assert_eq!(rf.energy(), 5.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimension_rejected() {
        RfFrame::zeros(0, 1, 1);
    }

    #[test]
    fn fill_and_copy_from_reuse_the_buffer() {
        let mut src = RfFrame::zeros(2, 2, 4);
        src.trace_mut(ElementIndex::new(1, 1))
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = RfFrame::zeros(2, 2, 4);
        dst.fill(9.0);
        let ptr = dst.trace(ElementIndex::new(0, 0)).as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.trace(ElementIndex::new(0, 0)).as_ptr(), ptr);
    }

    #[test]
    #[should_panic(expected = "frame shapes must match")]
    fn copy_from_rejects_shape_mismatch() {
        let src = RfFrame::zeros(2, 2, 4);
        RfFrame::zeros(2, 2, 5).copy_from(&src);
    }

    #[test]
    #[should_panic(expected = "frame shapes must match")]
    fn copy_from_rejects_transmit_count_mismatch() {
        let src = RfFrame::zeros_multi(2, 2, 4, 3);
        RfFrame::zeros_multi(2, 2, 4, 2).copy_from(&src);
    }

    #[test]
    fn transmit_blocks_are_independent() {
        let mut rf = RfFrame::zeros_multi(2, 2, 4, 3);
        let e = ElementIndex::new(1, 0);
        rf.trace_for_mut(1, e)[2] = 7.5;
        assert_eq!(rf.sample_for(1, e, 2), 7.5);
        assert_eq!(rf.sample_for(0, e, 2), 0.0);
        assert_eq!(rf.sample_for(2, e, 2), 0.0);
        // Transmit 0 is the historical single-transmit view.
        assert_eq!(rf.trace(e), rf.trace_for(0, e));
        assert_eq!(rf.sample(e, 2), rf.sample_for(0, e, 2));
    }

    #[test]
    fn multi_transmit_gathers_read_their_block() {
        let mut rf = RfFrame::zeros_multi(2, 1, 4, 2);
        let e = ElementIndex::new(0, 0);
        rf.trace_for_mut(0, e)
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        rf.trace_for_mut(1, e)
            .copy_from_slice(&[-1.0, -2.0, -3.0, -4.0]);
        let channels = [0u32, 0];
        let mut out = [0.0; 2];
        rf.gather_nearest_into_for(1, &channels, &[1, 3], &mut out);
        assert_eq!(out, [-2.0, -4.0]);
        rf.gather_linear_into_for(1, &channels, &[0.5, 2.0], &mut out);
        assert_eq!(out[0].to_bits(), rf.sample_interp_for(1, e, 0.5).to_bits());
        assert_eq!(out[1], -3.0);
        // The tx-0 gathers match the historical single-transmit gathers.
        let mut a = [0.0; 2];
        let mut b = [0.0; 2];
        rf.gather_nearest_into(&channels, &[0, 2], &mut a);
        rf.gather_nearest_into_for(0, &channels, &[0, 2], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn single_transmit_frames_report_one_transmit() {
        assert_eq!(RfFrame::zeros(2, 2, 4).n_transmits(), 1);
        assert_eq!(RfFrame::zeros_multi(2, 2, 4, 5).n_transmits(), 5);
    }
}
