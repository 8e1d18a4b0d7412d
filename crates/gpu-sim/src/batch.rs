//! Batched-launch cost model: many moderate-size EVDs on one device.
//!
//! A single n ≈ 256 EVD is *overhead-dominated* on a datacenter GPU: the
//! divide & conquer's host synchronization alone costs hundreds of
//! milliseconds ([`crate::calib::MAGMA_DC_OVERHEAD_S`]), panel factorizations
//! pay a fixed launch/sync cost each, and every problem re-allocates its
//! reduction workspaces (`cudaMalloc` synchronizes the device). None of
//! that overhead does arithmetic, so running problems one at a time leaves
//! the device idle almost all the time.
//!
//! Batched execution fixes this in two ways, and the model charges
//! exactly those two effects:
//!
//! 1. **Workspace reuse.** Each of the `w` workers (streams) allocates one
//!    device workspace set and reuses it across its problems, so
//!    allocation cost scales with `w`, not with `count`. (On the CPU,
//!    `tg-batch` allocates per problem: a host allocation does not
//!    synchronize anything, and recycling measured no faster there.)
//! 2. **Overlap.** Problems run concurrently on separate streams; fixed
//!    sync latencies overlap, and compute overlaps until the aggregate
//!    working set saturates the device ([`concurrency`]). Only the
//!    host-side *launch issue* stream stays serial.
//!
//! Everything here composes the same single-problem primitive
//! ([`crate::compose::evd_ours`]) that regenerates Figure 16 — the batch
//! model adds scheduling arithmetic on top, it does not refit any kernel.

use crate::compose;
use crate::device::Device;

/// Driver-synchronizing allocation cost per workspace buffer
/// (`cudaMalloc`-class, ~100 µs — device-independent driver behaviour).
pub const ALLOC_PER_BUFFER_S: f64 = 1.0e-4;

/// Host-side cost to *issue* one kernel launch (~5 µs). Issue is serial
/// across streams — it is the part of per-problem overhead that batching
/// cannot overlap.
pub const LAUNCH_ISSUE_S: f64 = 5.0e-6;

/// Kernel launches issued per DBBR panel (QR, just-in-time updates, the
/// corrected-Z `symm`, bookkeeping).
pub const LAUNCHES_PER_PANEL: f64 = 6.0;

/// Kernel launches for the non-panel remainder of one EVD (bulge chasing,
/// D&C merges, back transformation).
pub const LAUNCHES_FIXED: f64 = 200.0;

/// Single problem size that saturates the device: a problem of dimension
/// `n` can overlap with roughly `BATCH_SATURATION_N / n` peers before
/// aggregate compute serializes. Matches where Figure 15's single-problem
/// `syr2k` curves reach their plateau.
pub const BATCH_SATURATION_N: usize = 4096;

/// Distinct workspace-buffer allocations for one two-stage reduction with
/// bandwidth `b` and accumulation width `k`: per `k`-block the two
/// accumulators, plus three panel buffers (`u`, `znew`, `ynew`) per panel.
pub fn workspace_buffers(n: usize, b: usize, k: usize) -> usize {
    let blocks = n.div_ceil(k.max(1)).max(1);
    let panels = n.div_ceil(b.max(1)).max(1);
    2 * blocks + 3 * panels
}

/// Effective stream concurrency for `workers` streams of `n`-sized
/// problems: capped by how many such problems fit on the device at once.
pub fn concurrency(dev: &Device, workers: usize, n: usize) -> usize {
    // sm_count enters through BATCH_SATURATION_N being an H100-class
    // figure; scale it for smaller parts.
    let sat = (BATCH_SATURATION_N as f64 * dev.sm_count as f64 / 132.0).max(1.0);
    let fit = (sat / n.max(1) as f64).floor().max(1.0) as usize;
    workers.max(1).min(fit)
}

/// Workspace allocation time for one worker's workspace set (paid once per
/// worker in the batched path, once per problem in the serial loop).
pub fn alloc_time(n: usize, b: usize, k: usize) -> f64 {
    workspace_buffers(n, b, k) as f64 * ALLOC_PER_BUFFER_S
}

/// Host launch-issue time for one EVD (serial even under batching).
pub fn issue_time(n: usize, b: usize) -> f64 {
    let panels = n.div_ceil(b.max(1)) as f64;
    (panels * LAUNCHES_PER_PANEL + LAUNCHES_FIXED) * LAUNCH_ISSUE_S
}

fn shape_defaults(n: usize) -> (usize, usize) {
    // mirrors EvdMethod::proposed_default / compose::evd_ours (b=32, k=1024)
    (32.min((n / 8).max(2)), 1024.min(n.max(1)))
}

/// Modeled wall time for a *serial loop* over `count` problems: every
/// problem pays allocation + issue + the full single-problem EVD latency.
pub fn evd_serial_loop_time(dev: &Device, n: usize, count: usize, vectors: bool) -> f64 {
    let (b, k) = shape_defaults(n);
    count as f64 * (alloc_time(n, b, k) + issue_time(n, b) + compose::evd_ours(dev, n, vectors))
}

/// Modeled wall time for the batched path: `workers` streams, one reused
/// workspace set each, execution overlapped up to [`concurrency`].
pub fn evd_batch_time(dev: &Device, n: usize, count: usize, workers: usize, vectors: bool) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let (b, k) = shape_defaults(n);
    let w = workers.max(1).min(count);
    let c = concurrency(dev, w, n) as f64;
    w as f64 * alloc_time(n, b, k)                       // one workspace set per worker
        + count as f64 * issue_time(n, b)                // serial host issue
        + count as f64 * compose::evd_ours(dev, n, vectors) / c // overlapped execution
}

/// One row of the batch-scaling table.
#[derive(Clone, Copy, Debug)]
pub struct BatchPoint {
    /// Problems in the batch.
    pub count: usize,
    /// Workers / streams.
    pub workers: usize,
    /// Modeled serial-loop seconds.
    pub serial_s: f64,
    /// Modeled batched seconds.
    pub batched_s: f64,
}

impl BatchPoint {
    /// Serial / batched speedup.
    pub fn speedup(&self) -> f64 {
        if self.batched_s > 0.0 {
            self.serial_s / self.batched_s
        } else {
            0.0
        }
    }
}

/// Batch-scaling sweep: one [`BatchPoint`] per worker count.
pub fn batch_scaling(
    dev: &Device,
    n: usize,
    count: usize,
    worker_counts: &[usize],
    vectors: bool,
) -> Vec<BatchPoint> {
    let serial_s = evd_serial_loop_time(dev, n, count, vectors);
    worker_counts
        .iter()
        .map(|&w| BatchPoint {
            count,
            workers: w,
            serial_s,
            batched_s: evd_batch_time(dev, n, count, w, vectors),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_64_problems_n256_8_workers_at_least_2x() {
        // ISSUE acceptance: ≥2× modeled throughput for a 64-problem
        // n = 256 batch on 8 workers vs the serial loop.
        let dev = Device::h100();
        let p = &batch_scaling(&dev, 256, 64, &[8], false)[0];
        assert!(
            p.speedup() >= 2.0,
            "expected ≥2× for 64×n=256 on 8 workers, got {:.2}×",
            p.speedup()
        );
        // and the win is bounded by the worker count — no free lunch
        assert!(p.speedup() <= 8.0 + 1e-9, "{:.2}×", p.speedup());
    }

    #[test]
    fn speedup_monotone_in_workers_until_saturation() {
        let dev = Device::h100();
        let pts = batch_scaling(&dev, 256, 64, &[1, 2, 4, 8, 16], false);
        for pair in pts.windows(2) {
            assert!(
                pair[1].speedup() >= pair[0].speedup() - 1e-12,
                "speedup dropped: {pair:?}"
            );
        }
        // one worker reusing its workspace still beats per-problem reallocation,
        // but only barely — overlap is where the real win is
        assert!(pts[0].speedup() >= 1.0);
        assert!(pts[0].speedup() < 1.5);
    }

    #[test]
    fn concurrency_caps_large_problems() {
        let dev = Device::h100();
        // an n = 4096 problem saturates the device alone: no overlap
        assert_eq!(concurrency(&dev, 8, 4096), 1);
        // small problems overlap many-wide
        assert!(concurrency(&dev, 16, 256) >= 8);
        // worker cap still applies
        assert_eq!(concurrency(&dev, 2, 256), 2);
    }

    #[test]
    fn workspace_buffers_tracks_panel_count() {
        // n=256, b=32, k=1024 → 1 block, 8 panels → 2 + 24 = 26 buffers
        // (the real dbbr_ws sequence skips the final sub-band panel, so
        // this is an upper bound that scales with the same n/b, n/k terms)
        assert_eq!(workspace_buffers(256, 32, 1024), 26);
        assert!(workspace_buffers(512, 32, 1024) > workspace_buffers(256, 32, 1024));
    }
}
