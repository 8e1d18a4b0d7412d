//! Set-associative LRU cache simulator + bulge-chasing access traces.
//!
//! Backs the paper's Figure-10 argument (§5.2): band entries embedded in a
//! full dense matrix are *non-consecutive* in memory, so the working set of
//! a bulge task spans many cache lines; the compact band layout makes the
//! same walk consecutive, and on an H100 the whole compact band
//! (`≈ 2b·n·8` bytes) fits in the 50 MB L2.

use tg_matrix::BandLayout;

/// A set-associative cache with LRU replacement.
pub struct CacheSim {
    line_bytes: u64,
    sets: usize,
    ways: usize,
    /// `tags[set]` holds up to `ways` line tags, most-recently-used last.
    tags: Vec<Vec<u64>>,
    pub hits: u64,
    pub misses: u64,
}

impl CacheSim {
    /// Builds a cache of `capacity_bytes` with the given associativity and
    /// line size. Panics unless the geometry divides evenly.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(capacity_bytes.is_multiple_of(ways * line_bytes), "geometry");
        let sets = capacity_bytes / (ways * line_bytes);
        CacheSim {
            line_bytes: line_bytes as u64,
            sets,
            ways,
            tags: vec![Vec::new(); sets],
            hits: 0,
            misses: 0,
        }
    }

    /// A GPU-L2-like configuration: 128-byte lines, 16-way.
    pub fn gpu_l2(capacity_bytes: usize) -> Self {
        Self::new(capacity_bytes, 16, 128)
    }

    /// Simulates one access; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = (line % self.sets as u64) as usize;
        let ways = self.ways;
        let v = &mut self.tags[set];
        if let Some(pos) = v.iter().position(|&t| t == line) {
            let t = v.remove(pos);
            v.push(t);
            self.hits += 1;
            true
        } else {
            if v.len() == ways {
                v.remove(0);
            }
            v.push(line);
            self.misses += 1;
            false
        }
    }

    /// Hit rate over all accesses so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Streams the accesses of bulge-chasing sweeps into `cache` using the
/// given storage layout, and returns the hit rate.
///
/// `s_parallel` sweeps proceed in the interleaved order the pipeline
/// produces (round-robin over in-flight sweeps, one task each), touching
/// the three `b × b` blocks of each task.
pub fn bc_trace_hit_rate(
    cache: &mut CacheSim,
    layout: BandLayout,
    n: usize,
    b: usize,
    n_sweeps: usize,
    s_parallel: usize,
) -> f64 {
    let n_sweeps = n_sweeps.min(n.saturating_sub(b + 2));
    let mut next_task = vec![0usize; n_sweeps];
    let mut done = vec![false; n_sweeps];
    let mut n_done = 0usize;
    while n_done < n_sweeps {
        // one wave: every live, unblocked sweep advances by one task
        let mut advanced = false;
        let mut active = 0usize;
        for s in 0..n_sweeps {
            if done[s] {
                continue;
            }
            // law ①: stay ≥ 3 tasks behind the previous sweep
            if s > 0 && !done[s - 1] && next_task[s - 1] < next_task[s] + 3 {
                break;
            }
            active += 1;
            if active > s_parallel {
                break; // law ③
            }
            let j = next_task[s];
            let col0 = if j == 0 { s } else { s + 1 + (j - 1) * b };
            if col0 + b + 1 >= n {
                done[s] = true;
                n_done += 1;
                continue;
            }
            access_task(cache, layout, n, b, col0);
            next_task[s] += 1;
            advanced = true;
        }
        if !advanced {
            break; // all remaining sweeps are trivially done
        }
    }
    cache.hit_rate()
}

/// Accesses the three blocks of one bulge task anchored at column `col0`.
fn access_task(cache: &mut CacheSim, layout: BandLayout, n: usize, b: usize, col0: usize) {
    let r0 = (col0 + b).min(n - 1);
    // diagonal block, off-band block, bulge block — read + write each entry
    for c in col0..(col0 + b).min(n) {
        for r in c..(c + 2 * b).min(n) {
            if r < r0 + 2 * b && r >= c {
                let a = layout.address(r, c);
                cache.access(a);
                cache.access(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_basics() {
        let mut c = CacheSim::new(2 * 64, 2, 64); // 1 set, 2 ways
        assert!(!c.access(0));
        assert!(!c.access(64));
        assert!(c.access(0)); // still resident
        assert!(!c.access(128)); // evicts LRU (64)
        assert!(!c.access(64));
    }

    #[test]
    fn sequential_stream_has_high_hit_rate() {
        let mut c = CacheSim::gpu_l2(1 << 20);
        for i in 0..10_000u64 {
            c.access(i * 8);
        }
        // 16 doubles per 128-byte line ⇒ 15/16 hit rate
        assert!((c.hit_rate() - 15.0 / 16.0).abs() < 0.01);
    }

    #[test]
    fn strided_stream_misses() {
        let mut c = CacheSim::gpu_l2(1 << 20);
        for i in 0..10_000u64 {
            c.access(i * 8 * 1024); // > line stride, > capacity coverage
        }
        assert!(c.hit_rate() < 0.01);
    }

    #[test]
    fn hit_rate_monotone_in_capacity() {
        // bigger cache ⇒ hit rate can only improve on the same trace
        let trace: Vec<u64> = (0..20_000u64).map(|i| (i * 7919) % 100_000 * 8).collect();
        let mut small = CacheSim::gpu_l2(1 << 16);
        let mut big = CacheSim::gpu_l2(1 << 22);
        for &a in &trace {
            small.access(a);
            big.access(a);
        }
        assert!(big.hit_rate() >= small.hit_rate());
    }

    /// Figure 10's claim, quantified: the compact band layout yields a
    /// substantially better L2 hit rate than the dense-embedded layout
    /// once the dense matrix no longer fits in L2.
    #[test]
    fn compact_layout_beats_dense_embedding() {
        // Geometry chosen so the *compact* band working set fits the cache
        // while the dense-embedded band (3× line waste: 136 useful bytes
        // per column spread over 128-byte lines at 8·n stride) does not —
        // the same relationship as n = 65536, b = 32 vs the 50 MB H100 L2.
        let n = 4096;
        let b = 4;
        let cap = 1 << 18; // 256 KB L2 stand-in
        let sweeps = 512;
        let mut dense_cache = CacheSim::gpu_l2(cap);
        let dense_rate = bc_trace_hit_rate(
            &mut dense_cache,
            BandLayout::Dense { n },
            n,
            b,
            sweeps,
            sweeps,
        );
        let mut compact_cache = CacheSim::gpu_l2(cap);
        let compact_rate = bc_trace_hit_rate(
            &mut compact_cache,
            BandLayout::Compact { ldab: 2 * b + 1 },
            n,
            b,
            sweeps,
            sweeps,
        );
        assert!(
            compact_rate > dense_rate + 0.05,
            "compact {compact_rate:.3} vs dense {dense_rate:.3}"
        );
    }
}
