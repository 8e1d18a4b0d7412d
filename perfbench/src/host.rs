//! The host's own roofline, measured in the traced run: a register-resident
//! FMA loop (single core) and a single-thread STREAM triad over arrays
//! each at least four times the last-level cache.

use std::hint::black_box;
use std::time::Instant;

use crate::report::Report;

/// Fallback when sysfs does not report an L3 (the size this benchmark was
/// designed on).
const DEFAULT_L3_BYTES: usize = 105 << 20;

/// Reports the roofline; returns the FMA peak in GFLOP/s (an FMA counts 2
/// flops), the denominator of the kernels' `pct_fma_peak`.
pub fn measure(report: &mut Report) -> f64 {
    let (fma_gflops, isa) = fma_peak();
    report.metric("host.fma_gflops", fma_gflops, "GFLOP/s");
    report.info("host_fma_isa", format!("\"{isa}\""));

    let l3 = l3_bytes();
    let len = 4 * l3 / 8; // each array ≥ 4 × L3
    let gbs = triad_gbs(len);
    report.metric("host.triad_gbs", gbs, "GB/s");
    report.info("host_l3_bytes", l3.to_string());
    report.info("host_triad_array_bytes", (len * 8).to_string());
    fma_gflops
}

fn l3_bytes() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            let (num, mult) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1usize << 10),
                b'M' => (&s[..s.len() - 1], 1usize << 20),
                _ => (s, 1),
            };
            Some(num.parse::<usize>().ok()? * mult)
        })
        .unwrap_or(DEFAULT_L3_BYTES)
}

/// Bytes counted per element: read `b`, read `c`, write `a` (STREAM's
/// convention; write-allocate traffic is not counted).
fn triad_gbs(len: usize) -> f64 {
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    3.0 * 8.0 * len as f64 / best / 1e9
}

/// Independent accumulator chains: enough to cover FMA latency times
/// issue width, few enough to stay in registers.
const CHAINS: usize = 12;
const FMA_ITERS: u64 = 20_000_000;

/// Best of the FMA loops this CPU can run; returns GFLOP/s and the ISA.
fn fma_peak() -> (f64, &'static str) {
    let mut best = (scalar_gflops(), "scalar");
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the required CPU features were detected above.
            let g = best_of(|| unsafe { x86::fma_avx2(FMA_ITERS) }, 4 * 2);
            if g > best.0 {
                best = (g, "avx2+fma");
            }
        }
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the required CPU feature was detected above.
            let g = best_of(|| unsafe { x86::fma_avx512(FMA_ITERS) }, 8 * 2);
            if g > best.0 {
                best = (g, "avx512f");
            }
        }
    }
    best
}

/// GFLOP/s of the best of three runs of `f`, which performs
/// `FMA_ITERS × CHAINS` vector FMAs of `flops_per_fma` flops each.
fn best_of(mut f: impl FnMut() -> f64, flops_per_fma: u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (FMA_ITERS * CHAINS as u64 * flops_per_fma) as f64 / best / 1e9
}

fn scalar_gflops() -> f64 {
    let iters = FMA_ITERS / 4;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut acc = [0.0f64; CHAINS];
        let (a, b) = (black_box(0.999_999), black_box(1e-7));
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = *x * a + b;
            }
        }
        black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (iters * CHAINS as u64 * 2) as f64 / best / 1e9
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;
    use std::hint::black_box;

    /// `iters × CHAINS` independent 4-wide FMAs held in registers.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma_avx2(iters: u64) -> f64 {
        let a = _mm256_set1_pd(black_box(0.999_999));
        let b = _mm256_set1_pd(black_box(1e-7));
        let mut acc = [_mm256_setzero_pd(); CHAINS];
        for _ in 0..black_box(iters) {
            for x in acc.iter_mut() {
                *x = _mm256_fmadd_pd(*x, a, b);
            }
        }
        let mut out = [0.0f64; 4];
        let mut sum = _mm256_setzero_pd();
        for x in acc {
            sum = _mm256_add_pd(sum, x);
        }
        _mm256_storeu_pd(out.as_mut_ptr(), sum);
        out.iter().sum()
    }

    /// `iters × CHAINS` independent 8-wide FMAs held in registers.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma_avx512(iters: u64) -> f64 {
        let a = _mm512_set1_pd(black_box(0.999_999));
        let b = _mm512_set1_pd(black_box(1e-7));
        let mut acc = [_mm512_setzero_pd(); CHAINS];
        for _ in 0..black_box(iters) {
            for x in acc.iter_mut() {
                *x = _mm512_fmadd_pd(*x, a, b);
            }
        }
        let mut sum = _mm512_setzero_pd();
        for x in acc {
            sum = _mm512_add_pd(sum, x);
        }
        _mm512_reduce_add_pd(sum)
    }
}
