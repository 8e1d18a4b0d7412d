//! Fused apply of narrow `I − W Yᵀ` blocks to a row-major column panel.
//!
//! The bulge-chasing back transformation applies thousands of staircase
//! blocks, each at most [`MAX_WIDTH`] reflectors wide and a few dozen
//! rows tall, to every eigenvector panel. Through [`crate::gemm`] each
//! block is two tiny products, each packing its operands and padding them
//! to a whole micro-tile for a few dozen multiply-adds. Here a panel of at
//! most [`MAX_COLS`] columns is copied **once** into row-major scratch,
//! where one panel row is a few SIMD vectors, and every block of a run is
//! applied with its `X = YᵀC` held in registers:
//!
//! 1. `X = YᵀC`: each `X` element is one multiply-add chain over the
//!    block's rows in ascending order, starting from zero;
//! 2. `C ← C − W·X`: each `C` element is one multiply-add chain over
//!    `l = 0..width` in ascending order, starting from its old value.
//!
//! The loop body is written once, generic over the multiply-add. Under
//! `#[target_feature]` for AVX-512F and for AVX2+FMA it uses
//! [`f64::mul_add`] (one rounding); for [`Kernel::Scalar`] it is the
//! unfused `a * b + c` (two roundings). Vector width and the column
//! chunking only decide which elements share a register, never an
//! element's chain, so the two fused builds agree bitwise and differ from
//! the scalar build only by fusion — the same contract as [`crate::pack`].

use crate::kernel::Kernel;
use tg_matrix::{MatMut, MatRef};

/// Widest block the kernel applies (the accumulator tile is
/// `MAX_WIDTH × MAX_COLS` doubles: 16 zmm registers).
pub const MAX_WIDTH: usize = 4;
/// Widest panel the kernel takes.
pub const MAX_COLS: usize = 32;
/// Row strides are padded to a multiple of this (one zmm of doubles).
const LANES: usize = 8;

/// Row stride of the row-major copy of a `cols`-column panel: `cols`
/// rounded up to a multiple of 8. A scratch of `rows · row_stride(cols)`
/// doubles holds a `rows × cols` panel.
pub fn row_stride(cols: usize) -> usize {
    cols.div_ceil(LANES) * LANES
}

/// Applies a run of narrow blocks to `c`, in the order given.
///
/// Each block `(off, W, Y)` is `I − W Yᵀ` acting on rows
/// `off..off + W.nrows()` of `c`: `C ← C − W (Yᵀ C)`, with `W` and `Y` of
/// equal shape and `1..=MAX_WIDTH` columns. `c` has at most [`MAX_COLS`]
/// columns; it is copied into `scratch` (at least
/// `c.nrows() · row_stride(c.ncols())` doubles, contents ignored) once,
/// updated there by every block, and copied back once.
///
/// `kernel` picks the build of the loop body; pass
/// [`crate::kernel::kernel`] for the process's own. Each block adds to the
/// trace counters exactly what the two [`crate::gemm`] calls of
/// `WyPair::apply_left` would.
///
/// # Panics
/// On a shape outside the limits above, or if this CPU cannot run
/// `kernel` ([`Kernel::is_available`]).
pub fn apply_narrow_run<'a>(
    kernel: Kernel,
    blocks: impl IntoIterator<Item = (usize, MatRef<'a>, MatRef<'a>)>,
    c: &mut MatMut<'_>,
    scratch: &mut [f64],
) {
    let (rows, cols) = (c.nrows(), c.ncols());
    assert!(
        cols <= MAX_COLS,
        "apply_narrow_run: {cols} > {MAX_COLS} columns"
    );
    assert!(
        kernel.is_available(),
        "apply_narrow_run: kernel not supported by this CPU"
    );
    if cols == 0 {
        return;
    }
    let stride = row_stride(cols);
    let rm = &mut scratch[..rows * stride];
    load_rows(c, rm, stride);
    for (off, w, y) in blocks {
        let (h, k) = (w.nrows(), w.ncols());
        assert!(
            (1..=MAX_WIDTH).contains(&k) && y.nrows() == h && y.ncols() == k && off + h <= rows,
            "apply_narrow_run: bad block {h}x{k} at row {off} of {rows}"
        );
        crate::level3::count_gemm(k, cols, h);
        crate::level3::count_gemm(h, cols, k);
        apply_block(
            kernel,
            &mut rm[off * stride..(off + h) * stride],
            stride,
            &w,
            &y,
        );
    }
    store_rows(rm, stride, c);
}

/// `rm[i·stride + j] = c[i, j]`, zeroing the padding columns.
fn load_rows(c: &MatMut<'_>, rm: &mut [f64], stride: usize) {
    let cols = c.ncols();
    for j in 0..cols {
        for (dst, &x) in rm.iter_mut().skip(j).step_by(stride).zip(c.col(j)) {
            *dst = x;
        }
    }
    for row in rm.chunks_exact_mut(stride) {
        row[cols..].fill(0.0);
    }
}

/// `c[i, j] = rm[i·stride + j]`.
fn store_rows(rm: &[f64], stride: usize, c: &mut MatMut<'_>) {
    for j in 0..c.ncols() {
        for (dst, &x) in c
            .col_mut(j)
            .iter_mut()
            .zip(rm.iter().skip(j).step_by(stride))
        {
            *dst = x;
        }
    }
}

/// The multiply-add one build of the loop body uses.
trait MulAdd {
    fn mul_add(a: f64, b: f64, c: f64) -> f64;
}

/// `a·b + c` rounded once. Only called from `#[target_feature]` builds
/// with FMA, where it is one instruction.
struct Fused;

impl MulAdd for Fused {
    #[inline(always)]
    fn mul_add(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }
}

/// `a·b + c` with the product rounded first (Rust never contracts it).
struct Unfused;

impl MulAdd for Unfused {
    #[inline(always)]
    fn mul_add(a: f64, b: f64, c: f64) -> f64 {
        a * b + c
    }
}

/// The loop body: `I − W Yᵀ` (`K` columns) on the row-major rows `rm`,
/// `CW` columns at a time. `X`'s `K × CW` chunk and one `CW`-wide row are
/// fixed-size arrays, so the compiler keeps them in vector registers.
#[inline(always)]
fn block<M: MulAdd, const K: usize, const CW: usize>(
    rm: &mut [f64],
    stride: usize,
    w: &MatRef<'_>,
    y: &MatRef<'_>,
) {
    let h = w.nrows();
    let wc: [&[f64]; K] = std::array::from_fn(|l| &w.col(l)[..h]);
    let yc: [&[f64]; K] = std::array::from_fn(|j| &y.col(j)[..h]);
    for c0 in (0..stride).step_by(CW) {
        let mut x = [[0.0f64; CW]; K];
        for (i, row) in rm.chunks_exact(stride).enumerate() {
            let row: &[f64; CW] = row[c0..c0 + CW].try_into().expect("CW-wide chunk");
            for (xj, yj) in x.iter_mut().zip(&yc) {
                let yij = yj[i];
                for (xjc, &s) in xj.iter_mut().zip(row) {
                    *xjc = M::mul_add(yij, s, *xjc);
                }
            }
        }
        for (i, row) in rm.chunks_exact_mut(stride).enumerate() {
            let row: &mut [f64; CW] = (&mut row[c0..c0 + CW]).try_into().expect("CW-wide chunk");
            let mut acc = *row;
            for (xl, wl) in x.iter().zip(&wc) {
                let wil = -wl[i];
                for (s, &xlc) in acc.iter_mut().zip(xl) {
                    *s = M::mul_add(wil, xlc, *s);
                }
            }
            *row = acc;
        }
    }
}

/// Instantiates `$f::<K, $cw>` for the block width `$k`.
macro_rules! by_width {
    ($k:expr, $f:ident::<$cw:literal>($($arg:expr),*)) => {
        match $k {
            1 => $f::<1, $cw>($($arg),*),
            2 => $f::<2, $cw>($($arg),*),
            3 => $f::<3, $cw>($($arg),*),
            4 => $f::<4, $cw>($($arg),*),
            k => unreachable!("block width {k} > MAX_WIDTH"),
        }
    };
}

fn block_scalar<const K: usize, const CW: usize>(
    rm: &mut [f64],
    stride: usize,
    w: &MatRef<'_>,
    y: &MatRef<'_>,
) {
    block::<Unfused, K, CW>(rm, stride, w, y);
}

/// # Safety
/// The CPU must support `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn block_avx2<const K: usize, const CW: usize>(
    rm: &mut [f64],
    stride: usize,
    w: &MatRef<'_>,
    y: &MatRef<'_>,
) {
    block::<Fused, K, CW>(rm, stride, w, y);
}

/// # Safety
/// The CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn block_avx512<const K: usize, const CW: usize>(
    rm: &mut [f64],
    stride: usize,
    w: &MatRef<'_>,
    y: &MatRef<'_>,
) {
    block::<Fused, K, CW>(rm, stride, w, y);
}

/// One block on `kernel`'s build. AVX-512 takes a full 32-column row
/// (4 zmm) as one chunk; ragged panels, AVX2 (16 ymm registers) and
/// scalar go 8 columns at a time, so `X` stays in registers.
fn apply_block(kernel: Kernel, rm: &mut [f64], stride: usize, w: &MatRef<'_>, y: &MatRef<'_>) {
    let k = w.ncols();
    match kernel {
        Kernel::Scalar => by_width!(k, block_scalar::<8>(rm, stride, w, y)),
        // SAFETY (every SIMD arm): `apply_narrow_run` asserted that this CPU
        // runs `kernel`, which for these arms means the enabled features.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2Fma => unsafe { by_width!(k, block_avx2::<8>(rm, stride, w, y)) },
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512F if stride == MAX_COLS => unsafe {
            by_width!(k, block_avx512::<32>(rm, stride, w, y))
        },
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512F => unsafe { by_width!(k, block_avx512::<8>(rm, stride, w, y)) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("only the scalar kernel exists off x86-64"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_matrix::{gen, Mat};

    /// Random `(off, W, Y)` blocks in a panel of `rows` rows: widths
    /// cycle through `1..=MAX_WIDTH`, heights up to 11, the last block
    /// ends on the panel's last row.
    fn blocks(rows: usize, count: usize, seed: u64) -> Vec<(usize, Mat, Mat)> {
        (0..count)
            .map(|b| {
                let k = 1 + b % MAX_WIDTH;
                let h = (k + 2 + (b * 7) % 9).min(rows);
                let off = if b + 1 == count {
                    rows - h
                } else {
                    (b * 5) % (rows - h + 1)
                };
                let s = seed + 2 * b as u64;
                (off, gen::random(h, k, s), gen::random(h, k, s + 1))
            })
            .collect()
    }

    fn run(kernel: Kernel, blocks: &[(usize, Mat, Mat)], c0: &Mat) -> Mat {
        let mut c = c0.clone();
        let mut scratch = vec![f64::NAN; c.nrows() * row_stride(c.ncols())];
        apply_narrow_run(
            kernel,
            blocks.iter().map(|(o, w, y)| (*o, w.as_ref(), y.as_ref())),
            &mut c.as_mut(),
            &mut scratch,
        );
        c
    }

    /// The two-`gemm` path the kernel replaces: `C ← C − W (Yᵀ C)`.
    fn reference(blocks: &[(usize, Mat, Mat)], c0: &Mat) -> Mat {
        let mut c = c0.clone();
        for (off, w, y) in blocks {
            let mut sub = c.view_mut(*off, 0, w.nrows(), c0.ncols());
            let x = crate::gemm_into(
                1.0,
                &y.as_ref(),
                crate::Op::Trans,
                &sub.rb(),
                crate::Op::NoTrans,
            );
            crate::gemm(
                -1.0,
                &w.as_ref(),
                crate::Op::NoTrans,
                &x.as_ref(),
                crate::Op::NoTrans,
                1.0,
                &mut sub,
            );
        }
        c
    }

    fn available() -> impl Iterator<Item = Kernel> {
        Kernel::ALL.into_iter().filter(|k| k.is_available())
    }

    fn bitwise_eq(a: &Mat, b: &Mat) -> bool {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
    }

    /// Column counts covering every stride class, ragged and full.
    const COLS: [usize; 6] = [1, 7, 8, 13, 24, MAX_COLS];

    #[test]
    fn every_available_kernel_matches_the_gemm_path() {
        for kernel in available() {
            for cols in COLS {
                let bl = blocks(37, 9, 10);
                let c0 = gen::random(37, cols, 11);
                let diff = tg_matrix::max_abs_diff(&run(kernel, &bl, &c0), &reference(&bl, &c0));
                assert!(diff < 1e-12, "{kernel:?} cols = {cols}: {diff:e}");
            }
        }
    }

    #[test]
    fn fused_kernels_are_bitwise_equal() {
        if !(Kernel::Avx2Fma.is_available() && Kernel::Avx512F.is_available()) {
            return;
        }
        for cols in COLS {
            let bl = blocks(41, 12, 20);
            let c0 = gen::random(41, cols, 21);
            assert!(
                bitwise_eq(
                    &run(Kernel::Avx2Fma, &bl, &c0),
                    &run(Kernel::Avx512F, &bl, &c0)
                ),
                "avx2 vs avx512 bits differ at cols = {cols}"
            );
        }
    }

    /// The bit contract spelled out: both chains of the module docs,
    /// with `f64::mul_add` for the fused builds and `a * b + c` for the
    /// scalar one.
    #[test]
    fn kernels_follow_the_stated_chains() {
        let (rows, cols) = (29, 19);
        let bl = blocks(rows, 10, 30);
        let c0 = gen::random(rows, cols, 31);
        for kernel in available() {
            let madd = |a: f64, b: f64, c: f64| {
                if kernel.fused() {
                    a.mul_add(b, c)
                } else {
                    a * b + c
                }
            };
            let mut expect = c0.clone();
            for (off, w, y) in &bl {
                let (h, k) = (w.nrows(), w.ncols());
                for col in 0..cols {
                    let x: Vec<f64> = (0..k)
                        .map(|j| {
                            (0..h).fold(0.0, |acc, i| madd(y[(i, j)], expect[(off + i, col)], acc))
                        })
                        .collect();
                    for i in 0..h {
                        expect[(off + i, col)] = (0..k)
                            .fold(expect[(off + i, col)], |acc, l| madd(-w[(i, l)], x[l], acc));
                    }
                }
            }
            assert!(bitwise_eq(&run(kernel, &bl, &c0), &expect), "{kernel:?}");
        }
    }

    #[test]
    fn counts_what_the_two_gemms_count() {
        let bl = blocks(23, 6, 40);
        let c0 = gen::random(23, 13, 41);
        // Counters are read from this test's own spans: sibling tests run
        // concurrently and count into the same process-global session.
        let session = tg_trace::TraceSession::begin();
        {
            let _span = tg_trace::span("narrow_test.fused");
            run(crate::kernel::kernel(), &bl, &c0);
        }
        {
            let _span = tg_trace::span("narrow_test.gemms");
            reference(&bl, &c0);
        }
        let trace = session.finish();
        let span = |name: &str| {
            trace
                .events
                .iter()
                .find(|e| e.name == name)
                .expect("span recorded")
                .clone()
        };
        let (fused, gemms) = (span("narrow_test.fused"), span("narrow_test.gemms"));
        for c in [
            tg_trace::Counter::Flops,
            tg_trace::Counter::BytesRead,
            tg_trace::Counter::BytesWritten,
        ] {
            assert_eq!(fused.counter(c), gemms.counter(c), "{c:?}");
        }
        let flops: usize = bl
            .iter()
            .map(|(_, w, _)| 4 * w.nrows() * w.ncols() * 13)
            .sum();
        assert_eq!(fused.counter(tg_trace::Counter::Flops), flops as u64);
    }

    #[test]
    fn empty_run_and_single_row_panel_round_trip() {
        let c0 = gen::random(5, 9, 50);
        for kernel in available() {
            assert_eq!(run(kernel, &[], &c0), c0);
        }
        let bl = vec![(0, gen::random(1, 1, 51), gen::random(1, 1, 52))];
        let c1 = gen::random(1, 3, 53);
        for kernel in available() {
            let diff = tg_matrix::max_abs_diff(&run(kernel, &bl, &c1), &reference(&bl, &c1));
            assert!(diff < 1e-14, "{kernel:?}: {diff:e}");
        }
    }
}
