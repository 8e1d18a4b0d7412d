//! Which packed-GEMM micro-kernel this process runs.
//!
//! [`crate::pack::gemm_packed`] has three micro-kernels: the portable
//! scalar one and two x86-64 `std::arch` ones (AVX2+FMA, AVX-512F). The
//! choice is made **once per process** by [`kernel`]: the fastest kernel
//! the CPU supports, unless `TG_KERNEL=scalar` forces the reference
//! kernel. It never changes afterwards, which is what keeps serial ==
//! parallel bitwise and a cache hit bitwise-equal to a fresh solve.
//!
//! The kernels differ in bits in exactly one way. The scalar kernel rounds
//! `a·b` before adding it to the accumulator; the SIMD kernels use a fused
//! multiply-add. Tile shape and vector width are bitwise-neutral, so the
//! two fused kernels give identical bits: [`Kernel::fused`] is the only
//! property of the choice a result depends on.

use std::sync::OnceLock;

/// One packed-GEMM micro-kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Portable Rust, unfused multiply then add: the reference kernel.
    Scalar,
    /// x86-64 AVX2 with FMA3.
    Avx2Fma,
    /// x86-64 AVX-512F.
    Avx512F,
}

impl Kernel {
    /// Every kernel, slowest first.
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Avx2Fma, Kernel::Avx512F];

    /// The name CLI and report headers print.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2Fma => "avx2+fma",
            Kernel::Avx512F => "avx512f",
        }
    }

    /// Whether the kernel accumulates with fused multiply-adds. Results of
    /// a fused and an unfused kernel differ in their last bits; results of
    /// two fused kernels are identical.
    pub fn fused(self) -> bool {
        self != Kernel::Scalar
    }

    /// Whether this CPU can run the kernel.
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512F => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The fastest kernel this CPU can run.
    pub fn detect() -> Kernel {
        *Kernel::ALL
            .iter()
            .rev()
            .find(|k| k.is_available())
            .expect("the scalar kernel is always available")
    }
}

/// Rejected `TG_KERNEL` value: the only name it accepts is `scalar`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelConfigError {
    /// The value as it was set.
    pub value: String,
}

impl std::fmt::Display for KernelConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TG_KERNEL={:?} is not recognised (the only accepted value is \"scalar\")",
            self.value
        )
    }
}

impl std::error::Error for KernelConfigError {}

/// Parses a raw `TG_KERNEL` value. `None` (unset) and empty/whitespace
/// strings mean "no override" (`Ok(None)`); anything else must be
/// `scalar` (surrounding whitespace tolerated), which forces the
/// reference kernel.
pub fn parse_tg_kernel(raw: Option<&str>) -> Result<Option<Kernel>, KernelConfigError> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim() {
        "" => Ok(None),
        "scalar" => Ok(Some(Kernel::Scalar)),
        _ => Err(KernelConfigError {
            value: raw.to_string(),
        }),
    }
}

/// The micro-kernel this process runs. `TG_KERNEL` is read on the first
/// call only; an invalid value is reported once on stderr and replaced by
/// [`Kernel::detect`].
pub fn kernel() -> Kernel {
    static SELECTED: OnceLock<Kernel> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        let var = std::env::var("TG_KERNEL").ok();
        parse_tg_kernel(var.as_deref())
            .unwrap_or_else(|e| {
                eprintln!("warning: {e}; using the {} kernel", Kernel::detect().name());
                None
            })
            .unwrap_or_else(Kernel::detect)
    })
}

/// Name of the kernel this process runs (`"avx512f"`, `"avx2+fma"` or
/// `"scalar"`), for CLI and report headers.
pub fn kernel_name() -> &'static str {
    kernel().name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_scalar_and_blank() {
        assert_eq!(parse_tg_kernel(None), Ok(None));
        assert_eq!(parse_tg_kernel(Some("  ")), Ok(None));
        assert_eq!(parse_tg_kernel(Some(" scalar ")), Ok(Some(Kernel::Scalar)));
    }

    #[test]
    fn parse_rejects_every_other_name() {
        for bad in ["avx512f", "avx2+fma", "SCALAR", "fast", "0"] {
            let err = parse_tg_kernel(Some(bad)).unwrap_err();
            assert_eq!(
                err,
                KernelConfigError {
                    value: bad.to_string()
                }
            );
            assert!(err.to_string().contains("scalar"), "{err}");
        }
    }

    #[test]
    fn selection_is_fixed_and_available() {
        let k = kernel();
        assert!(k.is_available());
        assert_eq!(kernel(), k);
        assert_eq!(kernel_name(), k.name());
        assert!(Kernel::detect().is_available());
        assert!(!Kernel::Scalar.fused());
        assert!(Kernel::Avx2Fma.fused() && Kernel::Avx512F.fused());
    }
}
