//! Device models for the two GPUs the paper evaluates on.

use serde::{Deserialize, Serialize};

/// Which modeled GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceKind {
    /// NVIDIA H100 SXM (the paper's primary platform).
    H100,
    /// NVIDIA RTX 4090 (the paper's consumer-GPU comparison).
    Rtx4090,
}

/// Hardware parameters of a modeled GPU.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Device {
    pub kind: DeviceKind,
    pub name: &'static str,
    /// Peak FP64 throughput in TFLOP/s (H100: 67 with FP64 tensor cores;
    /// RTX 4090: 1.29 — both as quoted in the paper's Figure 15 caption).
    pub fp64_peak_tflops: f64,
    /// HBM/GDDR bandwidth in TB/s.
    pub mem_bw_tbs: f64,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// L2 cache size in bytes (§5.2 cites 50 MB for H100).
    pub l2_bytes: usize,
    /// Effective FP64-equivalent rate for INT8-tensor-core DGEMM
    /// (Ozaki scheme, paper ref \[19\]); `None` if not used.
    /// Explains the RTX 4090 exceeding its FP64 peak in Figure 15b.
    pub int8_dgemm_tflops: Option<f64>,
}

impl Device {
    /// The H100-SXM model.
    pub fn h100() -> Device {
        Device {
            kind: DeviceKind::H100,
            name: "H100-SXM",
            fp64_peak_tflops: 67.0,
            mem_bw_tbs: 3.35,
            sm_count: 132,
            l2_bytes: 50 * 1024 * 1024,
            int8_dgemm_tflops: None,
        }
    }

    /// The RTX 4090 model.
    pub fn rtx4090() -> Device {
        Device {
            kind: DeviceKind::Rtx4090,
            name: "RTX 4090",
            fp64_peak_tflops: 1.29,
            mem_bw_tbs: 1.008,
            sm_count: 128,
            l2_bytes: 72 * 1024 * 1024,
            int8_dgemm_tflops: Some(1.45),
        }
    }

    /// Effective GEMM peak: INT8-tensor-core DGEMM if modeled, else FP64.
    pub fn gemm_peak_tflops(&self) -> f64 {
        self.int8_dgemm_tflops.unwrap_or(self.fp64_peak_tflops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_peaks() {
        assert_eq!(Device::h100().fp64_peak_tflops, 67.0);
        assert_eq!(Device::rtx4090().fp64_peak_tflops, 1.29);
        assert_eq!(Device::h100().l2_bytes, 50 * 1024 * 1024);
    }

    #[test]
    fn gemm_peak_uses_int8_on_4090() {
        assert!(Device::rtx4090().gemm_peak_tflops() > 1.29);
        assert_eq!(Device::h100().gemm_peak_tflops(), 67.0);
    }

    #[test]
    fn serializes() {
        let s = serde_json::to_string(&Device::h100()).unwrap();
        assert!(s.contains("H100"));
    }
}
