//! # tg-bench
//!
//! Benchmark harness for the reproduction:
//!
//! * the `repro` binary regenerates every table and figure of the paper's
//!   evaluation (model-composed at paper scale) and drives the real
//!   kernels through the correctness gauntlet, the fault campaigns and
//!   the serving soaks,
//! * the `benches/` directory holds criterion benchmarks over the real
//!   Rust kernels (GEMM, syr2k variants, band reduction, bulge chasing,
//!   back transformation, tridiagonalization, EVD, batch) — the one home
//!   of per-kernel timing. End-to-end and per-layer timing live in
//!   `perfbench/`.

pub mod golden;
pub mod measured;
pub mod report;
