//! End-to-end tests of the `tridiag` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tridiag"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tg_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_info_round_trip() {
    let f = tmp("g.mtx");
    let out = bin()
        .args([
            "generate",
            f.to_str().unwrap(),
            "--n",
            "24",
            "--kind",
            "band:3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin().args(["info", f.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("shape: 24x24"), "{text}");
    assert!(text.contains("bandwidth: 3"), "{text}");
}

#[test]
fn eigvals_sorted_and_method_consistent() {
    let f = tmp("e.mtx");
    bin()
        .args(["generate", f.to_str().unwrap(), "--n", "32", "--seed", "5"])
        .output()
        .unwrap();
    let mut spectra = Vec::new();
    for method in ["direct", "magma", "proposed"] {
        let out = bin()
            .args(["eigvals", f.to_str().unwrap(), "--method", method])
            .output()
            .unwrap();
        assert!(out.status.success(), "{method}");
        let vals: Vec<f64> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(vals.len(), 32);
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{method} unsorted");
        spectra.push(vals);
    }
    for k in 1..spectra.len() {
        for (s0, sk) in spectra[0].iter().zip(spectra[k].iter()) {
            assert!((s0 - sk).abs() < 1e-9);
        }
    }
}

#[test]
fn reduce_preserves_frobenius_norm() {
    let f = tmp("r.mtx");
    let t = tmp("rt.mtx");
    bin()
        .args([
            "generate",
            f.to_str().unwrap(),
            "--n",
            "20",
            "--kind",
            "spd",
        ])
        .output()
        .unwrap();
    let out = bin()
        .args(["reduce", f.to_str().unwrap(), t.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let norm_of = |p: &PathBuf| -> f64 {
        let out = bin().args(["info", p.to_str().unwrap()]).output().unwrap();
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let line = text
            .lines()
            .find(|l| l.starts_with("frobenius"))
            .unwrap()
            .to_string();
        line.split(": ").nth(1).unwrap().parse().unwrap()
    };
    let (n1, n2) = (norm_of(&f), norm_of(&t));
    assert!((n1 - n2).abs() < 1e-6 * n1, "{n1} vs {n2}");
}

#[test]
fn evd_writes_both_outputs() {
    let f = tmp("v.mtx");
    let vals = tmp("vv.mtx");
    let vecs = tmp("vV.mtx");
    bin()
        .args(["generate", f.to_str().unwrap(), "--n", "16"])
        .output()
        .unwrap();
    let out = bin()
        .args([
            "evd",
            f.to_str().unwrap(),
            vals.to_str().unwrap(),
            vecs.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(vals.exists() && vecs.exists());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("residual"), "{stderr}");
}

#[test]
fn rejects_nonsymmetric_and_bad_args() {
    // non-symmetric input
    let f = tmp("bad.mtx");
    std::fs::write(
        &f,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n2 1 3.0\n",
    )
    .unwrap();
    let out = bin()
        .args(["eigvals", f.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // unknown subcommand
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    // missing file
    let out = bin().args(["info", "/nonexistent/x.mtx"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn batch_solves_and_reports_throughput() {
    let out = bin()
        .args([
            "batch",
            "--count",
            "6",
            "--n",
            "24",
            "--threads",
            "2",
            "--seed",
            "9",
            "--profile",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 6, "{stdout}");
    assert!(stdout.contains("problem 0:"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("solved 6 problems"), "{stderr}");
    assert!(stderr.contains("problems/s"), "{stderr}");
    // --profile surfaces the workspace high-water mark from tg-trace
    assert!(stderr.contains("peak arena_live_bytes"), "{stderr}");

    // missing --count / --n is an error
    let out = bin().args(["batch", "--n", "8"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn info_reports_shared_thread_helper() {
    let f = tmp("thr.mtx");
    bin()
        .args(["generate", f.to_str().unwrap(), "--n", "8"])
        .output()
        .unwrap();
    let out = bin()
        .env("TG_THREADS", "3")
        .args(["info", f.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("worker threads: 3 (TG_THREADS)"), "{text}");
}

/// Without `--threads`, the serve summary reports the worker count the
/// service resolved (here from `TG_THREADS`), not a placeholder of 1.
#[test]
fn serve_summary_reports_resolved_worker_count() {
    let out = bin()
        .env("TG_THREADS", "2")
        .args(["serve", "--jobs", "4", "--n", "16", "--rate-hz", "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("submissions on 2 worker(s)"), "{text}");
}

#[test]
fn info_reports_gemm_kernel_and_rejects_unknown_names() {
    let f = tmp("kern.mtx");
    bin()
        .args(["generate", f.to_str().unwrap(), "--n", "8"])
        .output()
        .unwrap();
    let out = bin()
        .env("TG_KERNEL", "scalar")
        .args(["info", f.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gemm kernel: scalar"), "{text}");

    // a typo is reported, not silently ignored, and the detected kernel runs
    let out = bin()
        .env("TG_KERNEL", "avx9000")
        .args(["info", f.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("TG_KERNEL=\"avx9000\""), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    let detected = tg_blas::Kernel::detect().name();
    assert!(text.contains(&format!("gemm kernel: {detected}")), "{text}");
}

#[test]
fn batch_zero_count_and_zero_n_fail_cleanly() {
    // --count 0 is a distinct, clean error (not a panic or empty output).
    let out = bin()
        .args(["batch", "--count", "0", "--n", "8"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--count must be at least 1"), "{stderr}");

    // --n 0 likewise.
    let out = bin()
        .args(["batch", "--count", "2", "--n", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--n must be at least 1"), "{stderr}");

    // Missing flags name the flag that is missing.
    let out = bin().args(["batch", "--n", "8"]).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("batch requires --count"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin().args(["batch", "--count", "2"]).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("batch requires --n"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn check_flag_prints_report_and_passes_on_clean_run() {
    let f = tmp("chk.mtx");
    bin()
        .args(["generate", f.to_str().unwrap(), "--n", "32", "--seed", "5"])
        .output()
        .unwrap();
    let out = bin()
        .args(["eigvals", f.to_str().unwrap(), "--check"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The strict session runs the deep checkers and reports each by name.
    assert!(stderr.contains("orthogonality"), "{stderr}");
    assert!(stderr.contains("spectrum"), "{stderr}");
    assert!(!stderr.contains("FAIL"), "{stderr}");
    // Eigenvalues still reach stdout untouched.
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 32);
}

#[test]
fn check_flag_composes_with_profile_counters() {
    let f = tmp("chk_prof.mtx");
    bin()
        .args(["generate", f.to_str().unwrap(), "--n", "24", "--seed", "7"])
        .output()
        .unwrap();
    let out = bin()
        .args([
            "reduce",
            f.to_str().unwrap(),
            "/dev/null",
            "--check",
            "--profile",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Check counters land inside the enclosing trace session.
    assert!(stderr.contains("checks_run"), "{stderr}");
}

#[test]
fn timeline_and_flamegraph_flags_emit_reports() {
    let f = tmp("timeline_in.mtx");
    let fg = tmp("timeline_fg.txt");
    bin()
        .args(["generate", f.to_str().unwrap(), "--n", "48", "--seed", "5"])
        .output()
        .unwrap();
    let out = bin()
        .args([
            "batch",
            "--count",
            "4",
            "--n",
            "32",
            "--threads",
            "2",
            "--timeline",
            "--flamegraph",
            fg.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    // --timeline prints lanes, the parallel-region utilization table, and
    // the critical path to stderr.
    assert!(stderr.contains("per-thread lanes"), "{stderr}");
    assert!(stderr.contains("parallel.batch"), "{stderr}");
    assert!(stderr.contains("critical path"), "{stderr}");
    // --flamegraph writes non-empty collapsed stacks ("worker-N;path us").
    let collapsed = std::fs::read_to_string(&fg).unwrap();
    assert!(!collapsed.trim().is_empty());
    assert!(
        collapsed.lines().all(|l| l
            .rsplit_once(' ')
            .map(|(stack, us)| stack.starts_with("worker-") && us.parse::<u64>().is_ok())
            .unwrap_or(false)),
        "malformed collapsed stacks:\n{collapsed}"
    );
}
