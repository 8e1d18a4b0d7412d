//! `setup_s`: what a fresh process pays before it runs at steady state.
//!
//! Every sample is taken in a child process of this binary started with
//! `--setup-probe 1`, so each one is process-cold: the first thread
//! spawns, first-touch page faults, lazy initialisation and cold caches
//! all fall inside it. The child generates its inputs from the seed before
//! its clock starts (input generation is not set-up), runs the workload's
//! warm-up once, checks the results after the clock stops, and prints
//! `setup_s <seconds>` as its last line. `setup_s` is the median of
//! [`SAMPLES`] children.

use std::process::{Command, ExitCode, Stdio};

use crate::inputs::Workload;
use crate::report::Report;
use crate::{evd, serve, Args};

pub const SAMPLES: usize = 5;

/// Parent side: runs the children one after another and returns their
/// samples. A child that fails or prints no sample is a problem.
pub fn measure(args: &Args, report: &mut Report) -> Vec<f64> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            report.problem(format!("cannot locate the benchmark binary: {e}"));
            return Vec::new();
        }
    };
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--setup-probe", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let sample = out.as_ref().ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()?
                .strip_prefix("setup_s ")?
                .parse::<f64>()
                .ok()
        });
        match sample {
            Some(s) => samples.push(s),
            None => report.problem(format!("set-up probe failed: {:?}", out.map(|o| o.status))),
        }
    }
    samples
}

/// Child side: one cold set-up of the workload.
pub fn probe(w: &Workload) -> ExitCode {
    let result = match w {
        Workload::Evd(e) => evd::setup_probe(e),
        Workload::Serve(s) => serve::setup_probe(s),
    };
    match result {
        Ok(secs) => {
            println!("setup_s {secs}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in problems {
                eprintln!("perfbench: set-up probe: {p}");
            }
            ExitCode::FAILURE
        }
    }
}
