//! The repository benchmark: one command, one workload per process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload evd_vectors --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics; `--trace 1` runs the traced pass (layer-by-layer replay, host
//! roofline, kernel probes, serve-layer counters) and prints the per-layer
//! metrics. Earlier stdout lines carry the run context; the last line is
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Inputs are generated from `--seed` before anything is timed; the
//! library only ever sees the generated matrices. `setup_s` is measured in
//! child processes of this binary (`--setup-probe 1`, see [`setup`]).

mod evd;
mod host;
mod inputs;
mod layers;
mod report;
mod serve;
mod setup;
mod stats;

use std::process::ExitCode;

use report::Report;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Child mode: one cold set-up, then exit (see [`setup`]).
    pub setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--setup-probe" => setup_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !inputs::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            inputs::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every workload is single-threaded inside the kernels; `serve_zipf`
    // gets its concurrency from the service's two workers instead. Set
    // before any library call or thread reads it.
    std::env::set_var("TG_THREADS", "1");

    if args.setup_probe {
        return setup::probe(&inputs::Workload::generate(&args.workload, args.seed));
    }

    let load_start = stats::loadavg();
    let ticks_start = stats::cpu_ticks();
    let mut report = Report::new();
    let w = inputs::Workload::generate(&args.workload, args.seed);
    if args.trace {
        layers::run(&args, &w, &mut report);
    } else {
        let setups = setup::measure(&args, &mut report);
        match &w {
            inputs::Workload::Evd(e) => evd::run(&args, e, &mut report),
            inputs::Workload::Serve(s) => serve::run(&args, s, &mut report),
        }
        if !setups.is_empty() {
            report.metric("setup_s", stats::median(&setups), "s");
        }
        report.info("setup_samples_s", format!("{setups:?}"));
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    let context = report::context(&args, &w, load_start, ticks_start);
    report.finish(&context)
}
