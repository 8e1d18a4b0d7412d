//! Output: a context line, then the result object as the last stdout line.

use std::process::ExitCode;

use tg_eigen::EvdMethod;

use crate::inputs::Workload;
use crate::{stats, Args};

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Extra context fields: key and an already-encoded JSON value.
    info: Vec<(String, String)>,
    pub attempted: u64,
    /// Ops that did not produce a correct result in time: typed errors,
    /// wrong results, shed jobs and deadline misses.
    pub failed: u64,
    /// Checks that failed; any entry makes the run incorrect.
    problems: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, key: &str, json_value: String) {
        self.info.push((key.to_string(), json_value));
    }

    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.problems.push(msg);
    }

    pub fn finish(mut self, context: &str) -> ExitCode {
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{\"context\": {{{context}, {}}}}}", info.join(", "));
        if self.attempted == 0 {
            self.problem("no operation was attempted".into());
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        ExitCode::SUCCESS
    }
}

/// The run context every output carries, so a drift can be traced to the
/// host rather than the code.
pub fn context(args: &Args, w: &Workload, load_start: f64, ticks_start: (u64, u64)) -> String {
    // Share of CPU time the hypervisor gave to other guests while this
    // run was going.
    let ticks_end = stats::cpu_ticks();
    let steal = (ticks_end.0 - ticks_start.0) as f64 / (ticks_end.1 - ticks_start.1).max(1) as f64;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let serve_workers = match w {
        Workload::Serve(_) => crate::serve::WORKERS,
        Workload::Evd(_) => 0,
    };
    let sizes: Vec<String> = w.ops().iter().map(|op| op.n().to_string()).collect();
    // Bulge chasing spawns this many sweep threads per solve whatever
    // TG_THREADS says, so the "single-thread" workloads still run them.
    let bc_parallel_sweeps = match w.ops()[0].method {
        EvdMethod::Proposed {
            parallel_sweeps, ..
        } => parallel_sweeps,
        _ => 0,
    };
    format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"tg_threads\": \"{}\", \"serve_workers\": {serve_workers}, \
         \"nproc\": {nproc}, \"loadavg_start\": {}, \"loadavg_end\": {}, \"cpu_steal_share\": {steal}, \
         \"bc_parallel_sweeps\": {bc_parallel_sweeps}, \"input_sizes\": [{}]",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        git_rev(),
        std::env::var("TG_THREADS").unwrap_or_default(),
        json_num(load_start),
        json_num(stats::loadavg()),
        sizes.join(", "),
    )
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".into()
    }
}

/// The checked-out commit, read from `.git` without spawning `git`;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
