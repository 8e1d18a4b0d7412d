//! Trace exporters: Chrome trace-event JSON and a plain-text profile table.

use crate::{Counter, Event, Trace, N_COUNTERS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Wall-clock events are exported under this pid, virtual-time events
/// under [`VIRTUAL_PID`], so viewers show them as separate processes.
pub const WALL_PID: u64 = 1;
pub const VIRTUAL_PID: u64 = 2;

impl Trace {
    /// Renders the trace in Chrome trace-event JSON ("X" complete events
    /// plus "M" metadata naming the process and thread lanes), loadable in
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let meta = |out: &mut String, first: &mut bool, body: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&body);
        };
        meta(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{WALL_PID},\"tid\":0,\
                 \"args\":{{\"name\":\"wall clock\"}}}}"
            ),
        );
        let mut lanes: Vec<(u64, bool)> = self
            .events
            .iter()
            .map(|e| (e.tid, e.virtual_time))
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        if lanes.iter().any(|&(_, v)| v) {
            meta(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{VIRTUAL_PID},\"tid\":0,\
                     \"args\":{{\"name\":\"gpu-sim (virtual time)\"}}}}"
                ),
            );
        }
        for &(tid, virt) in &lanes {
            let (pid, label) = if virt {
                (VIRTUAL_PID, format!("slot-{tid}"))
            } else {
                (WALL_PID, format!("worker-{tid}"))
            };
            meta(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":{}}}}}",
                    json_str(&label)
                ),
            );
        }
        for e in self.events.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            write_event(&mut out, e);
        }
        out.push_str("]}");
        out
    }

    /// Renders the trace in collapsed-stack ("folded") format, one line per
    /// distinct nesting path with its **self time** in integer microseconds:
    ///
    /// ```text
    /// worker-0;evd;evd.reduce;blas.syr2k_square 1234
    /// ```
    ///
    /// Feed to any flamegraph renderer (e.g. `flamegraph.pl`, speedscope,
    /// inferno). Each thread lane is a separate root frame; virtual-time
    /// simulator events are excluded.
    pub fn flamegraph(&self) -> String {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for seg in self.self_segments() {
            let us = (seg.end_us - seg.ts_us).round() as u64;
            if us == 0 {
                continue;
            }
            *folded
                .entry(format!("worker-{};{}", seg.tid, seg.path))
                .or_insert(0) += us;
        }
        let mut out = String::new();
        for (path, us) in folded {
            let _ = writeln!(out, "{path} {us}");
        }
        out
    }

    /// Aggregates events by span name into [`ProfileRow`]s, ordered by
    /// total wall time (descending). Virtual-time events are excluded.
    pub(crate) fn profile_rows(&self) -> Vec<ProfileRow> {
        let mut by_name: BTreeMap<&'static str, ProfileRow> = BTreeMap::new();
        for e in self.events.iter().filter(|e| !e.virtual_time) {
            let row = by_name.entry(e.name).or_insert_with(|| ProfileRow {
                name: e.name,
                cat: e.cat,
                count: 0,
                wall: 0.0,
                counters: [0; N_COUNTERS],
            });
            row.count += 1;
            row.wall += e.dur_us * 1e-6;
            for i in 0..N_COUNTERS {
                row.counters[i] += e.counters[i];
            }
        }
        let mut rows: Vec<ProfileRow> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.wall.total_cmp(&a.wall));
        rows
    }

    /// Renders the per-stage profile table:
    ///
    /// ```text
    /// span            cat    calls   wall ms   % wall     GFLOP   GFLOP/s
    /// evd.reduce      stage      1    12.100    74.2%     0.350     28.92
    /// ```
    ///
    /// Percentages are relative to the session wall time; nested spans both
    /// appear (durations are inclusive), so only sibling rows sum to ≤100%.
    pub fn profile_table(&self) -> String {
        let rows = self.profile_rows();
        let total_s = self.wall.as_secs_f64();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<26} {:<7} {:>6} {:>11} {:>7} {:>10} {:>9}",
            "span", "cat", "calls", "wall ms", "% wall", "GFLOP", "GFLOP/s"
        );
        // zero denominators render as "n/a", never NaN: an empty session
        // has total_s == 0, and sub-microsecond spans can round to wall 0
        let fmt_pct = |num: f64, den: f64| -> String {
            if den > 0.0 {
                format!("{:.1}%", 100.0 * num / den)
            } else {
                "n/a".to_string()
            }
        };
        let fmt_rate = |num: f64, den: f64| -> String {
            if den > 0.0 {
                format!("{:.2}", num / den)
            } else {
                "n/a".to_string()
            }
        };
        for r in &rows {
            let gflop = r.counters[Counter::Flops.index()] as f64 / 1e9;
            let _ = writeln!(
                out,
                "{:<26} {:<7} {:>6} {:>11.3} {:>7} {:>10.3} {:>9}",
                r.name,
                r.cat,
                r.count,
                r.wall * 1e3,
                fmt_pct(r.wall, total_s),
                gflop,
                fmt_rate(gflop, r.wall)
            );
        }
        let total_gflop = self.total(Counter::Flops) as f64 / 1e9;
        let _ = writeln!(
            out,
            "{:<26} {:<7} {:>6} {:>11.3} {:>7} {:>10.3} {:>9}",
            "TOTAL (session)",
            "",
            "",
            total_s * 1e3,
            fmt_pct(total_s, total_s),
            total_gflop,
            fmt_rate(total_gflop, total_s)
        );
        for c in [
            Counter::BytesRead,
            Counter::BytesWritten,
            Counter::Sweeps,
            Counter::BulgeTasks,
            Counter::ChecksRun,
            Counter::CheckFailures,
            Counter::FaultsInjected,
            Counter::PackBytes,
            Counter::JobsRetried,
            Counter::JobsShed,
            Counter::CacheHit,
            Counter::CacheMiss,
            Counter::CacheEvictedBytes,
            Counter::JobsCoalesced,
        ] {
            let v = self.total(c);
            if v != 0 {
                let _ = writeln!(out, "  total {:<14} {v}", c.key());
            }
        }
        let peak = self.total(Counter::ArenaLiveBytes);
        if peak != 0 {
            let _ = writeln!(out, "  peak {:<15} {peak}", Counter::ArenaLiveBytes.key());
        }
        out
    }
}

/// One aggregated profile line: all events sharing a span name.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    pub name: &'static str,
    pub cat: &'static str,
    pub count: usize,
    /// Total inclusive wall time, seconds.
    pub wall: f64,
    pub counters: [u64; N_COUNTERS],
}

fn write_event(out: &mut String, e: &Event) {
    let pid = if e.virtual_time {
        VIRTUAL_PID
    } else {
        WALL_PID
    };
    let _ = write!(
        out,
        "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{}",
        json_str(e.name),
        json_str(e.cat),
        e.ts_us,
        e.dur_us,
        e.tid
    );
    out.push_str(",\"args\":{");
    let mut first = true;
    if let Some((k, v)) = e.arg {
        let _ = write!(out, "{}:{v}", json_str(k));
        first = false;
    }
    if let Some(r) = e.region {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "\"region\":{r}");
        first = false;
    }
    for c in Counter::ALL {
        let val = e.counters[c.index()];
        if val != 0 {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{}:{val}", json_str(c.key()));
            first = false;
        }
    }
    out.push_str("}}");
}

/// Minimal JSON string escaping (span/category names are code literals,
/// but keep the output valid for arbitrary content).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> Trace {
        let mut reduce_counters = [0u64; N_COUNTERS];
        reduce_counters[..3].copy_from_slice(&[350_000, 16_384, 8_192]);
        let mut solve_counters = [0u64; N_COUNTERS];
        solve_counters[0] = 50_000;
        let mut totals = [0u64; N_COUNTERS];
        totals[..3].copy_from_slice(&[400_000, 16_384, 8_192]);
        Trace {
            events: vec![
                Event {
                    name: "evd.reduce",
                    cat: "stage",
                    arg: Some(("n", 64)),
                    tid: 0,
                    ts_us: 0.0,
                    dur_us: 900.0,
                    counters: reduce_counters,
                    virtual_time: false,
                    region: None,
                },
                Event {
                    name: "evd.solve",
                    cat: "stage",
                    arg: None,
                    tid: 0,
                    ts_us: 900.0,
                    dur_us: 100.0,
                    counters: solve_counters,
                    virtual_time: false,
                    region: Some(3),
                },
                Event {
                    name: "sim.sweep",
                    cat: "sim",
                    arg: Some(("s", 2)),
                    tid: 1,
                    ts_us: 0.0,
                    dur_us: 5.0,
                    counters: [0; N_COUNTERS],
                    virtual_time: true,
                    region: None,
                },
            ],
            totals,
            wall: std::time::Duration::from_micros(1000),
        }
    }

    #[test]
    fn chrome_json_shape() {
        let json = demo_trace().chrome_json();
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"evd.reduce\""));
        assert!(json.contains("\"flops\":350000"));
        // virtual event under its own pid
        assert!(json.contains(&format!("\"pid\":{VIRTUAL_PID}")));
        // lane metadata: named processes and one thread_name per lane
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"worker-0\""));
        assert!(json.contains("\"name\":\"slot-1\""));
        assert!(json.contains("gpu-sim (virtual time)"));
        // region membership exported as an arg
        assert!(json.contains("\"region\":3"));
    }

    #[test]
    fn flamegraph_collapses_self_time() {
        let fg = demo_trace().flamegraph();
        // two sibling stage spans on worker 0, self time = full duration
        assert!(fg.contains("worker-0;evd.reduce 900"), "{fg}");
        assert!(fg.contains("worker-0;evd.solve 100"), "{fg}");
        // virtual events excluded
        assert!(!fg.contains("sim.sweep"), "{fg}");
    }

    #[test]
    fn profile_table_renders_na_for_zero_denominators() {
        let empty = Trace {
            events: Vec::new(),
            totals: [0; N_COUNTERS],
            wall: std::time::Duration::ZERO,
        };
        let table = empty.profile_table();
        assert!(table.contains("n/a"), "{table}");
        assert!(!table.contains("NaN"), "{table}");
    }

    #[test]
    fn profile_rows_aggregate_and_sort() {
        let rows = demo_trace().profile_rows();
        assert_eq!(rows.len(), 2); // virtual event excluded
        assert_eq!(rows[0].name, "evd.reduce"); // longest first
        assert_eq!(rows[0].counters[0], 350_000);
        assert!((rows[0].wall - 900e-6).abs() < 1e-12);
    }

    #[test]
    fn profile_table_mentions_stages_and_total() {
        let table = demo_trace().profile_table();
        assert!(table.contains("evd.reduce"));
        assert!(table.contains("evd.solve"));
        assert!(table.contains("TOTAL (session)"));
        assert!(table.contains("GFLOP/s"));
    }
}
