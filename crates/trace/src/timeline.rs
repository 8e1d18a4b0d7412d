//! Timeline analyses over a finished [`Trace`]: per-thread lanes,
//! parallel-region utilization / load imbalance, and critical-path
//! extraction.
//!
//! All three analyses consume the per-thread span intervals the recorder
//! already collects (stable `tid`, monotonic `ts_us`/`dur_us` relative to
//! session begin). Nothing here touches the hot recording path — these are
//! post-mortem passes over an owned [`Trace`].
//!
//! * **Lanes** ([`Trace::lanes`]): one row per thread (or per virtual
//!   track), with busy time computed as the union of that lane's span
//!   intervals — nested spans are not double counted.
//! * **Region utilization** ([`Trace::region_utilization`]): spans opened
//!   with [`crate::span_region`] carry a region id; per region we report
//!   distinct workers, busy vs. wait time, utilization, and the imbalance
//!   ratio (max worker busy / mean worker busy; 1.0 = perfectly balanced).
//! * **Critical path** ([`Trace::critical_path`]): a backward "last to
//!   finish" walk over leaf segments (each span's self time, i.e. its
//!   interval minus its children). From the last segment end, repeatedly
//!   attribute the latest-finishing segment and jump to its start; gaps
//!   where no segment ends are idle. The result partitions the session
//!   window into per-span-name shares of the critical path.

use crate::{Event, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tolerance (µs) for interval comparisons: child end timestamps are
/// measured independently of their parent's and can round past it.
const EPS_US: f64 = 0.5;

/// Busy/idle summary for one thread lane (or one virtual track).
#[derive(Clone, Debug)]
pub struct LaneStats {
    pub tid: u64,
    /// Number of spans recorded on this lane.
    pub spans: usize,
    /// Union of span intervals, µs (nesting not double counted).
    pub busy_us: f64,
    pub first_ts_us: f64,
    pub last_end_us: f64,
}

/// Utilization metrics for one parallel region (see [`crate::RegionId`]).
#[derive(Clone, Debug)]
pub struct RegionUtilization {
    pub region: u64,
    /// Name of the region-opening span (`"?"` if it never closed).
    pub name: &'static str,
    /// Region span duration, µs.
    pub wall_us: f64,
    /// Distinct worker threads that ran member tasks.
    pub workers: usize,
    /// Member task spans executed.
    pub tasks: usize,
    /// Sum of member task durations, µs (wait time included).
    pub busy_us: f64,
    /// Sum of `"wait"`-category spans in the region (dependency stalls).
    pub wait_us: f64,
    /// `(busy - wait) / (workers × wall)`; 1.0 = every worker busy for the
    /// whole region.
    pub utilization: f64,
    /// Max worker busy / mean worker busy; 1.0 = perfectly balanced.
    pub imbalance: f64,
}

/// One critical-path entry: total µs the named span was the last thing
/// running, and its share of the walked window.
#[derive(Clone, Debug)]
pub struct CriticalPathRow {
    pub name: &'static str,
    pub us: f64,
    pub share: f64,
}

/// Result of [`Trace::critical_path`].
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Per-span attribution, largest first. Shares sum to ≤ 1; the
    /// remainder is [`CriticalPath::idle_us`].
    pub rows: Vec<CriticalPathRow>,
    /// Time on the walk not covered by any span.
    pub idle_us: f64,
    /// Walked window (first segment start to last segment end), µs.
    pub total_us: f64,
}

/// Rendered plain-text report (lanes + regions + critical path).
pub struct TimelineReport(pub String);

/// One leaf segment: a span's self time on its thread, with the full
/// nesting path for flamegraph export.
#[derive(Clone, Debug)]
pub(crate) struct Segment {
    pub tid: u64,
    pub ts_us: f64,
    pub end_us: f64,
    pub name: &'static str,
    /// `;`-joined nesting path, e.g. `evd;evd.reduce;blas.syr2k_square`.
    pub path: String,
}

fn fmt_pct(x: f64) -> String {
    if x.is_finite() {
        format!("{:.1}%", 100.0 * x)
    } else {
        "n/a".to_string()
    }
}

fn fmt_ratio(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "n/a".to_string()
    }
}

fn sorted_by_lane(events: &[Event], virtual_time: bool) -> BTreeMap<u64, Vec<&Event>> {
    let mut lanes: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.virtual_time == virtual_time) {
        lanes.entry(e.tid).or_default().push(e);
    }
    for lane in lanes.values_mut() {
        // start ascending; at equal starts the longer (outer) span first
        lane.sort_by(|a, b| {
            a.ts_us
                .total_cmp(&b.ts_us)
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
    }
    lanes
}

/// Union length of a set of intervals (each `(start, end)`), µs.
fn union_us(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

impl Trace {
    /// Per-thread (or, with `virtual_time`, per-track) busy/idle summary.
    pub fn lanes(&self, virtual_time: bool) -> Vec<LaneStats> {
        sorted_by_lane(&self.events, virtual_time)
            .into_iter()
            .map(|(tid, evs)| {
                let iv: Vec<(f64, f64)> =
                    evs.iter().map(|e| (e.ts_us, e.ts_us + e.dur_us)).collect();
                LaneStats {
                    tid,
                    spans: evs.len(),
                    busy_us: union_us(iv.clone()),
                    first_ts_us: iv.iter().map(|i| i.0).fold(f64::INFINITY, f64::min),
                    last_end_us: iv.iter().map(|i| i.1).fold(0.0, f64::max),
                }
            })
            .collect()
    }

    /// Average parallelism over the **virtual** (simulator) timeline:
    /// `Σ dur / (max end − min start)`. `None` when no virtual events were
    /// recorded. This is what `tg_gpu_sim::model_check::check_utilization`
    /// reconciles against the analytic occupancy model.
    pub fn virtual_parallelism(&self) -> Option<f64> {
        let virt: Vec<&Event> = self.events.iter().filter(|e| e.virtual_time).collect();
        if virt.is_empty() {
            return None;
        }
        let busy: f64 = virt.iter().map(|e| e.dur_us).sum();
        let start = virt.iter().map(|e| e.ts_us).fold(f64::INFINITY, f64::min);
        let end = virt
            .iter()
            .map(|e| e.ts_us + e.dur_us)
            .fold(0.0_f64, f64::max);
        if end <= start {
            return None;
        }
        Some(busy / (end - start))
    }

    /// Checks that spans are well-formed per thread: non-negative
    /// durations, and no partially-overlapping siblings (every pair of
    /// spans on a thread is either disjoint or properly nested). The RAII
    /// recorder guarantees this by construction; the check exists to catch
    /// recorder regressions and hand-built traces.
    pub fn validate_nesting(&self) -> Result<(), String> {
        for (tid, evs) in sorted_by_lane(&self.events, false) {
            let mut open: Vec<(f64, &'static str)> = Vec::new(); // (end, name)
            for e in evs {
                if e.dur_us < 0.0 {
                    return Err(format!("tid {tid}: span {} has negative duration", e.name));
                }
                let end = e.ts_us + e.dur_us;
                while let Some(&(top_end, _)) = open.last() {
                    if top_end <= e.ts_us + EPS_US {
                        open.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&(top_end, top_name)) = open.last() {
                    if end > top_end + EPS_US {
                        return Err(format!(
                            "tid {tid}: span {} [{:.1}, {end:.1}] overlaps sibling/parent \
                             {top_name} ending at {top_end:.1}",
                            e.name, e.ts_us
                        ));
                    }
                }
                open.push((end, e.name));
            }
        }
        Ok(())
    }

    /// Computes utilization and imbalance for every parallel region in the
    /// trace (spans recorded through [`crate::span_region`]).
    pub fn region_utilization(&self) -> Vec<RegionUtilization> {
        struct Acc<'t> {
            opener: Option<&'t Event>,
            members: Vec<&'t Event>,
        }
        let mut by_region: BTreeMap<u64, Acc<'_>> = BTreeMap::new();
        for e in self.events.iter().filter(|e| !e.virtual_time) {
            let Some(r) = e.region else { continue };
            let acc = by_region.entry(r).or_insert(Acc {
                opener: None,
                members: Vec::new(),
            });
            if e.cat == "region" {
                acc.opener = Some(e);
            } else {
                acc.members.push(e);
            }
        }
        let mut out = Vec::new();
        for (region, acc) in by_region {
            let (name, wall_us) = match acc.opener {
                Some(e) => (e.name, e.dur_us),
                None => {
                    let start = acc
                        .members
                        .iter()
                        .map(|e| e.ts_us)
                        .fold(f64::INFINITY, f64::min);
                    let end = acc
                        .members
                        .iter()
                        .map(|e| e.ts_us + e.dur_us)
                        .fold(0.0_f64, f64::max);
                    ("?", (end - start).max(0.0))
                }
            };
            // busy per worker counts task-like spans; "worker" spans are
            // long-lived loop markers (they would double count their nested
            // tasks) and "wait" spans are stalls subtracted from busy time.
            let mut busy_by_tid: BTreeMap<u64, f64> = BTreeMap::new();
            let mut tasks = 0usize;
            let mut wait_us = 0.0;
            for e in &acc.members {
                match e.cat {
                    "worker" => {
                        busy_by_tid.entry(e.tid).or_insert(0.0);
                    }
                    "wait" => {
                        wait_us += e.dur_us;
                        *busy_by_tid.entry(e.tid).or_insert(0.0) -= e.dur_us;
                    }
                    _ => {
                        tasks += 1;
                        *busy_by_tid.entry(e.tid).or_insert(0.0) += e.dur_us;
                    }
                }
            }
            let workers = busy_by_tid.len();
            let busy_us: f64 = busy_by_tid.values().sum::<f64>() + wait_us;
            let effective = busy_us - wait_us;
            let utilization = if workers > 0 && wall_us > 0.0 {
                effective / (workers as f64 * wall_us)
            } else {
                f64::NAN
            };
            let mean = if workers > 0 {
                effective / workers as f64
            } else {
                0.0
            };
            let max = busy_by_tid.values().cloned().fold(0.0_f64, f64::max);
            let imbalance = if mean > 0.0 { max / mean } else { f64::NAN };
            out.push(RegionUtilization {
                region,
                name,
                wall_us,
                workers,
                tasks,
                busy_us,
                wait_us,
                utilization,
                imbalance,
            });
        }
        out
    }

    /// Leaf ("self time") segments: each span's interval minus its
    /// children, with the nesting path preserved. Shared by the critical
    /// path walk and the flamegraph exporter.
    pub(crate) fn self_segments(&self) -> Vec<Segment> {
        struct OpenSpan {
            name: &'static str,
            end: f64,
            cursor: f64,
            path: String,
        }
        let mut segs = Vec::new();
        for (tid, evs) in sorted_by_lane(&self.events, false) {
            let mut stack: Vec<OpenSpan> = Vec::new();
            let emit = |segs: &mut Vec<Segment>, o: &OpenSpan, a: f64, b: f64| {
                if b > a + 1e-9 {
                    segs.push(Segment {
                        tid,
                        ts_us: a,
                        end_us: b,
                        name: o.name,
                        path: o.path.clone(),
                    });
                }
            };
            let pop = |segs: &mut Vec<Segment>, stack: &mut Vec<OpenSpan>| {
                let top = stack.pop().expect("pop on empty stack");
                emit(segs, &top, top.cursor, top.end);
                if let Some(p) = stack.last_mut() {
                    p.cursor = p.cursor.max(top.end);
                }
            };
            for e in evs {
                let end = e.ts_us + e.dur_us;
                while let Some(top) = stack.last() {
                    if top.end <= e.ts_us + EPS_US {
                        pop(&mut segs, &mut stack);
                    } else {
                        break;
                    }
                }
                if let Some(p) = stack.last_mut() {
                    let (a, b) = (p.cursor, e.ts_us);
                    if b > a + 1e-9 {
                        segs.push(Segment {
                            tid,
                            ts_us: a,
                            end_us: b,
                            name: p.name,
                            path: p.path.clone(),
                        });
                    }
                    p.cursor = p.cursor.max(end);
                }
                let path = match stack.last() {
                    Some(p) => format!("{};{}", p.path, e.name),
                    None => e.name.to_string(),
                };
                stack.push(OpenSpan {
                    name: e.name,
                    end,
                    cursor: e.ts_us,
                    path,
                });
            }
            while !stack.is_empty() {
                pop(&mut segs, &mut stack);
            }
        }
        segs
    }

    /// Extracts the critical path with a backward "last to finish" walk
    /// over leaf segments (see module docs). Deterministic for a given
    /// trace; returns an empty path when no wall-clock spans exist.
    pub fn critical_path(&self) -> CriticalPath {
        let segs = self.self_segments();
        if segs.is_empty() {
            return CriticalPath {
                rows: Vec::new(),
                idle_us: 0.0,
                total_us: 0.0,
            };
        }
        let t_start = segs.iter().map(|s| s.ts_us).fold(f64::INFINITY, f64::min);
        let t_end = segs.iter().map(|s| s.end_us).fold(0.0_f64, f64::max);
        let mut attr: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut idle = 0.0;
        let mut t = t_end;
        while t > t_start + 1e-9 {
            // latest-finishing segment as seen from t (ends clipped to t —
            // a segment still running at t counts as active up to t); ties
            // broken toward the earlier start (the longer chain link)
            let best = segs.iter().filter(|s| s.ts_us < t - 1e-9).max_by(|a, b| {
                a.end_us
                    .min(t)
                    .total_cmp(&b.end_us.min(t))
                    .then(b.ts_us.total_cmp(&a.ts_us))
            });
            match best {
                Some(s) => {
                    let end = s.end_us.min(t);
                    idle += t - end;
                    *attr.entry(s.name).or_insert(0.0) += end - s.ts_us;
                    t = s.ts_us;
                }
                None => {
                    idle += t - t_start;
                    break;
                }
            }
        }
        let total_us = t_end - t_start;
        let mut rows: Vec<CriticalPathRow> = attr
            .into_iter()
            .map(|(name, us)| CriticalPathRow {
                name,
                us,
                share: if total_us > 0.0 { us / total_us } else { 0.0 },
            })
            .collect();
        rows.sort_by(|a, b| b.us.total_cmp(&a.us));
        CriticalPath {
            rows,
            idle_us: idle,
            total_us,
        }
    }

    /// Renders the lanes / regions / critical-path report as plain text
    /// (the `--timeline` CLI output). Ratios with a zero denominator render
    /// as `n/a`, never `NaN`.
    pub fn timeline_report(&self) -> TimelineReport {
        let mut out = String::new();
        let wall_us = self.wall.as_secs_f64() * 1e6;

        let lanes = self.lanes(false);
        let _ = writeln!(out, "== per-thread lanes ==");
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>12} {:>8}",
            "worker", "spans", "busy ms", "busy %"
        );
        for l in &lanes {
            let pct = if wall_us > 0.0 {
                l.busy_us / wall_us
            } else {
                f64::NAN
            };
            let _ = writeln!(
                out,
                "{:<8} {:>7} {:>12.3} {:>8}",
                format!("w{}", l.tid),
                l.spans,
                l.busy_us * 1e-3,
                fmt_pct(pct)
            );
        }
        if lanes.is_empty() {
            let _ = writeln!(out, "(no wall-clock spans recorded)");
        }

        let regions = self.region_utilization();
        if !regions.is_empty() {
            let _ = writeln!(out, "\n== parallel regions ==");
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>7} {:>7} {:>11} {:>11} {:>7} {:>9}",
                "region", "workers", "tasks", "wall ms", "busy ms", "wait ms", "util", "imbalance"
            );
            for r in &regions {
                let _ = writeln!(
                    out,
                    "{:<24} {:>8} {:>7} {:>7.3} {:>11.3} {:>11.3} {:>7} {:>9}",
                    r.name,
                    r.workers,
                    r.tasks,
                    r.wall_us * 1e-3,
                    r.busy_us * 1e-3,
                    r.wait_us * 1e-3,
                    fmt_pct(r.utilization),
                    fmt_ratio(r.imbalance)
                );
            }
        }

        let cp = self.critical_path();
        if !cp.rows.is_empty() {
            let _ = writeln!(
                out,
                "\ncritical path ({:.3} ms, {} idle):",
                cp.total_us * 1e-3,
                fmt_pct(if cp.total_us > 0.0 {
                    cp.idle_us / cp.total_us
                } else {
                    f64::NAN
                })
            );
            for r in &cp.rows {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>10.3} ms {:>7}",
                    r.name,
                    r.us * 1e-3,
                    fmt_pct(r.share)
                );
            }
        }
        TimelineReport(out)
    }
}

impl std::fmt::Display for TimelineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::N_COUNTERS;
    use std::time::Duration;

    fn ev(name: &'static str, tid: u64, ts: f64, dur: f64) -> Event {
        Event {
            name,
            cat: "stage",
            arg: None,
            tid,
            ts_us: ts,
            dur_us: dur,
            counters: [0; N_COUNTERS],
            virtual_time: false,
            region: None,
        }
    }

    fn trace(events: Vec<Event>, wall_us: u64) -> Trace {
        Trace {
            events,
            totals: [0; N_COUNTERS],
            wall: Duration::from_micros(wall_us),
        }
    }

    #[test]
    fn lanes_union_does_not_double_count_nesting() {
        // outer [0,100] with child [10,60] on one thread
        let t = trace(
            vec![ev("outer", 0, 0.0, 100.0), ev("inner", 0, 10.0, 50.0)],
            100,
        );
        let lanes = t.lanes(false);
        assert_eq!(lanes.len(), 1);
        assert!((lanes[0].busy_us - 100.0).abs() < 1e-9);
        assert_eq!(lanes[0].spans, 2);
    }

    #[test]
    fn validate_nesting_accepts_proper_and_rejects_overlap() {
        let good = trace(
            vec![
                ev("root", 0, 0.0, 100.0),
                ev("a", 0, 10.0, 30.0),
                ev("b", 0, 50.0, 40.0),
                ev("other", 1, 0.0, 80.0),
            ],
            100,
        );
        good.validate_nesting().unwrap();
        // partial overlap on one thread: [10,60] and [40,90]
        let bad = trace(vec![ev("a", 0, 10.0, 50.0), ev("b", 0, 40.0, 50.0)], 100);
        assert!(bad.validate_nesting().is_err());
    }

    #[test]
    fn self_segments_subtract_children() {
        // parent [0,100], child [20,50]: parent self = [0,20] + [50,100]
        let t = trace(vec![ev("p", 0, 0.0, 100.0), ev("c", 0, 20.0, 30.0)], 100);
        let segs = t.self_segments();
        let p_self: f64 = segs
            .iter()
            .filter(|s| s.name == "p")
            .map(|s| s.end_us - s.ts_us)
            .sum();
        let c_self: f64 = segs
            .iter()
            .filter(|s| s.name == "c")
            .map(|s| s.end_us - s.ts_us)
            .sum();
        assert!((p_self - 70.0).abs() < 1e-6, "p self {p_self}");
        assert!((c_self - 30.0).abs() < 1e-6, "c self {c_self}");
        let c_seg = segs.iter().find(|s| s.name == "c").unwrap();
        assert_eq!(c_seg.path, "p;c");
    }

    #[test]
    fn critical_path_follows_last_finisher_and_counts_idle() {
        // t0: a [0,40]; t1: b [10,100]; gap; t0: c [120,150]
        let t = trace(
            vec![
                ev("a", 0, 0.0, 40.0),
                ev("b", 1, 10.0, 90.0),
                ev("c", 0, 120.0, 30.0),
            ],
            150,
        );
        let cp = t.critical_path();
        assert!((cp.total_us - 150.0).abs() < 1e-6);
        let us = |n: &str| {
            cp.rows
                .iter()
                .find(|r| r.name == n)
                .map(|r| r.us)
                .unwrap_or(0.0)
        };
        // walk: c [120,150] → idle [100,120] → b [10,100] → a [0,10] clipped
        assert!((us("c") - 30.0).abs() < 1e-6);
        assert!((us("b") - 90.0).abs() < 1e-6);
        assert!(
            (us("a") - 10.0).abs() < 1e-6,
            "a clipped to [0,10], got {}",
            us("a")
        );
        assert!((cp.idle_us - 20.0).abs() < 1e-6);
        let share_sum: f64 = cp.rows.iter().map(|r| r.share).sum();
        assert!((share_sum + cp.idle_us / cp.total_us - 1.0).abs() < 1e-9);
    }

    #[test]
    fn region_utilization_counts_workers_waits_and_imbalance() {
        let mut region_span = ev("parallel.demo", 0, 0.0, 100.0);
        region_span.cat = "region";
        region_span.region = Some(7);
        let mut t1 = ev("task", 1, 0.0, 90.0);
        t1.cat = "task";
        t1.region = Some(7);
        let mut t2 = ev("task", 2, 0.0, 40.0);
        t2.cat = "task";
        t2.region = Some(7);
        let mut w = ev("wait", 2, 30.0, 10.0);
        w.cat = "wait";
        w.region = Some(7);
        let tr = trace(vec![region_span, t1, t2, w], 100);
        let regs = tr.region_utilization();
        assert_eq!(regs.len(), 1);
        let r = &regs[0];
        assert_eq!(r.name, "parallel.demo");
        assert_eq!(r.workers, 2);
        assert_eq!(r.tasks, 2);
        assert!((r.wait_us - 10.0).abs() < 1e-9);
        // busy = task durations (90 + 40, waits nested inside) = 130
        assert!((r.busy_us - 130.0).abs() < 1e-9);
        // effective busy 120 over 2 workers × 100 wall = 60%
        assert!((r.utilization - 0.6).abs() < 1e-9);
        // per-worker effective: w1 = 90, w2 = 40(task) − 10(wait) = 30
        // mean 60, max 90 → imbalance 1.5
        assert!(
            (r.imbalance - 1.5).abs() < 1e-9,
            "imbalance {}",
            r.imbalance
        );
    }

    #[test]
    fn empty_trace_yields_na_not_nan() {
        let t = trace(Vec::new(), 0);
        let report = t.timeline_report().0;
        assert!(!report.contains("NaN"), "{report}");
        let cp = t.critical_path();
        assert!(cp.rows.is_empty());
        assert_eq!(t.virtual_parallelism(), None);
    }

    #[test]
    fn virtual_parallelism_sums_tracks() {
        let mut a = ev("sim.sweep", 0, 0.0, 100.0);
        a.virtual_time = true;
        let mut b = ev("sim.sweep", 1, 50.0, 100.0);
        b.virtual_time = true;
        let t = trace(vec![a, b], 1);
        // 200 busy over [0,150] window
        let p = t.virtual_parallelism().unwrap();
        assert!((p - 200.0 / 150.0).abs() < 1e-9);
    }
}
