//! Per-layer accounting for the traced run: one [`Layers`] per traced
//! campaign (or closed-loop pass), reduced to the reported `<crate>.<metric>`
//! values by taking the median over the run's samples.

use std::time::Instant;

use veridic::mc::{CheckStats, EngineEvent, EventOutcome, PREANALYSIS};

use crate::measure::{median, Metric};
use crate::timed::{engine_index, EngineSpan};

/// `mc.<engine>_s`, `mc.<engine>.runs`, `mc.<engine>.useful_ratio`,
/// in [`engine_index`] order.
const ENGINE_METRICS: [[&str; 3]; 4] = [
    ["mc.bmc_s", "mc.bmc.runs", "mc.bmc.useful_ratio"],
    [
        "mc.induction_s",
        "mc.induction.runs",
        "mc.induction.useful_ratio",
    ],
    ["mc.bdd_umc_s", "mc.bdd_umc.runs", "mc.bdd_umc.useful_ratio"],
    ["mc.pobdd_s", "mc.pobdd.runs", "mc.pobdd.useful_ratio"],
];

/// Raw per-layer totals of one traced sample. Fields a workload cannot
/// observe stay zero (see `perfbench/BASELINE.md`).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub engine_s: [f64; 4],
    pub engine_runs: [u64; 4],
    pub engine_decided: [u64; 4],
    /// Σ per-property check spans.
    pub check_s: f64,
    /// Σ (check span − engine spans inside it).
    pub self_s: f64,
    pub sat_conflicts: u64,
    pub bdd_allocated: u64,
    pub bdd_peak_live: u64,
    pub bdd_quota_hits: u64,
    pub bdd_iterations: u64,
    pub coi_latches: u64,
    pub coi_ands: u64,
    pub coi_cones: u64,
    pub preanalysis_decided: u64,
    pub prepare_s: f64,
    pub tail_idle_s: f64,
    pub lower_s: f64,
    pub aig_ands: u64,
    pub generate_s: f64,
    pub campaign_overhead_s: f64,
    pub campaign_slices: u64,
    pub journal_bytes: u64,
    pub trace_overhead_s: f64,
}

fn decided(outcome: &EventOutcome) -> bool {
    matches!(
        outcome,
        EventOutcome::Falsified
            | EventOutcome::ProvedAtK(_)
            | EventOutcome::Proved
            | EventOutcome::FalsifiedAtDepth(_)
    )
}

/// Engine runs the program's own event log records for one check
/// (the preanalysis pseudo-engine excluded).
pub fn engine_events(stats: &CheckStats) -> impl Iterator<Item = (usize, &EngineEvent)> {
    stats
        .events
        .iter()
        .filter_map(|e| engine_index(e.engine).map(|i| (i, e)))
}

impl Layers {
    /// Counters every check reports in its statistics.
    pub fn add_stats(&mut self, stats: &CheckStats) {
        self.sat_conflicts += stats.sat_conflicts;
        self.bdd_allocated += stats.bdd_allocated;
        self.bdd_peak_live = self.bdd_peak_live.max(stats.bdd_nodes as u64);
        self.bdd_quota_hits += stats.bdd_quota_hits as u64;
        self.bdd_iterations += stats.iterations as u64;
        for cone in &stats.per_bad_coi {
            self.coi_latches += cone.latches as u64;
            self.coi_ands += cone.ands as u64;
            self.coi_cones += 1;
        }
        self.preanalysis_decided += stats
            .events
            .iter()
            .filter(|e| e.engine.as_str() == PREANALYSIS && decided(&e.outcome))
            .count() as u64;
        self.campaign_slices += stats
            .events
            .iter()
            .filter(|e| e.outcome == EventOutcome::Suspended)
            .count() as u64;
    }

    /// One property's check span and the engine spans recorded inside it.
    pub fn add_check(&mut self, check_s: f64, spans: &[EngineSpan]) {
        let mut engines = 0.0;
        for s in spans {
            let d = s.end.duration_since(s.start).as_secs_f64();
            self.engine_s[s.engine] += d;
            self.engine_runs[s.engine] += 1;
            self.engine_decided[s.engine] += u64::from(s.decided);
            engines += d;
        }
        self.check_s += check_s;
        self.self_s += check_s - engines;
    }

    pub fn engines_s(&self) -> f64 {
        self.engine_s.iter().sum()
    }

    fn values(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut v = Vec::new();
        for (i, [time, runs, useful]) in ENGINE_METRICS.iter().enumerate() {
            let n = self.engine_runs[i];
            v.push((*time, self.engine_s[i], "s"));
            v.push((*runs, n as f64, "count"));
            let ratio = if n == 0 {
                0.0
            } else {
                self.engine_decided[i] as f64 / n as f64
            };
            v.push((*useful, ratio, "ratio"));
        }
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let sat_s = self.engine_s[0] + self.engine_s[1];
        let bdd_s = self.engine_s[2] + self.engine_s[3];
        v.extend([
            ("mc.check_s", self.check_s, "s"),
            ("mc.self_s", self.self_s, "s"),
            ("sat.conflicts", self.sat_conflicts as f64, "count"),
            (
                "sat.conflicts_per_s",
                per(self.sat_conflicts as f64, sat_s),
                "1/s",
            ),
            ("bdd.allocated", self.bdd_allocated as f64, "count"),
            ("bdd.peak_live", self.bdd_peak_live as f64, "count"),
            ("bdd.quota_hits", self.bdd_quota_hits as f64, "count"),
            ("bdd.iterations", self.bdd_iterations as f64, "count"),
            (
                "bdd.alloc_per_s",
                per(self.bdd_allocated as f64, bdd_s),
                "1/s",
            ),
            (
                "aig.coi_latches_mean",
                per(self.coi_latches as f64, self.coi_cones as f64),
                "count",
            ),
            (
                "aig.coi_ands_mean",
                per(self.coi_ands as f64, self.coi_cones as f64),
                "count",
            ),
            (
                "aig.preanalysis_decided",
                self.preanalysis_decided as f64,
                "count",
            ),
            ("core.prepare_s", self.prepare_s, "s"),
            ("core.tail_idle_s", self.tail_idle_s, "s"),
            ("netlist.lower_s", self.lower_s, "s"),
            ("netlist.aig_ands", self.aig_ands as f64, "count"),
            ("chipgen.generate_s", self.generate_s, "s"),
            ("campaign.overhead_s", self.campaign_overhead_s, "s"),
            ("campaign.slices", self.campaign_slices as f64, "count"),
            ("campaign.journal_bytes", self.journal_bytes as f64, "bytes"),
            ("trace.overhead_s", self.trace_overhead_s, "s"),
        ]);
        v
    }
}

/// Every per-layer metric, each the median of its value over `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median_metrics(samples: &[Layers]) -> Vec<Metric> {
    let rows: Vec<_> = samples.iter().map(Layers::values).collect();
    let first = rows.first().expect("a traced run has at least one sample");
    (0..first.len())
        .map(|i| {
            let (name, _, unit) = first[i];
            let values: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
            Metric::new(name, median(&values), unit, values.len())
        })
        .collect()
}

/// Checks that engine spans nest inside their check span without
/// overlapping, and that the wrapper saw exactly the engine runs the
/// program's event log records. Returns a description of the first
/// violation.
pub fn check_nesting(
    label: &str,
    check: (Instant, Instant),
    spans: &[EngineSpan],
    stats: &CheckStats,
) -> Option<String> {
    let mut prev_end = check.0;
    for s in spans {
        if s.start < prev_end || s.end < s.start || s.end > check.1 {
            return Some(format!(
                "{label}: engine span escapes its check span or overlaps another"
            ));
        }
        prev_end = s.end;
    }
    let logged: Vec<usize> = engine_events(stats).map(|(i, _)| i).collect();
    let seen: Vec<usize> = spans.iter().map(|s| s.engine).collect();
    (logged != seen)
        .then(|| format!("{label}: wrapper saw engine runs {seen:?}, event log records {logged:?}"))
}

/// Per-thread idle time over `[start, end]` given each thread's busy
/// spans, measured as the gaps between them, plus the check that busy
/// time and gaps partition `threads × makespan` exactly (spans inside
/// the window, none overlapping on one thread).
pub fn idle_gaps(
    start: Instant,
    end: Instant,
    per_thread: &[Vec<(Instant, Instant)>],
) -> (f64, Option<String>) {
    let makespan = end.duration_since(start).as_secs_f64();
    let mut idle = 0.0;
    let mut busy = 0.0;
    for spans in per_thread {
        let mut sorted = spans.clone();
        sorted.sort();
        let mut cursor = start;
        for (s, e) in sorted {
            if s < cursor || e > end {
                return (
                    idle,
                    Some("busy spans overlap or leave the run window".into()),
                );
            }
            idle += s.duration_since(cursor).as_secs_f64();
            busy += e.duration_since(s).as_secs_f64();
            cursor = e;
        }
        idle += end.duration_since(cursor).as_secs_f64();
    }
    let whole = makespan * per_thread.len() as f64;
    let err = ((busy + idle) - whole).abs();
    let violation = (err > 1e-6 * whole.max(1.0))
        .then(|| format!("busy {busy:.6} s + idle {idle:.6} s != threads x makespan {whole:.6} s"));
    (idle, violation)
}
