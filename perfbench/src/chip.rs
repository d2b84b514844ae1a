//! `chip_campaign`: the paper's Table 2 flow through the product entry
//! point — `run_campaign` over the small chip with the seven seeded bugs.
//!
//! Untraced runs call `run_campaign_with_portfolio` with the pass-through
//! [`timed_portfolio`] (which only notes the first falsification). The
//! traced run first measures one such campaign, then repeats the
//! campaign through the same public per-module steps `run_campaign` is
//! built from — `module_properties`, then `check_property` per property
//! — with a span around each call, and finally drives the same chip
//! once through the campaign daemon to attribute the service layer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use veridic::chipgen::{Chip, ChipConfig, ModuleInfo, Scale};
use veridic::core::flow::{
    check_property, module_properties, prepare_module, run_campaign_with_portfolio, CampaignConfig,
    CampaignReport, PropertyRecord,
};
use veridic::mc::{CheckOptions, Portfolio};

use crate::daemon;
use crate::gate::{gate_chip, Gate};
use crate::layers::{check_nesting, idle_gaps, median_metrics, Layers};
use crate::measure::{cpu_seconds, median, secs};
use crate::timed::{take_spans, timed_portfolio, EngineSpan, Probe};
use crate::{e2e_metrics, repeat_setup, sample_lines, RunResult, Sample};

/// Set-up time measured before each campaign.
const SETUP_SLICE: Duration = Duration::from_millis(40);

pub fn chip_config() -> ChipConfig {
    ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    }
}

/// One untraced campaign through the product entry point.
fn campaign(chip: &Chip, threads: usize) -> (Sample, Gate) {
    let cfg = CampaignConfig {
        workers: threads,
        check: CheckOptions::default(),
    };
    let probe = Arc::new(Probe::new(false));
    let portfolio = timed_portfolio(&probe);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let report = run_campaign_with_portfolio(chip, &cfg, &portfolio);
    let wall = t0.elapsed();
    let cpu = cpu_seconds() - cpu0;
    let gate = gate_chip(chip, &report);
    let sample = Sample {
        wall: secs(wall),
        cpu,
        first_bug: secs(probe.first_falsify().unwrap_or(wall)),
        prop_ms: report
            .records
            .iter()
            .map(|r| secs(r.duration) * 1e3)
            .collect(),
        decided_ok: gate.decided_ok,
    };
    (sample, gate)
}

pub fn run(threads: usize, seconds: Duration, trace: bool) -> RunResult {
    let started = Instant::now();
    let mut setup_times = Vec::new();
    let mut gate = Gate::default();
    let mut samples = Vec::new();
    let mut layers = Vec::new();
    let mut info = Vec::new();
    let mut violations = Vec::new();
    // Set-up is timed in a slice before every campaign, so that its
    // median covers the same stretch of the run as the campaigns. The
    // first campaign warms caches and the allocator: it is gated but
    // not measured. The traced run then measures one untraced campaign:
    // the difference to the traced campaigns is the tracing overhead.
    let mut chip;
    let mut warm = false;
    loop {
        let (c, times) = repeat_setup(SETUP_SLICE, || Chip::generate(&chip_config()));
        chip = c;
        setup_times.extend(times);
        let (sample, g) = campaign(&chip, threads);
        gate.absorb(g);
        if warm {
            samples.push(sample);
        }
        warm = true;
        if !samples.is_empty() && (trace || started.elapsed() >= seconds) {
            break;
        }
    }
    if trace {
        let untraced = samples[0].wall;
        loop {
            let t = traced_campaign(&chip, threads);
            gate.absorb(gate_chip(&chip, &t.report));
            violations.extend(t.violations);
            let mut l = t.layers;
            l.generate_s = median(&setup_times);
            l.trace_overhead_s = t.makespan - untraced;
            if layers.is_empty() {
                info.push(format!(
                    "{}; untraced makespan {untraced:.4} s",
                    t.accounting
                ));
            }
            layers.push(l);
            if started.elapsed() >= seconds {
                break;
            }
        }
        // The service layer: the same chip once through the campaign
        // daemon, attributed post hoc (see `daemon::service_layers`).
        let (service, g, v) = daemon::service_layers(threads);
        gate.absorb(g);
        violations.extend(v);
        for l in &mut layers {
            l.campaign_overhead_s = service.campaign_overhead_s;
            l.campaign_slices = service.campaign_slices;
            l.journal_bytes = service.journal_bytes;
        }
    }
    info.extend(sample_lines(&samples));
    let metrics = if trace {
        median_metrics(&layers)
    } else {
        e2e_metrics(&setup_times, &samples, &gate)
    };
    RunResult {
        gate,
        metrics,
        info,
        violations,
    }
}

/// What one traced module produced.
struct ModuleTrace {
    index: usize,
    span: (Instant, Instant),
    /// The separate `prepare_module` call.
    prepare: Duration,
    /// The `module_properties` call: preparation plus lowering.
    properties: Duration,
    ands: u64,
    /// Per property: the check span and the engine spans inside it.
    checks: Vec<((Instant, Instant), Vec<EngineSpan>)>,
    records: Vec<PropertyRecord>,
    errors: Vec<(String, String)>,
}

struct TracedCampaign {
    report: CampaignReport,
    layers: Layers,
    makespan: f64,
    accounting: String,
    violations: Vec<String>,
}

/// The campaign rebuilt from its public per-module steps, fanned out
/// over `threads` workers pulling module indices like `run_campaign`.
fn traced_campaign(chip: &Chip, threads: usize) -> TracedCampaign {
    let portfolio = timed_portfolio(&Arc::new(Probe::new(true)));
    let opts = CheckOptions::default();
    let modules = chip.modules();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_thread: Vec<Vec<ModuleTrace>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.min(modules.len()).max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(mi) = modules.get(i) else { break };
                        out.push(trace_module(chip, i, mi, &portfolio, &opts));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced campaign worker panicked"))
            .collect()
    });
    let end = Instant::now();
    let makespan = secs(end - start);

    let busy_spans: Vec<Vec<_>> = per_thread
        .iter()
        .map(|mods| mods.iter().map(|m| m.span).collect())
        .collect();
    let (idle, gap_violation) = idle_gaps(start, end, &busy_spans);
    let mut violations: Vec<String> = gap_violation.into_iter().collect();
    let mut layers = Layers {
        tail_idle_s: idle,
        ..Layers::default()
    };
    let mut traces: Vec<ModuleTrace> = per_thread.into_iter().flatten().collect();
    traces.sort_by_key(|m| m.index);
    let mut report = CampaignReport {
        total_time: end - start,
        ..CampaignReport::default()
    };
    let mut busy = 0.0;
    for m in traces {
        busy += secs(m.span.1 - m.span.0);
        layers.prepare_s += secs(m.prepare);
        layers.lower_s += secs(m.properties) - secs(m.prepare);
        layers.aig_ands += m.ands;
        for ((span, spans), r) in m.checks.iter().zip(&m.records) {
            layers.add_check(secs(span.1 - span.0), spans);
            layers.add_stats(&r.stats);
            violations.extend(check_nesting(
                &format!("{}/{}", r.module, r.label),
                *span,
                spans,
                &r.stats,
            ));
        }
        report.records.extend(m.records);
        report.errors.extend(m.errors);
    }
    // The separate `prepare_module` calls sit in the module spans
    // beside the `module_properties` calls they estimate.
    let probe = layers.prepare_s;
    let glue = busy - probe - layers.prepare_s - layers.lower_s - layers.check_s;
    let whole = makespan * busy_spans.len() as f64;
    let accounting = format!(
        "accounting: threads x makespan {whole:.4} s = engines {:.4} + mc.self {:.4} + core.prepare {:.4} \
         + netlist.lower {:.4} + prepare probe {probe:.4} + executor glue {glue:.4} + core.tail_idle {idle:.4} \
         (residual {:.2e} s)",
        layers.engines_s(),
        layers.self_s,
        layers.prepare_s,
        layers.lower_s,
        whole
            - (layers.engines_s()
                + layers.self_s
                + layers.prepare_s
                + layers.lower_s
                + probe
                + glue
                + idle),
    );
    if glue < 0.0 {
        violations.push(format!(
            "module spans shorter than the spans inside them ({glue} s)"
        ));
    }
    TracedCampaign {
        report,
        layers,
        makespan,
        accounting,
        violations,
    }
}

/// One module: `module_properties` (preparation and lowering, as
/// `run_campaign` calls it) in one span, then every property check.
/// `module_properties` does not expose its preparation step, so
/// `core.prepare_s` times a separate `prepare_module` call on the same
/// module and `netlist.lower_s` is the rest of the `module_properties`
/// span; the separate call is tracing overhead.
fn trace_module(
    chip: &Chip,
    index: usize,
    mi: &ModuleInfo,
    portfolio: &Portfolio,
    opts: &CheckOptions,
) -> ModuleTrace {
    let m0 = Instant::now();
    let module = chip
        .design()
        .module(mi.name())
        .expect("chip lists existing modules");
    let p0 = Instant::now();
    drop(prepare_module(module));
    let prepare = p0.elapsed();
    let l0 = Instant::now();
    let (props, errors) = module_properties(chip, mi);
    let properties = l0.elapsed();
    // Every property of a vunit carries the same whole-unit AIG.
    let mut ands = 0;
    let mut unit: Option<&str> = None;
    for p in &props {
        if unit != Some(p.vunit.as_str()) {
            ands += p.aig.num_ands() as u64;
            unit = Some(p.vunit.as_str());
        }
    }
    take_spans();
    let mut checks = Vec::new();
    let mut records = Vec::new();
    for prop in &props {
        let c0 = Instant::now();
        let record = check_property(prop, portfolio, opts);
        let c1 = Instant::now();
        checks.push(((c0, c1), take_spans()));
        records.push(record);
    }
    drop(props);
    ModuleTrace {
        index,
        span: (m0, Instant::now()),
        prepare,
        properties,
        ands,
        checks,
        records,
        errors,
    }
}
