//! `bdd_reach`: BDD reachability on designs whose property holds by
//! construction, checked with `bdd_only` (the paper's BDD-checker
//! setting) by a closed loop of callers, each sending its next property
//! only after the previous verdict returned.
//!
//! The designs are twin-register order-stress modules
//! (`build_order_stress`, MISMATCH never fires) and Fig. 7 parity chains
//! (`demo_chain_module`, output-integrity property). The seed draws the
//! job stream in blocks of [`BLOCK`] properties; every block holds the
//! same number of jobs from each cost tier (a stratified draw), so that
//! throughput and percentiles do not hinge on how many expensive designs
//! one seed happens to pick.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use veridic::aig::Aig;
use veridic::chipgen::{build_order_stress, PropertyType};
use veridic::core::partition::demo_chain_module;
use veridic::core::stereotype::generate_all;
use veridic::core::verifiable::make_verifiable;
use veridic::mc::{CheckOptions, CheckStats, Portfolio, Verdict};

use crate::gate::{gate_proved, Gate};
use crate::layers::{check_nesting, idle_gaps, Layers};
use crate::measure::{cpu_seconds, secs};
use crate::timed::{take_spans, timed_portfolio, EngineSpan, Probe};
use crate::{e2e_metrics, repeat_setup, RunResult, Sample};

/// Properties per drawn block.
const BLOCK: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Design {
    /// `build_order_stress(pairs)`.
    Order(u32),
    /// `demo_chain_module(stages)`.
    Chain(usize),
}

/// Cost tiers (bdd_only check time on the reference host in brackets)
/// and how many jobs of each a block holds. Members of a tier cost
/// about the same; the seed picks members and shuffles the block. The
/// counts put the median in tier C and the 90th percentile mid-way
/// through tier E, each a single design, so neither percentile sits on
/// a tier boundary.
const TIERS: [(&[Design], usize); 5] = [
    // ~0.5–4 ms
    (
        &[
            Design::Order(6),
            Design::Order(7),
            Design::Order(8),
            Design::Chain(2),
            Design::Chain(3),
        ],
        3,
    ),
    // ~17–30 ms
    (
        &[
            Design::Order(9),
            Design::Order(10),
            Design::Order(11),
            Design::Chain(4),
        ],
        4,
    ),
    // ~45 ms
    (&[Design::Order(12)], 2),
    // ~145 ms
    (&[Design::Order(13)], 4),
    // ~0.5 s, peak ~250k live BDD nodes
    (&[Design::Order(14)], 3),
];

/// SplitMix64: a tiny, fixed pseudo-random generator, so the job stream
/// depends on the seed alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The seeded job stream: `blocks` blocks of [`BLOCK`] designs.
fn draw(seed: u64, blocks: usize) -> Vec<Design> {
    let mut rng = SplitMix(seed);
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(BLOCK);
        for (members, count) in TIERS {
            for _ in 0..count {
                block.push(members[rng.below(members.len())]);
            }
        }
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        out.extend(block);
    }
    out
}

/// The one checkable property of a generated design.
struct Prop {
    design: Design,
    aig: Aig,
    bad_index: usize,
}

/// Where set-up time went, per layer.
#[derive(Default)]
struct SetupCost {
    generate_s: f64,
    prepare_s: f64,
    lower_s: f64,
    ands: u64,
}

/// Generates and lowers every design of every tier.
fn build_designs() -> (Vec<Prop>, SetupCost) {
    let mut cost = SetupCost::default();
    let mut props = Vec::new();
    for (members, _) in TIERS {
        for &design in members {
            let t0 = Instant::now();
            let module = match design {
                Design::Order(pairs) => build_order_stress(pairs),
                Design::Chain(stages) => demo_chain_module(stages),
            };
            cost.generate_s += secs(t0.elapsed());
            let (checked, asserts, assumes) = match design {
                Design::Order(_) => {
                    let mismatch = module
                        .ports
                        .iter()
                        .find(|p| p.name == "MISMATCH")
                        .expect("order stress has MISMATCH")
                        .net;
                    (module, vec![("mismatch".to_string(), mismatch)], Vec::new())
                }
                Design::Chain(_) => {
                    let t1 = Instant::now();
                    let vm = make_verifiable(&module).expect("the chain carries checkpoints");
                    let units = generate_all(&vm).expect("the chain's vunits compile");
                    let (_, unit) = units
                        .into_iter()
                        .find(|(g, _)| g.ptype == PropertyType::OutputIntegrity)
                        .expect("the chain has an output-integrity vunit");
                    cost.prepare_s += secs(t1.elapsed());
                    (unit.module, unit.asserts, unit.assumes)
                }
            };
            let t2 = Instant::now();
            let lowered = checked.to_aig().expect("generated designs lower");
            let mut aig = lowered.aig.clone();
            for (label, net) in &asserts {
                aig.add_bad(label.clone(), lowered.bit(*net, 0));
            }
            for (label, net) in &assumes {
                aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
            }
            cost.lower_s += secs(t2.elapsed());
            cost.ands += aig.num_ands() as u64;
            assert_eq!(
                asserts.len(),
                1,
                "each bdd_reach design carries one property"
            );
            props.push(Prop {
                design,
                aig,
                bad_index: 0,
            });
        }
    }
    (props, cost)
}

/// One answered property.
struct Done {
    index: usize,
    span: (Instant, Instant),
    verdict: Verdict,
    stats: CheckStats,
    spans: Vec<EngineSpan>,
}

/// A closed-loop pass: `threads` callers take jobs `0, 1, 2, …` of the
/// stream until `deadline` passes or `limit` jobs were handed out.
struct Pass {
    start: Instant,
    end: Instant,
    done: Vec<Vec<Done>>,
}

impl Pass {
    fn makespan(&self) -> f64 {
        secs(self.end - self.start)
    }

    fn completed(&self) -> usize {
        self.done.iter().map(Vec::len).sum()
    }
}

fn closed_loop(
    stream: &[usize],
    props: &[Prop],
    threads: usize,
    portfolio: &Portfolio,
    deadline: Option<Duration>,
    limit: usize,
) -> Pass {
    let opts = CheckOptions::builder().bdd_only(true).build();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let done = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    take_spans();
                    while deadline.is_none_or(|d| start.elapsed() < d) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= limit {
                            break;
                        }
                        let prop = &props[stream[index % stream.len()]];
                        let mut stats = CheckStats::default();
                        let c0 = Instant::now();
                        let verdict =
                            portfolio.check_bad(&prop.aig, prop.bad_index, &opts, &mut stats);
                        let c1 = Instant::now();
                        out.push(Done {
                            index,
                            span: (c0, c1),
                            verdict,
                            stats,
                            spans: take_spans(),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop caller panicked"))
            .collect()
    });
    Pass {
        start,
        end: Instant::now(),
        done,
    }
}

fn gate_pass(pass: &Pass, props: &[Prop], stream: &[usize]) -> Gate {
    let mut gate = Gate::default();
    for d in pass.done.iter().flatten() {
        let design = props[stream[d.index % stream.len()]].design;
        gate.absorb(gate_proved(&format!("{design:?}"), &d.verdict));
    }
    gate
}

pub fn run(seed: u64, threads: usize, seconds: Duration, trace: bool) -> RunResult {
    let ((props, cost), setup_times) = repeat_setup(Duration::from_millis(250), build_designs);
    let stream: Vec<usize> = draw(seed, 64)
        .into_iter()
        .map(|d| {
            props
                .iter()
                .position(|p| p.design == d)
                .expect("every tier member is built")
        })
        .collect();

    if !trace {
        let cpu0 = cpu_seconds();
        let pass = closed_loop(
            &stream,
            &props,
            threads,
            &Portfolio::default(),
            Some(seconds),
            usize::MAX,
        );
        let cpu = cpu_seconds() - cpu0;
        let gate = gate_pass(&pass, &props, &stream);
        let blocks = pass.completed().max(1) as f64 / BLOCK as f64;
        // One sample for the whole closed loop. No bug exists here, so
        // `first_bug` carries the time to clear one block, and CPU time
        // is per block as it is per campaign on the chip workloads.
        let sample = Sample {
            wall: pass.makespan(),
            cpu: cpu / blocks,
            first_bug: pass.makespan() / blocks,
            prop_ms: pass
                .done
                .iter()
                .flatten()
                .map(|d| secs(d.span.1 - d.span.0) * 1e3)
                .collect(),
            decided_ok: gate.decided_ok,
        };
        let metrics = e2e_metrics(&setup_times, &[sample], &gate);
        return RunResult {
            gate,
            metrics,
            info: Vec::new(),
            violations: Vec::new(),
        };
    }

    // Traced: an untraced pass over the first half of the time, then the
    // very same jobs traced; the makespan difference is the overhead.
    let plain = Portfolio::default();
    let portfolio = timed_portfolio(&Arc::new(Probe::new(true)));
    let first = closed_loop(
        &stream,
        &props,
        threads,
        &plain,
        Some(seconds / 2),
        usize::MAX,
    );
    let jobs = first.completed();
    let pass = closed_loop(&stream, &props, threads, &portfolio, None, jobs);
    let mut gate = gate_pass(&first, &props, &stream);
    gate.absorb(gate_pass(&pass, &props, &stream));

    let mut layers = Layers {
        generate_s: cost.generate_s,
        prepare_s: cost.prepare_s,
        lower_s: cost.lower_s,
        aig_ands: cost.ands,
        trace_overhead_s: pass.makespan() - first.makespan(),
        ..Layers::default()
    };
    let mut violations = Vec::new();
    let mut busy = Vec::new();
    for caller in &pass.done {
        busy.push(caller.iter().map(|d| d.span).collect::<Vec<_>>());
        for d in caller {
            layers.add_check(secs(d.span.1 - d.span.0), &d.spans);
            layers.add_stats(&d.stats);
            violations.extend(check_nesting(
                &format!("job {}", d.index),
                d.span,
                &d.spans,
                &d.stats,
            ));
        }
    }
    let (idle, violation) = idle_gaps(pass.start, pass.end, &busy);
    violations.extend(violation);
    layers.tail_idle_s = idle;
    let whole = pass.makespan() * threads as f64;
    let info = vec![format!(
        "accounting: threads x makespan {whole:.4} s = engines {:.4} + mc.self {:.4} + core.tail_idle {idle:.4} \
         (residual {:.2e} s); untraced makespan {:.4} s over the same {jobs} jobs",
        layers.engines_s(),
        layers.self_s,
        whole - (layers.engines_s() + layers.self_s + idle),
        first.makespan(),
    )];
    let metrics = crate::layers::median_metrics(&[layers]);
    RunResult {
        gate,
        metrics,
        info,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_seeded_and_stratified() {
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(8, 3));
        for block in draw(11, 4).chunks(BLOCK) {
            for (members, count) in TIERS {
                assert_eq!(block.iter().filter(|d| members.contains(d)).count(), count);
            }
        }
    }
}
