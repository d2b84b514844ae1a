//! A pass-through timing wrapper over the four default engines.
//!
//! [`timed_portfolio`] builds the same cascade as `Portfolio::default()`
//! (BMC → k-induction → BDD UMC → POBDD UMC), but each engine is wrapped
//! in a [`Timed`] that forwards every call unchanged and only observes:
//! the first falsifying outcome of a campaign (for `first_bug_s`), and —
//! when tracing — one [`EngineSpan`] per engine run, buffered per
//! thread. The test at the bottom pins that the wrapped portfolio gives
//! verdicts, stats and event logs identical to the default one, so the
//! traced run measures the same program.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use veridic::aig::Aig;
use veridic::mc::{
    BddUmcEngine, BmcEngine, CheckOptions, Engine, EngineCtx, EngineId, EngineOutcome,
    InductionEngine, PobddEngine, Portfolio,
};

/// Index of a built-in engine in schedule order (BMC, induction, BDD
/// UMC, POBDD).
pub fn engine_index(id: EngineId) -> Option<usize> {
    match id {
        EngineId::Bmc => Some(0),
        EngineId::Induction => Some(1),
        EngineId::BddUmc => Some(2),
        EngineId::PobddUmc => Some(3),
        EngineId::Custom(_) => None,
    }
}

/// One engine run as seen from outside the engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineSpan {
    pub engine: usize,
    pub start: Instant,
    pub end: Instant,
    /// The run concluded the property (proved or falsified).
    pub decided: bool,
}

thread_local! {
    static SPANS: RefCell<Vec<EngineSpan>> = const { RefCell::new(Vec::new()) };
}

/// Takes the engine spans recorded on the calling thread so far.
pub fn take_spans() -> Vec<EngineSpan> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// What the wrappers of one portfolio observe.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    trace: bool,
    /// Nanoseconds from `epoch` to the first falsifying outcome;
    /// `u64::MAX` until one is seen.
    first_falsify_ns: AtomicU64,
}

impl Probe {
    pub fn new(trace: bool) -> Probe {
        Probe {
            epoch: Instant::now(),
            trace,
            first_falsify_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// Time from `epoch` to the first falsifying engine outcome, if any.
    pub fn first_falsify(&self) -> Option<Duration> {
        match self.first_falsify_ns.load(Ordering::Relaxed) {
            u64::MAX => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    fn note_falsify(&self, at: Instant) {
        let ns = u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX - 1);
        self.first_falsify_ns.fetch_min(ns, Ordering::Relaxed);
    }
}

/// A pass-through engine: same identity, same gates, same outcome.
pub struct Timed<E> {
    inner: E,
    probe: Arc<Probe>,
}

impl<E: Engine> Engine for Timed<E> {
    fn id(&self) -> EngineId {
        self.inner.id()
    }

    fn supports(&self, aig: &Aig) -> bool {
        self.inner.supports(aig)
    }

    fn enabled(&self, opts: &CheckOptions) -> bool {
        self.inner.enabled(opts)
    }

    fn run(&self, ctx: &mut EngineCtx<'_>) -> EngineOutcome {
        let start = Instant::now();
        let outcome = self.inner.run(ctx);
        let end = Instant::now();
        let falsified = matches!(
            outcome,
            EngineOutcome::Falsified(_) | EngineOutcome::FalsifiedAtDepth(_)
        );
        if falsified {
            self.probe.note_falsify(end);
        }
        if self.probe.trace {
            if let Some(engine) = engine_index(self.inner.id()) {
                let decided = falsified || matches!(outcome, EngineOutcome::Proved { .. });
                SPANS.with(|s| {
                    s.borrow_mut().push(EngineSpan {
                        engine,
                        start,
                        end,
                        decided,
                    })
                });
            }
        }
        outcome
    }
}

/// The default cascade with every engine wrapped in [`Timed`].
pub fn timed_portfolio(probe: &Arc<Probe>) -> Portfolio {
    let p = || Arc::clone(probe);
    Portfolio::empty()
        .with(Box::new(Timed {
            inner: BmcEngine,
            probe: p(),
        }))
        .with(Box::new(Timed {
            inner: InductionEngine,
            probe: p(),
        }))
        .with(Box::new(Timed {
            inner: BddUmcEngine,
            probe: p(),
        }))
        .with(Box::new(Timed {
            inner: PobddEngine,
            probe: p(),
        }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic::prelude::*;

    #[test]
    fn wrapped_portfolio_is_the_default_portfolio() {
        let chip = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: true,
        });
        let cfg = CampaignConfig {
            workers: 2,
            ..CampaignConfig::default()
        };
        let plain = run_campaign(&chip, &cfg);
        let probe = Arc::new(Probe::new(true));
        let wrapped = run_campaign_with_portfolio(&chip, &cfg, &timed_portfolio(&probe));
        assert_eq!(
            timed_portfolio(&probe).engine_ids(),
            Portfolio::default().engine_ids()
        );
        assert_eq!(plain.records.len(), wrapped.records.len());
        assert!(!plain.records.is_empty());
        for (a, b) in plain.records.iter().zip(&wrapped.records) {
            assert_eq!(
                (&a.module, &a.vunit, &a.label, a.ptype),
                (&b.module, &b.vunit, &b.label, b.ptype)
            );
            assert_eq!(a.verdict, b.verdict, "verdict of {}/{}", a.module, a.label);
            assert_eq!(
                a.stats, b.stats,
                "stats and event log of {}/{}",
                a.module, a.label
            );
        }
        assert_eq!(plain.errors, wrapped.errors);
        assert!(
            probe.first_falsify().is_some(),
            "the bugged chip falsifies something"
        );
    }

    #[test]
    fn spans_are_recorded_only_when_tracing() {
        let module = build_order_stress(4);
        let lowered = module.to_aig().expect("order stress lowers");
        let mut aig = lowered.aig.clone();
        let mismatch = module
            .ports
            .iter()
            .find(|p| p.name == "MISMATCH")
            .expect("port")
            .net;
        aig.add_bad("mismatch".to_string(), lowered.bit(mismatch, 0));
        let opts = CheckOptions::builder().bdd_only(true).build();
        take_spans();
        let quiet = Arc::new(Probe::new(false));
        assert!(timed_portfolio(&quiet)
            .check(&aig, &opts)
            .verdict
            .is_proved());
        assert!(take_spans().is_empty());
        let traced = Arc::new(Probe::new(true));
        assert!(timed_portfolio(&traced)
            .check(&aig, &opts)
            .verdict
            .is_proved());
        let spans = take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].engine, engine_index(EngineId::BddUmc).unwrap());
        assert!(spans[0].decided && spans[0].end >= spans[0].start);
        assert!(traced.first_falsify().is_none());
    }
}
