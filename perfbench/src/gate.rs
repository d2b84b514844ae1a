//! The known-answer verdict gate. Every answer here comes from how the
//! inputs were generated, never from the checker's own output:
//!
//! - the chip generator records which modules carry a seeded bug
//!   (`Chip::bugs`) and how many properties of each type every module's
//!   plan calls for (`LeafPlan::p0..p3`);
//! - the `bdd_reach` designs hold their property by construction (twin
//!   registers sample the same input; the parity chain propagates odd
//!   parity), so every one of them must prove.

use std::collections::BTreeMap;

use veridic::chipgen::{BugId, Chip};
use veridic::core::flow::CampaignReport;
use veridic::mc::Verdict;

/// Outcome of gating one campaign.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    /// Properties the generator planned (Σ p0+p1+p2+p3 over modules).
    pub attempted: u64,
    /// Failures: ResourceOut, wrong verdicts, missing or surplus
    /// checks, preparation errors, and seeded bugs left unfound.
    pub failed: u64,
    /// Properties decided with an admissible verdict.
    pub decided_ok: u64,
    /// One line per failure, for the report.
    pub notes: Vec<String>,
}

impl Gate {
    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.decided_ok += other.decided_ok;
        self.notes.extend(other.notes);
    }
}

/// Gates a chip campaign report against the generator's known answers.
pub fn gate_chip(chip: &Chip, report: &CampaignReport) -> Gate {
    let mut bugs: BTreeMap<&str, Vec<BugId>> = BTreeMap::new();
    let chip_bugs = chip.bugs();
    for (module, bug) in &chip_bugs {
        bugs.entry(module.as_str()).or_default().push(*bug);
    }
    let mut gate = Gate::default();
    let mut checked: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &report.records {
        *checked.entry(r.module.as_str()).or_default() += 1;
        let ok = match &r.verdict {
            Verdict::Proved { .. } => true,
            Verdict::Falsified(_) => bugs.contains_key(r.module.as_str()),
            Verdict::ResourceOut { .. } => false,
        };
        if ok {
            gate.decided_ok += 1;
        } else {
            gate.failed += 1;
            gate.notes.push(format!(
                "{}/{}: inadmissible verdict {:?}",
                r.module,
                r.label,
                short(&r.verdict)
            ));
        }
    }
    for mi in chip.modules() {
        let plan = mi.plan();
        let planned = (plan.p0() + plan.p1() + plan.p2() + plan.p3) as u64;
        gate.attempted += planned;
        let got = checked.get(mi.name()).copied().unwrap_or(0);
        if got != planned {
            gate.failed += got.abs_diff(planned);
            gate.notes.push(format!(
                "{}: checked {got} properties, plan has {planned}",
                mi.name()
            ));
        }
    }
    for (module, reason) in &report.errors {
        gate.failed += 1;
        gate.notes
            .push(format!("{module}: preparation error: {reason}"));
    }
    for (module, bug) in &chip_bugs {
        let found = report.records.iter().any(|r| {
            r.module == *module && r.ptype == bug.property_type() && r.verdict.is_falsified()
        });
        if !found {
            gate.failed += 1;
            gate.notes.push(format!(
                "{module}: seeded bug {bug:?} falsified no {} property",
                bug.property_type()
            ));
        }
    }
    gate.failed = gate.failed.min(gate.attempted);
    gate
}

/// Gates one `bdd_reach` property: it must prove.
pub fn gate_proved(name: &str, verdict: &Verdict) -> Gate {
    let mut gate = Gate {
        attempted: 1,
        ..Gate::default()
    };
    if verdict.is_proved() {
        gate.decided_ok = 1;
    } else {
        gate.failed = 1;
        gate.notes
            .push(format!("{name}: expected proved, got {:?}", short(verdict)));
    }
    gate
}

fn short(v: &Verdict) -> String {
    match v {
        Verdict::Proved { engine } => format!("proved by {engine}"),
        Verdict::Falsified(t) => format!("falsified at depth {}", t.inputs.len()),
        Verdict::ResourceOut { reason } => format!("resource-out: {reason}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic::prelude::*;

    #[test]
    fn gate_rejects_falsified_clean_module_and_missing_bug() {
        let chip = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: true,
        });
        // An empty report: every planned property is missing and every
        // seeded bug is unfound.
        let empty = CampaignReport::default();
        let g = gate_chip(&chip, &empty);
        assert!(g.attempted > 100);
        assert_eq!(g.failed, g.attempted, "everything is missing");
        assert!(g.notes.iter().any(|n| n.contains("seeded bug")));
        assert_eq!(
            gate_proved("x", &Verdict::Proved { engine: "bdd-umc" }).failed,
            0
        );
        let ro = Verdict::ResourceOut {
            reason: "quota".into(),
        };
        assert_eq!(gate_proved("x", &ro).failed, 1);
    }
}
