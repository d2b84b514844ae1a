//! The service layer: the small bugged chip once through the durable
//! campaign daemon — `campaign::submit` + `campaign::run`, sharded over
//! worker processes that re-execute this binary (hence
//! `maybe_run_worker` first in `main`). The traced `chip_campaign` run
//! reports the `campaign.*` metrics of this campaign.
//!
//! The daemon is not an end-to-end workload of its own: its
//! per-property times are dominated by fsync latency, which on a shared
//! disk shifts between runs by more than any bound allows.
//!
//! The campaign gets a fresh directory under `perfbench/scratch/`; after
//! the run no worker process may survive, and the directory is deleted.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use veridic::campaign::{self, CampaignDir, CampaignSpec, RunOutcome};
use veridic::chipgen::Chip;

use crate::chip::chip_config;
use crate::gate::{gate_chip, Gate};
use crate::layers::Layers;
use crate::measure::{child_pids, secs};

/// The benchmark's own scratch space, inside its directory.
fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scratch")
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Submits and runs one campaign in `dir`, then checks that no worker
/// survived and deletes the directory.
fn run_one(dir: &Path, spec: &CampaignSpec, layers: &mut Layers) -> (Gate, Vec<String>) {
    let mut notes = Vec::new();
    let chip = Chip::generate(&spec.chip_config());
    let submitted = campaign::submit(dir, spec).map_err(|e| format!("submit: {e}"));
    let t0 = Instant::now();
    let outcome = submitted.and_then(|_| campaign::run(dir).map_err(|e| format!("daemon: {e}")));
    let wall = t0.elapsed();
    let journal_bytes = dir_bytes(&CampaignDir::new(dir).jobs_dir());
    let survivors = child_pids();
    if !survivors.is_empty() {
        notes.push(format!(
            "worker processes survived the daemon run: {survivors:?}"
        ));
    }
    if let Err(e) = fs::remove_dir_all(dir) {
        notes.push(format!("removing {}: {e}", dir.display()));
    }
    let report = match outcome {
        Ok(RunOutcome::Completed(report)) => *report,
        Ok(RunOutcome::Interrupted { done, total }) => {
            notes.push(format!(
                "daemon interrupted after {done}/{total} properties"
            ));
            Default::default()
        }
        Err(e) => {
            notes.push(e);
            Default::default()
        }
    };
    let mut property_s = 0.0;
    for r in &report.records {
        layers.add_stats(&r.stats);
        property_s += secs(r.duration);
    }
    layers.campaign_overhead_s = secs(wall) - property_s / spec.shards as f64;
    layers.journal_bytes = journal_bytes;
    (gate_chip(&chip, &report), notes)
}

/// One campaign through the daemon with `threads` shards, traced post
/// hoc: the `campaign.*` layer values, the known-answer gate, and
/// violations.
pub fn service_layers(threads: usize) -> (Layers, Gate, Vec<String>) {
    let c = chip_config();
    let spec = CampaignSpec {
        scale: c.scale,
        with_bugs: c.with_bugs,
        shards: threads,
        ..CampaignSpec::default()
    };
    let dir = scratch_root().join(std::process::id().to_string());
    let mut layers = Layers::default();
    let (gate, violations) = match fs::remove_dir_all(&dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => (
            Gate::default(),
            vec![format!("clearing {}: {e}", dir.display())],
        ),
        _ => run_one(&dir, &spec, &mut layers),
    };
    fs::remove_dir(scratch_root()).ok();
    (layers, gate, violations)
}
