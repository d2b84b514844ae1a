//! Compares a `cargo bench` output capture against the checked-in
//! `BENCH_BASELINE.json` so perf regressions are visible in review.
//!
//! Usage:
//!
//! ```text
//! CRITERION_ONE_SHOT=1 cargo bench -p veridic-bench | tee bench-out.txt
//! cargo run --release -p veridic-bench --bin bench_compare -- \
//!     [--fail-on-regression <prefix>] bench-out.txt [BENCH_BASELINE.json]
//! ```
//!
//! The comparison is advisory by default (exits 0): one-shot samples on
//! a shared CI worker are too noisy to gate every microbench on, but a
//! consistent 2x swing across benches is exactly what a reviewer should
//! see. `--fail-on-regression <prefix>` turns the report into a gate
//! for the bench ids under that prefix: any such id more than 25%
//! slower than its baseline — or missing from the run — fails the
//! invocation with exit 1, and so does any `nodes:<id>` baseline key
//! under the prefix whose peak-live count the run does not reproduce
//! exactly (or does not report at all). CI gates `fig7/` and `order/`
//! this way: those runs are seconds-long fixpoints, far above one-shot
//! noise, and their node counts are deterministic.

use std::collections::BTreeMap;

/// The gate threshold: a prefix-matched bench id this much slower than
/// its baseline fails a `--fail-on-regression` run.
const GATE_THRESHOLD_PCT: f64 = 25.0;

/// Baseline metadata key recording `available_parallelism()` on the
/// host that took the snapshot. Wall-clock comparisons between hosts
/// with different core counts are apples-to-oranges for the parallel
/// bench ids (`monolithic_parallel`, `partitioned_parallel`, ...), so
/// a mismatch earns a prominent advisory warning (never a gate
/// failure: node counts stay deterministic regardless).
const HOST_CORES_KEY: &str = "host_available_parallelism";

/// The warning line for a snapshot-host/current-host core-count
/// mismatch, or `None` when the counts agree. A baseline without the
/// key (pre-PR-7 snapshots) also warns, so stale baselines surface.
fn core_count_warning(baseline_cores: Option<f64>, host_cores: usize) -> Option<String> {
    match baseline_cores {
        Some(b) if b as usize == host_cores => None,
        Some(b) => Some(format!(
            "WARNING: baseline was recorded on a {}-core host but this host has {} \
             (available_parallelism); wall-clock deltas on parallel bench ids are \
             not comparable",
            b as usize, host_cores
        )),
        None => Some(format!(
            "WARNING: baseline records no `{HOST_CORES_KEY}`; this host has \
             {host_cores} cores and parallel bench timings may not be comparable"
        )),
    }
}

/// The `--fail-on-regression` verdicts: every baseline bench id under
/// `prefix` that regressed past [`GATE_THRESHOLD_PCT`] or is absent
/// from the current run, as human-readable lines. Empty means the gate
/// passes.
fn gate_failures(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    prefix: &str,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base_s) in baseline {
        if !name.starts_with(prefix) {
            continue;
        }
        match current.get(name.as_str()) {
            Some(cur_s) => {
                let delta = (cur_s - base_s) / base_s * 100.0;
                if delta > GATE_THRESHOLD_PCT {
                    failures.push(format!(
                        "{name}: {} -> {} ({delta:+.1}%, threshold +{GATE_THRESHOLD_PCT:.0}%)",
                        fmt_secs(*base_s),
                        fmt_secs(*cur_s)
                    ));
                }
            }
            None => failures.push(format!("{name}: missing from this run")),
        }
    }
    failures
}

/// The node half of the `--fail-on-regression` gate: every
/// `nodes:<id>` baseline key under `prefix` whose deterministic
/// peak-live count differs from this run's, or that this run does not
/// report. A peak-live count is a function of the engines' operation
/// sequence alone, so any difference — up or down — is a behaviour
/// change the baseline has not recorded.
fn node_gate_failures(
    node_baseline: &BTreeMap<String, f64>,
    current_nodes: &BTreeMap<String, u64>,
    prefix: &str,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base_n) in node_baseline {
        if !name.starts_with(prefix) {
            continue;
        }
        match current_nodes.get(name.as_str()) {
            Some(cur_n) if *cur_n as f64 == *base_n => {}
            Some(cur_n) => failures
                .push(format!("nodes:{name}: peak_live {} -> {cur_n} (must match)", *base_n as u64)),
            None => failures.push(format!("nodes:{name}: peak_live missing from this run")),
        }
    }
    failures
}

fn main() {
    let mut fail_prefix: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--fail-on-regression" {
            match args.next() {
                Some(p) => fail_prefix = Some(p),
                None => {
                    eprintln!("--fail-on-regression needs a bench-id prefix (e.g. fig7/)");
                    std::process::exit(2);
                }
            }
        } else {
            positional.push(a);
        }
    }
    let Some(out_path) = positional.first() else {
        eprintln!(
            "usage: bench_compare [--fail-on-regression <prefix>] \
             <bench-output.txt> [BENCH_BASELINE.json]"
        );
        std::process::exit(2);
    };
    let default_baseline = "BENCH_BASELINE.json".to_string();
    let baseline_path = positional.get(1).unwrap_or(&default_baseline);

    let output = std::fs::read_to_string(out_path)
        .unwrap_or_else(|e| panic!("cannot read {out_path}: {e}"));
    let baseline_text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));

    let full_baseline = parse_baseline(&baseline_text);
    // Node baselines are stored flat alongside the timings under
    // "nodes:<bench-id>" keys; numeric host metadata ("host_..." keys)
    // is split out so it never lands in the timing comparison.
    let mut baseline = BTreeMap::new();
    let mut node_baseline = BTreeMap::new();
    let mut baseline_cores = None;
    for (k, v) in full_baseline {
        if k == HOST_CORES_KEY {
            baseline_cores = Some(v);
        } else if let Some(name) = k.strip_prefix("nodes:") {
            node_baseline.insert(name.to_string(), v);
        } else {
            baseline.insert(k, v);
        }
    }
    let current = parse_bench_output(&output);
    let current_nodes = parse_peak_nodes(&output);

    println!("Bench comparison vs {baseline_path} (advisory)");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if let Some(warning) = core_count_warning(baseline_cores, host_cores) {
        println!("{warning}");
    }
    println!("{:<42} {:>12} {:>12} {:>9}", "bench", "baseline", "current", "delta");
    let mut missing: Vec<&str> = Vec::new();
    for (name, base_s) in &baseline {
        match current.get(name.as_str()) {
            Some(cur_s) => {
                let delta = (cur_s - base_s) / base_s * 100.0;
                let flag = if delta > 25.0 {
                    "  <-- slower"
                } else if delta < -25.0 {
                    "  <-- faster"
                } else {
                    ""
                };
                println!(
                    "{:<42} {:>12} {:>12} {:>+8.1}%{}",
                    name,
                    fmt_secs(*base_s),
                    fmt_secs(*cur_s),
                    delta,
                    flag
                );
            }
            None => missing.push(name),
        }
    }
    for name in missing {
        println!("{name:<42} (not in this run)");
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            println!("{name:<42} (new; not in baseline)");
        }
    }

    // Live-peak-nodes comparison: a creeping live peak is a GC
    // regression even when wall-clock looks fine (one-shot timing noise
    // hides it; node counts are deterministic).
    if !node_baseline.is_empty() || !current_nodes.is_empty() {
        println!();
        println!("Live-peak BDD nodes vs baseline (deterministic)");
        println!("{:<42} {:>12} {:>12} {:>9}", "bench", "baseline", "current", "delta");
        for (name, base_n) in &node_baseline {
            match current_nodes.get(name.as_str()) {
                Some(cur_n) if *base_n > 0.0 => {
                    let delta = (*cur_n as f64 - *base_n) / *base_n * 100.0;
                    let flag = if delta > 10.0 { "  <-- more live nodes" } else { "" };
                    println!(
                        "{:<42} {:>12} {:>12} {:>+8.1}%{}",
                        name, *base_n as u64, cur_n, delta, flag
                    );
                }
                // A zero baseline means the SAT portfolio settled the
                // bench before any BDD engine ran; flag any change.
                Some(cur_n) => {
                    let flag = if *cur_n > 0 { "  <-- BDD engines now engaged" } else { "" };
                    println!("{:<42} {:>12} {:>12} {:>9}{}", name, 0, cur_n, "-", flag);
                }
                None => println!("{name:<42} (not in this run)"),
            }
        }
        for name in current_nodes.keys() {
            if !node_baseline.contains_key(name) {
                println!("{name:<42} (new; not in baseline)");
            }
        }
    }

    if let Some(prefix) = &fail_prefix {
        let mut failures = gate_failures(&baseline, &current, prefix);
        failures.extend(node_gate_failures(&node_baseline, &current_nodes, prefix));
        println!();
        if failures.is_empty() {
            println!(
                "Gate: no `{prefix}*` bench regressed more than \
                 {GATE_THRESHOLD_PCT:.0}% vs baseline, and every `nodes:{prefix}*` \
                 peak-live count matches"
            );
        } else {
            eprintln!("Gate FAILED: `{prefix}*` benches regressed vs baseline:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// Parses the flat `"name": seconds` map out of `BENCH_BASELINE.json`.
/// The file is ours and stays flat, so a line-based scan is enough — no
/// JSON dependency needed offline.
fn parse_baseline(text: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((name, value)) = rest.split_once("\":") else { continue };
        if let Ok(v) = value.trim().parse::<f64>() {
            // Metadata keys ("host", "mode", ...) hold strings and fail
            // the parse above, so only bench entries land here.
            map.insert(name.to_string(), v);
        }
    }
    map
}

/// Parses the vendored criterion shim's result lines:
/// `<name>  min <value> <unit>  median ...`.
fn parse_bench_output(text: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let Some(name) = parts.next() else { continue };
        let rest: Vec<&str> = parts.collect();
        let Some(pos) = rest.iter().position(|t| *t == "min") else {
            continue;
        };
        let (Some(value), Some(unit)) = (rest.get(pos + 1), rest.get(pos + 2)) else {
            continue;
        };
        let Ok(v) = value.parse::<f64>() else { continue };
        let secs = match *unit {
            "s" => v,
            "ms" => v * 1e-3,
            "µs" | "us" => v * 1e-6,
            "ns" => v * 1e-9,
            _ => continue,
        };
        map.insert(name.to_string(), secs);
    }
    map
}

/// Parses the benches' peak-live-node report lines:
/// `<name>  peak_live <count> nodes`.
fn parse_peak_nodes(text: &str) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let Some(name) = parts.next() else { continue };
        let rest: Vec<&str> = parts.collect();
        let Some(pos) = rest.iter().position(|t| *t == "peak_live") else {
            continue;
        };
        let (Some(value), Some(unit)) = (rest.get(pos + 1), rest.get(pos + 2)) else {
            continue;
        };
        if *unit != "nodes" {
            continue;
        }
        let Ok(v) = value.parse::<u64>() else { continue };
        map.insert(name.to_string(), v);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shim_output_lines() {
        let out = "fig7/monolithic_generous                 min    60.91 s  median    60.91 s  mean    60.91 s  (1 samples)\n\
                   fig7/partitioned_tight                   min   18.38 ms  median   18.38 ms  mean   18.38 ms  (1 samples)\n\
                   noise line without keyword\n";
        let m = parse_bench_output(out);
        assert_eq!(m.len(), 2);
        assert!((m["fig7/monolithic_generous"] - 60.91).abs() < 1e-9);
        assert!((m["fig7/partitioned_tight"] - 0.01838).abs() < 1e-9);
    }

    #[test]
    fn parses_peak_node_lines() {
        let out = "fig7/monolithic_generous  peak_live 123456 nodes\n\
                   fig7/partitioned_tight  peak_live 789 nodes\n\
                   some/bench  min 1.0 s  median 1.0 s\n";
        let m = parse_peak_nodes(out);
        assert_eq!(m.len(), 2);
        assert_eq!(m["fig7/monolithic_generous"], 123456);
        assert_eq!(m["fig7/partitioned_tight"], 789);
        // Node lines must not leak into the timing map.
        assert!(parse_bench_output(out).contains_key("some/bench"));
        assert!(!parse_bench_output(out).contains_key("fig7/partitioned_tight"));
    }

    #[test]
    fn gate_flags_only_prefixed_regressions_and_missing_ids() {
        let mut baseline = BTreeMap::new();
        baseline.insert("fig7/monolithic_generous".to_string(), 10.0);
        baseline.insert("fig7/partitioned_tight".to_string(), 1.0);
        baseline.insert("fig7/gone".to_string(), 2.0);
        baseline.insert("sat/php_5_4".to_string(), 0.1);
        let mut current = BTreeMap::new();
        current.insert("fig7/monolithic_generous".to_string(), 13.0); // +30%
        current.insert("fig7/partitioned_tight".to_string(), 1.2); // +20%
        current.insert("sat/php_5_4".to_string(), 10.0); // huge, but unprefixed

        let failures = gate_failures(&baseline, &current, "fig7/");
        assert_eq!(failures.len(), 2);
        assert!(failures[0].starts_with("fig7/gone: missing"));
        assert!(failures[1].starts_with("fig7/monolithic_generous:"));

        // Within threshold on every present id -> only the missing one.
        current.insert("fig7/monolithic_generous".to_string(), 12.0); // +20%
        current.insert("fig7/gone".to_string(), 2.0);
        assert!(gate_failures(&baseline, &current, "fig7/").is_empty());
    }

    #[test]
    fn node_gate_flags_any_changed_or_missing_peak() {
        let mut node_baseline = BTreeMap::new();
        node_baseline.insert("order/natural".to_string(), 253916.0);
        node_baseline.insert("order/static_order".to_string(), 1497.0);
        node_baseline.insert("order/dynamic_reorder".to_string(), 253916.0);
        node_baseline.insert("fig7/monolithic_generous".to_string(), 2097152.0);
        let mut current = BTreeMap::new();
        current.insert("order/natural".to_string(), 1497u64); // fewer: still a change
        current.insert("order/static_order".to_string(), 1497u64);
        current.insert("fig7/monolithic_generous".to_string(), 1u64); // unprefixed

        let failures = node_gate_failures(&node_baseline, &current, "order/");
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("nodes:order/dynamic_reorder: peak_live missing"));
        assert!(failures[1].starts_with("nodes:order/natural: peak_live 253916 -> 1497"));

        current.insert("order/natural".to_string(), 253916);
        current.insert("order/dynamic_reorder".to_string(), 253916);
        assert!(node_gate_failures(&node_baseline, &current, "order/").is_empty());
        // Parsed from bench output, the same way main() feeds the gate.
        let out = "order/natural  peak_live 253916 nodes\n\
                   order/static_order  peak_live 1497 nodes\n\
                   order/dynamic_reorder  peak_live 253917 nodes\n";
        let failures = node_gate_failures(&node_baseline, &parse_peak_nodes(out), "order/");
        assert_eq!(failures, ["nodes:order/dynamic_reorder: peak_live 253916 -> 253917 (must match)"]);
    }

    #[test]
    fn core_count_mismatch_warns_but_match_is_silent() {
        assert!(core_count_warning(Some(4.0), 4).is_none());
        let w = core_count_warning(Some(4.0), 1).unwrap();
        assert!(w.contains("4-core") && w.contains("has 1"), "{w}");
        let missing = core_count_warning(None, 8).unwrap();
        assert!(missing.contains(HOST_CORES_KEY), "{missing}");
    }

    #[test]
    fn host_cores_key_is_metadata_not_a_bench_id() {
        let text = format!(
            "{{\n  \"{HOST_CORES_KEY}\": 1,\n  \"fig7/monolithic_generous\": 60.91\n}}\n"
        );
        let m = parse_baseline(&text);
        // The flat parser keeps it (it is numeric); main() must split it
        // out before the timing comparison — this pins that it parses.
        assert_eq!(m[HOST_CORES_KEY], 1.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn parses_flat_baseline_json() {
        let text = "{\n  \"host\": \"ci\",\n  \"fig7/monolithic_generous\": 60.91,\n  \"sat/php_5_4\": 0.5\n}\n";
        let m = parse_baseline(text);
        assert_eq!(m.len(), 2);
        assert!((m["fig7/monolithic_generous"] - 60.91).abs() < 1e-9);
    }
}
