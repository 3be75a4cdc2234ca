//! `--aa <k>`: the benchmark's self-check and the tool for re-baselining.
//! Runs the workload set `k` times twice over, alternating the two sets,
//! each run a fresh process with its own seed, and compares the sets the
//! way the benchmark's acceptance rule does: for every end-to-end metric
//! the two medians, their relative gap, the quartile spread, and the bound
//! `BENCHMARK.json` fixes as a share of the first median. Fails if a gap
//! or a spread exceeds its bound.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use suod_observe::json::{parse, Value};

use crate::estimate::{median, quartile_spread};

struct Bound {
    share: f64,
    higher_is_better: bool,
}

fn bounds() -> Result<Vec<(String, Bound)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let json = parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    json.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let share = match m.get("bound") {
                Some(Value::Number(b)) => *b,
                _ => return Err(format!("{name}: no bound")),
            };
            let higher_is_better = m.get("better").and_then(Value::as_str) == Some("higher");
            Ok((
                name.to_string(),
                Bound {
                    share,
                    higher_is_better,
                },
            ))
        })
        .collect()
}

/// One untraced run in a child process; its metrics by name.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let json = parse(last).map_err(|e| format!("result line: {e:?}"))?;
    let metrics = json
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result has no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| match m.get("value") {
            Some(Value::Number(v)) => Ok((name.clone(), *v)),
            _ => Err(format!("{name}: no value")),
        })
        .collect()
}

pub fn run(k: usize, workloads: &[&str], base_seed: u64, seconds: f64) -> ExitCode {
    match compare(k, workloads, base_seed, seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn compare(k: usize, workloads: &[&str], base_seed: u64, seconds: f64) -> Result<bool, String> {
    let bounds = bounds()?;
    // values[set][workload][metric] = one value per run.
    let mut values = [BTreeMap::new(), BTreeMap::new()];
    for i in 0..k {
        for (set, values) in values.iter_mut().enumerate() {
            for &workload in workloads {
                let seed = base_seed + i as u64;
                eprintln!(
                    "aa: run {}/{k} set {} {workload} seed {seed}",
                    i + 1,
                    ["A", "B"][set]
                );
                for (metric, v) in run_once(workload, seed, seconds)? {
                    values
                        .entry(workload)
                        .or_insert_with(BTreeMap::new)
                        .entry(metric)
                        .or_insert_with(Vec::new)
                        .push(v);
                }
            }
        }
    }
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "gap", "spread", "bound"
    );
    let mut pass = true;
    for &workload in workloads {
        for (metric, bound) in &bounds {
            let side = |set: usize| -> Result<&Vec<f64>, String> {
                values[set]
                    .get(workload)
                    .and_then(|m| m.get(metric))
                    .ok_or_else(|| format!("{workload}: no {metric}"))
            };
            let (a, b) = (side(0)?, side(1)?);
            let (ma, mb) = (median(a), median(b));
            // How much worse the second set's median is than the first's.
            let gap = if bound.higher_is_better {
                ma - mb
            } else {
                mb - ma
            } / ma.abs();
            let spread = quartile_spread(a)
                .unwrap_or(f64::NAN)
                .max(quartile_spread(b).unwrap_or(f64::NAN));
            // Set-up time is judged on its medians only.
            let ok = gap <= bound.share && (metric == "setup_s" || spread <= bound.share);
            pass &= ok;
            println!(
                "{workload:<16} {metric:<18} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>7.2}% {:>7.2}%  {}",
                100.0 * gap,
                100.0 * spread,
                100.0 * bound.share,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    println!("{}", if pass { "A/A: PASS" } else { "A/A: FAIL" });
    Ok(pass)
}
