//! The A/A procedure: two sets of full runs of the same build, compared
//! the way the driver compares a parent and a change.
//!
//! Each run is a child process (`poem-perf run --workload … --seed …`), so
//! every run starts from a fresh address space like the driver's do, and
//! takes another seed. The table this prints is committed as `NOISE.md`;
//! the bounds in `BENCHMARK.json` are read off it.

use crate::spec::{self, Better, Workload};
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;
use std::process::Command;

/// `(workload, metric)` → one value per run of a set.
type Set = BTreeMap<(String, String), Vec<f64>>;

/// Runs every workload once and files each `metric` line it prints.
fn one_run(set: &mut Set, seed: u64, seconds: f64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["run", "--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .output()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!("{} seed {seed} exited with {}", w.name(), out.status));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let mut f = line.split_whitespace();
            if f.next() != Some("metric") {
                continue;
            }
            if let (Some(w), Some(name), Some(v)) = (f.next(), f.next(), f.next()) {
                if let Ok(v) = v.parse::<f64>() {
                    set.entry((w.to_string(), name.to_string())).or_default().push(v);
                }
            }
        }
    }
    Ok(())
}

/// How much worse `b` is than `a`, in the metric's own direction.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// Full runs per set.
const RUNS: usize = 5;

/// Runs two sets of [`RUNS`] full runs and prints the comparison as a
/// Markdown table, judged as the driver judges a benchmark: the second
/// set's median no worse than the first's by more than the bound, and
/// (except for `setup_s`) each set's inter-quartile range within the bound,
/// both as shares of the median. Returns false when any pairing fails.
pub fn run(seconds: f64, first_seed: u64) -> Result<bool, String> {
    let mut sets = [Set::new(), Set::new()];
    for (k, set) in sets.iter_mut().enumerate() {
        for i in 0..RUNS {
            let seed = first_seed + (k * RUNS + i) as u64;
            eprintln!("aa: set {} run {} (seed {seed})", k + 1, i + 1);
            one_run(set, seed, seconds)?;
        }
    }
    println!(
        "| workload | metric | median A | median B | IQR/median A | IQR/median B | gap B vs A | bound | spread ≤ bound/3 | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    let spread = |v: &[f64]| iqr_share(v).unwrap_or(f64::NAN);
    for w in Workload::ALL {
        for m in spec::END_TO_END {
            let key = (w.name().to_string(), m.name.to_string());
            let (Some(a), Some(b)) = (sets[0].get(&key), sets[1].get(&key)) else {
                println!("| {} | {} | missing | | | | | | | FAIL |", w.name(), m.name);
                all_pass = false;
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            let gap = worsening(m.better, ma, mb) / ma.abs();
            let widest = spread(a).max(spread(b));
            // setup_s is exempt from the spread rule (contract), not from
            // the median rule.
            let pass = gap <= m.bound && (m.name == "setup_s" || widest <= m.bound);
            all_pass &= pass;
            println!(
                "| {} | {} | {ma:.5} | {mb:.5} | {:.4} | {:.4} | {gap:+.4} | {} | {} | {} |",
                w.name(),
                m.name,
                spread(a),
                spread(b),
                m.bound,
                if widest <= m.bound / 3.0 { "yes" } else { "no" },
                if pass { "pass" } else { "FAIL" }
            );
        }
        for name in spec::REPORTED {
            let key = (w.name().to_string(), name.to_string());
            if let (Some(a), Some(b)) = (sets[0].get(&key), sets[1].get(&key)) {
                println!(
                    "| {} | {name} | {:.5} | {:.5} | {:.4} | {:.4} | | | | reported |",
                    w.name(),
                    median(a),
                    median(b),
                    spread(a),
                    spread(b)
                );
            }
        }
    }
    println!();
    println!("Per-run values (set A then set B):");
    println!();
    for ((w, name), a) in &sets[0] {
        let b = sets[1].get(&(w.clone(), name.clone())).map_or(&[][..], Vec::as_slice);
        let cells = |v: &[f64]| v.iter().map(|x| format!("{x:.5}")).collect::<Vec<_>>().join(" ");
        println!("- `{w}` `{name}`: {} | {}", cells(a), cells(b));
    }
    Ok(all_pass)
}
