//! `--repeat K`: the repeatability tool.
//!
//! Runs K untraced runs of every workload, each in a fresh process and
//! with its own seed, and prints per end-to-end metric the median, the
//! quartiles and two spreads. It is the tool behind the acceptance
//! rule "two sets of runs of the same code agree within the bounds",
//! and behind every later before/after comparison: run it on both
//! commits and compare the medians against the bounds it prints.

use crate::json::Json;
use crate::summary::{median, quartiles};
use crate::{contract, workloads, Result};
use std::process::{Command, Stdio};

/// Runs `runs` sets; `Ok(false)` when a spread exceeds its bound.
pub fn run(runs: usize, first_seed: u64, seconds: f64) -> Result<bool> {
    if runs < 3 {
        return Err("--repeat needs at least 3 runs to have quartiles".into());
    }
    let contract = contract()?;
    let bounded = contract.get("end_to_end").map_or(&[][..], Json::elements);
    let exe = std::env::current_exe()?;
    let mut within = true;
    for workload in workloads::NAMES {
        let mut lines = Vec::with_capacity(runs);
        for k in 0..runs {
            let seed = first_seed + k as u64;
            // A fresh process per run, as the driver does: peak memory
            // and the allocator's state start from nothing.
            let output = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stderr(Stdio::inherit())
                .output()?;
            let stdout = String::from_utf8(output.stdout)?;
            let last = stdout.lines().last().unwrap_or_default();
            if !output.status.success() {
                return Err(format!("{workload} seed {seed} failed: {last}").into());
            }
            lines.push(Json::parse(last)?);
            eprintln!("{workload} seed {seed} done");
        }
        println!("\n{workload} ({runs} runs, seeds {first_seed}..)");
        println!(
            "  {:<20} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}",
            "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound"
        );
        for entry in bounded {
            let name = entry.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let values: Vec<f64> = lines
                .iter()
                .filter_map(|l| l.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            if values.len() != runs {
                return Err(format!("{workload}: {name} missing from a run").into());
            }
            let mid = median(&values);
            let (q1, q3) = quartiles(&values);
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            let min = values.iter().copied().fold(f64::MAX, f64::min);
            let iqr = (q3 - q1) / mid;
            // The driver exempts set-up time from the spread rule (its
            // median is still bounded), so this tool does too.
            let over = iqr > bound && name != "setup_s";
            within &= !over;
            println!(
                "  {name:<20} {mid:>14.4} {q1:>14.4} {q3:>14.4} {:>8.2}% {:>8.2}% {:>6.0}%{}",
                iqr * 100.0,
                (max - min) / mid * 100.0,
                bound * 100.0,
                if over { "  OVER" } else { "" }
            );
        }
    }
    Ok(within)
}
