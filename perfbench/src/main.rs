//! perfbench — end-to-end and per-layer benchmark of the parallelizer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernels|requests --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's inputs from the seed, runs whole rounds of its
//! operations for `S` seconds, checks every output, and prints one JSON
//! line last on standard output: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.  Progress and diagnostics go to standard
//! error.  See `perfbench/README.md`.

mod cg;
mod checks;
mod json;
mod rename;
mod serve;
mod stats;
mod trace;
mod workload;

use std::time::Instant;
use workload::{Metric, Outcome, Workload};

const USAGE: &str = "usage: perfbench --workload kernels|requests --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json::string(name),
                if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                },
                json::string(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn report(args: &Args, outcome: &Outcome) {
    eprintln!(
        "perfbench: workload {} seed {} rounds {} ({})",
        args.workload.name(),
        args.seed,
        outcome.rounds,
        outcome
            .samples
            .iter()
            .map(|(what, n)| format!("{n} {what}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for note in &outcome.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    for (name, value, unit) in &outcome.traced_end_to_end {
        eprintln!("perfbench: traced end-to-end {name} = {value} {unit}");
    }
    for (name, value, unit) in &outcome.unbounded {
        eprintln!("perfbench: unbounded {name} = {value} {unit}");
    }
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match workload::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        process_start,
    ) {
        Ok(outcome) => report(&args, &outcome),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
