//! The benchmark of sample-union-joins. See `benchmark/README.md`.
//!
//! ```text
//! suj-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! suj-benchmark --smoke
//! suj-benchmark --repeat <k> [--seed <u64>] [--seconds <s>]
//! ```

mod alloc;
mod deploy;
mod endtoend;
mod json;
mod ladder;
mod repeat;
mod spans;
mod summary;
mod workloads;

use json::Json;
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::Inputs;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Run length when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` (the smoke run checks they agree). The ladder's fixed
/// work is sized for this length and scales with `--seconds`.
pub const DEFAULT_SECONDS: f64 = 12.0;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// What a reader needs beyond the metrics: plan, counts, raw figures.
    pub detail: Json,
    pub ops: deploy::Ops,
}

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    scale_units: Option<usize>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            repeat: None,
            scale_units: None,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => args.seed = value()?.parse()?,
                "--seconds" => args.seconds = value()?.parse()?,
                "--trace" => args.trace = value()?.parse::<u8>()? != 0,
                "--smoke" => args.smoke = true,
                "--repeat" => args.repeat = Some(value()?.parse()?),
                // For sizing studies (the README's scale-2 row); the
                // contract's runs never pass it.
                "--scale-units" => args.scale_units = Some(value()?.parse()?),
                other => return Err(format!("unknown argument `{other}`").into()),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// The benchmark's directory, fixed when it was built.
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`, the contract this program is checked against.
pub fn contract() -> Result<Json> {
    let path = home().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Json::parse(&text)?)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(home())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What a reader needs to compare this run with another.
fn metadata(args: &Args, inputs: &Inputs, cores: usize, clients: usize) -> Json {
    let sizes = inputs.sizes;
    Json::obj([
        ("workload", Json::str(inputs.name)),
        (
            "commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        ("cores", Json::Num(cores as f64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (debug = true, no LTO)"
            }),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("scale_units", Json::Num(sizes.scale_units as f64)),
        ("base_rows", Json::Num(inputs.base_rows() as f64)),
        ("n", Json::Num(sizes.n as f64)),
        ("ladder_requests", Json::Num(sizes.ladder_requests as f64)),
        ("clients", Json::Num(clients as f64)),
        ("workers", Json::Num(endtoend::WORKERS as f64)),
    ])
}

/// The contract's result line.
fn result_line(ops: &deploy::Ops, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

/// Runs one workload and returns its result line.
fn run_workload(args: &Args, name: &str) -> Result<Json> {
    let mut sizes = workloads::sizes(name, args.smoke)?;
    if let Some(scale_units) = args.scale_units {
        sizes.scale_units = scale_units;
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    // Closed-loop load from this process: never more client threads
    // than cores.
    let clients = cores.min(2);
    let inputs = Inputs::generate(name, sizes, args.seed)?;
    println!("meta {}", metadata(args, &inputs, cores, clients));

    let Outcome {
        metrics,
        detail,
        ops,
    } = if args.trace {
        ladder::run(&inputs, args.seed, args.seconds, &home().join("out"))?
    } else {
        endtoend::run(&inputs, args.seed, args.seconds, clients)?
    };
    println!("detail {detail}");
    for metric in &metrics {
        println!("{:<40} {:>18.6} {}", metric.name, metric.value, metric.unit);
    }
    for failure in &ops.failures {
        println!("FAILED {failure}");
    }
    Ok(result_line(&ops, &metrics))
}

/// `--smoke`: every workload at tiny sizes, both kinds of run, every
/// check, and the emitted names held against `BENCHMARK.json`.
fn smoke(args: &Args) -> Result<bool> {
    let contract = contract()?;
    let listed: Vec<&str> = contract
        .get("workloads")
        .map_or(&[][..], Json::elements)
        .iter()
        .filter_map(|entry| entry.get("name")?.as_str())
        .collect();
    if listed != workloads::NAMES {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed:?}, the program has {:?}",
            workloads::NAMES
        )
        .into());
    }
    if contract.get("run_seconds").and_then(Json::as_f64) != Some(DEFAULT_SECONDS) {
        return Err(format!("BENCHMARK.json run_seconds is not {DEFAULT_SECONDS}").into());
    }
    let mut ok = true;
    for name in workloads::NAMES {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload: Some(name.into()),
                trace,
                seconds: 0.6,
                ..*args
            };
            let line = run_workload(&args, name)?;
            // Names, units and order must be the contract's, and every
            // value a number.
            let emitted = line.get("metrics").map_or(&[][..], Json::members);
            let listed = contract.get(section).map_or(&[][..], Json::elements);
            let agree = emitted.len() == listed.len()
                && emitted.iter().zip(listed).all(|((name, entry), wanted)| {
                    wanted.get("name").and_then(Json::as_str) == Some(name)
                        && wanted.get("unit") == entry.get("unit")
                        && entry.get("value").and_then(Json::as_f64).is_some()
                });
            if !agree {
                println!("FAILED {name}: metrics differ from BENCHMARK.json's {section}");
                ok = false;
            }
            ok &= line.get("correct") == Some(&Json::Bool(true));
            println!("{line}");
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        if args.smoke {
            smoke(&args)
        } else if let Some(runs) = args.repeat {
            repeat::run(runs, args.seed, args.seconds)
        } else {
            let name = args.workload.as_deref().ok_or("--workload is required")?;
            let line = run_workload(&args, name)?;
            println!("{line}");
            Ok(line.get("correct") == Some(&Json::Bool(true)))
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
