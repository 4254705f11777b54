//! OPA's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload clicks_count --seed 1 --seconds 25 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! `--trace 0` times the workload with tracing off and prints the
//! end-to-end metrics; `--trace 1` breaks the same work down by engine
//! layer, timing calls into each layer from outside, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod affinity;
mod e2e;
mod hostclock;
mod jobs;
mod layers;
mod reference;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::{Size, Workload};

/// The seed held out from tuning: later performance claims should also
/// hold on it.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Extra correctness conditions beyond per-operation checks.
    pub sound: bool,
    pub metrics: Vec<Metric>,
    /// Unscaled wall-clock values of the metrics that are reported at the
    /// reference host speed (see `hostclock`).
    pub raw: Vec<Metric>,
    /// Timed samples behind the metrics, for the provenance line.
    pub samples: u64,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 25.0f64, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size: Size::FULL,
    })
}

fn run(args: &Args) -> Report {
    if args.trace {
        layers::run(args.workload, &args.size, args.seed, args.seconds)
    } else {
        e2e::run(args.workload, &args.size, args.seed, args.seconds)
    }
}

/// `"name": {"value": v, "unit": "u"}` entries of a JSON object.
fn metrics_json(metrics: &[Metric]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    entries.join(", ")
}

/// The result line: the last line of standard output.
fn result_json(r: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.sound && r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics_json(&r.metrics)
    )
}

/// The commit under test, from `OPA_BENCH_REV` or the checkout's `.git`;
/// `unknown` when neither exists.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("OPA_BENCH_REV") {
        return rev;
    }
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn provenance_json(args: &Args, r: &Report) -> String {
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {}, \"nproc\": {}, \"git_rev\": \"{}\", \"samples\": {}, \"run_seconds\": {}, \"raw\": {{{}}}}}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        workloads::nproc(),
        git_rev(),
        r.samples,
        args.seconds,
        metrics_json(&r.raw),
    )
}

/// Runs every workload at smoke size in both modes and checks that each
/// prints exactly the metrics `BENCHMARK.json` names, correctly.
fn selftest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = opa_trace::json::JsonValue::parse(&text).map_err(|e| e.to_string())?;
    let names = |section: &str| -> Result<Vec<String>, String> {
        let Some(opa_trace::json::JsonValue::Arr(items)) = spec.get(section) else {
            return Err(format!("BENCHMARK.json has no {section} list"));
        };
        items
            .iter()
            .map(|m| {
                m.str_field("name")
                    .map(str::to_string)
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    let mut listed = names("workloads")?;
    listed.sort();
    let mut ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    ours.sort();
    if listed != ours {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed:?}, the benchmark has {ours:?}"
        ));
    }
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut want = names(section)?;
        want.sort();
        for w in Workload::ALL {
            let args = Args {
                workload: w,
                seed: 7,
                seconds: 1.0,
                trace,
                size: Size::SMOKE,
            };
            let r = run(&args);
            let mut got: Vec<String> = r.metrics.iter().map(|m| m.0.to_string()).collect();
            got.sort();
            let line = result_json(&r);
            eprintln!("selftest {} trace={}: {line}", w.name(), trace as u8);
            if got != want {
                return Err(format!(
                    "{} trace={}: metrics {got:?}, expected {want:?}",
                    w.name(),
                    trace as u8
                ));
            }
            if !(r.sound && r.failed == 0) || r.attempted == 0 {
                return Err(format!("{} trace={}: incorrect run", w.name(), trace as u8));
            }
            if let Some(m) = r.metrics.iter().find(|m| !m.1.is_finite()) {
                return Err(format!(
                    "{} trace={}: {} is not finite",
                    w.name(),
                    trace as u8,
                    m.0
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--selftest") {
        return match selftest() {
            Ok(()) => {
                println!("selftest passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("selftest failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --selftest",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!("{}", provenance_json(&args, &report));
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
