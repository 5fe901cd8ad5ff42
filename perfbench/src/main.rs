//! `perfbench` — the repository's benchmark: three workloads measured end
//! to end, and a traced run that breaks them down by layer.
//!
//! ```sh
//! bash perfbench/run.sh --workload des-matrix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root (`run.sh` builds everything first). The
//! last line of standard output is the JSON result; everything before it
//! is the human-readable report. See `perfbench/README.md`.

mod check;
mod des_matrix;
mod loadgen;
mod metrics;
mod regen;
mod serve_mix;
mod spans;
mod stats;
mod sys;

use std::path::Path;

use metrics::Outcome;
use spans::Spans;

/// Scratch directory for results, span files and the like, relative to the
/// repository root.
pub const OUT_DIR: &str = "perfbench/out";

pub const WORKLOADS: [&str; 3] = ["des-matrix", "regen", "serve-mix"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <des-matrix|regen|serve-mix> --seed <n> \
--seconds <s> --trace <0|1>\n       perfbench --record-expected";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
                }
            }
            "--record-expected" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(Some(args))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !Path::new("crates").is_dir() || !Path::new("results").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ or results/ here)");
        std::process::exit(1);
    }
    let Some(args) = args else {
        if let Err(e) = des_matrix::record_expected() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        println!("wrote {}", des_matrix::EXPECTED);
        return;
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} cpus)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut spans = Spans::new(args.trace);
    let run = match args.workload.as_str() {
        "des-matrix" => des_matrix::run(&args, &mut spans),
        "regen" => regen::run(&args, &mut spans),
        _ => serve_mix::run(&args, &mut spans),
    };
    let mut out: Outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    print_end_to_end(&out);
    if args.trace {
        for (layer, ms) in spans.self_ms_by_layer() {
            out.set(format!("self_ms.{layer}"), ms);
        }
        print_layers(&args.workload, &out);
        let path = format!("{OUT_DIR}/spans-{}-{}.json", args.workload, args.seed);
        match std::fs::write(&path, spans.to_json()) {
            Ok(()) => println!("wrote {} spans to {path}", spans.len()),
            Err(e) => eprintln!("perfbench: {path}: {e}"),
        }
    }
    println!(
        "operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    println!("{}", out.result_line(args.trace));
    if out.failed > 0 {
        std::process::exit(1);
    }
}

fn print_end_to_end(out: &Outcome) {
    for (name, unit) in metrics::END_TO_END {
        if let Some(v) = out.get(name) {
            println!("{name:<12} {v:>14.4} {unit}");
        }
    }
}

/// Each per-layer metric this workload measured, beside the end-to-end
/// metric it should move.
fn print_layers(workload: &str, out: &Outcome) {
    println!(
        "{:<40} {:>14} {:<8} {:<7} should move (on workload)",
        "per-layer metric", "value", "unit", "better"
    );
    for m in metrics::layer_table() {
        if m.workload != workload && m.workload != "all" {
            continue;
        }
        let v = out.get(&m.name).unwrap_or(0.0);
        let on = if m.workload == "all" {
            workload
        } else {
            m.workload
        };
        println!(
            "{:<40} {v:>14.4} {:<8} {:<7} {} ({on})",
            m.name, m.unit, m.better, m.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Option<Args>, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = parse("--workload regen --seed 7 --seconds 20 --trace 1")
            .unwrap()
            .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("regen", 7, 20.0, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload regen --trace 2").is_err());
        assert!(parse("--record-expected").unwrap().is_none());
    }
}
