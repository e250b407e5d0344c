//! Command line of the benchmark:
//!
//! ```text
//! mcfi-perfbench --workload <net-warm|net-cold|fleet-ckpt> --seed <n>
//!                --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! A traced run writes its kept spans to `--trace-out`, by default
//! `.bench_trace/<workload>-seed<n>.jsonl` under the working directory.
//!
//! Prints a human-readable report, a context line, and as the last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits 1 when an output was wrong, 2 on bad arguments
//! or when the run could not complete.

use std::path::PathBuf;
use std::process::ExitCode;

use mcfi_perfbench::{context_json, result_json, run, Config, Workload};

fn parse(args: &[String]) -> Result<(Config, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut trace_out) = (1u64, 10.0f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut cfg = Config::new(workload, seed, seconds);
    if trace {
        cfg.trace_out = Some(trace_out.unwrap_or_else(|| {
            PathBuf::from(format!(".bench_trace/{}-seed{seed}.jsonl", workload.name()))
        }));
    }
    Ok((cfg, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, traced) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg, traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    for m in report.metrics.iter().chain(&report.info) {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", context_json(&report));
    println!("{}", result_json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} requests had wrong output",
            report.failed, report.attempted
        );
        ExitCode::from(1)
    }
}
