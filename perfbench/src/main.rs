//! Command line of the benchmark:
//!
//! ```text
//! fedroad-perfbench --workload <cal-long|fla-short|fla-live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use fedroad_perfbench::workload::WorkloadSpec;
use fedroad_perfbench::{run, Options};
use std::process::ExitCode;

fn parse() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadSpec::named(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fedroad-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            for line in outcome.report_lines() {
                println!("{line}");
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(refusal) => {
            eprintln!("fedroad-perfbench: refusing to run: {refusal}");
            ExitCode::from(3)
        }
    }
}
