//! Command line: `ledger --workload <name> --seed <n> --seconds <n>
//! --trace <0|1>`.
//!
//! Prints a provenance line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits 1 when a correctness check failed and 2 on a
//! usage error.

use std::process::ExitCode;

use ledger::report::{per_layer_metrics, provenance_line, result_line, END_TO_END};
use ledger::workloads::{self, Settings};

struct Args {
    workload: String,
    settings: Settings,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        settings: Settings {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(30.0),
            traced: trace.unwrap_or(false),
            tiny: false,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match workloads::run(&args.workload, &args.settings) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<(String, &str)> = if args.settings.traced {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut host = ledger::host::facts(args.settings.seed);
    host.push(("workload", args.workload.clone()));
    host.push(("seconds", args.settings.seconds.to_string()));
    println!("{}", provenance_line(&result, &host));
    match result_line(&result, &names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(1);
        }
    }
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        for failure in result.failures.iter().take(10) {
            eprintln!("ledger: check failed: {failure}");
        }
        ExitCode::from(1)
    }
}
