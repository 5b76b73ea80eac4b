//! Benchmark of the SheLL flow, its attacks, and the service.
//!
//! ```text
//! perfbench --workload <redact|attack|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, checks its outputs, and prints as the last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Exits 1 when any check fails. See `README.md` for what each
//! workload and metric is for.

use shell_perfbench::report::{END_TO_END, PER_LAYER};
use shell_perfbench::{attack, redact, serve_mix, Args};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // One flow worker everywhere: parallel speed-up is about 1.0x on this
    // class of machine, and one worker removes scheduler noise.
    std::env::set_var("SHELL_JOBS", "1");
    let report = match args.workload.as_str() {
        "redact" => redact::run(&args),
        "attack" => attack::run(&args),
        "serve_mix" => serve_mix::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let line = report.line(names, args.trace);
    match &line {
        Some(line) => println!("{line}"),
        None => eprintln!("perfbench: the run stopped before measuring"),
    }
    if report.failed > 0 || line.is_none() {
        std::process::exit(1);
    }
}
