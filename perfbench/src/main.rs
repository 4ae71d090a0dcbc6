//! `perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//! [--tiny] [--spans <dir>]`
//!
//! Prints each workload's metric table, then one JSON line per workload:
//! the last line of standard output is the last workload's result.

use std::path::PathBuf;
use std::process::ExitCode;

use prosel_perfbench::{run, Params, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1> [--tiny] [--spans <dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut params = Params { seed: 1, seconds: 10.0, trace: false, tiny: false, span_dir: None };
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            params.tiny = true;
            continue;
        }
        let Some(value) = args.next() else { return usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(s) => params.seed = s,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => params.seconds = s,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => params.trace = false,
                "1" => params.trace = true,
                _ => return usage(&format!("bad trace {value:?}")),
            },
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    let names: Vec<&str> =
        if workload == "all" { WORKLOADS.to_vec() } else { vec![workload.as_str()] };
    if let Some(bad) = names.iter().find(|n| !WORKLOADS.contains(n)) {
        return usage(&format!("unknown workload {bad}"));
    }
    // Traced runs keep their spans in memory and write them out at the end.
    if params.trace {
        params.span_dir = Some(spans.unwrap_or_else(|| PathBuf::from(".perfbench_spans")));
    }
    let mut lines = Vec::new();
    for name in names {
        let mut report = run(name, &params).expect("workload names were checked");
        let json = report.json(params.trace);
        print!("{}", report.table());
        lines.push(json);
    }
    for line in lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
