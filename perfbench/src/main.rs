//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host and config record, the metrics by name with units and
//! sample counts, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when an
//! output check failed. The traced run also writes its spans as CSV to
//! `perfbench/traces/<workload>-seed<n>.csv`.

use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
    };
    println!("{}", perfbench::host::host_line(perfbench::WORKERS, seed));
    let Some(result) = perfbench::run(&workload, seed, seconds, trace) else {
        return usage(&format!("unknown workload {workload}"));
    };
    if trace {
        if let Some(tracer) = &result.tracer {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
            let path = dir.join(format!("{workload}-seed{seed}.csv"));
            match std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, tracer.to_csv()))
            {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: could not write spans: {e}"),
            }
        }
    }
    print!("{}", perfbench::render(&result, trace));
    if result.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} frames failed the output check",
            result.tally.failed, result.tally.attempted
        );
        ExitCode::FAILURE
    }
}
