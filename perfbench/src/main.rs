//! End-to-end benchmark of the stack (kernel → SB runtime → mo-serve →
//! mo-dist), one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels-large|serve-batch|serve-open|fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs a fixed job list generated from `--seed` and
//! sized by `--seconds`; it never stops on a clock. `--trace 0` prints
//! the end-to-end metrics of one untraced pass. `--trace 1` runs the
//! same list untraced and then traced, prints every per-layer metric
//! with the base of each ratio, and writes the spans as a chrome trace.
//! Every output is checked; a failed check makes the run exit 1.

mod fleet;
mod jobs;
mod kernels;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

use report::{Output, Report};

/// Where records and traces go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";
/// Spans per load thread written to the chrome trace.
const CHROME_CAP: usize = 50_000;

pub const WORKLOADS: [&str; 4] = ["kernels-large", "serve-batch", "serve-open", "fleet"];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = int()?,
            "--seconds" => args.seconds = int()?.max(1),
            "--trace" => args.trace = int()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn write_trace(workload: &str, seed: u64, spans: &[Vec<trace::Span>]) -> Result<String, String> {
    let (doc, written) = trace::to_chrome(spans, CHROME_CAP);
    let path = PathBuf::from(OUT_DIR).join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    std::fs::write(&path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let back = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    mo_obs::chrome::validate(&back).map_err(|e| format!("{}: {e}", path.display()))?;
    let total: usize = spans.iter().map(Vec::len).sum();
    Ok(format!(
        "trace: {} ({written} of {total} spans, validated)",
        path.display()
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "kernels-large" => kernels::run(&args, &mut report),
        "serve-batch" => serve::run(&args, &mut report, false),
        "serve-open" => serve::run(&args, &mut report, true),
        _ => fleet::run(&args, &mut report),
    };
    let pass = match result {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mut correct = pass.verified == pass.attempted;
    if args.trace {
        match write_trace(&args.workload, args.seed, &pass.spans) {
            Ok(line) => report.note(line),
            Err(e) => {
                eprintln!("perfbench: chrome trace: {e}");
                correct = false;
            }
        }
    }
    let out = Output {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        jobs: pass.completed,
        attempted: pass.attempted,
        failed: pass.attempted - pass.verified,
        correct,
    };
    if let Err(e) = report.finish(&out, std::path::Path::new(OUT_DIR)) {
        eprintln!("perfbench: writing the record: {e}");
        std::process::exit(1);
    }
    if !correct {
        eprintln!("perfbench: {}: output check failed", args.workload);
        std::process::exit(1);
    }
}
