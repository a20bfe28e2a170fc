//! `ddr-benchmark`: one named workload per process, measured end to end
//! (`--trace 0`) or layer by layer (`--trace 1`). See `README.md`.

mod check;
mod compare;
mod declared;
mod micro;
mod names;
mod output;
mod procfs;
mod relay;
mod runner;
mod serve_workload;
mod sim_workloads;
mod stats;
mod trace;
mod yardstick;

use runner::Budget;
use sim_workloads::Size;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  ddr-benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
                [--trace-out DIR] [--record FILE]
  ddr-benchmark --check [--seed S] [--trace-out DIR]
  ddr-benchmark --list
  ddr-benchmark compare A.jsonl B.jsonl";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    trace_out: PathBuf,
    record: Option<PathBuf>,
    check: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: None,
        traced: false,
        trace_out: PathBuf::from("benchmark/out"),
        record: None,
        check: false,
        list: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => out.trace_out = PathBuf::from(value()?),
            "--record" => out.record = Some(PathBuf::from(value()?)),
            "--check" => out.check = true,
            "--list" => out.list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn write_file(path: &Path, contents: &str, append: bool) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    file.write_all(contents.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes exactly two result files".into());
    };
    let load = |path: &String| {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_records(&src).map_err(|e| format!("{path}: {e}"))
    };
    let comparison = compare::compare(&declared::load(), &load(a)?, &load(b)?);
    print!("{}", comparison.table);
    Ok(if comparison.acceptable {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    let seconds = args.seconds.unwrap_or_else(|| declared::load().run_seconds);
    let budget = Budget {
        seconds,
        size: Size::Full,
    };
    std::fs::create_dir_all(&args.trace_out)
        .map_err(|e| format!("{}: {e}", args.trace_out.display()))?;
    let result = runner::run(workload, args.seed, args.traced, budget, &args.trace_out)
        .ok_or_else(|| format!("unknown workload `{workload}` (try --list)"))?;

    if args.traced {
        let path = args
            .trace_out
            .join(format!("{workload}.seed{}.trace.jsonl", args.seed));
        write_file(&path, &result.trace_jsonl, false)?;
    }
    if let Some(path) = &args.record {
        let mut line = output::record_json(workload, args.seed, args.traced, &result);
        line.push('\n');
        write_file(path, &line, true)?;
    }
    let header = format!(
        "ddr-benchmark workload={workload} seed={} trace={} seconds={seconds} cores={}",
        args.seed,
        args.traced as u8,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    print!("{}", output::human(&header, &result, args.traced));
    println!("{}", output::driver_json(&result, args.traced));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        parse_args(&args).and_then(|args| {
            if args.list {
                for w in names::WORKLOADS {
                    println!("{w}");
                }
                Ok(ExitCode::SUCCESS)
            } else if args.check {
                match check::run(args.seed, &args.trace_out) {
                    Ok(()) => {
                        println!("check passed");
                        Ok(ExitCode::SUCCESS)
                    }
                    Err(problems) => Err(problems.join("\n")),
                }
            } else {
                run_workload(&args)
            }
        })
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
