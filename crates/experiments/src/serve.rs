//! `ddr serve` — the real-time load-generator entry point.
//!
//! Where `ddr run` replays the paper's figures in virtual time, `ddr
//! serve` stands the same `GnutellaWorld` handlers up on the `ddr-serve`
//! bus and measures what this machine sustains under wall-clock load:
//!
//! ```text
//! ddr serve gnutella --nodes N --qps Q --duration S
//!           [--threads N] [--seed S] [--smoke]
//!           [--trace FILE] [--metrics FILE] [--metrics-port P]
//! ```
//!
//! The fleet's shape is not a flag: its overlay degree is the paper's 4
//! and its hop limit 2 (`NodeSetConfig::scenario`). `--threads` is the
//! shard count (defaults to one per core, the same cap `ExpOptions::workers`
//! applies to sweeps). `--smoke` shortens the per-query collection window
//! to 500 ms so the post-injection drain phase stays CI-sized. The run
//! prints its throughput and latency figures; recording them over time is
//! the `serve_open_30k` workload's job (`benchmark/README.md`).

use ddr_gnutella::NodeSetConfig;
use ddr_serve::{drain_deadline, run_gnutella, run_gnutella_traced, ServeConfig, ServeReport};
use ddr_sim::{Partition, SimDuration};
use ddr_telemetry::TelemetryConfig;
use std::path::PathBuf;

use crate::opts::{create_files, flag_value, CliError};

/// The flag summary printed on `--help` and parse errors.
pub const SERVE_USAGE: &str = "\
usage: ddr serve gnutella [flags]
  --nodes N        fleet size (default 200)
  --qps Q          offered load, queries/sec across the fleet (default 50)
  --duration S     injection window, wall seconds (default 2)
  --threads N      shard / worker-thread count (default: one per core)
  --seed S         master seed for topology+workload (default 1)
  --smoke          500 ms collection window so the drain phase stays short
  --trace FILE     write query spans as JSONL (ddr inspect reads it), at any shard count
  --metrics FILE   monitor thread writes windowed timeline JSONL to FILE
  --metrics-port P serve the monitor's latest pass on 127.0.0.1:P
                   (/metrics: Prometheus text; any other path: JSON)";

/// Parsed `ddr serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    pub nodes: usize,
    pub qps: f64,
    pub duration_s: f64,
    pub threads: Option<usize>,
    pub seed: u64,
    pub smoke: bool,
    pub trace: Option<PathBuf>,
    pub metrics: Option<PathBuf>,
    pub metrics_port: Option<u16>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            nodes: 200,
            qps: 50.0,
            duration_s: 2.0,
            threads: None,
            seed: 1,
            smoke: false,
            trace: None,
            metrics: None,
            metrics_port: None,
        }
    }
}

const POSITIVE_INT: &str = "an integer > 0";

/// Parse everything after `ddr serve <scenario>`. Pure; the caller maps
/// [`CliError`] onto usage + exit code 2.
pub fn parse_serve_args<I>(args: I) -> Result<ServeArgs, CliError>
where
    I: IntoIterator<Item = String>,
{
    let mut out = ServeArgs::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--nodes" => out.nodes = flag_value(args, &arg, POSITIVE_INT, |&n| n > 0)?,
            "--qps" => {
                out.qps = flag_value(args, &arg, "a finite number > 0", |q: &f64| {
                    q.is_finite() && *q > 0.0
                })?
            }
            "--duration" => {
                // The bus stops a collection window and a grace past the
                // injection window. Checked against the default window,
                // the longer of the two `--smoke` picks between (it may
                // follow `--duration`).
                let window = NodeSetConfig::new(1, 0).query_timeout;
                let rule = "a finite number > 0 whose drain deadline fits in u64 milliseconds";
                out.duration_s = flag_value(args, &arg, rule, |&s| {
                    s > 0.0 && drain_deadline(s, window).is_some()
                })?
            }
            "--threads" => out.threads = Some(flag_value(args, &arg, POSITIVE_INT, |&n| n > 0)?),
            "--seed" => out.seed = flag_value(args, &arg, "an integer", |_| true)?,
            "--smoke" => out.smoke = true,
            "--trace" => out.trace = Some(flag_value(args, &arg, "a path", |_| true)?),
            "--metrics" => out.metrics = Some(flag_value(args, &arg, "a path", |_| true)?),
            "--metrics-port" => {
                out.metrics_port = Some(flag_value(args, &arg, "a port, 1-65535", |&p| p > 0)?)
            }
            "--help" | "-h" => return Err(CliError::Help),
            flag if flag.starts_with('-') => return Err(CliError::UnknownFlag(flag.into())),
            other => {
                return Err(CliError::BadValue(
                    "scenario".into(),
                    other.into(),
                    "given once",
                ))
            }
        }
    }
    if !(0.0..u64::MAX as f64).contains(&(out.qps * out.duration_s)) {
        return Err(CliError::Conflict(
            "--qps × --duration is the query count, which must fit in a u64",
        ));
    }
    Ok(out)
}

/// Build the bus configuration these arguments describe.
pub fn serve_config(args: &ServeArgs) -> ServeConfig {
    let mut node_set = NodeSetConfig::new(args.nodes, args.seed);
    if args.smoke {
        node_set.query_timeout = SimDuration::from_millis(500);
    }
    // One worker per slice the bus actually runs, so the banner and the
    // report name the same count (`--nodes 1 --threads 2` is one slice).
    let workers = ddr_sim::resolve_workers(args.threads);
    let shards = Partition::contiguous(args.nodes, workers).shards();
    let mut cfg = ServeConfig::new(node_set, args.qps, args.duration_s, shards);
    cfg.telemetry = TelemetryConfig {
        trace_path: args.trace.clone(),
        sample: 1,
        run_label: "Serve",
        metrics_path: args.metrics.clone(),
    };
    cfg.metrics_port = args.metrics_port;
    cfg
}

fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.0}ms"),
        None => "-".into(),
    }
}

/// Render the report the way CI logs want to grep it.
pub fn render_report(r: &ServeReport) -> String {
    format!(
        "serve: nodes={} shards={} offered={:.0}qps window={:.1}s\n\
         serve: queries offered={} issued={} completed={} hits={}\n\
         serve: messages={} duplicates={} elapsed={:.1}s\n\
         serve: achieved={:.1} qps  per-core={:.1} qps/core  hit_rate={:.3}\n\
         serve: first-result latency p50={} p99={}",
        r.nodes,
        r.shards,
        r.offered_qps,
        r.duration_s,
        r.queries_offered,
        r.queries_issued,
        r.queries_completed,
        r.hits,
        r.messages,
        r.duplicates,
        r.elapsed_s,
        r.achieved_qps,
        r.qps_per_core,
        r.hit_rate,
        fmt_ms(r.p50_first_ms),
        fmt_ms(r.p99_first_ms),
    )
}

/// `ddr serve` body: everything after the subcommand token. Returns the
/// process exit code.
pub fn serve_main(args: Vec<String>) -> i32 {
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("gnutella") => {}
        Some("--help") | Some("-h") => {
            eprintln!("{SERVE_USAGE}");
            return 0;
        }
        Some(other) => {
            eprintln!("unknown serve scenario {other:?} (only \"gnutella\" is wired up)");
            eprintln!("{SERVE_USAGE}");
            return 2;
        }
        None => {
            eprintln!("serve needs a scenario");
            eprintln!("{SERVE_USAGE}");
            return 2;
        }
    }
    let parsed = match parse_serve_args(args) {
        Ok(parsed) => parsed,
        Err(CliError::Help) => {
            eprintln!("{SERVE_USAGE}");
            return 0;
        }
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{SERVE_USAGE}");
            return 2;
        }
    };
    if let Err(e) = create_files(&[&parsed.trace, &parsed.metrics]) {
        eprintln!("{e}");
        return 2;
    }
    let cfg = serve_config(&parsed);
    eprintln!(
        "[serve] gnutella nodes={} shards={} qps={} duration={}s seed={} smoke={}",
        cfg.node_set.nodes, cfg.shards, parsed.qps, parsed.duration_s, parsed.seed, parsed.smoke
    );
    let report = if parsed.trace.is_some() {
        run_gnutella_traced(&cfg)
    } else {
        run_gnutella(&cfg)
    };
    println!("{}", render_report(&report));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, CliError> {
        parse_serve_args(args.iter().map(|s| s.to_string()))
    }

    /// Whether `flag value` is rejected as a bad value naming both.
    fn is_bad_value(flag: &str, value: &str) -> bool {
        matches!(parse(&[flag, value]), Err(CliError::BadValue(f, v, _)) if f == flag && v == value)
    }

    #[test]
    fn defaults_and_full_flag_set() {
        let a = parse(&[]).expect("empty args use defaults");
        assert_eq!(a, ServeArgs::default());
        let a = parse(&[
            "--nodes",
            "300",
            "--qps",
            "120.5",
            "--duration",
            "3",
            "--threads",
            "4",
            "--seed",
            "9",
            "--smoke",
            "--trace",
            "t.jsonl",
        ])
        .expect("full flag set parses");
        assert_eq!(a.nodes, 300);
        assert_eq!(a.qps, 120.5);
        assert_eq!(a.duration_s, 3.0);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.seed, 9);
        assert!(a.smoke);
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("t.jsonl")));
        assert_eq!(serve_config(&a).shards, 4, "a traced run keeps its shards");
    }

    #[test]
    fn bad_values_are_errors_not_panics() {
        assert!(is_bad_value("--nodes", "0"));
        assert!(is_bad_value("--qps", "-3"));
        // Non-finite load, or a drain deadline past `SimTime`: the bus
        // would hang or flood (the shards stop at once while the
        // generator waits for `elapsed >= inf`).
        assert!(is_bad_value("--duration", "inf"));
        assert!(is_bad_value("--duration", "1e300"));
        assert!(is_bad_value("--qps", "inf"));
        assert!(matches!(
            parse(&["--qps", "1e300", "--duration", "0.2"]),
            Err(CliError::Conflict(_))
        ));
        assert_eq!(
            parse(&["--duration"]),
            Err(CliError::MissingValue("--duration".into()))
        );
        assert_eq!(
            parse(&["--warp", "9"]),
            Err(CliError::UnknownFlag("--warp".into()))
        );
        assert!(matches!(
            parse(&["extra"]),
            Err(CliError::BadValue(what, v, _)) if what == "scenario" && v == "extra"
        ));
        assert_eq!(parse(&["-h"]), Err(CliError::Help));
    }

    #[test]
    fn monitor_flags_parse_and_validate() {
        let a = parse(&[
            "--metrics",
            "/tmp/serve-timeline.jsonl",
            "--metrics-port",
            "9400",
        ])
        .expect("monitor flags parse");
        assert_eq!(
            a.metrics.as_deref(),
            Some(std::path::Path::new("/tmp/serve-timeline.jsonl"))
        );
        assert_eq!(a.metrics_port, Some(9400));
        let cfg = serve_config(&a);
        assert_eq!(cfg.metrics_port, Some(9400));

        // Out-of-range or missing values take the CliError path (usage +
        // exit 2 in serve_main), never a panic inside the bus.
        assert!(is_bad_value("--metrics-port", "0"));
        assert!(is_bad_value("--metrics-port", "99999"));
        assert_eq!(
            parse(&["--metrics-port"]),
            Err(CliError::MissingValue("--metrics-port".into()))
        );
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(serve_main(argv(&["gnutella", "--metrics-port", "0"])), 2);
    }

    #[test]
    fn smoke_shortens_the_collection_window() {
        let mut args = ServeArgs::default();
        let cfg = serve_config(&args);
        assert_eq!(cfg.node_set.query_timeout, SimDuration::from_millis(10_000));
        args.smoke = true;
        args.threads = Some(2);
        let cfg = serve_config(&args);
        assert_eq!(cfg.node_set.query_timeout, SimDuration::from_millis(500));
        assert_eq!(cfg.shards, 2);
        args.nodes = 1;
        assert_eq!(serve_config(&args).shards, 1, "one node is one slice");
    }

    #[test]
    fn serve_main_rejects_bad_invocations() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(serve_main(argv(&[])), 2, "scenario is required");
        assert_eq!(serve_main(argv(&["webcache"])), 2, "unwired scenario");
        assert_eq!(serve_main(argv(&["gnutella", "--nodes"])), 2);
        assert_eq!(serve_main(argv(&["--help"])), 0);
        assert_eq!(serve_main(argv(&["gnutella", "-h"])), 0);
    }

    /// An output path under a missing directory exits 2 before the
    /// fleet is built, as it does on `ddr run`.
    #[test]
    fn serve_main_rejects_unwritable_output_paths() {
        let missing = std::env::temp_dir().join(format!("ddr-missing-{}", std::process::id()));
        for flag in ["--trace", "--metrics"] {
            let run = "gnutella --nodes 20 --qps 10 --duration 0.2 --smoke";
            let mut args: Vec<String> = run.split(' ').map(String::from).collect();
            args.extend([flag.into(), missing.join("out.jsonl").display().to_string()]);
            assert_eq!(serve_main(args), 2, "{flag} under {}", missing.display());
        }
    }

    /// End-to-end: a tiny run through `serve_main`.
    #[test]
    fn serve_main_runs_a_tiny_fleet() {
        let args = [
            "gnutella",
            "--nodes",
            "32",
            "--qps",
            "100",
            "--duration",
            "0.4",
            "--threads",
            "2",
            "--smoke",
        ];
        let code = serve_main(args.iter().map(|s| s.to_string()).collect());
        assert_eq!(code, 0);
    }
}
