//! Entry-point plumbing: the `ddr` multi-experiment CLI over the
//! [`mod@crate::registry`].

use crate::emit::Emitter;
use crate::opts::{CliError, ExpOptions, USAGE};
use crate::registry::{find, registry};

const DDR_USAGE: &str = "\
usage:
  ddr list                     enumerate experiments
  ddr run <name>... [flags]    run the named experiments
  ddr run --all [flags]        run every experiment
  ddr inspect <file.jsonl>     summarize a query trace (hop depth, funnel,
                               slowest queries, record breakdown) or a
                               metrics timeline (per-window table, anomaly
                               flags) — the file kind is sniffed
  ddr serve gnutella [flags]   real-time load test: shard the node fleet
                               across threads, inject queries at a target
                               rate, report qps/core and p50/p99 latency
                               (`ddr serve gnutella --help` for flags)

host-time measurement lives in benchmark/ (see benchmark/README.md).

flags (shared by every experiment):
  --scale N         divide users & songs by N (default 1 = paper scale;
                    N divides 2000 and is below it)
  --hours H         simulated horizon, >= 2 (default 96)
  --seed S          root seed override
  --csv DIR         also write table CSVs and report JSON into DIR
  --smoke           seconds-long CI configuration
  --trace FILE      write sampled query-lifecycle spans as JSONL to FILE
  --trace-sample N  trace the queries of every Nth node (default 1 = all)
  --profile         print a kernel dispatch/queue report after the run
                    (with --shards: per-shard work/barrier/merge
                    wall-clock breakdown)
  --metrics FILE    append per-window metrics timeline JSONL to FILE
                    (hourly snapshots; `ddr inspect FILE` renders them)
  --threads N       cap sweep worker fan-out (default: one per core)
  --shards N        run every Gnutella world on the parallel kernel over
                    N node slices (absent = the serial kernel; output is
                    byte-identical either way)

--trace, --metrics and --profile work on every experiment. --shards is
rejected (exit 2) for webcache_eval, peerolap_eval and exploration_sweep
(serial-kernel worlds) and for strategies (its local-indices rows need
the full-range world). A traced run writes the same records at any
--shards. An output path that cannot be written also exits 2, before
anything runs.";

/// `ddr run`'s flag grammar: `--all` anywhere, then [`ExpOptions::parse`]'s.
fn parse_run(rest: Vec<String>) -> Result<(bool, ExpOptions, Vec<String>), CliError> {
    let all = rest.iter().any(|a| a == "--all");
    let (opts, names) = ExpOptions::parse(rest.into_iter().filter(|a| a != "--all"))?;
    Ok((all, opts, names))
}

/// The `ddr` binary, minus process concerns: parse `args` (everything
/// after the program name) and return the exit code.
pub fn ddr_main(args: Vec<String>) -> i32 {
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("list") => {
            for e in registry() {
                println!("{:<18} {}", e.name, e.description);
            }
            0
        }
        Some("run") => {
            let (all, opts, names) = match parse_run(args.collect()) {
                Ok(parsed) => parsed,
                Err(CliError::Help) => {
                    eprintln!("{DDR_USAGE}");
                    return 0;
                }
                Err(e) => {
                    eprintln!("{e}");
                    eprintln!("{USAGE}");
                    return 2;
                }
            };
            let selected: Vec<_> = if all {
                if !names.is_empty() {
                    eprintln!("--all and explicit names are mutually exclusive");
                    return 2;
                }
                registry()
            } else {
                if names.is_empty() {
                    eprintln!("no experiment named; try `ddr list` or `ddr run --all`");
                    return 2;
                }
                let mut sel = Vec::new();
                for name in &names {
                    match find(name) {
                        Some(e) => sel.push(e),
                        None => {
                            eprintln!("unknown experiment {name:?}; `ddr list` shows the names");
                            return 2;
                        }
                    }
                }
                sel
            };
            if opts.shards.is_some() {
                if let Some(e) = selected.iter().find(|e| !e.shardable) {
                    let shardable: Vec<&str> = registry()
                        .iter()
                        .filter(|e| e.shardable)
                        .map(|e| e.name)
                        .collect();
                    eprintln!(
                        "--shards: {:?} runs on the serial kernel only; shardable experiments: {}",
                        e.name,
                        shardable.join(", ")
                    );
                    eprintln!("{USAGE}");
                    return 2;
                }
            }
            if let Err(e) = opts.prepare_outputs() {
                eprintln!("{e}");
                return 2;
            }
            for e in selected {
                eprintln!("{}", crate::banner(e.name, &opts));
                let mut em = Emitter::stdout();
                (e.run)(&opts, &mut em);
            }
            0
        }
        Some("serve") => crate::serve::serve_main(args.collect()),
        Some("inspect") => {
            let rest: Vec<String> = args.collect();
            match rest.as_slice() {
                [path] if !path.starts_with('-') => match inspect_file(path) {
                    Ok(rendered) => {
                        print!("{rendered}");
                        0
                    }
                    Err(e) => {
                        eprintln!("inspect: {e}");
                        2
                    }
                },
                [flag] if flag == "--help" || flag == "-h" => {
                    eprintln!("{DDR_USAGE}");
                    0
                }
                _ => {
                    eprintln!("inspect takes exactly one trace file");
                    eprintln!("{DDR_USAGE}");
                    2
                }
            }
        }
        Some("--help") | Some("-h") => {
            eprintln!("{DDR_USAGE}");
            0
        }
        None => {
            eprintln!("{DDR_USAGE}");
            2
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}");
            eprintln!("{DDR_USAGE}");
            2
        }
    }
}

/// `ddr inspect` body: sniff whether `path` is a metrics timeline or a
/// query trace and render the matching summary. Both summarisers read
/// the whole file anyway, so the sniff reads it once up front.
fn inspect_file(path: &str) -> Result<String, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if ddr_telemetry::is_timeline(&src) {
        Ok(ddr_telemetry::summarize_timeline(&src)?.render())
    } else {
        Ok(ddr_telemetry::summarize(&src)?.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn list_succeeds() {
        assert_eq!(ddr_main(argv(&["list"])), 0);
    }

    #[test]
    fn run_without_names_fails() {
        assert_eq!(ddr_main(argv(&["run"])), 2);
    }

    #[test]
    fn unknown_subcommand_fails() {
        assert_eq!(ddr_main(argv(&["frobnicate"])), 2);
    }

    #[test]
    fn unknown_experiment_fails() {
        assert_eq!(ddr_main(argv(&["run", "no_such_experiment"])), 2);
    }

    #[test]
    fn bad_flag_fails_with_two() {
        assert_eq!(ddr_main(argv(&["run", "fig1", "--bogus"])), 2);
        assert_eq!(ddr_main(argv(&["run", "fig1", "--scale"])), 2);
        // Degenerate sizes must take the usage path, not abort on an
        // assertion deep inside world construction.
        assert_eq!(ddr_main(argv(&["run", "fig1", "--scale", "0"])), 2);
        assert_eq!(ddr_main(argv(&["run", "fig1", "--hours", "0"])), 2);
        assert_eq!(
            ddr_main(argv(&["run", "webcache_eval", "--hours", "0", "--smoke"])),
            2
        );
        // Values that parse but have no world: no measured hour after the
        // warm-up hour; scales the 2,000-user workload does not divide by
        // (or, at 2000, that leave no room for a library).
        for args in [
            &["run", "fig1", "--hours", "1"][..],
            &["run", "peerolap_eval", "--hours", "1"],
            &["run", "fig1", "--hours", "2", "--scale", "3"],
            &["run", "fig1", "--hours", "2", "--scale", "2000"],
        ] {
            assert_eq!(ddr_main(argv(args)), 2, "{args:?}");
        }
    }

    #[test]
    fn unwritable_output_paths_exit_two_before_running() {
        // `/proc` accepts neither new directories nor new files, so each
        // flag fails in `prepare_outputs`; nothing has run by then (a
        // paper-scale fig3b would take minutes, this returns at once).
        for flag in ["--csv", "--trace", "--metrics"] {
            let code = ddr_main(argv(&["run", "fig3b", flag, "/proc/nope"]));
            assert_eq!(code, 2, "{flag} /proc/nope");
        }
    }

    #[test]
    fn every_usage_flag_parses_and_removed_flags_are_unknown() {
        use crate::serve::{parse_serve_args, SERVE_USAGE};
        // A parser's verdict on one flag list: accepted (`--help` only
        // stops parsing) or the diagnosis.
        fn verdict<T>(parsed: Result<T, CliError>) -> Result<(), String> {
            match parsed {
                Ok(_) | Err(CliError::Help) => Ok(()),
                Err(e) => Err(e.to_string()),
            }
        }
        type Parser = fn(Vec<String>) -> Result<(), String>;
        let run: Parser = |args| verdict(parse_run(args));
        let serve: Parser = |args| verdict(parse_serve_args(args));
        // A floor per usage, so a split that finds no flags fails: `ddr
        // serve` lists nine since `--monitor-interval` became a rule over
        // `--duration`.
        for (usage, parser, at_least) in [
            (USAGE, run, 10),
            (DDR_USAGE, run, 10),
            (SERVE_USAGE, serve, 9),
        ] {
            let flags: Vec<&str> = usage
                .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .filter(|w| w.starts_with("--") && w.len() > 2)
                .collect();
            assert!(flags.len() >= at_least, "{flags:?}");
            // Bare, or with "2": a valid count, rate, duration, seed, port
            // and path alike.
            for flag in flags {
                let accepted = [&[flag][..], &[flag, "2"]].map(|a| parser(argv(a)));
                assert!(accepted.contains(&Ok(())), "{flag}: {accepted:?}");
            }
        }

        // Flags whose one value became a constant fail loudly, so an old
        // script does not run with a value it no longer gets.
        for args in [
            ["run", "flash_crowd", "--spike-boost", "0.8"],
            ["run", "heavy_churn", "--pareto-shape", "1.5"],
            ["run", "free_riders", "--liar-fraction", "0.15"],
            ["run", "partition_heal", "--islands", "3"],
            ["run", "fig1", "--json", "out"],
            ["serve", "gnutella", "--degree", "4"],
            ["serve", "gnutella", "--monitor-interval", "250"],
        ] {
            let parser = if args[0] == "run" { run } else { serve };
            let said = format!("unknown flag {}", args[2]);
            assert_eq!(parser(argv(&args[2..])), Err(said), "{args:?}");
            assert_eq!(ddr_main(argv(&args)), 2, "{args:?}");
        }
    }

    #[test]
    fn all_conflicts_with_names() {
        assert_eq!(ddr_main(argv(&["run", "--all", "fig1"])), 2);
    }

    #[test]
    fn shards_rejected_for_unshardable_experiments() {
        // Rejection happens before anything runs, so these are instant.
        assert_eq!(ddr_main(argv(&["run", "strategies", "--shards", "2"])), 2);
        assert_eq!(
            ddr_main(argv(&["run", "webcache_eval", "--shards", "2"])),
            2
        );
        // --all includes serial-kernel experiments, so it conflicts too.
        assert_eq!(ddr_main(argv(&["run", "--all", "--shards", "2"])), 2);
        // A shardable experiment mixed with a serial-world one still fails.
        assert_eq!(
            ddr_main(argv(&["run", "fig1", "peerolap_eval", "--shards", "2"])),
            2
        );
    }

    #[test]
    fn inspect_rejects_missing_or_extra_arguments() {
        assert_eq!(ddr_main(argv(&["inspect"])), 2);
        assert_eq!(ddr_main(argv(&["inspect", "a.jsonl", "b.jsonl"])), 2);
        assert_eq!(ddr_main(argv(&["inspect", "--bogus"])), 2);
    }

    #[test]
    fn inspect_fails_cleanly_on_unreadable_file() {
        assert_eq!(
            ddr_main(argv(&["inspect", "/no/such/dir/trace.jsonl"])),
            2,
            "missing file must exit 2, not panic"
        );
    }

    #[test]
    fn inspect_help_exits_zero() {
        assert_eq!(ddr_main(argv(&["inspect", "--help"])), 0);
    }

    #[test]
    fn serve_subcommand_routes_through_ddr() {
        assert_eq!(ddr_main(argv(&["serve"])), 2, "scenario required");
        assert_eq!(ddr_main(argv(&["serve", "gnutella", "--bogus"])), 2);
        assert_eq!(ddr_main(argv(&["serve", "gnutella", "--help"])), 0);
    }

    #[test]
    fn inspect_summarizes_a_metrics_timeline() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ddr-cli-timeline-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            concat!(
                "{\"v\":1,\"type\":\"window\",\"run\":\"T\",\"t\":1000,\"counters\":{\"hits\":3},\"gauges\":{\"online\":9}}\n",
                "{\"v\":1,\"type\":\"window\",\"run\":\"T\",\"t\":2000,\"counters\":{\"hits\":4},\"gauges\":{\"online\":9}}\n",
            ),
        )
        .expect("write timeline fixture into the temp dir");
        let code = ddr_main(argv(&[
            "inspect",
            path.to_str().expect("temp path is valid UTF-8"),
        ]));
        std::fs::remove_file(&path).ok();
        assert_eq!(
            code, 0,
            "timeline files must route to the timeline summariser"
        );
    }

    #[test]
    fn profiled_and_metered_serial_run_writes_a_timeline_inspect_accepts() {
        // Probing and hourly sampling compose on the one serial driver:
        // `--profile` no longer silences `--metrics`.
        let path = std::env::temp_dir().join(format!(
            "ddr-cli-webcache-timeline-{}.jsonl",
            std::process::id()
        ));
        let file = path.to_str().expect("temp path is valid UTF-8");
        let run = [
            "run",
            "webcache_eval",
            "--smoke",
            "--profile",
            "--metrics",
            file,
        ];
        assert_eq!(ddr_main(argv(&run)), 0);
        let written = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let inspected = ddr_main(argv(&["inspect", file]));
        std::fs::remove_file(&path).ok();
        assert!(written > 0, "--profile --metrics wrote no timeline");
        assert_eq!(inspected, 0, "ddr inspect rejected the timeline");
    }

    #[test]
    fn inspect_summarizes_a_valid_trace() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ddr-cli-inspect-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            concat!(
                "{\"v\":1,\"type\":\"issue\",\"run\":\"t\",\"t\":0,\"q\":0,\"node\":1,\"item\":5,\"ttl\":2}\n",
                "{\"v\":1,\"type\":\"end\",\"run\":\"t\",\"t\":90,\"q\":0,\"outcome\":\"hit\",\"results\":1,\"latency_ms\":90.0}\n",
            ),
        )
        .expect("write trace fixture into the temp dir");
        let code = ddr_main(argv(&[
            "inspect",
            path.to_str().expect("temp path is valid UTF-8"),
        ]));
        std::fs::remove_file(&path).ok();
        assert_eq!(code, 0);
    }
}
