//! Centralized command-line parsing for every experiment entry point.
//!
//! One flag grammar serves every experiment behind the `ddr` CLI; the
//! full text is `ddr run --help` (`cli.rs`), and each flag lands in the
//! [`ExpOptions`] field that documents it. `--trace`, `--metrics` and
//! `--profile` work on every experiment; `--shards` on every one whose
//! registry entry is `shardable`.
//!
//! Parsing is a pure function ([`ExpOptions::parse`]) returning
//! [`CliError`] on bad input; `cli::ddr_main` maps that onto usage plus
//! exit status 2 — never a panic.

use ddr_gnutella::{Mode, ScenarioConfig};
use ddr_stats::Table;
use ddr_telemetry::TelemetryConfig;
use ddr_workload::WorkloadConfig;
use std::path::PathBuf;

/// Why parsing failed (or stopped) — surfaced verbatim in usage output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A value-taking flag appeared last: `--scale` with nothing after it.
    MissingValue(String),
    /// A value did not parse or broke the flag's rule: flag name,
    /// offending text, the rule.
    BadValue(String, String, &'static str),
    /// A flag nobody recognises.
    UnknownFlag(String),
    /// Two flags that cannot be combined; the text says which and why.
    Conflict(&'static str),
    /// `--help`/`-h`: not an error, but parsing stops.
    Help,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            CliError::BadValue(flag, v, rule) => {
                write!(f, "bad value for {flag}: {v:?} (must be {rule})")
            }
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::Conflict(why) => write!(f, "{why}"),
            CliError::Help => write!(f, "help requested"),
        }
    }
}

/// The flag summary printed on `--help` and on parse errors.
pub const USAGE: &str = "options: --scale N  --hours H  --seed S  --csv DIR  --smoke  \
     --trace FILE  --trace-sample N  --metrics FILE  --profile  \
     --threads N  --shards N  (-h for help)";

/// The value after `flag`, parsed and range-checked: the one place both
/// flag grammars (`ddr run`, `ddr serve`) turn text into a number or
/// path, so a missing, unparsable or out-of-range value is always the
/// same [`CliError`]. `rule` says in words what `in_range` accepts; the
/// diagnosis quotes it.
pub(crate) fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    rule: &'static str,
    in_range: impl FnOnce(&T) -> bool,
) -> Result<T, CliError> {
    let v = args
        .next()
        .ok_or_else(|| CliError::MissingValue(flag.into()))?;
    match v.parse::<T>() {
        Ok(parsed) if in_range(&parsed) => Ok(parsed),
        _ => Err(CliError::BadValue(flag.into(), v, rule)),
    }
}

const AT_LEAST_ONE: &str = "an integer >= 1";

/// Command-line options shared by all experiment entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpOptions {
    /// Scale divisor for users/songs (1 = paper scale).
    pub scale: u32,
    /// Simulated hours (96 = paper).
    pub hours: u64,
    /// Root seed override.
    pub seed: Option<u64>,
    /// Directory for CSV and report JSON output, if requested.
    pub csv_dir: Option<PathBuf>,
    /// CI smoke mode: shrink every world so the run takes seconds.
    pub smoke: bool,
    /// Whether `--scale` was given explicitly (experiments with their own
    /// unattended defaults only retune when it was not).
    pub scale_explicit: bool,
    /// Whether `--hours` was given explicitly.
    pub hours_explicit: bool,
    /// JSONL trace output path: compile the trace sink in and write
    /// sampled query-lifecycle spans there.
    pub trace: Option<PathBuf>,
    /// Trace the queries of every Nth node (1 = all). Meaningful only
    /// with `--trace`.
    pub trace_sample: u64,
    /// JSONL metrics timeline output path: sample windowed system
    /// metrics (hits/h, messages, online population, queue depths)
    /// there. Independent of `--trace`.
    pub metrics: Option<PathBuf>,
    /// Profile the event kernel (per-event-type dispatch timing + queue
    /// occupancy) and print the report after the run.
    pub profile: bool,
    /// Worker-thread cap for sweep fan-out (and the serve backend's
    /// shard count). `None` means one per core.
    pub threads: Option<usize>,
    /// Shard count for Gnutella worlds on the conservative parallel
    /// kernel. `None` means the serial kernel. The Gnutella slice world
    /// produces bit-identical output either way and at any shard count
    /// (DESIGN.md §12); the `ddr run` subcommand rejects the flag for
    /// experiments that are not `shardable` rather than silently ignoring
    /// it.
    pub shards: Option<usize>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 1,
            hours: 96,
            seed: None,
            csv_dir: None,
            smoke: false,
            scale_explicit: false,
            hours_explicit: false,
            trace: None,
            trace_sample: 1,
            metrics: None,
            profile: false,
            threads: None,
            shards: None,
        }
    }
}

impl ExpOptions {
    /// Parse a flag stream. Returns the options plus any positional
    /// (non-flag) tokens in input order — the `ddr` CLI reads experiment
    /// names from them.
    pub fn parse<I>(args: I) -> Result<(Self, Vec<String>), CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = ExpOptions::default();
        let mut positional = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let args = &mut args;
            match arg.as_str() {
                "--scale" => {
                    opts.scale = flag_value(
                        args,
                        &arg,
                        "a divisor of the paper's 2000 users that leaves room for a library: \
                         1, 2, 4, 5, 8, 10, 16, 20, 25, 40, 50, 80, 100, 125, 200, 250, 400, 500 \
                         or 1000",
                        |&n| WorkloadConfig::try_paper_scaled(n).is_ok(),
                    )?;
                    opts.scale_explicit = true;
                }
                "--hours" => {
                    opts.hours = flag_value(
                        args,
                        &arg,
                        "an integer >= 2: one warm-up hour before one measured hour",
                        |&n| n >= 2,
                    )?;
                    opts.hours_explicit = true;
                }
                "--seed" => opts.seed = Some(flag_value(args, &arg, "an integer", |_| true)?),
                "--csv" => opts.csv_dir = Some(flag_value(args, &arg, "a path", |_| true)?),
                "--smoke" => opts.smoke = true,
                "--trace" => opts.trace = Some(flag_value(args, &arg, "a path", |_| true)?),
                "--metrics" => opts.metrics = Some(flag_value(args, &arg, "a path", |_| true)?),
                "--trace-sample" => {
                    opts.trace_sample = flag_value(args, &arg, AT_LEAST_ONE, |&n| n >= 1)?
                }
                "--profile" => opts.profile = true,
                "--threads" => {
                    opts.threads = Some(flag_value(args, &arg, AT_LEAST_ONE, |&n| n >= 1)?)
                }
                "--shards" => {
                    opts.shards = Some(flag_value(args, &arg, AT_LEAST_ONE, |&n| n >= 1)?)
                }
                "--help" | "-h" => return Err(CliError::Help),
                flag if flag.starts_with('-') => return Err(CliError::UnknownFlag(flag.into())),
                _ => positional.push(arg),
            }
        }
        Ok((opts, positional))
    }

    /// Apply an experiment's unattended default tuning: when the user gave
    /// neither `--scale` nor `--hours`, substitute the experiment's own
    /// fast defaults (the long-running suites run at scale 4 / 48 h unless
    /// asked for paper scale explicitly).
    pub fn tuned(mut self, scale: u32, hours: u64) -> Self {
        if !self.scale_explicit && !self.hours_explicit {
            self.scale = scale;
            self.hours = hours;
        }
        self
    }

    /// The worker-thread count every sweep fans out to: the `--threads`
    /// cap when given, otherwise one per core.
    pub fn workers(&self) -> usize {
        ddr_sim::resolve_workers(self.threads)
    }

    /// The telemetry settings these options imply for one run, labelled
    /// so records from parallel runs sharing a trace file stay separable.
    pub fn telemetry_for(&self, run_label: &'static str) -> TelemetryConfig {
        TelemetryConfig {
            trace_path: self.trace.clone(),
            sample: self.trace_sample,
            run_label,
            metrics_path: self.metrics.clone(),
        }
    }

    /// Build a Gnutella scenario configuration under these options.
    pub fn scenario(&self, mode: Mode, hops: u8) -> ScenarioConfig {
        let mut c = if self.scale == 1 {
            let mut c = ScenarioConfig::paper(mode, hops);
            c.sim_hours = self.hours;
            c.warmup_hours = c.warmup_hours.min(self.hours.saturating_sub(1)).max(1);
            c
        } else {
            ScenarioConfig::scaled(mode, hops, self.scale, self.hours)
        };
        if let Some(seed) = self.seed {
            c.seed = seed;
        }
        c.telemetry = self.telemetry_for(mode.label());
        c
    }

    /// Create the `--csv` directory and the `--trace` /
    /// `--metrics` files, so an unwritable path fails with a diagnosis
    /// before the first experiment runs instead of after the last one.
    pub fn prepare_outputs(&self) -> Result<(), String> {
        if let Some(dir) = &self.csv_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create directory {}: {e}", dir.display()))?;
        }
        create_files(&[&self.trace, &self.metrics])
    }

    /// Write `table` as CSV into the csv dir (if configured; the CLI has
    /// created it — see [`prepare_outputs`](Self::prepare_outputs)).
    pub fn write_csv(&self, name: &str, table: &Table) {
        if let Some(dir) = &self.csv_dir {
            write_file(&dir.join(format!("{name}.csv")), &table.to_csv());
        }
    }

    /// Write any serialisable value as pretty JSON into the csv dir — used
    /// to archive full run reports next to the table CSVs.
    pub fn write_json<T: serde::Serialize>(&self, name: &str, value: &T) {
        if let Some(dir) = &self.csv_dir {
            let json = serde_json::to_string_pretty(value).expect("reports serialise");
            write_file(&dir.join(format!("{name}.json")), &json);
        }
    }
}

/// Create (or truncate) each given file: an unwritable `--trace` /
/// `--metrics` path fails here, in `ddr run` and `ddr serve` alike.
pub(crate) fn create_files(files: &[&Option<PathBuf>]) -> Result<(), String> {
    for file in files.iter().copied().flatten() {
        std::fs::File::create(file).map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    }
    Ok(())
}

fn write_file(path: &std::path::Path, contents: &str) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(ExpOptions, Vec<String>), CliError> {
        ExpOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_hold_with_no_args() {
        let (o, pos) = parse(&[]).unwrap();
        assert_eq!(o.scale, 1);
        assert_eq!(o.hours, 96);
        assert!(o.seed.is_none() && o.csv_dir.is_none());
        assert!(!o.smoke && !o.scale_explicit && !o.hours_explicit);
        assert!(o.trace.is_none() && !o.profile);
        assert_eq!(o.trace_sample, 1);
        assert!(pos.is_empty());
    }

    #[test]
    fn trace_flags_parse_and_stamp_the_scenario() {
        let (o, _) = parse(&[
            "--trace",
            "/tmp/t.jsonl",
            "--trace-sample",
            "8",
            "--profile",
        ])
        .unwrap();
        assert_eq!(
            o.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert_eq!(o.trace_sample, 8);
        assert!(o.profile);
        let c = o.scenario(Mode::Dynamic, 2);
        assert_eq!(
            c.telemetry.trace_path.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert_eq!(c.telemetry.sample, 8);
        assert_eq!(c.telemetry.run_label, Mode::Dynamic.label());
    }

    #[test]
    fn threads_cap_workers() {
        let (o, _) = parse(&["--threads", "3"]).unwrap();
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.workers(), 3);
        let (o, _) = parse(&[]).unwrap();
        assert_eq!(o.threads, None);
        assert!(o.workers() >= 1, "default must be at least one worker");
    }

    #[test]
    fn shards_parse_default_to_serial_and_combine_with_trace() {
        let (o, _) = parse(&["--shards", "4"]).unwrap();
        assert_eq!(o.shards, Some(4));
        let (o, _) = parse(&[]).unwrap();
        assert_eq!(o.shards, None, "default is the serial kernel");
        let (o, _) = parse(&["--shards", "2", "--trace", "t.jsonl"]).unwrap();
        assert_eq!((o.shards, o.trace.is_some()), (Some(2), true));
    }

    #[test]
    fn full_flag_set_parses() {
        let (o, pos) = parse(&[
            "--scale", "10", "--hours", "12", "--seed", "7", "--csv", "out", "--smoke",
        ])
        .unwrap();
        assert_eq!(o.scale, 10);
        assert_eq!(o.hours, 12);
        assert_eq!(o.seed, Some(7));
        assert_eq!(o.csv_dir.as_deref(), Some(std::path::Path::new("out")));
        assert!(o.smoke && o.scale_explicit && o.hours_explicit);
        assert!(pos.is_empty());
    }

    #[test]
    fn missing_value_is_an_error_not_a_panic() {
        assert_eq!(
            parse(&["--scale"]),
            Err(CliError::MissingValue("--scale".into()))
        );
        assert_eq!(
            parse(&["--hours", "6", "--seed"]),
            Err(CliError::MissingValue("--seed".into()))
        );
    }

    #[test]
    fn bad_value_names_the_flag_the_value_and_the_rule() {
        // One row per way a value can be unparsable or out of range.
        for (flag, bad) in [
            ("--hours", "six"),
            ("--hours", "0"),
            // One hour leaves no measured hour after the warm-up hour.
            ("--hours", "1"),
            ("--scale", "0"),
            ("--scale", "-1"),
            // Non-divisors of 2,000 users; 2000 divides users and songs but
            // leaves two songs per category, too few for any library.
            ("--scale", "3"),
            ("--scale", "7"),
            ("--scale", "32"),
            ("--scale", "2000"),
            ("--scale", "2001"),
            ("--trace-sample", "0"),
            ("--trace-sample", "many"),
            ("--threads", "0"),
            ("--threads", "lots"),
            ("--shards", "0"),
        ] {
            let Err(e @ CliError::BadValue(..)) = parse(&[flag, bad]) else {
                panic!("{flag} {bad} was accepted");
            };
            let said = e.to_string();
            assert!(
                said.contains(flag)
                    && said.contains(&format!("{bad:?}"))
                    && said.contains("must be"),
                "{flag} {bad}: {said}"
            );
        }
    }

    #[test]
    fn boundary_values_still_parse() {
        for (flag, ok) in [
            ("--hours", "2"),
            ("--scale", "1"),
            ("--scale", "100"),
            ("--scale", "1000"),
        ] {
            assert!(parse(&[flag, ok]).is_ok(), "{flag} {ok}");
        }
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            parse(&["--frobnicate"]),
            Err(CliError::UnknownFlag("--frobnicate".into()))
        );
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]), Err(CliError::Help));
        assert_eq!(parse(&["-h"]), Err(CliError::Help));
    }

    #[test]
    fn positionals_pass_through_in_order() {
        let (o, pos) = parse(&["fig1", "--scale", "4", "fig2"]).unwrap();
        assert_eq!(pos, vec!["fig1".to_string(), "fig2".to_string()]);
        assert_eq!(o.scale, 4);
    }

    #[test]
    fn tuned_yields_to_explicit_flags() {
        let (o, _) = parse(&[]).unwrap();
        let o = o.tuned(4, 48);
        assert_eq!((o.scale, o.hours), (4, 48));
        let (o, _) = parse(&["--scale", "2"]).unwrap();
        let o = o.tuned(4, 48);
        assert_eq!((o.scale, o.hours), (2, 96), "explicit scale blocks retune");
        let (o, _) = parse(&["--hours", "10"]).unwrap();
        let o = o.tuned(4, 48);
        assert_eq!((o.scale, o.hours), (1, 10), "explicit hours blocks retune");
    }
}
