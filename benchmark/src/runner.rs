//! Turns repetitions into named metrics: the untraced run yields the
//! end-to-end metrics, the traced run the per-layer ones.

use crate::micro;
use crate::names::{handler_metric, HANDLER_LABELS};
use crate::procfs::peak_rss_mb;
use crate::serve_workload::{BusRun, ServeWorkload, SETUP_REPS};
use crate::sim_workloads::{self, Rep, RepCtx, SimWorkload, Size};
use crate::stats::{median, summarize, Summary};
use crate::trace::{LabelProbe, Tracer};
use crate::yardstick::{slowdown, Yardstick};
use ddr_sim::ShardProfile;
use std::path::Path;
use std::time::Instant;

/// Everything one invocation measured.
pub struct RunResult {
    /// No correctness check failed and the simulated statistics repeated.
    pub correct: bool,
    /// Sim: repetitions; serve: queries offered.
    pub attempted: u64,
    pub failed: u64,
    /// Metrics that apply to this workload, `(name, value)`.
    pub metrics: Vec<(String, f64)>,
    /// One line per failed check.
    pub diagnoses: Vec<String>,
    /// Spread of the per-repetition series behind a metric, for display.
    pub summaries: Vec<(String, Summary)>,
    /// Simulated statistics that must repeat exactly for one seed (absent
    /// for serve, whose arrival interleavings are wall-clock driven).
    pub events: Option<u64>,
    pub digest: Option<u64>,
    /// The traced run's JSONL (spans, hourly handler totals).
    pub trace_jsonl: String,
    /// The untraced run's host-speed adjustment, for display.
    pub host: Option<HostNote>,
}

/// How slow the yardstick found the host during an untraced run, and
/// what the adjusted metrics read before adjustment.
pub struct HostNote {
    pub slowdown: Summary,
    pub unadjusted: Vec<(&'static str, f64)>,
}

impl RunResult {
    fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }
}

/// How a run is sized: measuring time and the repetition floor.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub size: Size,
}

impl Budget {
    /// Repetitions every untraced sim run makes, however slow: a median
    /// needs three.
    fn min_reps(&self) -> usize {
        match self.size {
            Size::Full => 3,
            Size::Check => 2,
        }
    }
}

/// Run `workload`, untraced (end-to-end metrics) or traced (per-layer).
pub fn run(
    workload: &str,
    seed: u64,
    traced: bool,
    budget: Budget,
    out_dir: &Path,
) -> Option<RunResult> {
    if workload == "serve_open_30k" {
        let w = ServeWorkload::new(seed, budget.size);
        return Some(if traced {
            serve_per_layer(&w, seed, budget, out_dir)
        } else {
            serve_end_to_end(&w, budget)
        });
    }
    let w = sim_workloads::by_name(workload, seed, budget.size)?;
    Some(if traced {
        sim_per_layer(w.as_ref(), seed, out_dir)
    } else {
        sim_end_to_end(w.as_ref(), budget, out_dir)
    })
}

fn empty_result() -> RunResult {
    RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        diagnoses: Vec::new(),
        summaries: Vec::new(),
        events: None,
        digest: None,
        trace_jsonl: String::new(),
        host: None,
    }
}

/// Count failed repetitions: a rep fails its own checks, or disagrees
/// with the first rep on a simulated statistic. No value is pinned — only
/// agreement between reps of this build is asserted.
fn judge(result: &mut RunResult, reps: &[(String, Rep)]) {
    let (_, first) = &reps[0];
    for (label, rep) in reps {
        let diagnosis = rep.failure.clone().or_else(|| {
            (rep.events != first.events || rep.digest != first.digest).then(|| {
                format!(
                    "simulated statistics differ from {}: events {} vs {}, digest {:#018x} vs {:#018x}",
                    reps[0].0, rep.events, first.events, rep.digest, first.digest
                )
            })
        });
        result.attempted += 1;
        if let Some(d) = diagnosis {
            result.failed += 1;
            result.diagnoses.push(format!("{label}: {d}"));
        }
    }
    result.correct = result.failed == 0;
    result.events = Some(first.events);
    result.digest = Some(first.digest);
}

/// `setup_s` samples an untraced sim run aims for, and the host seconds
/// it may spend on set-up-only repetitions to get there.
const SETUP_SAMPLES: usize = 25;
const SETUP_ALLOWANCE_S: f64 = 0.5;

fn sim_end_to_end(w: &dyn SimWorkload, budget: Budget, out_dir: &Path) -> RunResult {
    let mut ctx = RepCtx {
        tr: &mut Tracer::new(false),
        probe: &mut LabelProbe::default(),
        out_dir,
        setup_only: false,
    };
    let kernel = w.e2e_kernel();
    let mut reps: Vec<(String, Rep)> = Vec::new();
    // One yardstick slice before each repetition and one after the last:
    // every repetition is bracketed by two.
    let yardstick = Yardstick::new();
    let mut slices = vec![yardstick.slice()];
    let start = Instant::now();
    let mut longest = 0.0f64;
    // Repetitions run back to back, each from a fresh world, for as long
    // as another one is expected to end inside the measuring time.
    while reps.len() < budget.min_reps()
        || start.elapsed().as_secs_f64() + longest <= budget.seconds
    {
        let rep_start = Instant::now();
        let rep = w.rep(kernel, &mut ctx);
        slices.push(yardstick.slice());
        longest = longest.max(rep_start.elapsed().as_secs_f64());
        reps.push((format!("rep {}", reps.len()), rep));
    }
    let slow: Vec<f64> = slices
        .windows(2)
        .map(|pair| slowdown(pair[0], pair[1]))
        .collect();
    // A set-up of a millisecond is timed too coarsely by a handful of
    // repetitions: top the samples up, inside a small time allowance.
    ctx.setup_only = true;
    let mut extra: Vec<f64> = Vec::new();
    let extra_start = Instant::now();
    while reps.len() + extra.len() < SETUP_SAMPLES
        && extra_start.elapsed().as_secs_f64() < SETUP_ALLOWANCE_S
    {
        extra.push(w.rep(kernel, &mut ctx).setup_s());
    }
    let extra_slow = slowdown(slices[slices.len() - 1], yardstick.slice());

    let mut result = empty_result();
    judge(&mut result, &reps);
    // One per-repetition series: raw host time, and divided by the
    // host's slowdown around that repetition.
    let series = |f: fn(&Rep) -> f64| -> (Vec<f64>, Vec<f64>) {
        let raw: Vec<f64> = reps.iter().map(|(_, r)| f(r)).collect();
        let adjusted = raw.iter().zip(&slow).map(|(t, f)| t / f).collect();
        (raw, adjusted)
    };
    let (raw_run, run) = series(|r| r.run_s);
    let (raw_total_ms, total_ms) = series(|r| r.total_s() * 1e3);
    let (raw_cpu, cpu) = series(|r| r.cpu_run_s);
    let (raw_setup, mut setup) = series(Rep::setup_s);
    setup.extend(extra.iter().map(|s| s / extra_slow));
    let rate = |run: &[f64]| -> Vec<f64> {
        reps.iter()
            .zip(run)
            .map(|((_, r), run_s)| r.events as f64 / run_s)
            .collect()
    };
    let rate_adjusted = rate(&run);
    let ops = reps.iter().map(|(_, r)| r.ops).sum::<u64>().max(1) as f64;
    result.push("setup_s", median(&setup));
    result.push("events_per_s", median(&rate_adjusted));
    result.push("cpu_us_per_query", cpu.iter().sum::<f64>() * 1e6 / ops);
    result.push("first_result_p50_ms", median(&total_ms));
    result.push("peak_rss_mb", peak_rss_mb());
    result.summaries = vec![
        ("setup_s".into(), summarize(&setup)),
        ("events_per_s".into(), summarize(&rate_adjusted)),
        ("first_result_p50_ms".into(), summarize(&total_ms)),
    ];
    result.host = Some(HostNote {
        slowdown: summarize(&slow),
        unadjusted: vec![
            ("setup_s", median(&raw_setup)),
            ("events_per_s", median(&rate(&raw_run))),
            ("cpu_us_per_query", raw_cpu.iter().sum::<f64>() * 1e6 / ops),
            ("first_result_p50_ms", median(&raw_total_ms)),
        ],
    });
    result
}

/// Shares of a profiled sharded run's accounted time (work, barrier,
/// stall over all lanes, plus the coordinator's merge).
struct ProfileShares {
    work: f64,
    barrier: f64,
    stall: f64,
}

fn profile_shares(p: &ShardProfile) -> ProfileShares {
    let sum = |f: fn(&ddr_sim::ShardLane) -> u64| p.lanes.iter().map(f).sum::<u64>() as f64;
    let (work, barrier, stall) = (
        sum(|l| l.work_ns),
        sum(|l| l.barrier_ns),
        sum(|l| l.stall_ns),
    );
    let total = (work + barrier + stall + p.merge_ns as f64).max(1.0);
    ProfileShares {
        work: work / total,
        barrier: barrier / total,
        stall: stall / total,
    }
}

/// The micro-ops time the lower layers on their own, so they apply to
/// every workload's traced run.
fn push_micro(result: &mut RunResult, micro: &micro::MicroOps) {
    result.push("sim.queue.hold_ns_d1k", micro.queue_hold_ns_d1k);
    result.push("sim.queue.hold_ns_d100k", micro.queue_hold_ns_d100k);
    result.push("sim.queue.overflow_share", micro.queue_overflow_share);
    result.push(
        "core.dup_cache.first_sighting_ns",
        micro.dup_cache_first_sighting_ns,
    );
    result.push("webcache.lru.touch_insert_ns", micro.lru_touch_insert_ns);
    result.push("webcache.digest.contains_ns", micro.digest_contains_ns);
    result.push("workload.next_target_ns", micro.next_target_ns);
}

fn sim_per_layer(w: &dyn SimWorkload, seed: u64, out_dir: &Path) -> RunResult {
    let mut tr = Tracer::new(true);
    let mut probe = LabelProbe::default();
    let mut ctx = RepCtx {
        tr: &mut tr,
        probe: &mut probe,
        out_dir,
        setup_only: false,
    };
    let mut reps: Vec<(String, Rep)> = Vec::new();
    for (i, kernel) in w.traced_kernels().into_iter().enumerate() {
        ctx.tr.rep = i as u32;
        let span = ctx.tr.begin(&format!("variant.{}", kernel.name()));
        let rep = w.rep(kernel, &mut ctx);
        ctx.tr.end(span);
        reps.push((kernel.name(), rep));
    }
    let span = tr.begin("micro");
    let micro = micro::run(seed, &mut tr);
    tr.end(span);

    let mut result = empty_result();
    judge(&mut result, &reps);
    let by_name = |name: &str| reps.iter().find(|(n, _)| n == name).map(|(_, r)| r);
    let ns_per_event = |r: &Rep| r.run_s * 1e9 / r.events.max(1) as f64;

    let e2e = by_name(&w.e2e_kernel().name()).expect("end-to-end kernel is traced");
    result.push("harness.build_s", e2e.build_s);
    result.push("harness.prime_s", e2e.prime_s);
    result.push("harness.extract_report_s", e2e.extract_s);
    result.push("sim.events_processed", e2e.events as f64);
    let serial = by_name("serial").expect("every workload traces the serial kernel");
    if let Some(peak) = serial.peak_pending {
        result.push("sim.peak_pending", peak as f64);
    }

    push_micro(&mut result, &micro);

    let sharded: Vec<&(String, Rep)> = reps
        .iter()
        .filter(|(n, _)| n.starts_with("sharded"))
        .collect();
    result.push("sim.serial.ns_per_event", ns_per_event(serial));
    for (name, rep) in &sharded {
        result.push(&format!("sim.{name}.ns_per_event"), ns_per_event(rep));
    }
    // Per-window cost from the one-shard run (the end-to-end layout on
    // the sharded workloads); synchronisation shares from the widest
    // variant, the only one where shards wait for each other.
    if let Some(p) = by_name("sharded1").and_then(|r| r.profile.as_ref()) {
        let windows = p.windows.max(1) as f64;
        result.push("sim.sharded.windows", p.windows as f64);
        result.push("sim.sharded.events_per_window", e2e.events as f64 / windows);
        result.push(
            "sim.sharded.merge_ns_per_window",
            p.merge_ns as f64 / windows,
        );
        result.push("sim.sharded.work_share", profile_shares(p).work);
    }
    if let Some(p) = sharded.last().and_then(|(_, r)| r.profile.as_ref()) {
        let shares = profile_shares(p);
        result.push("sim.sharded.barrier_share", shares.barrier);
        result.push("sim.sharded.stall_share", shares.stall);
        result.push(
            "sim.sharded.cross_shard_share",
            p.cross_shard_events as f64 / p.merged_events.max(1) as f64,
        );
    }

    let probed = by_name("probed").expect("every workload traces the probed kernel");
    let totals = probe.totals();
    let handler_ns: u64 = totals.iter().map(|(_, t)| t.ns).sum();
    let probed_ns = probed.run_s * 1e9;
    if let Some((world, labels)) = HANDLER_LABELS.iter().find(|(world, _)| *world == w.world()) {
        for label in *labels {
            let t = totals
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, t)| *t)
                .unwrap_or_default();
            result.push(&handler_metric(world, label, "count"), t.count as f64);
            result.push(&handler_metric(world, label, "ns"), t.ns as f64);
        }
    }
    result.push("sim.handler_share", handler_ns as f64 / probed_ns);
    result.push(
        "sim.residual_ns_per_event",
        (probed_ns - handler_ns as f64) / probed.events.max(1) as f64,
    );

    if let Some(metered) = by_name("metered") {
        result.push("telemetry.metrics_on_ratio", metered.run_s / serial.run_s);
    }
    result.push("trace.overhead_ratio", probed.run_s / serial.run_s);

    tr.write_jsonl(&mut result.trace_jsonl);
    probe.write_jsonl(w.world(), &mut result.trace_jsonl);
    result
}

/// The serve-side checks and counts shared by both serve runs.
fn judge_bus(result: &mut RunResult, run: &BusRun, label: &str) {
    let r = &run.report;
    result.attempted += r.queries_offered;
    result.failed += r.queries_offered.saturating_sub(r.queries_completed);
    if let Some(d) = run.failure() {
        result.correct = false;
        result.diagnoses.push(format!("{label}: {d}"));
    }
}

fn serve_end_to_end(w: &ServeWorkload, budget: Budget) -> RunResult {
    let mut tr = Tracer::new(false);
    // Set-up is bracketed by the yardstick like a sim repetition. The bus
    // run is not: it is paced by the wall clock, the open loop fixes its
    // event rate and the network model its latency, and its CPU cost
    // follows a few warm slices eight seconds apart worse than it repeats
    // on its own (spread 13 % adjusted against 10 % raw).
    let yardstick = Yardstick::new();
    let before = yardstick.slice();
    let raw_setup = w.time_build_nodes(SETUP_REPS, &mut tr);
    let setup_slow = slowdown(before, yardstick.slice());
    let setup: Vec<f64> = raw_setup.iter().map(|s| s / setup_slow).collect();
    let bus = w.bus_run(w.injection_s(budget.seconds), None, &mut tr);

    let mut result = empty_result();
    judge_bus(&mut result, &bus, "bus");
    result.push("setup_s", median(&setup));
    result.push("events_per_s", bus.events_per_s());
    result.push("cpu_us_per_query", bus.cpu_us_per_query());
    result.push(
        "first_result_p50_ms",
        bus.report.p50_first_ms.unwrap_or(0.0),
    );
    result.push("peak_rss_mb", peak_rss_mb());
    result.summaries = vec![("setup_s".into(), summarize(&setup))];
    result.host = Some(HostNote {
        slowdown: summarize(&[setup_slow]),
        unadjusted: vec![("setup_s", median(&raw_setup))],
    });
    result
}

fn serve_per_layer(w: &ServeWorkload, seed: u64, budget: Budget, out_dir: &Path) -> RunResult {
    let mut tr = Tracer::new(true);
    let build = w.time_build_nodes(1, &mut tr);
    // Two half-length bus runs, plain then with the bus's own query
    // tracing on; the CPU per query of the second over the first is the
    // tracing overhead.
    let injection_s = w.injection_s(budget.seconds / 2.0);
    let plain = w.bus_run(injection_s, None, &mut tr);
    let spans_path = out_dir.join("serve_open_30k.query_spans.jsonl");
    let traced = w.bus_run(injection_s, Some(&spans_path), &mut tr);
    let span = tr.begin("micro");
    let micro = micro::run(seed, &mut tr);
    tr.end(span);

    let mut result = empty_result();
    judge_bus(&mut result, &plain, "bus");
    judge_bus(&mut result, &traced, "bus.traced");
    let r = &plain.report;
    let completed = r.queries_completed.max(1) as f64;
    result.push("serve.build_nodes_s", build[0]);
    result.push("serve.achieved_qps", r.achieved_qps);
    result.push("serve.first_result_p99_ms", r.p99_first_ms.unwrap_or(0.0));
    result.push(
        "serve.offered_share",
        r.queries_offered as f64 / plain.target,
    );
    result.push(
        "serve.completed_share",
        r.queries_completed as f64 / r.queries_offered.max(1) as f64,
    );
    result.push("serve.messages_per_query", r.messages as f64 / completed);
    result.push(
        "serve.duplicates_share",
        r.duplicates as f64 / r.messages.max(1) as f64,
    );
    result.push("serve.hit_rate", r.hit_rate);
    result.push("serve.drain_s", r.elapsed_s - r.duration_s);
    push_micro(&mut result, &micro);
    result.push(
        "trace.overhead_ratio",
        traced.cpu_us_per_query() / plain.cpu_us_per_query(),
    );
    tr.write_jsonl(&mut result.trace_jsonl);
    result
}
