//! The real-time backend: a sharded in-process message bus driving
//! [`GnutellaWorld`] slices under wall-clock time and synthetic query
//! load — the handlers the paper's figures are produced with, on a third
//! executor of the slice-world contract beside the two simulation
//! kernels.
//!
//! Architecture:
//!
//! * The fleet is cut by `GnutellaWorld::build_sharded` into contiguous
//!   node ranges (`Partition::contiguous`), one slice per worker thread;
//!   each shard owns its slice exclusively, so no node state is ever
//!   shared or locked, and an envelope goes to `partition.shard_of` its
//!   event's target.
//! * Each shard has one bounded [`mpsc::sync_channel`] inbox. An
//!   `Envelope` is an event and its *delivery deadline* (`at`, wall
//!   time since run start): the slice's `Port::send` adds the modelled
//!   network delay, the receiving shard parks the envelope in a local
//!   timing wheel (`wheel.rs`: one FIFO list per millisecond) and
//!   delivers it through `GnutellaWorld::dispatch` when the [`WallClock`]
//!   catches up. The wheel's order (deadline, then push order) is a DES
//!   calendar queue's `(time, seq)` at millisecond resolution, so
//!   [`run_deterministic`] steps the same shard through the same
//!   `deliver_due` on a virtual clock and equals `ShardedSimulation` at one
//!   shard. At 30 k qps a shard holds ≈250 k envelopes (`QueryFinalize`
//!   timers for the collection window, messages for 70–600 ms); a binary
//!   heap that deep pays ≈17 dependent cache misses per pop — measured,
//!   half the bus's CPU — and `ddr_sim::EventQueue` doubles resident
//!   memory because this traffic occupies all of its buckets at once
//!   (EXPERIMENTS.md "The bus's timing wheel").
//! * A turn pops due envelopes up to eight ahead of delivery through
//!   [`ddr_sim::Lookahead`], the sharded kernel's own ring, and shows
//!   each to the slice's `ShardWorld::prefetch` / `prefetch_dependent`:
//!   with 2,000 nodes and their dup-cache tables far past the cache, a
//!   delivery's node lines, dup-cache slot and Bloom block are on their
//!   way while the deliveries ahead of it run. `Shard::deliver_due` says
//!   why that cannot change the order
//!   (EXPERIMENTS.md "The bus's lookahead ring").
//! * Cross-shard sends use `try_send`; a full inbox spills into the
//!   sender's outbox for retry instead of blocking, so two shards
//!   flooding each other cannot deadlock.
//! * A self-pacing load generator on the caller's thread injects
//!   `OfferQuery` envelopes round-robin at the target rate — the only
//!   events of a run: no `Toggle` or `IssueQuery` is ever primed — then
//!   the shards drain in-flight queries for one collection window before
//!   stopping.
//!
//! `dispatch` hands back each query a slice closes; `Shard::deliver` is
//! the one place those outcomes are collected, and one function turns
//! them and the slices' `Metrics` into a [`ServeReport`] on either
//! clock. Completed-query spans come from the slice's own `QueryTracer`,
//! so `ddr inspect` reads a serve trace exactly like a sim trace. A traced
//! run is one shard: a tracer holds only the spans its own nodes issued,
//! so a second shard would drop the hops it handled. Wall-clock
//! delivery makes run-to-run interleavings — and therefore exact message
//! counts — non-deterministic; see
//! EXPERIMENTS.md "Serve-backend determinism".

use crate::monitor::{spawn_observer, MonitorShared};
use crate::wheel::{Cell, TimerWheel};
use ddr_core::runtime::Port;
use ddr_gnutella::events::GnutellaEvent;
use ddr_gnutella::{GnutellaWorld, NodeSetConfig, QueryOutcome, ScenarioConfig};
use ddr_sim::{Lookahead, NodeId, Partition, ShardWorld, SimDuration, SimTime};
use ddr_telemetry::{JsonlSink, NullSink, TelemetryConfig, TraceSink};
use std::collections::VecDeque;
use std::sync::atomic::Ordering as AtomicOrd;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Inbox depth per shard. Deep enough that a flood burst (degree ×
/// in-flight queries) never blocks the sender in practice; the outbox
/// retry path covers the pathological case.
const INBOX_DEPTH: usize = 65_536;

/// Extra wall time past the last collection window before shards stop,
/// covering network-delay stragglers still in flight to a finalizer.
const DRAIN_GRACE: SimDuration = SimDuration::from_millis(500);

// A wheel cell is one 64-byte line; a larger event would straddle two
// and spend resident memory at ≈250 k pending envelopes per shard.
const _: () = assert!(
    std::mem::size_of::<Envelope>() == 56,
    "an Envelope is a SimTime and a 48-byte GnutellaEvent"
);
const _: () = assert!(
    std::mem::size_of::<Cell<Envelope>>() == 64,
    "a wheel cell holding an Envelope fills one cache line"
);

/// Wall-clock time source for the serve backend, reporting elapsed
/// milliseconds since run start as a [`SimTime`] so the handlers see the
/// same time type as under [`run_deterministic`]'s virtual clock.
#[derive(Debug, Clone)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Start the clock now.
    pub fn start() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Elapsed wall time since start, at millisecond resolution.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.start.elapsed().as_millis() as u64)
    }
}

/// Configuration of a serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Fleet shape (size, degree, hops, collection window, seed).
    pub node_set: NodeSetConfig,
    /// Offered load, queries per second across the whole fleet.
    pub qps: f64,
    /// Injection window, wall seconds. Shards keep draining for one
    /// collection window past this before stopping.
    pub duration_s: f64,
    /// Worker-thread count; each owns one contiguous node range.
    pub shards: usize,
    /// Tracing config (path, sampling, run label) for the traced entry
    /// point, copied into the slices' scenario; ignored under
    /// [`run_gnutella`]'s `NullSink`. When `telemetry.metrics_path` or
    /// `metrics_port` is set, one observer thread samples the bus every
    /// tenth of the injection window (10–250 ms); with the path it
    /// appends each pass to a timeline file.
    pub telemetry: TelemetryConfig,
    /// When set, the observer also answers on `127.0.0.1:port` with its
    /// latest pass: `/metrics` as Prometheus text, any other path as JSON.
    pub metrics_port: Option<u16>,
}

impl ServeConfig {
    /// A serve run over `nodes` nodes at `qps` for `duration_s`, with
    /// `shards` workers and tracing off.
    pub fn new(node_set: NodeSetConfig, qps: f64, duration_s: f64, shards: usize) -> Self {
        ServeConfig {
            node_set,
            qps,
            duration_s,
            shards: shards.max(1),
            telemetry: TelemetryConfig::default(),
            metrics_port: None,
        }
    }

    /// The monitor's sampling period, wall ms: a tenth of the injection
    /// window, so even a sub-second run has several windows, held to
    /// 10–250 ms so a pass is neither a busy loop nor stale.
    fn monitor_interval_ms(&self) -> u64 {
        (self.duration_s * 100.0).clamp(10.0, 250.0) as u64
    }

    /// The scenario the slices are built from: the fleet's, tracing as
    /// `telemetry` says.
    fn scenario(&self) -> ScenarioConfig {
        ScenarioConfig {
            telemetry: self.telemetry.clone(),
            ..self.node_set.scenario()
        }
    }
}

/// What a serve run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    pub nodes: usize,
    pub shards: usize,
    pub offered_qps: f64,
    pub duration_s: f64,
    /// Envelopes the load generator handed to the bus.
    pub queries_offered: u64,
    /// Queries the slices launched (`metrics.runtime.queries`).
    pub queries_issued: u64,
    /// Queries whose collection window closed before shutdown.
    pub queries_completed: u64,
    /// Completed queries with at least one result.
    pub hits: u64,
    /// Protocol messages sent (floods + replies): the slices'
    /// `metrics.runtime.messages` plus their replies served.
    pub messages: u64,
    /// Duplicate floods suppressed (`metrics.duplicates_dropped`).
    pub duplicates: u64,
    /// Time from clock start to the last shard stopping: wall time, or
    /// the virtual clock's under [`run_deterministic`].
    pub elapsed_s: f64,
    /// Completed queries over the injection window.
    pub achieved_qps: f64,
    /// `achieved_qps / shards` — the per-core throughput figure.
    pub qps_per_core: f64,
    /// `hits / queries_completed`.
    pub hit_rate: f64,
    pub p50_first_ms: Option<f64>,
    pub p99_first_ms: Option<f64>,
}

/// A routed event with its delivery deadline on the shard's clock; its
/// recipient is `event.target()`.
#[derive(Debug, Clone, Copy)]
struct Envelope {
    at: SimTime,
    event: GnutellaEvent,
}

/// The [`Port`] a slice handles one delivery through. Sends are *staged*
/// (the slice holds `&mut self` while the shard owns the routing tables)
/// and routed by the shard afterwards.
struct ShardCtx<'a> {
    now: SimTime,
    staged: &'a mut Vec<Envelope>,
}

impl Port<GnutellaEvent> for ShardCtx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    /// The envelope records only the event: every Gnutella send names
    /// its recipient as the event's target.
    fn send(&mut self, to: NodeId, delay: SimDuration, event: GnutellaEvent) {
        debug_assert_eq!(to, event.target(), "a send goes to its event's target");
        self.staged.push(Envelope {
            at: self.now + delay,
            event,
        });
    }
}

struct Shard<T: TraceSink> {
    index: usize,
    /// The node range this shard owns: `partition.range(index)`.
    world: GnutellaWorld<T>,
    partition: Partition,
    /// Pending deliveries by deadline, same-instant ones FIFO: the DES
    /// kernel's tie-break contract.
    wheel: TimerWheel<Envelope>,
    /// Due envelopes popped ahead of their delivery (see `deliver_due`);
    /// empty between turns.
    ring: Lookahead<Envelope>,
    rx: Receiver<Envelope>,
    peers: Vec<SyncSender<Envelope>>,
    /// Cross-shard envelopes bounced by a full inbox, retried each turn.
    outbox: VecDeque<(usize, Envelope)>,
    staged: Vec<Envelope>,
    /// Live-introspection state; `None` keeps every hot-path branch a
    /// predictable not-taken jump.
    monitor: Option<Arc<MonitorShared>>,
    /// Every query this shard's slice closed, in delivery order.
    outcomes: Vec<QueryOutcome>,
}

impl<T: TraceSink> Shard<T> {
    fn route(&mut self, env: Envelope) {
        let target = self.partition.shard_of(env.event.target());
        if target == self.index {
            return self.wheel.push(env.at.as_millis(), env);
        }
        match self.peers[target].try_send(env) {
            Ok(()) => {
                if let Some(m) = &self.monitor {
                    m.inbox_depth[target].fetch_add(1, AtomicOrd::Relaxed);
                }
            }
            Err(TrySendError::Full(env)) => self.outbox.push_back((target, env)),
            // The peer already stopped (drain deadline passed there);
            // the message could never complete a query anyway.
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    fn flush_outbox(&mut self) {
        for _ in 0..self.outbox.len() {
            let (target, env) = self.outbox.pop_front().expect("len-bounded pop");
            match self.peers[target].try_send(env) {
                Ok(()) => {
                    if let Some(m) = &self.monitor {
                        m.inbox_depth[target].fetch_add(1, AtomicOrd::Relaxed);
                    }
                }
                Err(TrySendError::Full(env)) => self.outbox.push_back((target, env)),
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }

    /// One received envelope: inbox bookkeeping, then onto the wheel.
    fn receive(&mut self, env: Envelope) {
        if let Some(m) = &self.monitor {
            m.inbox_depth[self.index].fetch_sub(1, AtomicOrd::Relaxed);
        }
        self.route(env);
    }

    /// Hand `event` to the slice at `now`, route what it sent, and
    /// collect the query it closed, if any: the one collection point.
    fn deliver(&mut self, event: GnutellaEvent, now: SimTime) {
        let mut staged = std::mem::take(&mut self.staged);
        let mut ctx = ShardCtx {
            now,
            staged: &mut staged,
        };
        let done = self.world.dispatch(now, event, &mut ctx);
        for out in staged.drain(..) {
            self.route(out);
        }
        self.staged = staged;
        if let Some(done) = done {
            self.outcomes.push(done);
        }
    }

    /// Deliver every envelope due by `now`: the one step the wall-clock
    /// loop ([`Shard::run`]) and the virtual one ([`run_deterministic`])
    /// share. With the monitor on, the slice's cumulative counters are
    /// published once per call.
    ///
    /// Envelopes are popped a few ahead of their delivery into the
    /// shard's lookahead ring, each shown to the slice's two
    /// [`ShardWorld`] hint hooks on the way. That cannot change the
    /// order: every envelope a delivery at `now` routes here is due at
    /// `now` or later, and the wheel files it behind everything already
    /// filed under its deadline — so behind everything popped ahead;
    /// cross-shard arrivals come in through `receive`, outside this call.
    fn deliver_due(&mut self, now: SimTime) {
        let mut lag_ms = 0;
        while let Some(env) = self.ring.next(
            || self.wheel.pop_due(now.as_millis()),
            |env| ShardWorld::prefetch(&self.world, &env.event),
            |env| ShardWorld::prefetch_dependent(&self.world, &env.event),
        ) {
            lag_ms = lag_ms.max(now.saturating_since(env.at).as_millis());
            self.deliver(env.event, now);
        }
        if let Some(m) = &self.monitor {
            m.timers_pending[self.index].store(self.wheel.len(), AtomicOrd::Relaxed);
            m.delivery_lag_ms[self.index].fetch_max(lag_ms, AtomicOrd::Relaxed);
            m.publish(self.index, &self.world);
        }
    }

    /// The shard main loop: drain the inbox, deliver due envelopes,
    /// retry bounced sends, wait a millisecond for the inbox. Runs until
    /// the wall clock passes `deadline`. The inbox never disconnects:
    /// `peers` holds this shard's own sender.
    fn run(mut self, clock: Arc<WallClock>, deadline: SimTime) -> Self {
        loop {
            while let Ok(env) = self.rx.try_recv() {
                self.receive(env);
            }
            let now = clock.now();
            if now >= deadline {
                return self;
            }
            self.deliver_due(now);
            self.flush_outbox();
            // Sleep until the next inbox arrival or the wheel's next
            // millisecond, whichever is first.
            if let Ok(env) = self.rx.recv_timeout(Duration::from_millis(1)) {
                self.receive(env);
            }
        }
    }
}

/// The generator's query `k`: an `OfferQuery` for node `k mod nodes`,
/// due `at`.
fn offer(k: u64, nodes: usize, at: SimTime) -> Envelope {
    let node = NodeId::from_index((k % nodes as u64) as usize);
    Envelope {
        at,
        event: GnutellaEvent::OfferQuery { node },
    }
}

/// When a run's shards stop: `duration_s` of injection, one collection
/// window (`query_timeout`) and a drain grace. `None` unless `duration_s`
/// is finite and non-negative and the sum fits [`SimTime`]; `ddr serve`
/// rejects such a `--duration` before anything runs.
pub fn drain_deadline(duration_s: f64, query_timeout: SimDuration) -> Option<SimTime> {
    let ms = duration_s * 1_000.0;
    // `u64::MAX as f64` is 2^64, the first value a cast saturates at.
    if !(0.0..u64::MAX as f64).contains(&ms) {
        return None;
    }
    SimTime::from_millis(ms as u64)
        .checked_add(query_timeout)?
        .checked_add(DRAIN_GRACE)
}

/// [`drain_deadline`] of `cfg`, and the `qps × duration_s` queries it
/// offers.
///
/// # Panics
/// When the fleet is empty or either value does not fit its integer,
/// naming the field: an empty fleet has no node to offer a query to, an
/// infinite `duration_s` would stop the shards at once while the
/// generator waits forever, and an infinite `qps` would keep a shard
/// draining its inbox.
fn checked_plan(cfg: &ServeConfig) -> (SimTime, u64) {
    assert!(
        cfg.node_set.nodes > 0,
        "ServeConfig::node_set.nodes = 0: a fleet needs at least one node"
    );
    let deadline =
        drain_deadline(cfg.duration_s, cfg.node_set.query_timeout).unwrap_or_else(|| {
            panic!(
                "ServeConfig::duration_s = {}: its drain deadline does not fit SimTime",
                cfg.duration_s
            )
        });
    let queries = cfg.qps * cfg.duration_s;
    assert!(
        (0.0..u64::MAX as f64).contains(&queries),
        "ServeConfig::qps = {}: {queries} queries over duration_s is not a u64 count",
        cfg.qps
    );
    (deadline, queries as u64)
}

/// Run the serve bus without tracing.
pub fn run_gnutella(cfg: &ServeConfig) -> ServeReport {
    run_bus::<NullSink>(cfg)
}

/// Run the serve bus over one traced slice: it writes its query spans to
/// `cfg.telemetry.trace_path` through its own `QueryTracer`, in the same
/// JSONL schema the simulator emits (so `ddr inspect` works unchanged).
///
/// # Panics
/// When `cfg.shards` is above 1: a slice's tracer knows only the spans
/// its own nodes issued, so the hop and duplicate records another shard
/// handles would be dropped from the trace without a word.
pub fn run_gnutella_traced(cfg: &ServeConfig) -> ServeReport {
    assert!(
        cfg.shards <= 1,
        "a traced serve run is one shard, but ServeConfig::shards is {}",
        cfg.shards
    );
    run_bus::<JsonlSink>(cfg)
}

/// One shard per slice, wired to one another's inboxes, and the inbox
/// senders for the load generator.
fn build_shards<T: TraceSink>(
    worlds: Vec<GnutellaWorld<T>>,
    partition: &Partition,
    monitor: &Option<Arc<MonitorShared>>,
) -> (Vec<Shard<T>>, Vec<SyncSender<Envelope>>) {
    let (txs, rxs): (Vec<_>, Vec<_>) = worlds
        .iter()
        .map(|_| mpsc::sync_channel(INBOX_DEPTH))
        .unzip();
    let shards = worlds.into_iter().zip(rxs).enumerate();
    let shards = shards.map(|(index, (world, rx))| Shard {
        index,
        world,
        partition: partition.clone(),
        wheel: TimerWheel::new(),
        ring: Lookahead::default(),
        rx,
        peers: txs.clone(),
        outbox: VecDeque::new(),
        staged: Vec::new(),
        monitor: monitor.clone(),
        outcomes: Vec::new(),
    });
    (shards.collect(), txs)
}

fn run_bus<T: TraceSink + Send + 'static>(cfg: &ServeConfig) -> ServeReport {
    let (deadline, queries) = checked_plan(cfg);
    let shards = cfg.shards.max(1);
    let (worlds, partition, _) = GnutellaWorld::<T>::build_sharded(cfg.scenario(), shards);
    let nshards = worlds.len();
    let n = cfg.node_set.nodes;

    let clock = Arc::new(WallClock::start());

    // Live introspection: shared state and one observer thread, only
    // when asked for — otherwise every branch stays `None`.
    let monitor = (cfg.telemetry.metrics_path.is_some() || cfg.metrics_port.is_some())
        .then(|| Arc::new(MonitorShared::new(nshards)));
    let observer = monitor.as_ref().map(|m| {
        spawn_observer(
            Arc::clone(m),
            Arc::clone(&clock),
            cfg.telemetry.clone(),
            cfg.metrics_port,
            cfg.monitor_interval_ms(),
        )
    });

    let (shards, txs) = build_shards(worlds, &partition, &monitor);
    let mut handles = Vec::with_capacity(nshards);
    for shard in shards {
        let clock = Arc::clone(&clock);
        handles.push(thread::spawn(move || shard.run(clock, deadline)));
    }

    // ---- load generator (caller's thread) --------------------------------
    // Self-pacing: each tick computes how many queries the elapsed time
    // entitles the run to and catches up, so short stalls borrow from
    // the next tick instead of skewing the offered rate.
    let mut offered = 0u64;
    loop {
        let elapsed_s = clock.now().as_millis() as f64 / 1_000.0;
        if elapsed_s >= cfg.duration_s {
            break;
        }
        let target = ((elapsed_s * cfg.qps) as u64).min(queries);
        while offered < target {
            let env = offer(offered, n, clock.now());
            let shard = partition.shard_of(env.event.target());
            if txs[shard].send(env).is_err() {
                break;
            }
            offered += 1;
            if let Some(m) = &monitor {
                m.offered.fetch_add(1, AtomicOrd::Relaxed);
                m.inbox_depth[shard].fetch_add(1, AtomicOrd::Relaxed);
            }
        }
        thread::sleep(Duration::from_micros(500));
    }
    drop(txs);

    let shards: Vec<Shard<T>> = handles
        .into_iter()
        .map(|h| h.join().expect("shard thread panicked"))
        .collect();
    // All shard threads are joined: the published counters are final.
    // Raise `done` so the observer takes its closing pass (whose window
    // sums now equal this report) and stops answering the endpoint.
    if let Some(m) = &monitor {
        m.done.store(true, AtomicOrd::Relaxed);
    }
    if let Some(h) = observer {
        h.join().expect("monitor thread panicked");
    }
    // Dropping the shards afterwards flushes the slices' tracers.
    report(cfg, offered, &shards, clock.now())
}

/// Run the bus deterministically: the one shard `build_nodes` makes,
/// stepped through `deliver_due` on a virtual millisecond clock, so the
/// report — and the slice returned beside it — are a pure function of
/// `cfg` (tracing and the monitor aside, which this entry point leaves
/// off).
///
/// Query `k` is an `OfferQuery` for node `k mod nodes` at `k·1000/qps`
/// ms, for `qps·duration_s` queries — the generator's schedule without
/// its lateness — and the clock steps t = 0, 1, 2, … until the wheel is
/// empty. One shard whatever `cfg.shards` says: a lockstep of several
/// would reorder same-millisecond deliveries. The slice's final
/// `Metrics` equal `ShardedSimulation`'s at one shard over the same
/// schedule (`tests/parity.rs`).
pub fn run_deterministic(cfg: &ServeConfig) -> (ServeReport, GnutellaWorld) {
    let (shard, offered, end) = run_virtual(cfg);
    let report = report(cfg, offered, std::slice::from_ref(&shard), end);
    (report, shard.world)
}

/// [`run_deterministic`] up to the stopped shard: it, the queries
/// offered, and the virtual time the wheel emptied at.
fn run_virtual(cfg: &ServeConfig) -> (Shard<NullSink>, u64, SimTime) {
    let (_, queries) = checked_plan(cfg);
    let world = ddr_gnutella::build_nodes(&cfg.node_set);
    let partition = Partition::contiguous(cfg.node_set.nodes, 1);
    let (mut shards, _inboxes) = build_shards(vec![world], &partition, &None);
    let mut shard = shards.pop().expect("one shard");
    for k in 0..queries {
        let at = SimTime::from_millis((k as f64 * 1_000.0 / cfg.qps) as u64);
        shard.route(offer(k, cfg.node_set.nodes, at));
    }
    let mut now = SimTime::ZERO;
    loop {
        shard.deliver_due(now);
        if shard.wheel.len() == 0 {
            return (shard, queries, now);
        }
        now += SimDuration::from_millis(1);
    }
}

/// The report of a stopped run on either clock: the slices' `Metrics`
/// summed, first-result latency over the closed queries' hits.
fn report<T: TraceSink>(
    cfg: &ServeConfig,
    offered: u64,
    shards: &[Shard<T>],
    elapsed: SimTime,
) -> ServeReport {
    let nshards = shards.len();
    let (mut issued, mut messages, mut duplicates) = (0, 0, 0);
    let mut latencies: Vec<f64> = Vec::new();
    let mut completed = 0u64;
    for s in shards {
        let metrics = &s.world.metrics;
        issued += metrics.runtime.queries.total() as u64;
        messages += metrics.runtime.messages.total() as u64 + s.world.replies_served();
        duplicates += metrics.duplicates_dropped;
        completed += s.outcomes.len() as u64;
        latencies.extend(s.outcomes.iter().filter_map(QueryOutcome::latency_ms));
    }
    let hits = latencies.len() as u64;
    let achieved_qps = if cfg.duration_s > 0.0 {
        completed as f64 / cfg.duration_s
    } else {
        0.0
    };
    ServeReport {
        nodes: cfg.node_set.nodes,
        shards: nshards,
        offered_qps: cfg.qps,
        duration_s: cfg.duration_s,
        queries_offered: offered,
        queries_issued: issued,
        queries_completed: completed,
        hits,
        messages,
        duplicates,
        elapsed_s: elapsed.as_millis() as f64 / 1_000.0,
        achieved_qps,
        qps_per_core: achieved_qps / nshards as f64,
        hit_rate: if completed == 0 {
            0.0
        } else {
            hits as f64 / completed as f64
        },
        p50_first_ms: crate::percentile(&mut latencies, 50.0),
        p99_first_ms: crate::percentile(&mut latencies, 99.0),
    }
}

#[cfg(test)]
mod tests;
