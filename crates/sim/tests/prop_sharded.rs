//! Differential property tests for the conservative sharded kernel.
//!
//! The executable specification is a plain serial run over
//! [`ReferenceEventQueue`]: one global `(time, seq)`-ordered stream, no
//! shards, no windows. The sharded kernel — under any shard count, on
//! one thread or one worker per shard — must leave every node in a
//! bit-identical final state, including order-sensitive checksums and
//! per-node RNG streams, across random seeds, node counts, fan-outs,
//! and churn schedules.
//!
//! The same reference also pins the kernel's latency-hiding dispatch: a
//! shard pops a few events of the current window ahead of their dispatch
//! and shows them to the world's two hint hooks. A recording world checks
//! that the hooks change nothing, that every event meets them in the
//! promised order, and that nothing of a later window is ever popped.
//!
//! And it pins the profile: what a profiled run counts (windows, events
//! and largest window per shard, merged and cross-shard events) is
//! recomputed from the reference's own log, for both executors and for
//! the two interleaved on one kernel.
//!
//! The world is deliberately *node-local* (a handler touches only the
//! destination node's state and every send respects the lookahead):
//! that is exactly the class of worlds the kernel's determinism
//! contract covers (DESIGN.md §11).

use ddr_sim::{
    NodeId, Partition, ReferenceEventQueue, RunOutcome, ShardCtx, ShardLane, ShardProfile,
    ShardWorld, ShardedSimulation, SimDuration, SimTime,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;

const LOOKAHEAD_MS: u64 = 10;

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(23);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One node's state. The checksum folds in every dispatch in order, and
/// the RNG stream advances once per decision — any reordering of a
/// node's events changes both.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Node {
    online: bool,
    rng: u64,
    pings: u64,
    toggles: u64,
    checksum: u64,
}

impl Node {
    fn new(seed: u64, idx: usize) -> Self {
        Node {
            online: !seed.wrapping_add(idx as u64).is_multiple_of(3),
            rng: mix(seed, idx as u64 ^ 0xA5A5_A5A5),
            pings: 0,
            toggles: 0,
            checksum: 0,
        }
    }

    fn next_rng(&mut self) -> u64 {
        self.rng = mix(self.rng, 0x2545_F491_4F6C_DD1D);
        self.rng
    }
}

#[derive(Clone, Debug)]
enum Ev {
    Ping { hops: u8, tag: u64 },
    Toggle,
}

/// The node-local protocol logic, shared verbatim between the serial
/// reference and the sharded world; `emit` abstracts over "schedule on
/// the global queue" vs "stage in the shard outbox".
fn dispatch(
    total_nodes: usize,
    node: &mut Node,
    now: SimTime,
    ev: &Ev,
    mut emit: impl FnMut(NodeId, SimDuration, Ev),
) {
    match *ev {
        Ev::Toggle => {
            node.online = !node.online;
            node.toggles += 1;
            node.checksum = mix(node.checksum, mix(now.as_millis(), 0x70661E));
            let rearm = LOOKAHEAD_MS + node.next_rng() % 5_000;
            emit(NodeId(0), SimDuration::from_millis(rearm), Ev::Toggle);
        }
        Ev::Ping { hops, tag } => {
            node.pings += 1;
            node.checksum = mix(node.checksum, mix(now.as_millis(), tag));
            // Offline nodes swallow pings (churn changes the traffic
            // pattern, not just the counters).
            if node.online && hops > 0 {
                let r = node.next_rng();
                let dest = NodeId::from_index((r % total_nodes as u64) as usize);
                let delay = SimDuration::from_millis(LOOKAHEAD_MS + r % 777);
                emit(
                    dest,
                    delay,
                    Ev::Ping {
                        hops: hops - 1,
                        tag: mix(tag, r),
                    },
                );
            }
        }
    }
}

/// One shard of the test world. Events carry their destination because
/// [`ShardWorld::handle`] receives only the payload. A `Toggle` emitted
/// with `NodeId(0)` is a self-send; `dispatch` has no notion of "self",
/// so the wrapper rewrites it.
struct TestShard {
    base: usize,
    total_nodes: usize,
    nodes: Vec<Node>,
    /// Every dispatch, in order.
    dispatched: Vec<Dispatch>,
}

/// One dispatch as a world can observe it: `(time, destination, tag)`.
/// The kernel's global sequence number is not visible to a handler, but
/// tags are unique per event and equal-time events at one shard dispatch
/// in sequence order — so a shard's log equals the reference's (which
/// pops by `(time, seq)`) only if the sequence order was reproduced.
type Dispatch = (SimTime, NodeId, u64);

/// The tag a `Toggle` is logged under (a node has one pending at most).
const TOGGLE_TAG: u64 = u64::MAX;

fn tag_of(ev: &Ev) -> u64 {
    match *ev {
        Ev::Ping { tag, .. } => tag,
        Ev::Toggle => TOGGLE_TAG,
    }
}

impl ShardWorld for TestShard {
    type Event = (NodeId, Ev);

    fn handle(&mut self, now: SimTime, ev: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>) {
        let (dest, ev) = ev;
        let i = dest.index() - self.base;
        let self_id = dest;
        self.dispatched.push((now, dest, tag_of(&ev)));
        dispatch(
            self.total_nodes,
            &mut self.nodes[i],
            now,
            &ev,
            |to, delay, child| {
                let to = if matches!(child, Ev::Toggle) {
                    self_id
                } else {
                    to
                };
                ctx.send(to, delay, (to, child));
            },
        );
    }
}

/// Priming schedule for `n` nodes: a ping wave plus (optionally) a
/// toggle per node, in node order — identical call order on both sides.
fn prime(seed: u64, n: usize, hops: u8, churn: bool, mut emit: impl FnMut(SimTime, NodeId, Ev)) {
    for i in 0..n {
        let tag = mix(seed, i as u64);
        let dest = NodeId::from_index((tag % n as u64) as usize);
        let at = SimTime::from_millis(tag % 50);
        emit(at, dest, Ev::Ping { hops, tag });
    }
    if churn {
        for i in 0..n {
            let at = SimTime::from_millis(mix(seed, i as u64 ^ 0xC4) % 2_000);
            emit(at, NodeId::from_index(i), Ev::Toggle);
        }
    }
}

/// The serial specification: one global reference heap. It is popped a
/// kernel window at a time — from the earliest pending time `t` up to
/// `min(t + lookahead, horizon)` — which, every delay being at least the
/// lookahead, is the same sequence as popping straight to the horizon.
struct Reference {
    nodes: Vec<Node>,
    q: ReferenceEventQueue<(NodeId, Ev)>,
    dispatched: Vec<Dispatch>,
    /// Every event a handler created, as `(from, to)`.
    sent: Vec<(NodeId, NodeId)>,
}

impl Reference {
    fn new(seed: u64, n: usize, hops: u8, churn: bool) -> Self {
        let mut q = ReferenceEventQueue::new();
        prime(seed, n, hops, churn, |at, dest, ev| {
            q.schedule_at(at, (dest, ev));
        });
        Reference {
            nodes: (0..n).map(|i| Node::new(seed, i)).collect(),
            q,
            dispatched: Vec::new(),
            sent: Vec::new(),
        }
    }

    /// Dispatch the next window; `None` once nothing is pending before
    /// `horizon`. Returns the window's `[start, end)`.
    fn window(&mut self, horizon: SimTime) -> Option<(SimTime, SimTime)> {
        let start = self.q.peek_time().filter(|&t| t < horizon)?;
        let end = (start + SimDuration::from_millis(LOOKAHEAD_MS)).min(horizon);
        let n = self.nodes.len();
        while self.q.peek_time().is_some_and(|t| t < end) {
            let (now, (dest, ev)) = self.q.pop().expect("peeked event vanished");
            self.dispatched.push((now, dest, tag_of(&ev)));
            let (q, sent) = (&mut self.q, &mut self.sent);
            dispatch(
                n,
                &mut self.nodes[dest.index()],
                now,
                &ev,
                |to, delay, child| {
                    let to = if matches!(child, Ev::Toggle) {
                        dest
                    } else {
                        to
                    };
                    sent.push((dest, to));
                    q.schedule_at(now + delay, (to, child));
                },
            );
        }
        Some((start, end))
    }

    fn run(mut self, horizon: SimTime) -> Self {
        while self.window(horizon).is_some() {}
        self
    }

    /// The dispatches addressed to nodes of `shard`, in order.
    fn dispatched_at(&self, partition: &Partition, shard: usize) -> Vec<Dispatch> {
        let at_shard = |d: &&Dispatch| partition.shard_of(d.1) == shard;
        self.dispatched.iter().filter(at_shard).copied().collect()
    }
}

fn shard_worlds(seed: u64, partition: &Partition) -> Vec<TestShard> {
    (0..partition.shards())
        .map(|s| {
            let r = partition.range(s);
            TestShard {
                base: r.start,
                total_nodes: partition.nodes(),
                nodes: r.map(|i| Node::new(seed, i)).collect(),
                dispatched: Vec::new(),
            }
        })
        .collect()
}

/// Prime a kernel over `worlds` exactly like [`Reference::new`].
fn primed<W: ShardWorld<Event = (NodeId, Ev)>>(
    worlds: Vec<W>,
    partition: Partition,
    seed: u64,
    hops: u8,
    churn: bool,
) -> ShardedSimulation<W> {
    let n = partition.nodes();
    let mut sim = ShardedSimulation::new(worlds, partition, SimDuration::from_millis(LOOKAHEAD_MS));
    prime(seed, n, hops, churn, |at, dest, ev| {
        sim.schedule_at(at, dest, (dest, ev));
    });
    sim
}

fn build_sharded(
    seed: u64,
    n: usize,
    hops: u8,
    churn: bool,
    shards: usize,
) -> ShardedSimulation<TestShard> {
    let partition = Partition::contiguous(n, shards);
    primed(shard_worlds(seed, &partition), partition, seed, hops, churn)
}

/// What a hint hook or a dispatch was called with.
#[derive(Clone, Copy, Debug)]
enum Call {
    Prefetch(NodeId, u64),
    Dependent(NodeId, u64),
    Handle(NodeId, u64, SimTime),
}

/// [`TestShard`] with both hint hooks overridden to log their calls (the
/// hooks take `&self`, hence the cell). `TestShard` itself keeps the
/// default no-op hooks.
struct Hooked {
    inner: TestShard,
    calls: RefCell<Vec<Call>>,
}

impl ShardWorld for Hooked {
    type Event = (NodeId, Ev);

    fn handle(&mut self, now: SimTime, ev: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>) {
        let call = Call::Handle(ev.0, tag_of(&ev.1), now);
        self.calls.get_mut().push(call);
        self.inner.handle(now, ev, ctx);
    }

    fn prefetch(&self, ev: &Self::Event) {
        let call = Call::Prefetch(ev.0, tag_of(&ev.1));
        self.calls.borrow_mut().push(call);
    }

    fn prefetch_dependent(&self, ev: &Self::Event) {
        let call = Call::Dependent(ev.0, tag_of(&ev.1));
        self.calls.borrow_mut().push(call);
    }
}

fn build_hooked(
    seed: u64,
    n: usize,
    hops: u8,
    churn: bool,
    shards: usize,
) -> ShardedSimulation<Hooked> {
    let partition = Partition::contiguous(n, shards);
    let worlds = shard_worlds(seed, &partition)
        .into_iter()
        .map(|inner| Hooked {
            inner,
            calls: RefCell::default(),
        })
        .collect();
    primed(worlds, partition, seed, hops, churn)
}

/// The kernel's ring size (`ddr_sim::Lookahead`'s capacity): how many
/// events a shard may hold hinted but not yet handled.
const RING: usize = 8;

/// Check one shard's calls over one window `[start, end)` against the
/// hook contract: every handled event had exactly one `prefetch`, then at
/// most one `prefetch_dependent`, then its `handle`; no more than the
/// ring is ever outstanding; and nothing hinted is left unhandled — an
/// event of a later window was never shown to a hook. Returns the number
/// of events handled.
fn check_window_calls(calls: &[Call], start: SimTime, end: SimTime) -> Result<usize, String> {
    // Hinted, not yet handled: key -> whether the second stage was seen.
    let mut outstanding: HashMap<(NodeId, u64), bool> = HashMap::new();
    let mut handled = 0;
    for &call in calls {
        match call {
            Call::Prefetch(node, tag) => {
                if outstanding.insert((node, tag), false).is_some() {
                    return Err(format!("{call:?}: second prefetch"));
                }
                if outstanding.len() > RING {
                    return Err(format!("{call:?}: more than {RING} events popped ahead"));
                }
            }
            Call::Dependent(node, tag) => match outstanding.get_mut(&(node, tag)) {
                Some(seen @ false) => *seen = true,
                Some(true) => return Err(format!("{call:?}: second prefetch_dependent")),
                None => return Err(format!("{call:?}: before prefetch or after handle")),
            },
            Call::Handle(node, tag, now) => {
                if outstanding.remove(&(node, tag)).is_none() {
                    return Err(format!("{call:?}: handled without a prefetch"));
                }
                if now < start || now >= end {
                    return Err(format!("{call:?}: outside its window [{start}, {end})"));
                }
                handled += 1;
            }
        }
    }
    if outstanding.is_empty() {
        Ok(handled)
    } else {
        Err(format!(
            "hinted but not handled in [{start}, {end}): {outstanding:?}"
        ))
    }
}

/// One worker per shard, or the single-threaded window loop.
fn threads_for(threaded: bool, shards: usize) -> usize {
    if threaded {
        shards
    } else {
        1
    }
}

/// Window by window beside the reference: the kernel is stepped with
/// each reference window's end as its horizon, so it runs exactly that
/// window; the hook contract holds in every window, `processed()` and
/// `pending()` agree at every boundary (an event left popped ahead would
/// be missing from `pending()`), the run ends where the reference does,
/// and an unstepped run takes as many windows. Returns the smallest and
/// largest per-shard window.
fn check_hook_contract(
    seed: u64,
    n: usize,
    shards: usize,
    hops: u8,
    churn: bool,
    threads: usize,
    horizon: SimTime,
) -> Result<(usize, usize), String> {
    let mut reference = Reference::new(seed, n, hops, churn);
    let mut sim = build_hooked(seed, n, hops, churn, shards);
    let (mut smallest, mut largest) = (usize::MAX, 0);
    while let Some((start, end)) = reference.window(horizon) {
        let windows = sim.windows();
        sim.run_parallel(end, threads);
        if sim.windows() != windows + 1 {
            let ran = sim.windows() - windows;
            return Err(format!("window [{start}, {end}): stepped {ran} windows"));
        }
        for shard in 0..sim.partition().shards() {
            let calls = sim.world(shard).calls.take();
            let handled = check_window_calls(&calls, start, end)?;
            if handled > 0 {
                smallest = smallest.min(handled);
                largest = largest.max(handled);
            }
        }
        if sim.processed() != reference.dispatched.len() as u64 {
            return Err(format!("window [{start}, {end}): processed differs"));
        }
        if sim.pending() != reference.q.len() {
            return Err(format!("window [{start}, {end}): pending differs"));
        }
    }
    let processed = sim.processed();
    sim.run_parallel(horizon, threads);
    if sim.processed() != processed {
        return Err("ran past the reference's last window".into());
    }
    let mut unstepped = build_hooked(seed, n, hops, churn, shards);
    unstepped.run_parallel(horizon, threads);
    if unstepped.windows() != sim.windows() {
        return Err(format!(
            "an unstepped run takes {} windows, the stepped one {}",
            unstepped.windows(),
            sim.windows()
        ));
    }
    Ok((smallest, largest))
}

fn collect_nodes(sim: &ShardedSimulation<TestShard>) -> Vec<Node> {
    sim.worlds().flat_map(|w| w.nodes.iter().cloned()).collect()
}

/// `profile` with its wall clocks zeroed: what it counts.
fn counts_of(mut profile: ShardProfile) -> ShardProfile {
    profile.merge_ns = 0;
    for lane in &mut profile.lanes {
        (lane.work_ns, lane.barrier_ns, lane.stall_ns) = (0, 0, 0);
    }
    profile
}

impl Reference {
    /// [`run`](Self::run), recomputing from the reference's own log what
    /// a profiled kernel over `partition` has to count on the way.
    fn run_counting(mut self, partition: &Partition, horizon: SimTime) -> (Self, ShardProfile) {
        let lane = |shard| ShardLane {
            shard,
            ..ShardLane::default()
        };
        let mut counts = ShardProfile {
            lanes: (0..partition.shards()).map(lane).collect(),
            ..ShardProfile::default()
        };
        loop {
            let from = self.dispatched.len();
            if self.window(horizon).is_none() {
                break;
            }
            counts.windows += 1;
            let mut in_window = vec![0; partition.shards()];
            for d in &self.dispatched[from..] {
                in_window[partition.shard_of(d.1)] += 1;
            }
            for (lane, n) in counts.lanes.iter_mut().zip(in_window) {
                lane.events += n;
                lane.max_window_events = lane.max_window_events.max(n);
            }
        }
        let crosses =
            |&&(from, to): &&(NodeId, NodeId)| partition.shard_of(from) != partition.shard_of(to);
        counts.merged_events = self.sent.len() as u64;
        counts.cross_shard_events = self.sent.iter().filter(crosses).count() as u64;
        (self, counts)
    }
}

/// A generated world: `(seed, nodes, hops, churn)`.
type WorldSpec = (u64, usize, u8, bool);

/// A *profiled* kernel over `world`, advanced to `horizon` by `drive`,
/// against the reference: the outcome, node states, `processed()`,
/// `pending()`, and the profile's counts recomputed from the reference's
/// log. `whole`
/// says `drive` is one call; a run cut in two moves the later window
/// boundaries, and then only the event counts are the reference's.
fn check_profiled_run(
    (seed, n, hops, churn): WorldSpec,
    shards: usize,
    horizon: SimTime,
    whole: bool,
    drive: impl FnOnce(&mut ShardedSimulation<TestShard>) -> RunOutcome,
) -> (ShardedSimulation<TestShard>, ShardProfile) {
    let partition = Partition::contiguous(n, shards);
    let (expect, mut want) = Reference::new(seed, n, hops, churn).run_counting(&partition, horizon);
    let mut sim = build_sharded(seed, n, hops, churn, shards);
    sim.enable_profiling();
    let drained = match expect.q.len() {
        0 => RunOutcome::Exhausted,
        _ => RunOutcome::ReachedHorizon,
    };
    assert_eq!(drive(&mut sim), drained);
    assert_eq!(&collect_nodes(&sim), &expect.nodes);
    assert_eq!(sim.processed(), expect.dispatched.len() as u64);
    assert_eq!(sim.pending(), expect.q.len());
    let profile = sim.profile().expect("profiling is on");
    assert_eq!(profile.windows, sim.windows());
    let mut got = counts_of(profile.clone());
    if !whole {
        for counts in [&mut got, &mut want] {
            counts.windows = 0;
            counts
                .lanes
                .iter_mut()
                .for_each(|lane| lane.max_window_events = 0);
        }
    }
    assert_eq!(got, want);
    (sim, profile)
}

proptest! {
    /// Sharded serial execution == the reference heap, for every shard
    /// count, seed, fan-out depth, and churn schedule — profiled or not:
    /// profiling is the same run, what it counts is what the reference
    /// did, and nothing waits on the calling thread.
    #[test]
    fn sharded_matches_reference(
        seed in any::<u64>(),
        n in 2usize..60,
        shards in 1usize..6,
        hops in 0u8..16,
        churn in any::<bool>(),
    ) {
        let horizon = SimTime::from_secs(30);
        let mut plain = build_sharded(seed, n, hops, churn, shards);
        plain.run(horizon);
        prop_assert!(plain.profile().is_none());
        let (sim, profile) =
            check_profiled_run((seed, n, hops, churn), shards, horizon, true, |sim| sim.run(horizon));
        prop_assert_eq!(collect_nodes(&plain), collect_nodes(&sim));
        prop_assert_eq!(plain.processed(), sim.processed());
        prop_assert_eq!(plain.windows(), sim.windows());
        prop_assert!(profile.lanes.iter().all(|l| l.barrier_ns == 0 && l.stall_ns == 0));
    }

    /// Threaded execution (one worker per shard, real barriers) is
    /// bit-identical to both and counts the same; and `run(h1);
    /// run_parallel(h2)` on one kernel — what the hour-by-hour drivers do
    /// — ends where `run(h2)` does, its profile adding up across the calls.
    #[test]
    fn parallel_matches_reference(
        seed in any::<u64>(),
        n in 2usize..40,
        shards in 2usize..5,
        hops in 0u8..12,
        churn in any::<bool>(),
        split_ms in 0u64..20_000,
    ) {
        let horizon = SimTime::from_secs(20);
        let expect = Reference::new(seed, n, hops, churn).run(horizon);
        let mut sim = build_sharded(seed, n, hops, churn, shards);
        sim.run_parallel(horizon, shards);
        prop_assert_eq!(collect_nodes(&sim), expect.nodes);
        prop_assert_eq!(sim.processed(), expect.dispatched.len() as u64);
        let world = (seed, n, hops, churn);
        check_profiled_run(world, shards, horizon, true, |sim| sim.run_parallel(horizon, 2));
        check_profiled_run(world, shards, horizon, false, |sim| {
            sim.run(SimTime::from_millis(split_ms));
            sim.run_parallel(horizon, 2)
        });
    }

    /// The hint hooks are invisible: every shard dispatches the
    /// reference's `(time, destination, tag)` sequence whether the world
    /// logs its hook calls or keeps the default no-ops, on one thread or
    /// one per shard, in the same number of windows.
    #[test]
    fn dispatch_sequence_ignores_the_hooks(
        seed in any::<u64>(),
        n in 2usize..240,
        shards in 1usize..5,
        hops in 0u8..10,
        churn in any::<bool>(),
        threaded in any::<bool>(),
    ) {
        let horizon = SimTime::from_secs(5);
        let threads = threads_for(threaded, shards);
        let expect = Reference::new(seed, n, hops, churn).run(horizon);
        let mut plain = build_sharded(seed, n, hops, churn, shards);
        plain.run_parallel(horizon, threads);
        let mut hooked = build_hooked(seed, n, hops, churn, shards);
        hooked.run_parallel(horizon, threads);
        for shard in 0..plain.partition().shards() {
            let want = expect.dispatched_at(plain.partition(), shard);
            prop_assert_eq!(&plain.world(shard).dispatched, &want, "default hooks, shard {}", shard);
            prop_assert_eq!(&hooked.world(shard).inner.dispatched, &want, "logging hooks, shard {}", shard);
        }
        prop_assert_eq!(collect_nodes(&plain), expect.nodes);
        prop_assert_eq!(plain.windows(), hooked.windows());
        prop_assert_eq!(plain.pending(), hooked.pending());
    }

    /// The hook contract and the window boundaries, over random worlds.
    #[test]
    fn hook_contract_holds_in_every_window(
        seed in any::<u64>(),
        n in 2usize..200,
        shards in 1usize..5,
        hops in 0u8..8,
        churn in any::<bool>(),
        threaded in any::<bool>(),
    ) {
        let horizon = SimTime::from_millis(1_500);
        let threads = threads_for(threaded, shards);
        let checked = check_hook_contract(seed, n, shards, hops, churn, threads, horizon);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// The contract in both regimes the ring meets, on one dense world: the
/// opening windows hold several rings' worth of events per shard, the
/// tail of the cascade a handful.
#[test]
fn hook_contract_spans_windows_shorter_and_longer_than_the_ring() {
    for (shards, threads) in [(1, 1), (2, 1), (4, 1), (3, 3)] {
        let (smallest, largest) = check_hook_contract(
            0xD15C0,
            600,
            shards,
            6,
            true,
            threads,
            SimTime::from_secs(3),
        )
        .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        assert!(
            smallest < RING / 2,
            "{shards} shards: no short window ({smallest})"
        );
        assert!(
            largest >= 3 * RING,
            "{shards} shards: no long window ({largest})"
        );
    }
}
