//! The kernel on a toy node-local world: the partition, both executors
//! against each other across shard counts, the three ways a run stops,
//! the window merge on hand-built outboxes, and the lookahead assertion.
//! The differential suite against a serial reference is
//! `tests/prop_sharded.rs`.

use super::*;

/// A node-local ping world: each event increments the destination's
/// counter, folds `(now, gseq-order)` into an order-sensitive
/// checksum, and forwards a shrinking hop count to a deterministic
/// next node.
struct PingWorld {
    base: usize,
    counts: Vec<u64>,
    checksums: Vec<u64>,
    total_nodes: usize,
}

#[derive(Clone)]
struct Ping {
    hops: u32,
    tag: u64,
}

fn mix(a: u64, b: u64) -> u64 {
    (a ^ b)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(27)
        .wrapping_add(b)
}

impl ShardWorld for PingWorld {
    type Event = Ping;
    fn handle(&mut self, now: SimTime, ev: Ping, ctx: &mut ShardCtx<'_, Ping>) {
        // Which node an event addresses is implicit in this toy
        // world: the tag encodes it.
        let local = (ev.tag % self.total_nodes as u64) as usize;
        if local < self.base || local >= self.base + self.counts.len() {
            panic!("event routed to the wrong shard");
        }
        let i = local - self.base;
        self.counts[i] += 1;
        self.checksums[i] = mix(self.checksums[i], mix(now.as_millis(), ev.tag));
        if ev.hops > 0 {
            let next_tag = mix(ev.tag, ev.hops as u64);
            let dest = NodeId::from_index((next_tag % self.total_nodes as u64) as usize);
            let delay = SimDuration::from_millis(10 + (next_tag % 97));
            ctx.send(
                dest,
                delay,
                Ping {
                    hops: ev.hops - 1,
                    tag: next_tag,
                },
            );
        }
    }
}

fn build(nodes: usize, shards: usize) -> ShardedSimulation<PingWorld> {
    let partition = Partition::contiguous(nodes, shards);
    let worlds = (0..partition.shards())
        .map(|s| {
            let r = partition.range(s);
            PingWorld {
                base: r.start,
                counts: vec![0; r.len()],
                checksums: vec![0; r.len()],
                total_nodes: nodes,
            }
        })
        .collect();
    let mut sim = ShardedSimulation::new(worlds, partition, SimDuration::from_millis(10));
    for i in 0..nodes as u64 {
        let tag = mix(i, 0xD15C0);
        let dest = NodeId::from_index((tag % nodes as u64) as usize);
        sim.schedule_at(SimTime::from_millis(i % 7), dest, Ping { hops: 40, tag });
    }
    sim
}

fn fingerprint(sim: &ShardedSimulation<PingWorld>) -> Vec<(u64, u64)> {
    sim.worlds()
        .flat_map(|w| w.counts.iter().copied().zip(w.checksums.iter().copied()))
        .collect()
}

/// Every slice is non-empty (no shard gets a world, a lane and a thread
/// for nothing), the slices tile `0..nodes` in order, and `shard_of`
/// agrees with `range`.
#[test]
fn partition_slices_are_non_empty_and_tile_the_nodes_in_order() {
    for nodes in 1..=64 {
        for shards in 1..=16 {
            let p = Partition::contiguous(nodes, shards);
            assert!(p.shards() <= shards.min(nodes), "{nodes}/{shards}");
            let mut next = 0;
            for s in 0..p.shards() {
                let range = p.range(s);
                assert!(!range.is_empty(), "{nodes}/{shards}: slice {s} is empty");
                assert_eq!(range.start, next, "{nodes}/{shards}: slice {s}");
                for i in range.clone() {
                    assert_eq!(p.shard_of(NodeId::from_index(i)), s);
                }
                next = range.end;
            }
            assert_eq!(next, nodes, "{nodes}/{shards}");
        }
    }
}

#[test]
fn serial_run_drains_to_exhaustion() {
    let mut sim = build(50, 4);
    let outcome = sim.run(SimTime::MAX);
    assert_eq!(outcome, RunOutcome::Exhausted);
    // 50 seeds × 41 dispatches each (hops 40..=0).
    assert_eq!(sim.processed(), 50 * 41);
    assert_eq!(sim.pending(), 0);
    assert!(sim.windows() > 0);
}

#[test]
fn parallel_is_bit_identical_to_serial_across_shard_counts() {
    let mut reference = build(64, 1);
    reference.run(SimTime::MAX);
    let expect = fingerprint(&reference);
    for shards in [2, 3, 4, 7] {
        let mut serial = build(64, shards);
        serial.run(SimTime::MAX);
        assert_eq!(fingerprint(&serial), expect, "serial x{shards}");
        assert_eq!(serial.processed(), reference.processed());

        let mut parallel = build(64, shards);
        parallel.run_parallel(SimTime::from_hours(1_000_000), shards);
        assert_eq!(fingerprint(&parallel), expect, "parallel x{shards}");
        assert_eq!(parallel.windows(), serial.windows());
    }
}

#[test]
fn horizon_stops_both_runs_at_the_same_frontier() {
    let horizon = SimTime::from_millis(1_500);
    let mut serial = build(64, 3);
    assert_eq!(serial.run(horizon), RunOutcome::ReachedHorizon);
    let mut parallel = build(64, 3);
    assert_eq!(
        parallel.run_parallel(horizon, 3),
        RunOutcome::ReachedHorizon
    );
    assert_eq!(fingerprint(&parallel), fingerprint(&serial));
    assert_eq!(parallel.processed(), serial.processed());
    assert_eq!(parallel.pending(), serial.pending());
}

/// A world that never runs: the merge test builds its shards by hand.
struct Inert;

impl ShardWorld for Inert {
    type Event = usize;
    fn handle(&mut self, _: SimTime, _: usize, _: &mut ShardCtx<'_, usize>) {}
}

/// One shard's outbox as creation keys `(parent_time ms, parent_gseq,
/// child_idx)`, each run sorted and every key unique, as a window leaves
/// them.
type Run = &'static [(u64, u64, u32)];

/// `Coordinator::merge` over hand-built outboxes: the seqs it assigns
/// (from 100 on) are those of a sort by key, every event lands in its
/// destination shard's queue, every outbox is emptied, and the profile
/// counts what crossed.
fn check_merge(case: &str, runs: &[Run]) {
    let nodes = 4 * runs.len();
    let partition = Partition::contiguous(nodes, runs.len());
    // (key, event id, crosses shards), in outbox order.
    let mut expect = Vec::new();
    let mut shards = Vec::new();
    for (src, run) in runs.iter().enumerate() {
        let mut staged = VecDeque::new();
        for &(t, g, c) in run.iter() {
            let id = expect.len();
            let dest = NodeId::from_index((id * 5 + 3) % nodes);
            expect.push(((t, g, c), id, partition.shard_of(dest) != src));
            staged.push_back(merge::Staged {
                parent_time: SimTime::from_millis(t),
                parent_gseq: g,
                child_idx: c,
                time: SimTime::from_millis(t + 10),
                dest,
                event: id,
            });
        }
        shards.push(Shard {
            world: Inert,
            queue: EventQueue::new(),
            ring: Lookahead::default(),
            staged,
            lane: ShardLane::default(),
        });
    }
    let mut coord = Coordinator {
        partition: partition.clone(),
        lookahead: SimDuration::from_millis(10),
        next_gseq: 100,
        profiling: true,
        profile: ShardProfile::default(),
    };
    coord.merge(&mut shards.iter_mut().collect::<Vec<_>>());

    let crossed = expect.iter().filter(|e| e.2).count() as u64;
    expect.sort_by_key(|e| e.0);
    let mut want: Vec<(usize, u64)> = (100..).zip(&expect).map(|(s, e)| (e.1, s)).collect();
    want.sort_unstable();
    let mut got = Vec::new();
    for (i, shard) in shards.iter_mut().enumerate() {
        assert!(shard.staged.is_empty(), "{case}: outbox {i} not drained");
        while let Some((_, (gseq, id))) = shard.queue.pop() {
            let dest = partition.shard_of(NodeId::from_index((id * 5 + 3) % nodes));
            assert_eq!(dest, i, "{case}: event {id} routed to the wrong shard");
            got.push((id, gseq));
        }
    }
    got.sort_unstable();
    assert_eq!(got, want, "{case}: seqs differ from a sort by key");
    assert_eq!(coord.next_gseq, 100 + expect.len() as u64, "{case}");
    assert_eq!(coord.profile.merged_events, expect.len() as u64, "{case}");
    assert_eq!(coord.profile.cross_shard_events, crossed, "{case}");
}

#[test]
fn merge_assigns_the_seqs_of_a_sort_by_key() {
    let cases: &[(&str, &[Run])] = &[
        (
            "one run",
            &[&[(0, 1, 0), (0, 1, 1), (0, 2, 0), (3, 4, 0), (3, 4, 1)]],
        ),
        ("one empty run", &[&[]]),
        ("two empty runs", &[&[], &[]]),
        (
            "one of two empty",
            &[&[], &[(2, 7, 0), (2, 7, 1), (5, 9, 0)]],
        ),
        (
            "two runs tied on time, interleaved on gseq",
            &[
                &[(5, 1, 0), (5, 3, 0), (5, 3, 1), (5, 6, 0)],
                &[(5, 2, 0), (5, 4, 0), (5, 5, 0), (7, 7, 0)],
            ],
        ),
        (
            "a long run beside singletons",
            &[
                &[
                    (1, 1, 0),
                    (1, 1, 1),
                    (1, 2, 0),
                    (1, 3, 0),
                    (1, 4, 0),
                    (1, 4, 1),
                    (1, 4, 2),
                    (1, 6, 0),
                    (1, 7, 0),
                    (2, 8, 0),
                    (2, 10, 0),
                    (2, 11, 0),
                ],
                &[(1, 5, 0)],
                &[(0, 0, 0)],
            ],
        ),
        (
            "five runs: empties, ties across three, a late singleton",
            &[
                &[(4, 10, 0), (4, 10, 1), (4, 13, 0), (6, 17, 0), (9, 20, 0)],
                &[],
                &[(4, 11, 0), (4, 12, 0), (4, 12, 1), (4, 12, 2), (6, 15, 0)],
                &[(4, 14, 0), (6, 16, 0), (6, 18, 0)],
                &[(12, 30, 0)],
            ],
        ),
    ];
    for &(case, runs) in cases {
        check_merge(case, runs);
    }
}

#[test]
#[should_panic(expected = "delay >= lookahead")]
fn sub_lookahead_send_panics() {
    struct Eager;
    impl ShardWorld for Eager {
        type Event = ();
        fn handle(&mut self, _: SimTime, _: (), ctx: &mut ShardCtx<'_, ()>) {
            ctx.send(NodeId::from_index(0), SimDuration::from_millis(1), ());
        }
    }
    let mut sim = ShardedSimulation::new(
        vec![Eager],
        Partition::contiguous(1, 1),
        SimDuration::from_millis(10),
    );
    sim.schedule_at(SimTime::ZERO, NodeId::from_index(0), ());
    sim.run(SimTime::MAX);
}
