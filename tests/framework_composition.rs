//! Integration test composing the framework's pieces *outside* the
//! provided case studies: a hand-rolled mini search loop over `ddr-sim`,
//! `ddr-overlay`, `ddr-net` and `ddr-core` directly. This is the
//! "downstream user" path — the framework must be usable without
//! `ddr-gnutella`.

use ddr_repro::core::stats_store::ReplyObservation;
use ddr_repro::core::{
    DupCache, ForwardSelection, QueryDescriptor, SearchStrategy, StatsStore, UpdatePlan,
};
use ddr_repro::net::NetworkModel;
use ddr_repro::overlay::NeighborList;
use ddr_repro::sim::{
    EventQueue, ItemId, NodeId, QueryId, RngFactory, Scheduler, SimTime, Simulation, World,
};

const N: usize = 12;
const DEGREE: usize = 3;

/// A toy world: node k holds item k*10; everyone floods queries with a
/// hop limit; the asker records who answered.
struct MiniWorld {
    out: Vec<NeighborList>,
    net: NetworkModel,
    seen: Vec<DupCache>,
    stats: Vec<StatsStore>,
    rng: rand::rngs::SmallRng,
    answers: Vec<Vec<NodeId>>,
    messages: u64,
}

#[derive(Clone, Copy)]
enum Ev {
    Query {
        to: NodeId,
        from: NodeId,
        desc: QueryDescriptor,
    },
    Reply {
        to: NodeId,
        from: NodeId,
    },
}

impl MiniWorld {
    fn holds(node: NodeId, item: ItemId) -> bool {
        item.0 == node.0 * 10
    }

    fn forward(
        &mut self,
        from_node: NodeId,
        exclude: Option<NodeId>,
        desc: QueryDescriptor,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let targets = ForwardSelection::All.select(
            self.out[from_node.index()].as_slice(),
            exclude,
            &self.stats[from_node.index()],
            |s| s.benefit,
            &mut self.rng,
        );
        for t in targets {
            let d = self.net.one_way_delay(&mut self.rng, from_node, t);
            self.messages += 1;
            sched.after(
                d,
                Ev::Query {
                    to: t,
                    from: from_node,
                    desc,
                },
            );
        }
    }
}

impl World for MiniWorld {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
        match ev {
            Ev::Query { to, from, desc } => {
                if !self.seen[to.index()].first_sighting(desc.id) {
                    return;
                }
                if MiniWorld::holds(to, desc.item) {
                    let d = self.net.one_way_delay(&mut self.rng, to, desc.origin);
                    sched.after(
                        d,
                        Ev::Reply {
                            to: desc.origin,
                            from: to,
                        },
                    );
                    return;
                }
                if desc.ttl > 1 {
                    let fwd = desc.next_hop();
                    self.forward(to, Some(from), fwd, sched);
                }
            }
            Ev::Reply { to, from } => {
                self.answers[to.index()].push(from);
                self.stats[to.index()].record_reply(ReplyObservation {
                    from,
                    bandwidth: None,
                    score: 1.0,
                    latency_ms: 100.0,
                    at: now,
                });
            }
        }
    }
}

fn ring_world(seed: u64) -> MiniWorld {
    // Directed ring with skip links: i -> i+1, i -> i+2, i -> i+5.
    let mut out = vec![NeighborList::with_capacity(DEGREE); N];
    for (i, list) in out.iter_mut().enumerate() {
        for off in [1usize, 2, 5] {
            assert!(list.add(NodeId::from_index((i + off) % N)));
        }
    }
    let rngs = RngFactory::new(seed);
    MiniWorld {
        out,
        net: NetworkModel::paper(N, &rngs),
        seen: (0..N).map(|_| DupCache::new(64)).collect(),
        stats: (0..N).map(|_| StatsStore::new()).collect(),
        rng: rngs.stream("mini", 0),
        answers: vec![Vec::new(); N],
        messages: 0,
    }
}

#[test]
fn flood_search_finds_reachable_items() {
    let mut world = ring_world(1);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    // node 0 searches for node 5's item (5 = one skip-link hop away)
    let desc = QueryDescriptor {
        id: QueryId(1),
        origin: NodeId(0),
        item: ItemId(50),
        ttl: SearchStrategy::Bfs.launch_ttl(3),
        travelled: 1,
        issued_at: SimTime::ZERO,
    };
    world.seen[0].first_sighting(desc.id);
    {
        let mut sched = queue.scheduler();
        world.forward(NodeId(0), None, desc, &mut sched);
    }
    let mut sim = Simulation::new(world);
    while let Some((t, e)) = queue.pop() {
        sim.schedule_at(t, e);
    }
    sim.run(SimTime::from_secs(30));
    let world = sim.world();
    assert_eq!(
        world.answers[0],
        vec![NodeId(5)],
        "item 50 must be found once"
    );
    assert!(world.messages > 0);
}

#[test]
fn hop_limit_bounds_reach() {
    // Node 9 is unreachable in 2 hops from node 0: two-hop offset sums
    // over {1,2,5} are {2,3,4,6,7,10}, and 9 is not among them.
    let mut world = ring_world(2);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let desc = QueryDescriptor {
        id: QueryId(2),
        origin: NodeId(0),
        item: ItemId(90),
        ttl: 2,
        travelled: 1,
        issued_at: SimTime::ZERO,
    };
    world.seen[0].first_sighting(desc.id);
    {
        let mut sched = queue.scheduler();
        world.forward(NodeId(0), None, desc, &mut sched);
    }
    let mut sim = Simulation::new(world);
    while let Some((t, e)) = queue.pop() {
        sim.schedule_at(t, e);
    }
    sim.run(SimTime::from_secs(30));
    assert!(
        sim.world().answers[0].is_empty(),
        "node 9 must be out of 2-hop reach: {:?}",
        sim.world().answers[0]
    );
}

#[test]
fn stats_feed_asymmetric_update() {
    // After a successful search, the responder should enter node 0's
    // best-neighborhood plan.
    let mut world = ring_world(3);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let desc = QueryDescriptor {
        id: QueryId(3),
        origin: NodeId(0),
        item: ItemId(70),
        ttl: 3,
        travelled: 1,
        issued_at: SimTime::ZERO,
    };
    world.seen[0].first_sighting(desc.id);
    {
        let mut sched = queue.scheduler();
        world.forward(NodeId(0), None, desc, &mut sched);
    }
    let mut sim = Simulation::new(world);
    while let Some((t, e)) = queue.pop() {
        sim.schedule_at(t, e);
    }
    sim.run(SimTime::from_secs(30));
    let world = sim.world();
    assert_eq!(world.answers[0], vec![NodeId(7)]);

    let current: Vec<NodeId> = world.out[0].iter().collect();
    let mut plan = UpdatePlan::default();
    plan.replan(
        &current,
        &world.stats[0],
        |s| s.benefit,
        DEGREE,
        usize::MAX,
        |n| n != NodeId(0),
    );
    assert!(
        plan.add.contains(&NodeId(7)),
        "the only node with benefit must be adopted: {plan:?}"
    );
    assert_eq!(plan.add.len(), 1);
    assert_eq!(plan.evict.len(), 1, "capacity forces one eviction");
}
