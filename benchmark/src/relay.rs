//! A kernel-only world: handlers cost a few nanoseconds, so the queue,
//! the dispatch loop, staging and the window merge are all of the cost.
//!
//! The experiments crate keeps a similar relay world for its
//! `shard_scaling` entry, but that one is `pub(crate)`, runs on the
//! sharded kernel only and seeds one cascade per node. This one
//! implements both [`World`] and [`ShardWorld`] over one `step`, so the
//! same event stream can be driven through every kernel variant and the
//! final checksums compared.

use ddr_sim::{
    EventLabel, EventQueue, NodeId, Partition, Scheduler, ShardCtx, ShardWorld, ShardedSimulation,
    SimDuration, SimTime, World,
};

/// Minimum message delay, and therefore the sharded kernel's lookahead
/// (the `ddr-net` LAN class floor).
pub const LOOKAHEAD: SimDuration = SimDuration::from_millis(10);

/// Neighbors per node.
pub const DEGREE: usize = 8;

/// Cascades seeded per node.
pub const CASCADES_PER_NODE: usize = 4;

/// splitmix-style mixer: topology, tags and delays are pure functions of
/// `(seed, node, hop)`, so every shard layout sees the identical world.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = (a ^ b).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One relayed message; `node` is its destination's global index.
#[derive(Clone, Copy)]
pub struct Relay {
    node: u32,
    hops: u8,
    tag: u64,
}

impl EventLabel for Relay {
    fn label(&self) -> &'static str {
        "Relay"
    }
}

/// Shape of one relay run.
#[derive(Debug, Clone, Copy)]
pub struct RelayConfig {
    pub nodes: usize,
    /// Forwards per cascade; a cascade dispatches `hops + 1` events.
    pub hops: u8,
    pub seed: u64,
}

impl RelayConfig {
    /// Cascades seeded over the whole world (the run's user-level ops).
    pub fn cascades(&self) -> u64 {
        (self.nodes * CASCADES_PER_NODE) as u64
    }

    /// Events a run to exhaustion dispatches.
    pub fn expected_events(&self) -> u64 {
        self.cascades() * (self.hops as u64 + 1)
    }

    /// The seed events in global node order: `(time, destination, event)`.
    /// Every kernel is primed from this one sequence, so creation order —
    /// the `(time, seq)` tie-break — is identical across variants.
    pub fn prime(&self) -> impl Iterator<Item = (SimTime, NodeId, Relay)> + '_ {
        (0..self.nodes).flat_map(move |g| {
            (0..CASCADES_PER_NODE as u64).map(move |c| {
                let tag = mix(self.seed ^ (c << 32), g as u64);
                let event = Relay {
                    node: g as u32,
                    hops: self.hops,
                    tag,
                };
                (SimTime::from_millis(tag % 50), NodeId::from_index(g), event)
            })
        })
    }
}

/// A contiguous slice `[base, base + len)` of the relay world, laid out
/// struct-of-arrays with one flat neighbor arena.
pub struct RelayWorld {
    base: usize,
    neighbors: Vec<u32>,
    counts: Vec<u64>,
    checksums: Vec<u64>,
}

impl RelayWorld {
    /// The slice owning `range` of a `cfg.nodes`-node world.
    pub fn slice(cfg: &RelayConfig, range: std::ops::Range<usize>) -> Self {
        let mut neighbors = Vec::with_capacity(range.len() * DEGREE);
        for g in range.clone() {
            for j in 0..DEGREE {
                neighbors.push((mix(cfg.seed ^ g as u64, j as u64 + 1) % cfg.nodes as u64) as u32);
            }
        }
        RelayWorld {
            base: range.start,
            neighbors,
            counts: vec![0; range.len()],
            checksums: vec![0; range.len()],
        }
    }

    /// The whole world as one slice, for the serial kernel.
    pub fn whole(cfg: &RelayConfig) -> Self {
        Self::slice(cfg, 0..cfg.nodes)
    }

    /// One world per shard of `partition`, in shard order.
    pub fn sharded(cfg: &RelayConfig, partition: &Partition) -> Vec<Self> {
        (0..partition.shards())
            .map(|s| Self::slice(cfg, partition.range(s)))
            .collect()
    }

    /// Count the event into its node's order-sensitive checksum and
    /// return the forward, if the cascade has hops left.
    #[inline]
    fn step(&mut self, now: SimTime, ev: Relay) -> Option<(NodeId, SimDuration, Relay)> {
        let i = ev.node as usize - self.base;
        self.counts[i] += 1;
        self.checksums[i] = mix(self.checksums[i], mix(now.as_millis(), ev.tag));
        if ev.hops == 0 {
            return None;
        }
        let t = mix(ev.tag, ev.hops as u64);
        let dest = self.neighbors[i * DEGREE + (t % DEGREE as u64) as usize];
        let delay = LOOKAHEAD + SimDuration::from_millis(t % 23);
        let forward = Relay {
            node: dest,
            hops: ev.hops - 1,
            tag: t,
        };
        Some((NodeId::from_index(dest as usize), delay, forward))
    }
}

impl World for RelayWorld {
    type Event = Relay;

    fn handle(&mut self, now: SimTime, ev: Relay, sched: &mut Scheduler<'_, Relay>) {
        if let Some((_, delay, forward)) = self.step(now, ev) {
            sched.after(delay, forward);
        }
    }
}

impl ShardWorld for RelayWorld {
    type Event = Relay;

    fn handle(&mut self, now: SimTime, ev: Relay, ctx: &mut ShardCtx<'_, Relay>) {
        if let Some((dest, delay, forward)) = self.step(now, ev) {
            ctx.send(dest, delay, forward);
        }
    }
}

/// Order-sensitive fold of every node's `(count, checksum)` over `worlds`
/// in global node order. Equal folds mean the identical event sequence
/// reached every node.
pub fn checksum<'a>(worlds: impl IntoIterator<Item = &'a RelayWorld>) -> u64 {
    let mut acc = 0u64;
    for w in worlds {
        for (&c, &k) in w.counts.iter().zip(&w.checksums) {
            acc = mix(acc, mix(c, k));
        }
    }
    acc
}

/// A primed serial queue for `cfg`.
pub fn primed_queue(cfg: &RelayConfig) -> EventQueue<Relay> {
    let mut queue = EventQueue::with_capacity(cfg.cascades() as usize);
    for (at, _, ev) in cfg.prime() {
        queue.schedule_at(at, ev);
    }
    queue
}

/// A primed sharded kernel for `cfg` over `worlds`.
pub fn primed_sharded(
    cfg: &RelayConfig,
    worlds: Vec<RelayWorld>,
    partition: Partition,
) -> ShardedSimulation<RelayWorld> {
    let mut sim = ShardedSimulation::new(worlds, partition, LOOKAHEAD);
    for (at, dest, ev) in cfg.prime() {
        sim.schedule_at(at, dest, ev);
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_sim::{RunOutcome, Simulation};

    const CFG: RelayConfig = RelayConfig {
        nodes: 512,
        hops: 9,
        seed: 42,
    };
    /// `run_parallel` needs a finite horizon; cascades die within a second.
    const NEVER: SimTime = SimTime::from_hours(1_000);

    fn sharded(shards: usize, threads: usize) -> (u64, u64) {
        let partition = Partition::contiguous(CFG.nodes, shards);
        let worlds = RelayWorld::sharded(&CFG, &partition);
        let mut sim = primed_sharded(&CFG, worlds, partition);
        assert_eq!(sim.run_parallel(NEVER, threads), RunOutcome::Exhausted);
        (sim.processed(), checksum(sim.worlds()))
    }

    #[test]
    fn every_kernel_variant_folds_to_the_same_checksum() {
        let mut serial = Simulation::with_queue(RelayWorld::whole(&CFG), primed_queue(&CFG));
        assert_eq!(serial.run(NEVER), RunOutcome::Exhausted);
        let reference = (serial.processed(), checksum([serial.world()]));
        assert_eq!(reference.0, CFG.expected_events());
        assert_eq!(sharded(1, 1), reference, "sharded(1)");
        assert_eq!(sharded(2, 1), reference, "sharded(2), one thread");
        assert_eq!(sharded(2, 2), reference, "sharded(2), two threads");
    }

    #[test]
    fn seed_changes_the_world() {
        let other = RelayConfig { seed: 43, ..CFG };
        let run = |cfg: &RelayConfig| {
            let mut sim = Simulation::with_queue(RelayWorld::whole(cfg), primed_queue(cfg));
            sim.run(NEVER);
            checksum([sim.world()])
        };
        assert_ne!(run(&CFG), run(&other));
    }
}
