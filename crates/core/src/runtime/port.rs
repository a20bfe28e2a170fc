//! The engine port: everything a node handler does to the outside world.
//!
//! The paper's algorithms (search, exploration, neighbor update,
//! duplicate suppression) are per-node state machines that read the time
//! and send messages; nothing about them requires virtual time. [`Port`]
//! is that boundary, two methods wide:
//!
//! * `now()` — virtual time in the simulator, milliseconds since process
//!   start under the serve bus;
//! * `send(to, delay, event)` — deliver `event` to node `to` after
//!   `delay`. The *caller* samples the delay (it owns the `NetworkModel`
//!   and the RNG stream that feeds it); the port only moves the message.
//!
//! **A timer is a message to self**: `send(me, delay, event)`. No engine
//! ever treated the two differently, so there is no separate scheduling
//! method to implement or to keep in step.
//!
//! `to` is the routing key. The serial [`Scheduler`] ignores it (its
//! events carry their recipient in the payload and there is one queue);
//! the sharded kernel's [`ShardCtx`] picks the owning shard by it, and
//! the serve bus by the event's own target, which is the same node.
//!
//! Three types implement the port: [`Scheduler`] and [`ShardCtx`] for the
//! two simulation kernels, and `ddr-serve`'s bus context, whether its
//! shards run on the wall clock or, deterministically, on a virtual one —
//! all three driving the same `GnutellaWorld::dispatch`. Handlers are
//! generic over the port, not `dyn`: every engine monomorphizes its hot
//! path.

use ddr_sim::{NodeId, Scheduler, ShardCtx, SimDuration, SimTime};

/// What a node handler may do to the world outside its own state: read
/// the clock and send a message — to a peer, or to itself as a timer.
pub trait Port<E> {
    /// Current time.
    fn now(&self) -> SimTime;

    /// Deliver `event` to node `to` after `delay`.
    fn send(&mut self, to: NodeId, delay: SimDuration, event: E);
}

impl<E> Port<E> for Scheduler<'_, E> {
    #[inline]
    fn now(&self) -> SimTime {
        Scheduler::now(self)
    }

    #[inline]
    fn send(&mut self, _to: NodeId, delay: SimDuration, event: E) {
        self.after(delay, event);
    }
}

impl<E> Port<E> for ShardCtx<'_, E> {
    #[inline]
    fn now(&self) -> SimTime {
        ShardCtx::now(self)
    }

    /// Panics on a `delay` below the kernel's lookahead, timers included.
    #[inline]
    fn send(&mut self, to: NodeId, delay: SimDuration, event: E) {
        ShardCtx::send(self, to, delay, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_sim::{Partition, ShardWorld, ShardedSimulation, Simulation, World};

    const NODES: usize = 4;
    const LOOKAHEAD: SimDuration = SimDuration::from_millis(10);

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Ping {
            to: NodeId,
            hops: u64,
            timer_ms: u64,
        },
        Timer {
            node: NodeId,
        },
    }

    /// The one handler every engine runs: log the delivery, pass the
    /// ping to the next node and set a timer on this one.
    fn on<C: Port<Ev>>(log: &mut Vec<(SimTime, Ev)>, ev: Ev, ctx: &mut C) {
        log.push((ctx.now(), ev));
        if let Ev::Ping {
            to: me,
            hops: hops @ 1..,
            timer_ms,
        } = ev
        {
            let to = NodeId::from_index((me.index() + 1) % NODES);
            let ping = Ev::Ping {
                to,
                hops: hops - 1,
                timer_ms,
            };
            ctx.send(to, SimDuration::from_millis(10 + hops), ping);
            let timer = Ev::Timer { node: me };
            ctx.send(me, SimDuration::from_millis(timer_ms), timer);
        }
    }

    /// One slice of the toy world; it only owns its log.
    #[derive(Default)]
    struct Logged(Vec<(SimTime, Ev)>);

    impl World for Logged {
        type Event = Ev;
        fn handle(&mut self, _: SimTime, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
            on(&mut self.0, ev, sched);
        }
    }

    impl ShardWorld for Logged {
        type Event = Ev;
        fn handle(&mut self, _: SimTime, ev: Ev, ctx: &mut ShardCtx<'_, Ev>) {
            on(&mut self.0, ev, ctx);
        }
    }

    fn sharded(shards: usize, first: Ev) -> Vec<(SimTime, Ev)> {
        let partition = Partition::contiguous(NODES, shards);
        let worlds = (0..shards).map(|_| Logged::default()).collect();
        let mut sim = ShardedSimulation::new(worlds, partition, LOOKAHEAD);
        sim.schedule_at(SimTime::ZERO, NodeId(0), first);
        sim.run(SimTime::MAX);
        let mut log: Vec<_> = sim.into_worlds().into_iter().flat_map(|w| w.0).collect();
        log.sort();
        log
    }

    #[test]
    fn one_handler_same_log_under_every_kernel() {
        let first = Ev::Ping {
            to: NodeId(0),
            hops: 9,
            timer_ms: 25,
        };
        let mut sim = Simulation::new(Logged::default());
        sim.schedule_at(SimTime::ZERO, first);
        sim.run(SimTime::MAX);
        let mut serial = sim.into_world().0;
        serial.sort();
        // 10 pings, and a timer behind each one that still had hops.
        assert_eq!(serial.len(), 19);
        assert_eq!(sharded(1, first), serial);
        assert_eq!(sharded(2, first), serial);
    }

    #[test]
    #[should_panic(expected = "delay >= lookahead")]
    fn a_timer_under_the_lookahead_panics_on_the_sharded_kernel() {
        let first = Ev::Ping {
            to: NodeId(0),
            hops: 1,
            timer_ms: 9,
        };
        sharded(1, first);
    }
}
