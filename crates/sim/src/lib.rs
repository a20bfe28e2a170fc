//! # ddr-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the execution substrate for the reproduction of
//! *"A General Framework for Searching in Distributed Data Repositories"*
//! (Bakiras et al., IPDPS 2003). The paper evaluates its framework with a
//! pure software simulation of a 2 000-node content-sharing network; this
//! crate provides the pieces every such simulation needs:
//!
//! * [`SimTime`] — a millisecond-resolution virtual clock with convenient
//!   constructors (`SimTime::from_hours(4 * 24)` …).
//! * [`EventQueue`] / [`Scheduler`] — a calendar-queue future-event list
//!   (bucketed time wheel + overflow heap) with **deterministic
//!   tie-breaking** (FIFO among equal timestamps), so a simulation is a
//!   pure function of `(config, seed)`. The original binary heap survives
//!   as [`ReferenceEventQueue`], the executable specification used by the
//!   differential tests.
//! * [`Simulation`] and the [`World`] trait — a minimal driver loop.
//! * [`rng`] — reproducible RNG plumbing: one root seed, split into
//!   independent per-subsystem streams via SplitMix64, and the one
//!   Box–Muller sampler ([`rng::standard_normal`]).
//! * [`hash`] — an FxHash-style integer hasher and `FastHashMap`/`FastHashSet`
//!   aliases for the hot integer-keyed maps in the event loop (implemented
//!   locally to keep the dependency set minimal).
//! * [`probe`] — kernel-profiling hooks ([`EventLabel`], [`KernelProbe`])
//!   consumed by [`Simulation::run_probed`]; `run` is the same loop
//!   compiled without them.
//! * [`sharded`] — the conservative parallel kernel: nodes partitioned
//!   across shards, each with its own calendar queue, advanced in
//!   lookahead-bounded windows by one coordinator (on the calling thread
//!   or over a worker per shard) with a single-threaded deterministic
//!   cross-shard merge, so a parallel run is bit-identical to the serial
//!   one.
//! * [`lookahead`] — latency-hiding dispatch, once: the [`Lookahead`]
//!   ring both the sharded kernel and the `ddr-serve` bus dispatch
//!   through, and the one prefetch primitive their hints are made of.
//! * [`parallelism`] — the one shared worker-count default every layer
//!   (sweeps, CLI `--threads`/`--shards`, serve shards) resolves through,
//!   and [`map_chunked`], the data-parallel map a world's build runs on.
//!
//! ## Determinism contract
//!
//! Two runs with identical configuration and seed produce byte-identical
//! event sequences. The kernel guarantees its part of the contract by
//! breaking heap ties on a monotone sequence number; user code keeps the
//! contract by drawing randomness only from streams derived via
//! [`rng::RngFactory`].

pub mod engine;
pub mod event;
pub mod hash;
pub mod id;
pub mod lookahead;
pub mod metrics;
pub mod parallelism;
pub mod probe;
pub mod rng;
pub mod sharded;
pub mod time;

pub use engine::{RunOutcome, Simulation, World};
pub use event::{
    event_capacity_hint, wheel_buckets_for, EventQueue, ReferenceEventQueue, Scheduler,
    DEFAULT_WHEEL_BUCKETS, MAX_WHEEL_BUCKETS, MIN_WHEEL_BUCKETS,
};
pub use hash::{FastHashMap, FastHashSet, FxHasher};
pub use id::{ItemId, NodeId, QueryId};
pub use lookahead::{prefetch_line, prefetch_object, HintStage, Lookahead};
pub use metrics::MetricsHub;
pub use parallelism::{default_workers, map_chunked, resolve_workers};
pub use probe::{EventLabel, KernelProbe, QueueSample};
pub use rng::RngFactory;
pub use sharded::{Partition, ShardCtx, ShardLane, ShardProfile, ShardWorld, ShardedSimulation};
pub use time::{SimDuration, SimTime};
