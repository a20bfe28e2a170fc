//! Policy playground: exercise the framework's pluggable pieces directly —
//! forward-selection policies, benefit functions, iterative deepening and
//! the invitation protocol — on a hand-built overlay, without running a
//! full scenario.
//!
//! ```text
//! cargo run --release --example policy_playground
//! ```

use ddr_repro::core::stats_store::ReplyObservation;
use ddr_repro::core::{
    CategorySummary, ForwardSelection, InvitationPolicy, LocalIndex, SearchStrategy, StatsStore,
};
use ddr_repro::net::BandwidthClass;
use ddr_repro::sim::{ItemId, NodeId, RngFactory, SimTime};

fn main() {
    // A node with 4 neighbors and some accumulated statistics.
    let neighbors = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
    let mut stats = StatsStore::new();
    for (node, bw, score) in [
        (NodeId(1), BandwidthClass::Lan, 3.0),
        (NodeId(2), BandwidthClass::Modem56K, 0.4),
        (NodeId(3), BandwidthClass::Cable, 1.5),
        // node 4 never answered anything
    ] {
        stats.record_reply(ReplyObservation {
            from: node,
            bandwidth: Some(bw),
            score,
            latency_ms: 150.0,
            at: SimTime::from_secs(10),
        });
    }

    // --- forward selection -------------------------------------------------
    let rngs = RngFactory::new(99);
    let mut rng = rngs.stream("demo", 0);
    println!("forward-target selection over neighbors {{1,2,3,4}}:");
    for policy in [
        ForwardSelection::All,
        ForwardSelection::RandomK(2),
        ForwardSelection::TopKBenefit(2),
    ] {
        let picked = policy.select(&neighbors, None, &stats, |s| s.benefit, &mut rng);
        println!("  {:<16} -> {:?}", policy.label(), picked);
    }

    // --- iterative deepening -----------------------------------------------
    let deepening = SearchStrategy::IterativeDeepening {
        depths: vec![1, 2, 4],
    };
    let waves: Vec<u8> = (0..).map_while(|w| deepening.wave_depth(w)).collect();
    println!(
        "\n{}: launches at TTL {} under a hop limit of 4, then deepens through {:?}",
        deepening.label(),
        deepening.launch_ttl(4),
        &waves[1..]
    );

    // --- invitation protocol -----------------------------------------------
    println!("\ninvitation decisions (capacity 4, list full):");
    // The unknown inviter shares songs of category 1, the node category 0.
    let summary = |song| CategorySummary::build(&[ItemId(song)], 2, |i| i.0 as usize);
    for policy in [
        InvitationPolicy::AlwaysAccept,
        InvitationPolicy::BenefitGated,
        InvitationPolicy::SummaryGated {
            min_similarity: 0.5,
        },
    ] {
        let d = policy.decide(
            NodeId(9),
            &neighbors,
            &stats,
            |s| s.benefit,
            || summary(1).similarity(&summary(0)),
        );
        match d {
            Some(evict) => println!("  {policy:?}: accept, evicting {evict:?}"),
            None => println!("  {policy:?}: reject"),
        }
    }

    // --- local indices -----------------------------------------------------
    // Per-node neighbor views of the chain 0 → 1 → 2 → 3.
    let views = [vec![NodeId(1)], vec![NodeId(2)], vec![NodeId(3)], vec![]];
    let contents = [
        vec![],
        vec![ItemId(10)],
        vec![ItemId(20), ItemId(21)],
        vec![ItemId(30)],
    ];
    let index = LocalIndex::build_from(
        NodeId(0),
        |n| &views[n.index()],
        2,
        |n| (BandwidthClass::Cable, contents[n.index()].iter()),
    );
    println!(
        "\nlocal index at n0 (radius 2): {} items over {} nodes; holders of i20: {:?}",
        index.len(),
        index.indexed_nodes(),
        index.holders(ItemId(20))
    );
    println!(
        "item i30 is 3 hops away, outside the index: {:?}",
        index.holders(ItemId(30))
    );
}
