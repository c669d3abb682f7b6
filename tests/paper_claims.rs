//! Integration tests for the paper's headline qualitative claims, exercised across the
//! topology, search, and analysis crates at a reduced (but not toy) scale.
//!
//! These tests pin the *direction* of every effect the paper reports; absolute values are
//! scale-dependent, and the `reproduce` binary of `sfo-experiments` prints them per scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfoverlay::analysis::fit_exponent_from_counts;
use sfoverlay::graph::generators::GeometricRandomNetwork;
use sfoverlay::graph::traversal;
use sfoverlay::prelude::*;
use sfoverlay::search::experiment::{average_over_sources, rw_normalized_to_nf, ttl_sweep};
use sfoverlay::topology::DiscoverAndAttempt;

const N: usize = 2_000;
const SEARCHES: usize = 40;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn mean_hits(
    graph: &sfoverlay::graph::Graph,
    algo: &dyn SearchAlgorithm,
    ttl: u32,
    seed: u64,
) -> f64 {
    average_over_sources(graph, algo, ttl, SEARCHES, &mut rng(seed)).mean_hits
}

/// Paper §III-B / Fig. 1(c): applying harder cutoffs to PA lowers the fitted degree
/// exponent, and the distribution accumulates nodes at the cutoff.
#[test]
fn harder_cutoffs_lower_the_pa_degree_exponent() {
    let fit_for = |k_c: usize| {
        let graph = PreferentialAttachment::new(6_000, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(k_c))
            .generate(&mut rng(1))
            .unwrap();
        let hist = sfoverlay::graph::degree_histogram(&graph);
        assert!(
            hist.count(k_c) > hist.count(k_c - 1),
            "k_c={k_c}: no accumulation at the cutoff"
        );
        fit_exponent_from_counts(&hist.counts, 2, k_c - 1)
            .expect("fit succeeds")
            .gamma
    };
    let gamma_10 = fit_for(10);
    let gamma_50 = fit_for(50);
    assert!(
        gamma_10 < gamma_50 + 0.1,
        "exponent with k_c=10 ({gamma_10:.2}) should not exceed the k_c=50 exponent ({gamma_50:.2})"
    );
}

/// Paper §V-B.1 / Fig. 6: without a cutoff, flooding reaches more peers for the same τ than
/// with a tight cutoff, but increasing m to 3 makes the difference negligible.
#[test]
fn three_links_per_peer_neutralize_the_cutoff_penalty_for_flooding() {
    let tau = 5u32;
    let hits = |m: usize, cutoff: DegreeCutoff, seed: u64| {
        let graph = PreferentialAttachment::new(N, m)
            .unwrap()
            .with_cutoff(cutoff)
            .generate(&mut rng(seed))
            .unwrap();
        mean_hits(&graph, &Flooding::new(), tau, seed)
    };
    let m1_free = hits(1, DegreeCutoff::Unbounded, 2);
    let m1_capped = hits(1, DegreeCutoff::hard(10), 2);
    assert!(
        m1_capped < m1_free,
        "m=1: the cutoff should hurt flooding ({m1_capped:.1} >= {m1_free:.1})"
    );

    let m3_free = hits(3, DegreeCutoff::Unbounded, 3);
    let m3_capped = hits(3, DegreeCutoff::hard(10), 3);
    let penalty = (m3_free - m3_capped) / m3_free;
    assert!(
        penalty < 0.25,
        "m=3: the cutoff penalty should be small, got {:.0}%",
        penalty * 100.0
    );
}

/// Paper §V-B.1 / Fig. 9: hard cutoffs *improve* normalized-flooding efficiency on PA
/// topologies.
#[test]
fn hard_cutoffs_improve_normalized_flooding_on_pa() {
    let tau = 8u32;
    let m = 2usize;
    let hits = |cutoff: DegreeCutoff| {
        let graph = PreferentialAttachment::new(N, m)
            .unwrap()
            .with_cutoff(cutoff)
            .generate(&mut rng(5))
            .unwrap();
        mean_hits(&graph, &NormalizedFlooding::new(m), tau, 5)
    };
    let capped = hits(DegreeCutoff::hard(10));
    let free = hits(DegreeCutoff::Unbounded);
    assert!(
        capped > free,
        "NF with k_c=10 ({capped:.1} hits) should beat the unbounded topology ({free:.1} hits)"
    );
}

/// Paper §V-B.1 / Fig. 11: the same improvement holds for message-normalized random walks.
#[test]
fn hard_cutoffs_improve_random_walks_on_pa() {
    let tau = 8u32;
    let m = 2usize;
    let hits = |cutoff: DegreeCutoff| {
        let graph = PreferentialAttachment::new(N, m)
            .unwrap()
            .with_cutoff(cutoff)
            .generate(&mut rng(7))
            .unwrap();
        rw_normalized_to_nf(&graph, m, &[tau], SEARCHES, &mut rng(7))[0].mean_hits
    };
    let capped = hits(DegreeCutoff::hard(10));
    let free = hits(DegreeCutoff::Unbounded);
    assert!(
        capped > free,
        "RW with k_c=10 ({capped:.1} hits) should beat the unbounded topology ({free:.1} hits)"
    );
}

/// Paper §V-B.1 / Fig. 7: flooding on CM topologies with m=1 cannot reach the system size
/// even for large τ, because the network is disconnected.
#[test]
fn cm_with_single_stub_keeps_floods_below_system_size() {
    let graph = ConfigurationModel::new(N, 2.6, 1)
        .unwrap()
        .generate(&mut rng(9))
        .unwrap();
    assert!(!traversal::is_connected(&graph));
    let deep_flood = mean_hits(&graph, &Flooding::new(), 30, 9);
    assert!(
        deep_flood < 0.9 * (N as f64),
        "deep floods on a disconnected CM m=1 topology should stall, got {deep_flood:.0}"
    );

    let connected = ConfigurationModel::new(N, 2.6, 3)
        .unwrap()
        .generate(&mut rng(9))
        .unwrap();
    let deep_flood_m3 = mean_hits(&connected, &Flooding::new(), 30, 9);
    assert!(
        deep_flood_m3 > deep_flood,
        "m=3 coverage should exceed m=1 coverage"
    );
}

/// Paper §IV-A / Fig. 3: HAPA without a cutoff produces super-hubs and a star-like
/// topology; a cutoff destroys the star. PA and HAPA flooding performance is similar for
/// small cutoffs.
#[test]
fn hapa_star_topology_and_cutoff_behaviour() {
    let star = HopAndAttempt::new(N, 1)
        .unwrap()
        .generate(&mut rng(11))
        .unwrap();
    assert!(star.max_degree().unwrap() > N / 4, "no super-hub emerged");

    let capped = HopAndAttempt::new(N, 1)
        .unwrap()
        .with_cutoff(DegreeCutoff::hard(10))
        .generate(&mut rng(11))
        .unwrap();
    assert!(capped.max_degree().unwrap() <= 10);

    let pa_capped = PreferentialAttachment::new(N, 1)
        .unwrap()
        .with_cutoff(DegreeCutoff::hard(10))
        .generate(&mut rng(11))
        .unwrap();
    let hapa_hits = mean_hits(&capped, &Flooding::new(), 6, 11);
    let pa_hits = mean_hits(&pa_capped, &Flooding::new(), 6, 11);
    let ratio = hapa_hits / pa_hits;
    assert!(
        (0.4..=2.5).contains(&ratio),
        "for small cutoffs PA and HAPA flooding should be comparable, ratio {ratio:.2}"
    );
}

/// Paper §IV-B / Fig. 4: DAPA with a short horizon is short-sighted (light tail); larger
/// τ_sub recovers heavier tails and better flooding coverage (Fig. 8).
#[test]
fn dapa_locality_controls_tail_weight_and_search_coverage() {
    let (substrate, _) = GeometricRandomNetwork::with_average_degree(2 * N, 10.0)
        .unwrap()
        .generate(&mut rng(13))
        .unwrap();
    let short = DiscoverAndAttempt::new(N, 1, 2)
        .unwrap()
        .generate_on(&substrate, &mut rng(13))
        .unwrap();
    let long = DiscoverAndAttempt::new(N, 1, 20)
        .unwrap()
        .generate_on(&substrate, &mut rng(13))
        .unwrap();
    assert!(
        long.graph.max_degree().unwrap() > short.graph.max_degree().unwrap(),
        "larger tau_sub should produce heavier tails"
    );
    let short_hits = mean_hits(&short.graph, &Flooding::new(), 10, 13);
    let long_hits = mean_hits(&long.graph, &Flooding::new(), 10, 13);
    assert!(
        long_hits > short_hits,
        "tau_sub=20 flooding coverage ({long_hits:.0}) should exceed tau_sub=2 ({short_hits:.0})"
    );
}

/// Paper §V-B.1 / Fig. 8(a): for DAPA with weak connectedness (m=1), imposing a hard cutoff
/// improves flooding because it spreads links that would have gone to hubs.
#[test]
fn dapa_with_weak_connectedness_benefits_from_cutoffs() {
    let (substrate, _) = GeometricRandomNetwork::with_average_degree(2 * N, 10.0)
        .unwrap()
        .generate(&mut rng(17))
        .unwrap();
    let free = DiscoverAndAttempt::new(N, 1, 10)
        .unwrap()
        .generate_on(&substrate, &mut rng(17))
        .unwrap();
    let capped = DiscoverAndAttempt::new(N, 1, 10)
        .unwrap()
        .with_cutoff(DegreeCutoff::hard(10))
        .generate_on(&substrate, &mut rng(17))
        .unwrap();
    let free_hits = mean_hits(&free.graph, &Flooding::new(), 12, 17);
    let capped_hits = mean_hits(&capped.graph, &Flooding::new(), 12, 17);
    assert!(
        capped_hits > 0.8 * free_hits,
        "the cutoff should not hurt weakly connected DAPA much (capped {capped_hits:.0} vs free {free_hits:.0})"
    );
}

/// Paper §V-B.2: NF costs no more messages than plain flooding, and the messaging penalty
/// of hard cutoffs is minimal.
#[test]
fn messaging_complexity_of_nf_and_cutoffs() {
    let m = 2usize;
    let tau = 6u32;
    let build = |cutoff| {
        PreferentialAttachment::new(N, m)
            .unwrap()
            .with_cutoff(cutoff)
            .generate(&mut rng(19))
            .unwrap()
    };
    let capped = build(DegreeCutoff::hard(10));
    let free = build(DegreeCutoff::Unbounded);

    let fl_msgs =
        ttl_sweep(&free, &Flooding::new(), &[tau], SEARCHES, &mut rng(19))[0].mean_messages;
    let nf_msgs_free = ttl_sweep(
        &free,
        &NormalizedFlooding::new(m),
        &[tau],
        SEARCHES,
        &mut rng(19),
    )[0]
    .mean_messages;
    let nf_msgs_capped = ttl_sweep(
        &capped,
        &NormalizedFlooding::new(m),
        &[tau],
        SEARCHES,
        &mut rng(19),
    )[0]
    .mean_messages;

    assert!(
        nf_msgs_free <= fl_msgs,
        "NF must not cost more messages than FL"
    );
    assert!(
        nf_msgs_capped <= nf_msgs_free * 1.5 + 5.0,
        "the cutoff messaging penalty should stay small ({nf_msgs_capped:.0} vs {nf_msgs_free:.0})"
    );
}
