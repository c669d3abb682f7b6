//! Item lookups over the live overlay.
//!
//! Unlike the coverage searches of `sfo-search` (which measure how many peers a query can
//! reach), these queries look for a *replica of a specific item* and report whether it was
//! found, after how many hops, and at what message cost. Flooding and normalized flooding
//! keep propagating until their TTL expires (independent branches cannot be stopped, as the
//! paper notes for FL), whereas a random walk terminates as soon as it finds a replica.
//!
//! Queries come in two flavors: [`run_query`] walks the live overlay directly (hash-map
//! adjacency, right for one-off lookups), while [`QuerySnapshot`] freezes the overlay
//! into a CSR [`CsrGraph`] once and serves a whole batch of queries from the flat
//! snapshot — the build-once/query-many split the simulation uses between churn events.
//! Both forward with `sfo-search`'s [`Forwarding`] rules and step walks with its
//! [`next_hop`], so they draw the RNG exactly as the coverage searches do.

use crate::catalog::ItemId;
use crate::overlay::{OverlayNetwork, PeerId};
use crate::{Result, SimError};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sfo_engine::{next_hop, Forwarding, SearchScratch};
use sfo_graph::{CsrGraph, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Which lookup algorithm a query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryMethod {
    /// Forward to every neighbor except the previous hop (Gnutella-style flooding).
    Flooding,
    /// Forward to at most `k_min` random neighbors (normalized flooding).
    NormalizedFlooding {
        /// Fan-out bound.
        k_min: usize,
    },
    /// A single random walker that stops as soon as it finds a replica.
    RandomWalk,
}

/// One item lookup of a batch: who asks, for what, and how deep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct BatchQuery {
    /// The peer issuing the lookup.
    pub source: PeerId,
    /// The item looked for.
    pub item: ItemId,
    /// Time-to-live of the lookup.
    pub ttl: u32,
}

/// Outcome of one item lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Whether a replica was found within the TTL.
    pub found: bool,
    /// Hop count at which the first replica was found, when found.
    pub hops_to_find: Option<u32>,
    /// Number of query messages transmitted.
    pub messages: usize,
    /// Number of distinct peers that processed the query (excluding the source).
    pub peers_probed: usize,
}

impl QueryMethod {
    /// The forwarding rule of a flooding method; `None` for the walk.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a normalized flood with a zero fan-out.
    fn forwarding(self) -> Result<Option<Forwarding>> {
        match self {
            QueryMethod::Flooding => Ok(Some(Forwarding::All)),
            QueryMethod::NormalizedFlooding { k_min: 0 } => Err(SimError::InvalidConfig {
                reason: "normalized flooding fan-out must be positive",
            }),
            QueryMethod::NormalizedFlooding { k_min } => Ok(Some(Forwarding::Normalized { k_min })),
            QueryMethod::RandomWalk => Ok(None),
        }
    }
}

impl QueryOutcome {
    /// The lookup of a source holding the item itself: it checks its own store first,
    /// which costs no messages.
    const AT_SOURCE: QueryOutcome = QueryOutcome {
        found: true,
        hops_to_find: Some(0),
        messages: 0,
        peers_probed: 0,
    };
}

/// Runs one item lookup from `source`.
///
/// # Errors
///
/// Returns [`SimError::UnknownPeer`] if `source` is not part of the overlay and
/// [`SimError::InvalidConfig`] if a normalized flood is configured with a zero fan-out.
pub fn run_query<R: Rng + ?Sized>(
    overlay: &OverlayNetwork,
    method: QueryMethod,
    source: PeerId,
    item: ItemId,
    ttl: u32,
    rng: &mut R,
) -> Result<QueryOutcome> {
    if !overlay.contains(source) {
        return Err(SimError::UnknownPeer { peer: source.raw() });
    }
    let rule = method.forwarding()?;
    if overlay.holds_item(source, item) {
        return Ok(QueryOutcome::AT_SOURCE);
    }
    let row = |peer| overlay.neighbors(peer).expect("lookups stay on live peers");
    let holds = |peer| overlay.holds_item(peer, item);
    let mut visited = HashSet::new();
    Ok(match rule {
        Some(rule) => flood_query(source, ttl, rule, row, holds, rng),
        None => walk_lookup(source, ttl, row, |peer| visited.insert(peer), holds, rng),
    })
}

/// The flooding lookup over the live overlay: a FIFO queue of `(peer, previous hop,
/// depth)` entries, forwarding by `rule`.
fn flood_query<'a, R: Rng + ?Sized>(
    source: PeerId,
    ttl: u32,
    rule: Forwarding,
    row: impl Fn(PeerId) -> &'a [PeerId],
    holds: impl Fn(PeerId) -> bool,
    rng: &mut R,
) -> QueryOutcome {
    let mut outcome = QueryOutcome::default();
    let mut visited = HashSet::from([source]);
    let mut queue = VecDeque::from([(source, None, 0)]);
    let mut candidates = Vec::new();
    while let Some((peer, from, depth)) = queue.pop_front() {
        if depth >= ttl {
            continue;
        }
        rule.forward(row(peer), from, depth, rng, &mut candidates, |next| {
            outcome.messages += 1;
            if visited.insert(next) {
                outcome.peers_probed += 1;
                if !outcome.found && holds(next) {
                    outcome.found = true;
                    outcome.hops_to_find = Some(depth + 1);
                }
                queue.push_back((next, Some(peer), depth + 1));
            }
        });
    }
    outcome
}

/// The random-walk lookup, live or frozen: one walker from `source` (which does not
/// hold the item) that stops at the first replica or after `ttl` hops. `visit` marks a
/// node and says whether it was new.
fn walk_lookup<'a, T: Copy + PartialEq + 'a, R: Rng + ?Sized>(
    source: T,
    ttl: u32,
    row: impl Fn(T) -> &'a [T],
    mut visit: impl FnMut(T) -> bool,
    holds: impl Fn(T) -> bool,
    rng: &mut R,
) -> QueryOutcome {
    let mut outcome = QueryOutcome::default();
    visit(source);
    let (mut current, mut previous) = (source, None);
    for hop in 1..=ttl {
        let Some(next) = next_hop(row(current), previous, rng) else {
            break;
        };
        outcome.messages += 1;
        if visit(next) {
            outcome.peers_probed += 1;
        }
        if holds(next) {
            outcome.found = true;
            outcome.hops_to_find = Some(hop);
            break;
        }
        previous = Some(current);
        current = next;
    }
    outcome
}

/// A frozen CSR view of the overlay topology for serving query batches.
///
/// Capturing a snapshot costs one O(peers + links) pass; every query served from it then
/// traverses the flat CSR arrays instead of per-peer hash-map lookups, and tracks visited
/// peers in a dense bitmap instead of a `HashSet`. The snapshot only freezes the
/// *topology* — item placement is still read live from the overlay, so stored replicas
/// added after the capture are found correctly.
///
/// A snapshot describes the overlay *at capture time*: after any join, leave, or crash it
/// must be discarded and re-captured (the simulation does exactly that, re-freezing
/// lazily on the first query after a churn event).
#[derive(Debug, Clone)]
pub(crate) struct QuerySnapshot {
    graph: CsrGraph,
    /// Peer of each dense node id, ordered as at capture time.
    peers: Vec<PeerId>,
    index: HashMap<PeerId, NodeId>,
}

impl QuerySnapshot {
    /// Freezes the current overlay topology into a CSR snapshot.
    ///
    /// One O(peers + links) pass, straight from the live adjacency into the CSR arrays
    /// (no intermediate [`Graph`](sfo_graph::Graph)). Per-peer neighbor order is
    /// preserved, so queries served from the snapshot consume the same RNG stream as
    /// [`run_query`] on the live overlay.
    pub(crate) fn capture(overlay: &OverlayNetwork) -> Self {
        let peers: Vec<PeerId> = overlay.peers().collect();
        let index: HashMap<PeerId, NodeId> = peers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, NodeId::new(i)))
            .collect();
        let graph = CsrGraph::from_neighbor_lists(peers.len(), |i| {
            overlay
                .neighbors(peers[i])
                .expect("rostered peers are alive")
                .iter()
                .map(|p| index[p])
        });
        QuerySnapshot {
            graph,
            peers,
            index,
        }
    }

    /// Returns the frozen topology.
    pub(crate) fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Returns the peer ids by dense node id, as captured.
    #[cfg(test)]
    pub(crate) fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// Returns the number of peers in the snapshot.
    #[cfg(test)]
    pub(crate) fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Runs one item lookup from `source` over the frozen topology; item placement is
    /// read live from `overlay`.
    ///
    /// While the overlay is unchanged since [`QuerySnapshot::capture`], this returns
    /// exactly what [`run_query`] returns on it for the same RNG state, and leaves the
    /// RNG in the same state: the capture keeps every peer's neighbor order, and both
    /// run the same forwarding rules and walker step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPeer`] if `source` was not part of the overlay when the
    /// snapshot was captured and [`SimError::InvalidConfig`] if a normalized flood is
    /// configured with a zero fan-out.
    pub(crate) fn run_query<R: Rng + ?Sized>(
        &self,
        overlay: &OverlayNetwork,
        method: QueryMethod,
        source: PeerId,
        item: ItemId,
        ttl: u32,
        rng: &mut R,
    ) -> Result<QueryOutcome> {
        let &source = self
            .index
            .get(&source)
            .ok_or(SimError::UnknownPeer { peer: source.raw() })?;
        let rule = method.forwarding()?;
        let holds = |node: NodeId| overlay.holds_item(self.peers[node.index()], item);
        Ok(self.lookup(source, ttl, rule, holds, rng, &mut SearchScratch::new()))
    }

    /// Runs a whole batch of independent lookups over the frozen topology, fanned across
    /// the `sfo-engine` work-stealing scheduler with `workers` threads (0 = all cores).
    ///
    /// Every lookup runs on its own RNG stream derived from `(seed, its batch index)`
    /// with the engine's [`sfo_engine::job_rng`] rule, so the outcome vector is
    /// deterministic and *independent of the worker count* — unlike a serial loop over
    /// one shared RNG, which is why this entry point takes a seed rather than an RNG.
    /// Item placement is read live from `overlay`, exactly like [`QuerySnapshot::run_query`];
    /// batches of fewer than [`QuerySnapshot::PARALLEL_BATCH_MIN`] lookups run inline,
    /// where thread fan-out would cost more than it saves.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPeer`] if any source was not part of the overlay when
    /// the snapshot was captured and [`SimError::InvalidConfig`] for a zero NF fan-out;
    /// both are checked before any lookup runs.
    pub(crate) fn run_query_batch(
        &self,
        overlay: &OverlayNetwork,
        method: QueryMethod,
        queries: &[BatchQuery],
        seed: u64,
        workers: usize,
    ) -> Result<Vec<QueryOutcome>> {
        let rule = method.forwarding()?;
        let sources: Vec<NodeId> = queries
            .iter()
            .map(|q| {
                self.index
                    .get(&q.source)
                    .copied()
                    .ok_or(SimError::UnknownPeer {
                        peer: q.source.raw(),
                    })
            })
            .collect::<Result<_>>()?;
        let workers = if queries.len() < Self::PARALLEL_BATCH_MIN {
            1
        } else {
            workers
        };
        Ok(sfo_engine::run_batch_scoped_with_scratch(
            workers,
            queries.len(),
            seed,
            |i, rng, scratch| {
                let query = &queries[i];
                let holds = |node: NodeId| overlay.holds_item(self.peers[node.index()], query.item);
                self.lookup(sources[i], query.ttl, rule, holds, rng, scratch)
            },
        ))
    }

    /// Below this batch size, [`QuerySnapshot::run_query_batch`] runs inline: spawning
    /// scoped worker threads costs more than a handful of lookups.
    pub(crate) const PARALLEL_BATCH_MIN: usize = 16;

    /// One lookup over the frozen topology through a caller-owned arena: a flood by
    /// `rule` on the arena's level loop, or the walk when `rule` is `None`.
    fn lookup<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        ttl: u32,
        rule: Option<Forwarding>,
        holds: impl Fn(NodeId) -> bool,
        rng: &mut R,
        scratch: &mut SearchScratch,
    ) -> QueryOutcome {
        if holds(source) {
            return QueryOutcome::AT_SOURCE;
        }
        let Some(rule) = rule else {
            let visited = &mut scratch.visited;
            visited.reset(self.graph.node_count());
            let row = |node| self.graph.neighbors(node);
            return walk_lookup(
                source,
                ttl,
                row,
                |node| visited.insert(node.index()),
                holds,
                rng,
            );
        };
        let mut hops_to_find = None;
        let flood = rule.flood(&self.graph, source, ttl, rng, scratch, |node, depth| {
            if hops_to_find.is_none() && holds(node) {
                hops_to_find = Some(depth);
            }
        });
        QueryOutcome {
            found: hops_to_find.is_some(),
            hops_to_find,
            messages: flood.messages,
            peers_probed: flood.hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::{JoinStrategy, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_core::DegreeCutoff;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn build_overlay(peers: usize, seed: u64) -> OverlayNetwork {
        let config = OverlayConfig {
            stubs: 3,
            cutoff: DegreeCutoff::hard(20),
            join_strategy: JoinStrategy::UniformRandom,
            repair_on_leave: true,
        };
        let mut overlay = OverlayNetwork::new(config).unwrap();
        let mut r = rng(seed);
        for _ in 0..peers {
            overlay.join(&mut r);
        }
        overlay
    }

    #[test]
    fn source_holding_the_item_costs_nothing() {
        let mut overlay = build_overlay(20, 1);
        let mut r = rng(2);
        let source = overlay.random_peer(&mut r).unwrap();
        let item = ItemId::new(1);
        overlay.store_item(source, item).unwrap();
        for method in [
            QueryMethod::Flooding,
            QueryMethod::NormalizedFlooding { k_min: 2 },
            QueryMethod::RandomWalk,
        ] {
            let o = run_query(&overlay, method, source, item, 5, &mut r).unwrap();
            assert!(o.found);
            assert_eq!(o.hops_to_find, Some(0));
            assert_eq!(o.messages, 0);
        }
    }

    #[test]
    fn flooding_finds_a_well_replicated_item() {
        let mut overlay = build_overlay(100, 3);
        let mut r = rng(4);
        let item = ItemId::new(7);
        // Replicate on 10 random peers.
        for _ in 0..10 {
            let holder = overlay.random_peer(&mut r).unwrap();
            overlay.store_item(holder, item).unwrap();
        }
        let source = overlay.random_peer(&mut r).unwrap();
        let o = run_query(&overlay, QueryMethod::Flooding, source, item, 10, &mut r).unwrap();
        assert!(
            o.found,
            "a 10% replicated item should be found by a deep flood"
        );
        assert!(o.hops_to_find.unwrap() >= 1 || o.messages == 0);
        assert!(o.messages > 0);
    }

    #[test]
    fn missing_item_is_not_found_but_messages_are_spent() {
        let overlay = build_overlay(50, 5);
        let mut r = rng(6);
        let source = overlay.peers().next().unwrap();
        for method in [
            QueryMethod::Flooding,
            QueryMethod::NormalizedFlooding { k_min: 2 },
            QueryMethod::RandomWalk,
        ] {
            let o = run_query(&overlay, method, source, ItemId::new(999), 6, &mut r).unwrap();
            assert!(!o.found);
            assert_eq!(o.hops_to_find, None);
            assert!(o.messages > 0);
        }
    }

    #[test]
    fn normalized_flooding_spends_fewer_messages_than_flooding() {
        let overlay = build_overlay(150, 7);
        let mut r = rng(8);
        let source = overlay.peers().next().unwrap();
        let item = ItemId::new(3); // not stored anywhere: worst case message cost
        let fl = run_query(&overlay, QueryMethod::Flooding, source, item, 5, &mut r).unwrap();
        let nf = run_query(
            &overlay,
            QueryMethod::NormalizedFlooding { k_min: 2 },
            source,
            item,
            5,
            &mut r,
        )
        .unwrap();
        assert!(nf.messages < fl.messages);
    }

    #[test]
    fn random_walk_stops_when_it_finds_the_item() {
        let mut overlay = build_overlay(60, 9);
        let mut r = rng(10);
        let item = ItemId::new(2);
        // Store the item everywhere so the walk must find it on its first hop.
        let peers: Vec<PeerId> = overlay.peers().collect();
        for p in peers {
            overlay.store_item(p, item).unwrap();
        }
        let source = overlay.random_peer(&mut r).unwrap();
        let o = run_query(&overlay, QueryMethod::RandomWalk, source, item, 50, &mut r).unwrap();
        assert!(o.found);
        assert_eq!(o.hops_to_find, Some(0), "the source itself holds a replica");
    }

    #[test]
    fn zero_ttl_probes_nobody() {
        let overlay = build_overlay(30, 11);
        let mut r = rng(12);
        let source = overlay.peers().next().unwrap();
        let o = run_query(
            &overlay,
            QueryMethod::Flooding,
            source,
            ItemId::new(5),
            0,
            &mut r,
        )
        .unwrap();
        assert_eq!(o, QueryOutcome::default());
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let overlay = build_overlay(10, 13);
        let mut r = rng(14);
        let source = overlay.peers().next().unwrap();
        let ghost = PeerId::new_for_tests(10_000);
        assert!(run_query(
            &overlay,
            QueryMethod::Flooding,
            ghost,
            ItemId::new(0),
            3,
            &mut r
        )
        .is_err());
        assert!(run_query(
            &overlay,
            QueryMethod::NormalizedFlooding { k_min: 0 },
            source,
            ItemId::new(0),
            3,
            &mut r
        )
        .is_err());
    }

    #[test]
    fn snapshot_mirrors_the_overlay_topology() {
        let overlay = build_overlay(80, 15);
        let snapshot = QuerySnapshot::capture(&overlay);
        assert_eq!(snapshot.peer_count(), overlay.peer_count());
        assert_eq!(snapshot.graph().edge_count(), overlay.edge_count());
        for (i, &peer) in snapshot.peers().iter().enumerate() {
            assert_eq!(
                snapshot.graph().degree(sfo_graph::NodeId::new(i)),
                overlay.degree(peer).unwrap()
            );
        }
    }

    #[test]
    fn snapshot_queries_match_the_live_query_exactly() {
        // The capture preserves per-peer neighbor order, so for a fixed RNG seed every
        // method — including the randomized NF fan-out pick and the walk — must return
        // the same outcome through the snapshot as through the live overlay.
        let overlay = build_overlay(60, 16);
        let snapshot = QuerySnapshot::capture(&overlay);
        let missing = ItemId::new(424_242);
        for method in [
            QueryMethod::Flooding,
            QueryMethod::NormalizedFlooding { k_min: 2 },
            QueryMethod::RandomWalk,
        ] {
            for source in overlay.peers() {
                let mut r1 = rng(17);
                let mut r2 = rng(17);
                let live = run_query(&overlay, method, source, missing, 4, &mut r1).unwrap();
                let frozen = snapshot
                    .run_query(&overlay, method, source, missing, 4, &mut r2)
                    .unwrap();
                assert_eq!(live, frozen, "{method:?} from {source}");
            }
        }
    }

    #[test]
    fn snapshot_finds_stored_items() {
        let mut overlay = build_overlay(50, 18);
        let mut r = rng(19);
        let snapshot = QuerySnapshot::capture(&overlay);
        let item = ItemId::new(5);
        // Item placement is read live: a replica stored after the capture is still found.
        let holder = overlay.random_peer(&mut r).unwrap();
        overlay.store_item(holder, item).unwrap();
        let o = snapshot
            .run_query(&overlay, QueryMethod::Flooding, holder, item, 3, &mut r)
            .unwrap();
        assert!(o.found);
        assert_eq!(o.hops_to_find, Some(0));
    }

    #[test]
    fn snapshot_walk_and_nf_respect_budgets() {
        let overlay = build_overlay(70, 20);
        let snapshot = QuerySnapshot::capture(&overlay);
        let mut r = rng(21);
        let source = overlay.peers().next().unwrap();
        let missing = ItemId::new(31_337);
        let walk = snapshot
            .run_query(
                &overlay,
                QueryMethod::RandomWalk,
                source,
                missing,
                25,
                &mut r,
            )
            .unwrap();
        assert!(!walk.found);
        assert!(walk.messages <= 25);
        let nf = snapshot
            .run_query(
                &overlay,
                QueryMethod::NormalizedFlooding { k_min: 2 },
                source,
                missing,
                5,
                &mut r,
            )
            .unwrap();
        let fl = snapshot
            .run_query(&overlay, QueryMethod::Flooding, source, missing, 5, &mut r)
            .unwrap();
        assert!(nf.messages < fl.messages);
    }

    #[test]
    fn batched_queries_are_worker_count_independent() {
        let mut overlay = build_overlay(120, 30);
        let mut r = rng(31);
        let item = ItemId::new(4);
        for _ in 0..12 {
            let holder = overlay.random_peer(&mut r).unwrap();
            overlay.store_item(holder, item).unwrap();
        }
        let snapshot = QuerySnapshot::capture(&overlay);
        let queries: Vec<BatchQuery> = overlay
            .peers()
            .take(40)
            .map(|source| BatchQuery {
                source,
                item,
                ttl: 5,
            })
            .collect();
        for method in [
            QueryMethod::Flooding,
            QueryMethod::NormalizedFlooding { k_min: 2 },
            QueryMethod::RandomWalk,
        ] {
            let reference = snapshot
                .run_query_batch(&overlay, method, &queries, 7, 1)
                .unwrap();
            assert_eq!(reference.len(), queries.len());
            assert!(reference.iter().any(|o| o.found), "{method:?}");
            for workers in [2usize, 4, 0] {
                let got = snapshot
                    .run_query_batch(&overlay, method, &queries, 7, workers)
                    .unwrap();
                assert_eq!(got, reference, "{method:?} with {workers} workers");
            }
        }
    }

    #[test]
    fn batched_queries_match_per_job_stream_singles() {
        // Each batched lookup must equal a single lookup run with the job's derived
        // stream — the contract that makes batching a pure scheduling change.
        let overlay = build_overlay(60, 32);
        let snapshot = QuerySnapshot::capture(&overlay);
        let queries: Vec<BatchQuery> = overlay
            .peers()
            .take(20)
            .map(|source| BatchQuery {
                source,
                item: ItemId::new(999),
                ttl: 4,
            })
            .collect();
        let method = QueryMethod::NormalizedFlooding { k_min: 2 };
        let batched = snapshot
            .run_query_batch(&overlay, method, &queries, 11, 3)
            .unwrap();
        for (i, query) in queries.iter().enumerate() {
            let mut job_rng = sfo_engine::job_rng(11, i);
            let single = snapshot
                .run_query(
                    &overlay,
                    method,
                    query.source,
                    query.item,
                    query.ttl,
                    &mut job_rng,
                )
                .unwrap();
            assert_eq!(batched[i], single, "job {i}");
        }
    }

    #[test]
    fn batch_errors_are_reported_before_any_lookup_runs() {
        let overlay = build_overlay(10, 33);
        let snapshot = QuerySnapshot::capture(&overlay);
        let mut queries: Vec<BatchQuery> = overlay
            .peers()
            .map(|source| BatchQuery {
                source,
                item: ItemId::new(0),
                ttl: 3,
            })
            .collect();
        queries.push(BatchQuery {
            source: PeerId::new_for_tests(10_000),
            item: ItemId::new(0),
            ttl: 3,
        });
        assert!(matches!(
            snapshot.run_query_batch(&overlay, QueryMethod::Flooding, &queries, 1, 2),
            Err(SimError::UnknownPeer { .. })
        ));
        queries.pop();
        assert!(matches!(
            snapshot.run_query_batch(
                &overlay,
                QueryMethod::NormalizedFlooding { k_min: 0 },
                &queries,
                1,
                2
            ),
            Err(SimError::InvalidConfig { .. })
        ));
        let empty = snapshot
            .run_query_batch(&overlay, QueryMethod::Flooding, &[], 1, 2)
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn snapshot_rejects_unknown_sources_and_zero_fanout() {
        let overlay = build_overlay(10, 22);
        let snapshot = QuerySnapshot::capture(&overlay);
        let mut r = rng(23);
        let ghost = PeerId::new_for_tests(10_000);
        assert!(snapshot
            .run_query(
                &overlay,
                QueryMethod::Flooding,
                ghost,
                ItemId::new(0),
                3,
                &mut r
            )
            .is_err());
        let source = overlay.peers().next().unwrap();
        assert!(snapshot
            .run_query(
                &overlay,
                QueryMethod::NormalizedFlooding { k_min: 0 },
                source,
                ItemId::new(0),
                3,
                &mut r
            )
            .is_err());
    }
}
