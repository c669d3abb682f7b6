//! The forwarding rules of the flooding family, each written once.
//!
//! FL, NF and probabilistic flooding differ only in which neighbours a peer hands the
//! query on to. Every path that runs one of them — the serial kernels of this crate,
//! placed execution in `sfo-engine`, the item lookups in `sfo-sim` — asks
//! [`Forwarding::forward`], so all of them draw the same random numbers in the same
//! order by construction; [`next_hop`](crate::random_walk::next_hop) is the walks'
//! counterpart.
//!
//! [`Forwarding::flood`] runs a rule as a level loop over the arena's BFS order, the
//! same state plain flooding's kernel uses. Expanding a level node by node in `order`
//! visits nodes exactly as a FIFO queue of `(peer, previous hop, depth)` entries pops
//! them, and depth is the loop counter, so the RNG draws are those of the FIFO flood.

use crate::{SearchOutcome, SearchScratch};
use rand::seq::SliceRandom;
use rand::Rng;
use sfo_graph::{GraphView, NodeId};

/// Which neighbours a peer forwards a query to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Forwarding {
    /// FL: every neighbour but the previous hop.
    All,
    /// NF: `k_min` neighbours drawn uniformly from those besides the previous hop, or
    /// all of them when there are no more than `k_min`.
    Normalized {
        /// Fan-out bound.
        k_min: usize,
    },
    /// Probabilistic flooding: the source forwards to every neighbour; a relay keeps
    /// each neighbour but the previous hop with probability `p`.
    Probabilistic {
        /// Per-neighbour forwarding probability of a relay.
        p: f64,
    },
}

impl Forwarding {
    /// Calls `emit` for every neighbour in `row` a peer at `depth` forwards to, given
    /// the previous hop `from` (`None` at the source), in the order the copies are
    /// sent.
    ///
    /// Draws from `rng` only where the rule is random: NF one `partial_shuffle` when
    /// more than `k_min` candidates remain, probabilistic flooding one `f64` per
    /// candidate at `depth > 0`. `candidates` is NF's buffer; its contents on entry
    /// and exit are irrelevant.
    #[inline]
    pub fn forward<T: Copy + PartialEq, R: Rng + ?Sized>(
        self,
        row: &[T],
        from: Option<T>,
        depth: u32,
        rng: &mut R,
        candidates: &mut Vec<T>,
        emit: impl FnMut(T),
    ) {
        let others = row.iter().copied().filter(|&next| Some(next) != from);
        match self {
            Forwarding::All => others.for_each(emit),
            Forwarding::Normalized { k_min } => {
                candidates.clear();
                candidates.extend(others);
                let targets: &[T] = if candidates.len() > k_min {
                    candidates.partial_shuffle(rng, k_min).0
                } else {
                    candidates
                };
                targets.iter().copied().for_each(emit);
            }
            // The source always forwards (p applies to relayed copies only), matching
            // the usual gossip formulation: without this the whole search dies at the
            // first step with probability (1 - p)^degree.
            Forwarding::Probabilistic { p } => others
                .filter(|_| depth == 0 || rng.gen::<f64>() < p)
                .for_each(emit),
        }
    }

    /// Floods `graph` from `source` by this rule for `ttl` levels through `scratch`,
    /// calling `on_hit(node, depth)` for every node reached, in the order reached.
    ///
    /// Every forwarded copy is a message; a copy reaching a node for the first time is
    /// a hit and puts the node in the next level.
    pub fn flood<G: GraphView + ?Sized, R: Rng + ?Sized>(
        self,
        graph: &G,
        source: NodeId,
        ttl: u32,
        rng: &mut R,
        scratch: &mut SearchScratch,
        mut on_hit: impl FnMut(NodeId, u32),
    ) -> SearchOutcome {
        let SearchScratch {
            levels, candidates, ..
        } = scratch;
        levels.begin(graph.node_count(), source);
        levels.from.clear();
        levels.from.push(None);
        let mut messages = 0;
        let (mut lo, mut hi) = (0, 1);
        for depth in 0..ttl {
            if lo == hi {
                break;
            }
            for i in lo..hi {
                let (node, from) = (levels.order[i], levels.from[i]);
                self.forward(
                    graph.neighbors(node),
                    from,
                    depth,
                    rng,
                    candidates,
                    |next| {
                        messages += 1;
                        if levels.reach(next) {
                            levels.from.push(Some(node));
                            on_hit(next, depth + 1);
                        }
                    },
                );
            }
            (lo, hi) = (hi, levels.order.len());
        }
        SearchOutcome {
            hits: levels.order.len() - 1,
            messages,
        }
    }
}
