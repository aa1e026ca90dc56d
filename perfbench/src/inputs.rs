//! Seeded inputs: the two graphs, the query stream and the edge-delta
//! stream. Everything here is a pure function of its seed, so two runs
//! with the same `--seed` hand the library byte-identical inputs.

use acir_graph::gen::community::{social_network, SocialNetworkParams};
use acir_graph::traversal::largest_component;
use acir_graph::{EdgeOp, Graph, NodeId};
use acir_serve::{Query, QueryOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Generator seed of both graphs (the perfsuite default) and of the
/// hot seed set. They are fixed so that every `--seed` measures the
/// same structure and the same working set: with a per-seed hot set the
/// mean cost of the 256 hot queries alone moved throughput by ±10%
/// between seeds. The workload seed drives the request and delta
/// streams.
const GRAPH_SEED: u64 = 0xAC1D;

/// Teleportation probability of every query (also the sketch α).
pub const ALPHA: f64 = 0.1;
/// The two accuracies a query asks for, each with probability ½.
const EPSILONS: [f64; 2] = [1e-3, 1e-4];
/// Size of the hot seed set that half the queries draw from.
const HOT_SET: usize = 256;

/// The perfsuite surrogate LCC (9,649 nodes / 96,765 edges).
pub fn serve_graph() -> Graph {
    surrogate(SocialNetworkParams {
        core_nodes: 3000,
        core_attach: 4,
        communities: 40,
        community_size_range: (8, 600),
        whiskers: 150,
        whisker_max_len: 12,
        ..Default::default()
    })
}

/// The smaller social-network LCC the Fiedler solves run on
/// (3,007 nodes / 21,553 edges).
pub fn fiedler_graph() -> Graph {
    surrogate(SocialNetworkParams {
        core_nodes: 1500,
        core_attach: 3,
        communities: 16,
        community_size_range: (6, 300),
        whiskers: 50,
        whisker_max_len: 8,
        ..Default::default()
    })
}

fn surrogate(params: SocialNetworkParams) -> Graph {
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
    let pc = social_network(&mut rng, &params).expect("surrogate parameters are valid");
    largest_component(&pc.graph).0
}

/// FNV-1a over the op stream, so two runs can show they fed the
/// library byte-identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xcbf29ce484222325)
    }
}

impl StreamHash {
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    pub fn add_query(&mut self, q: &Query) {
        for &s in &q.seeds {
            self.add(u64::from(s));
        }
        self.add(q.alpha.to_bits());
        self.add(q.epsilon.to_bits());
    }

    pub fn add_op(&mut self, op: &EdgeOp) {
        match *op {
            EdgeOp::Insert { u, v, weight } => {
                self.add(1);
                self.add(u64::from(u));
                self.add(u64::from(v));
                self.add(weight.to_bits());
            }
            EdgeOp::Delete { u, v } => {
                self.add(2);
                self.add(u64::from(u));
                self.add(u64::from(v));
            }
        }
    }
}

/// Single-seed PPR queries: α = 0.1, ε ∈ {1e-3, 1e-4}, and the seed
/// drawn from a fixed 256-node hot set (so exact repeats exist) or
/// uniformly.
pub struct QueryStream {
    rng: StdRng,
    hot: Vec<NodeId>,
    n: usize,
}

impl QueryStream {
    pub fn new(seed: u64, n: usize) -> Self {
        let mut hot_rng = StdRng::seed_from_u64(GRAPH_SEED);
        let hot = (0..HOT_SET)
            .map(|_| hot_rng.gen_range(0..n) as NodeId)
            .collect();
        let rng = StdRng::seed_from_u64(seed ^ 0x5155_4552_5953_5452);
        Self { rng, hot, n }
    }

    pub fn next_query(&mut self) -> Query {
        let seed = if self.rng.gen_bool(0.5) {
            self.hot[self.rng.gen_range(0..HOT_SET)]
        } else {
            self.rng.gen_range(0..self.n) as NodeId
        };
        Query {
            seeds: vec![seed],
            alpha: ALPHA,
            epsilon: EPSILONS[self.rng.gen_range(0..EPSILONS.len())],
            deadline: None,
            options: QueryOptions::default(),
        }
    }
}

/// Single-edge deltas in a fixed insert → delete → reweight rotation,
/// so |E| stays level. The stream tracks the graph it is mutating (in
/// external ids) so that every op is valid and changes the graph: an
/// insert names a non-edge, a delete never isolates a node (every
/// query seed keeps a positive degree), and a reweight changes the
/// weight.
pub struct DeltaStream {
    rng: StdRng,
    n: usize,
    edges: Vec<(NodeId, NodeId, f64)>,
    slot: HashMap<(NodeId, NodeId), usize>,
    degree: Vec<u32>,
    issued: u64,
}

impl DeltaStream {
    pub fn new(seed: u64, g: &Graph) -> Self {
        let edges: Vec<(NodeId, NodeId, f64)> = g.edges().filter(|&(u, v, _)| u < v).collect();
        let slot = edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v, _))| ((u, v), i))
            .collect();
        let degree = (0..g.n() as NodeId)
            .map(|u| g.degree_unweighted(u) as u32)
            .collect();
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x4445_4c54_4153_5452),
            n: g.n(),
            edges,
            slot,
            degree,
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> EdgeOp {
        let kind = self.issued % 3;
        self.issued += 1;
        match kind {
            0 => loop {
                let a = self.rng.gen_range(0..self.n) as NodeId;
                let b = self.rng.gen_range(0..self.n) as NodeId;
                let (u, v) = (a.min(b), a.max(b));
                if u != v && !self.slot.contains_key(&(u, v)) {
                    self.slot.insert((u, v), self.edges.len());
                    self.edges.push((u, v, 1.0));
                    self.degree[u as usize] += 1;
                    self.degree[v as usize] += 1;
                    return EdgeOp::Insert { u, v, weight: 1.0 };
                }
            },
            1 => loop {
                let i = self.rng.gen_range(0..self.edges.len());
                let (u, v, _) = self.edges[i];
                if self.degree[u as usize] >= 2 && self.degree[v as usize] >= 2 {
                    self.slot.remove(&(u, v));
                    self.edges.swap_remove(i);
                    if let Some(&(mu, mv, _)) = self.edges.get(i) {
                        self.slot.insert((mu, mv), i);
                    }
                    self.degree[u as usize] -= 1;
                    self.degree[v as usize] -= 1;
                    return EdgeOp::Delete { u, v };
                }
            },
            _ => {
                let i = self.rng.gen_range(0..self.edges.len());
                let (u, v, old) = self.edges[i];
                // Weights 1/4, 2/4, …, 8/4: exact in binary, never `old`.
                let mut weight = f64::from(self.rng.gen_range(1..8u32)) / 4.0;
                if weight >= old {
                    weight += 0.25;
                }
                self.edges[i].2 = weight;
                EdgeOp::Insert { u, v, weight }
            }
        }
    }
}
