//! Input generation: data graphs, query patterns and the operation
//! stream, all derived from the run's seed. The program under test only
//! ever sees the generated graphs, queries and updates.

use phom_core::Algorithm;
use phom_dynamic::GraphUpdate;
use phom_engine::{Query, QueryConfig};
use phom_graph::{DiGraph, NodeId, XorShift64};
use phom_service::ServiceLabel;
use phom_sim::SimMatrix;
use phom_workloads::synthetic::{generate_batch, LabelPool, SyntheticConfig};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Similarity threshold ξ of every query (the CLI default).
pub const XI: f64 = 0.75;
/// Hop bound of the stretch-bounded queries.
pub const STRETCH: usize = 3;
/// Pattern sizes are drawn uniformly from this range.
pub const PATTERN_NODES: std::ops::RangeInclusive<usize> = 10..=40;
/// Share of pattern nodes whose label is redrawn from the pool, so that
/// some pattern nodes have no good image and qualCard sits below 1.
pub const RELABEL_SHARE: f64 = 0.5;
/// Edge-noise rate of the synthetic generator (the paper's default).
pub const NOISE: f64 = 0.1;

/// Label types the benchmark registers: synthetic pool ids as they are,
/// or rendered as strings for the sharded and routed workloads.
pub trait BenchLabel: ServiceLabel {
    fn from_pool(id: u32) -> Self;
}

impl BenchLabel for u32 {
    fn from_pool(id: u32) -> Self {
        id
    }
}

impl BenchLabel for String {
    fn from_pool(id: u32) -> Self {
        format!("l{id}")
    }
}

/// SplitMix64 step, used to derive independent sub-seeds from `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The benchmark's own copy of one data graph: labels as pool ids and
/// out-adjacency, kept in step with every applied update. The checker
/// reads only this copy.
#[derive(Clone)]
pub struct Model {
    pub labels: Vec<u32>,
    pub adj: Vec<Vec<u32>>,
    pub edges: usize,
    /// Node ranges `[lo, hi)` of the disjoint parts (one part when the
    /// graph is a single instance).
    pub parts: Vec<(usize, usize)>,
}

impl Model {
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.adj[a as usize].contains(&b)
    }

    /// The update that flips edge `(a, b)`: a delete when present, an
    /// insert when absent.
    pub fn flip(&self, a: u32, b: u32) -> GraphUpdate {
        if self.has_edge(a, b) {
            GraphUpdate::RemoveEdge(NodeId(a), NodeId(b))
        } else {
            GraphUpdate::InsertEdge(NodeId(a), NodeId(b))
        }
    }

    /// Applies an update to the copy.
    pub fn apply(&mut self, update: GraphUpdate) {
        match update {
            GraphUpdate::InsertEdge(a, b) => {
                if !self.has_edge(a.0, b.0) {
                    self.adj[a.index()].push(b.0);
                    self.edges += 1;
                }
            }
            GraphUpdate::RemoveEdge(a, b) => {
                let row = &mut self.adj[a.index()];
                if let Some(i) = row.iter().position(|&x| x == b.0) {
                    row.swap_remove(i);
                    self.edges -= 1;
                }
            }
        }
    }

    /// Sorted edge list, for comparison with a registered graph.
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().map(move |&b| (a as u32, b)))
            .collect();
        out.sort_unstable();
        out
    }

    pub fn distinct_labels(&self) -> usize {
        self.labels.iter().collect::<BTreeSet<_>>().len()
    }
}

/// Sorted edge list of a registered graph.
pub fn edge_list<L>(g: &DiGraph<L>) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
    out.sort_unstable();
    out
}

/// Distinct labels of a registered graph.
pub fn distinct_labels<L: Ord>(g: &DiGraph<L>) -> usize {
    g.nodes().map(|v| g.label(v)).collect::<BTreeSet<_>>().len()
}

/// One data graph of a workload and the pattern template and label pool
/// its queries are drawn from.
pub struct GraphInput {
    pub template: DiGraph<u32>,
    pub pool: LabelPool,
    pub model: Model,
    /// Data nodes by label group: labels of different groups have
    /// similarity 0, so a matrix row only needs its own group's nodes.
    by_group: Vec<Vec<u32>>,
}

impl GraphInput {
    /// `parts` data graphs derived from one synthetic pattern of `m`
    /// nodes (§6 generator, shared label pool), laid side by side as one
    /// graph whose parts are disjoint. One part is the plain instance.
    pub fn generate(m: usize, parts: usize, seed: u64) -> Self {
        let cfg = SyntheticConfig {
            m,
            noise: NOISE,
            seed,
        };
        let batch = generate_batch(&cfg, parts);
        let mut labels = Vec::new();
        let mut adj: Vec<Vec<u32>> = Vec::new();
        let mut ranges = Vec::with_capacity(parts);
        let mut edges = 0;
        for inst in &batch {
            let offset = labels.len();
            for v in inst.g2.nodes() {
                labels.push(*inst.g2.label(v));
                adj.push(
                    inst.g2
                        .post(v)
                        .iter()
                        .map(|w| (w.index() + offset) as u32)
                        .collect(),
                );
            }
            edges += inst.g2.edge_count();
            ranges.push((offset, labels.len()));
        }
        let first = batch.into_iter().next().expect("at least one part");
        let groups = (0..first.pool.len())
            .map(|l| first.pool.group(l))
            .max()
            .unwrap_or(0);
        let mut by_group = vec![Vec::new(); groups as usize + 1];
        for (u, &l) in labels.iter().enumerate() {
            by_group[first.pool.group(l) as usize].push(u as u32);
        }
        GraphInput {
            template: first.g1,
            pool: first.pool,
            by_group,
            model: Model {
                labels,
                adj,
                edges,
                parts: ranges,
            },
        }
    }

    /// The data graph with labels rendered as `L`.
    pub fn data_graph<L: BenchLabel>(&self) -> DiGraph<L> {
        let m = &self.model;
        let mut g = DiGraph::with_capacity(m.node_count());
        for &l in &m.labels {
            g.add_node(L::from_pool(l));
        }
        for (a, row) in m.adj.iter().enumerate() {
            for &b in row {
                g.add_edge(NodeId(a as u32), NodeId(b));
            }
        }
        g
    }

    /// A fresh query pattern: a breadth-first window of 10–40 template
    /// nodes (a connected neighbourhood, so the pattern has edges), with
    /// [`RELABEL_SHARE`] of its labels redrawn from the pool.
    pub fn pattern(&self, rng: &mut XorShift64) -> DiGraph<u32> {
        let t = &self.template;
        let n = t.node_count();
        let want = (PATTERN_NODES.start()
            + rng.below(PATTERN_NODES.end() - PATTERN_NODES.start() + 1))
        .min(n);
        let mut keep: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue = VecDeque::new();
        while keep.len() < want {
            if queue.is_empty() {
                let start = NodeId(rng.below(n) as u32);
                if keep.insert(start) {
                    queue.push_back(start);
                }
                continue;
            }
            let v = queue.pop_front().expect("non-empty queue");
            for &w in t.post(v).iter().chain(t.prev(v)) {
                if keep.len() < want && keep.insert(w) {
                    queue.push_back(w);
                }
            }
        }
        let (mut p, _) = t.induced_subgraph(&keep);
        for v in p.nodes().collect::<Vec<_>>() {
            if rng.unit() < RELABEL_SHARE {
                *p.label_mut(v) = rng.below(self.pool.len() as usize) as u32;
            }
        }
        p
    }
}

/// Query `i` of a run: the CLI's mixed batch — the four algorithms round
/// robin, every 5th query stretch-bounded, every 9th with pinned restarts.
pub fn query_config(i: usize) -> QueryConfig {
    let algorithms = [
        Algorithm::MaxCard,
        Algorithm::MaxCard1to1,
        Algorithm::MaxSim,
        Algorithm::MaxSim1to1,
    ];
    QueryConfig {
        xi: XI,
        algorithm: algorithms[i % 4],
        max_stretch: (i % 5 == 4).then_some(STRETCH),
        restarts: (i % 9 == 8).then_some(3),
        ..Default::default()
    }
}

/// A query built for the program, with the facts the checker needs
/// (pattern labels as pool ids, pattern edges).
pub struct BuiltQuery<L> {
    pub query: Query<L>,
    pub labels: Vec<u32>,
    pub edges: Vec<(u32, u32)>,
}

/// Builds query `i` of pattern `p` against `input`'s graph: the
/// similarity matrix is the pool's label similarity, dense `n1 × n2`.
pub fn build_query<L: BenchLabel>(p: &DiGraph<u32>, input: &GraphInput, i: usize) -> BuiltQuery<L> {
    let labels: Vec<u32> = p.nodes().map(|v| *p.label(v)).collect();
    let data = &input.model.labels;
    let mut matrix = SimMatrix::new(labels.len(), data.len());
    for (v, &l) in labels.iter().enumerate() {
        for &u in &input.by_group[input.pool.group(l) as usize] {
            let s = input.pool.similarity(l, data[u as usize]);
            if s > 0.0 {
                matrix.set(NodeId(v as u32), NodeId(u), s);
            }
        }
    }
    let pattern: DiGraph<L> = p.map_labels(|_, &l| L::from_pool(l));
    let mut query = Query::new(Arc::new(pattern), matrix);
    query.config = query_config(i);
    BuiltQuery {
        query,
        edges: edge_list(p),
        labels,
    }
}

/// How a round picks the edge it flips (and flips back).
#[derive(Clone, Copy, Debug)]
pub enum FlipKind {
    /// A random node pair: almost always a non-edge, so an insert
    /// followed by its delete.
    AnyPair,
    /// An existing edge: a delete followed by its re-insert.
    ExistingEdge,
    /// A random pair inside one part, so the update stays in one shard.
    IntraPart,
    /// A non-edge `(a, b)` where `b` is two or three hops from `a`: the
    /// insert and its delete both leave the closure unchanged, so the
    /// update costs only what every apply pays.
    Shortcut,
}

/// One operation of the replay.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Run the next query against graph `graph`.
    Query { graph: usize },
    /// Flip edge `(a, b)` of graph `graph`.
    Flip { graph: usize, a: u32, b: u32 },
}

/// One round of operations: for each flip kind, `between` queries, the
/// flip, `between` queries, the flip back. Every round leaves the edge
/// sets as it found them, so edge counts stay level and every run
/// attempts whole rounds of the same mix.
pub fn round(
    kinds: &[FlipKind],
    between: usize,
    flip_graph: usize,
    query_graphs: usize,
    models: &[Model],
    queries_so_far: &mut usize,
    rng: &mut XorShift64,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut queries = |ops: &mut Vec<Op>| {
        for _ in 0..between {
            ops.push(Op::Query {
                graph: *queries_so_far % query_graphs,
            });
            *queries_so_far += 1;
        }
    };
    let model = &models[flip_graph];
    for &kind in kinds {
        let (a, b) = pick_pair(kind, model, rng);
        for _ in 0..2 {
            queries(&mut ops);
            ops.push(Op::Flip {
                graph: flip_graph,
                a,
                b,
            });
        }
    }
    ops
}

fn pick_pair(kind: FlipKind, model: &Model, rng: &mut XorShift64) -> (u32, u32) {
    let distinct = |lo: usize, hi: usize, rng: &mut XorShift64| {
        let a = lo + rng.below(hi - lo);
        let mut b = lo + rng.below(hi - lo);
        if b == a {
            b = lo + (a - lo + 1) % (hi - lo);
        }
        (a as u32, b as u32)
    };
    match kind {
        FlipKind::AnyPair => distinct(0, model.node_count(), rng),
        FlipKind::IntraPart => {
            let (lo, hi) = model.parts[rng.below(model.parts.len())];
            distinct(lo, hi, rng)
        }
        FlipKind::Shortcut => loop {
            let a = rng.below(model.node_count()) as u32;
            let near = two_or_three_hops(model, a);
            if !near.is_empty() {
                return (a, near[rng.below(near.len())]);
            }
        },
        FlipKind::ExistingEdge => loop {
            let a = rng.below(model.node_count());
            let row = &model.adj[a];
            if !row.is_empty() {
                return (a as u32, row[rng.below(row.len())]);
            }
        },
    }
}

/// Nodes two or three hops from `a` that are neither `a` nor its direct
/// successors, in breadth-first order.
fn two_or_three_hops(model: &Model, a: u32) -> Vec<u32> {
    let mut seen: BTreeSet<u32> = BTreeSet::from([a]);
    let mut frontier = vec![a];
    let mut out = Vec::new();
    for depth in 1..=3 {
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in &model.adj[v as usize] {
                if seen.insert(w) {
                    next.push(w);
                    if depth >= 2 {
                        out.push(w);
                    }
                }
            }
        }
        frontier = next;
    }
    out
}
