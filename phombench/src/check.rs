//! The answer checker. It recomputes everything from the benchmark's own
//! inputs — the label pool and its own copy of the data graph — and uses
//! none of the program's validation or reachability code.

use crate::inputs::{BuiltQuery, Model, XI};
use phom_core::PHomMapping;
use phom_graph::NodeId;
use phom_workloads::synthetic::LabelPool;

/// Tolerance for recomputed quality scores.
const QUAL_EPS: f64 = 1e-9;

/// What the checker needs from one answer.
pub struct Answer<'a> {
    pub mapping: &'a PHomMapping,
    pub qual_card: f64,
    pub qual_sim: f64,
}

/// Reusable breadth-first search state over a [`Model`].
pub struct Checker {
    seen: Vec<u32>,
    stamp: u32,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl Checker {
    pub fn new() -> Self {
        Checker {
            seen: Vec::new(),
            stamp: 0,
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Checks one answer to `q` against the current `model`:
    /// * every mapped pair's recomputed similarity is at least ξ;
    /// * every pattern edge whose ends are both mapped has a nonempty
    ///   image path, of at most `k` edges for a stretch-bounded query;
    /// * the mapping is injective for the 1-1 algorithms;
    /// * qualCard and qualSim (uniform weights) match the reported ones.
    pub fn check<L>(
        &mut self,
        q: &BuiltQuery<L>,
        answer: &Answer<'_>,
        model: &Model,
        pool: &LabelPool,
    ) -> Result<(), String> {
        let n1 = q.labels.len();
        let n2 = model.node_count();
        if answer.mapping.pattern_size() != n1 {
            return Err(format!(
                "mapping covers {} pattern nodes, pattern has {n1}",
                answer.mapping.pattern_size()
            ));
        }
        let mut image: Vec<Option<u32>> = vec![None; n1];
        let mut sim_sum = 0.0;
        let mut mapped = 0usize;
        for (v, u) in answer.mapping.pairs() {
            let (v, u) = (v.index(), u.index());
            if v >= n1 || u >= n2 {
                return Err(format!("pair ({v}, {u}) out of range"));
            }
            let s = pool.similarity(q.labels[v], model.labels[u]);
            if s < XI {
                return Err(format!("pair ({v}, {u}) has similarity {s} < ξ"));
            }
            image[v] = Some(u as u32);
            sim_sum += s;
            mapped += 1;
        }
        if q.query.config.algorithm.injective() {
            let mut used: Vec<u32> = image.iter().flatten().copied().collect();
            used.sort_unstable();
            if used.windows(2).any(|w| w[0] == w[1]) {
                return Err("1-1 answer maps two pattern nodes to one data node".into());
            }
        }
        let bound = q.query.config.max_stretch.unwrap_or(usize::MAX);
        let mut by_source: Vec<(u32, u32)> = q
            .edges
            .iter()
            .filter_map(|&(a, b)| Some((image[a as usize]?, image[b as usize]?)))
            .collect();
        by_source.sort_unstable();
        by_source.dedup();
        for group in by_source.chunk_by(|x, y| x.0 == y.0) {
            let targets: Vec<u32> = group.iter().map(|&(_, t)| t).collect();
            if let Some(missing) = self.unreached(model, group[0].0, &targets, bound) {
                return Err(format!(
                    "no image path {} -> {missing} within {} hops",
                    group[0].0,
                    if bound == usize::MAX {
                        "unbounded".to_owned()
                    } else {
                        bound.to_string()
                    }
                ));
            }
        }
        let card = if n1 == 0 {
            0.0
        } else {
            mapped as f64 / n1 as f64
        };
        let sim = if n1 == 0 { 0.0 } else { sim_sum / n1 as f64 };
        if (card - answer.qual_card).abs() > QUAL_EPS {
            return Err(format!(
                "qualCard {} reported, {card} recomputed",
                answer.qual_card
            ));
        }
        if (sim - answer.qual_sim).abs() > QUAL_EPS {
            return Err(format!(
                "qualSim {} reported, {sim} recomputed",
                answer.qual_sim
            ));
        }
        Ok(())
    }

    /// Breadth-first search from `source` over nonempty paths of at most
    /// `bound` edges; returns a target it did not reach, if any.
    fn unreached(
        &mut self,
        model: &Model,
        source: u32,
        targets: &[u32],
        bound: usize,
    ) -> Option<u32> {
        let n = model.node_count();
        if self.seen.len() != n {
            self.seen = vec![0; n];
            self.stamp = 0;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        let mut left = targets.len();
        self.frontier.clear();
        self.frontier.push(source);
        let mut depth = 0;
        while !self.frontier.is_empty() && depth < bound && left > 0 {
            depth += 1;
            self.next.clear();
            for &v in &self.frontier {
                for &w in &model.adj[v as usize] {
                    if self.seen[w as usize] != stamp {
                        self.seen[w as usize] = stamp;
                        self.next.push(w);
                        if targets.contains(&w) {
                            left -= 1;
                        }
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        targets
            .iter()
            .copied()
            .find(|&t| self.seen[t as usize] != stamp)
    }
}

/// Corrupts a correct answer in several ways and confirms the checker
/// rejects every copy. Returns the first corruption it accepted.
pub fn self_test<L>(
    checker: &mut Checker,
    q: &BuiltQuery<L>,
    answer: &Answer<'_>,
    model: &Model,
    pool: &LabelPool,
) -> Result<(), String> {
    checker
        .check(q, answer, model, pool)
        .map_err(|e| format!("self-test base answer rejected: {e}"))?;
    let mapping = answer.mapping;
    // Each corruption keeps the reported scores consistent with the
    // corrupted mapping, so only the targeted property is broken.
    let n1 = q.labels.len() as f64;
    let scores = |m: &PHomMapping| {
        let sim: f64 = m
            .pairs()
            .map(|(v, u)| pool.similarity(q.labels[v.index()], model.labels[u.index()]))
            .sum();
        (m.len() as f64 / n1, sim / n1)
    };
    let used: Vec<usize> = mapping.pairs().map(|(_, u)| u.index()).collect();
    // `mapping` with pattern node `v` sent to `u` instead.
    let moved = |v: NodeId, u: NodeId| {
        PHomMapping::from_pairs(
            mapping.pattern_size(),
            mapping
                .pairs()
                .map(|(x, y)| if x == v { (x, u) } else { (x, y) }),
        )
    };
    let mut cases: Vec<(&str, PHomMapping)> = Vec::new();
    // A pattern node sent to a data node whose label is below ξ.
    if let Some((v, _)) = mapping.pairs().next() {
        let label = q.labels[v.index()];
        if let Some(u) = (0..model.node_count())
            .find(|&u| !used.contains(&u) && pool.similarity(label, model.labels[u]) < XI)
        {
            cases.push(("dissimilar image", moved(v, NodeId(u as u32))));
        }
    }
    // The source of a mapped pattern edge sent to an unused, similar
    // enough data node with no out-edges: the edge loses its image path.
    if let Some(&(a, _)) = q
        .edges
        .iter()
        .find(|&&(a, b)| mapping.get(NodeId(a)).is_some() && mapping.get(NodeId(b)).is_some())
    {
        let label = q.labels[a as usize];
        if let Some(u) = (0..model.node_count()).find(|&u| {
            model.adj[u].is_empty()
                && !used.contains(&u)
                && pool.similarity(label, model.labels[u]) >= XI
        }) {
            cases.push(("broken edge", moved(NodeId(a), NodeId(u as u32))));
        }
    }
    // Two pattern nodes sharing one image under a 1-1 algorithm.
    if q.query.config.algorithm.injective() {
        let pairs: Vec<(NodeId, NodeId)> = mapping.pairs().collect();
        if let Some(&(v, u)) = pairs.iter().find(|&&(v, u)| {
            pairs.iter().any(|&(w, _)| {
                w != v && pool.similarity(q.labels[w.index()], model.labels[u.index()]) >= XI
            })
        }) {
            let w = pairs
                .iter()
                .find(|&&(w, _)| {
                    w != v && pool.similarity(q.labels[w.index()], model.labels[u.index()]) >= XI
                })
                .map(|&(w, _)| w)
                .expect("found above");
            cases.push(("shared image", moved(w, u)));
        }
    }
    let mut cases: Vec<(&str, PHomMapping, f64, f64)> = cases
        .into_iter()
        .map(|(name, m)| {
            let (card, sim) = scores(&m);
            (name, m, card, sim)
        })
        .collect();
    cases.push((
        "inflated qualCard",
        mapping.clone(),
        answer.qual_card + 0.25,
        answer.qual_sim,
    ));
    for (name, m, card, sim) in &cases {
        let bad = Answer {
            mapping: m,
            qual_card: *card,
            qual_sim: *sim,
        };
        if checker.check(q, &bad, model, pool).is_ok() {
            return Err(format!("checker accepted a corrupted answer ({name})"));
        }
    }
    Ok(())
}
