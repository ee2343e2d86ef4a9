//! The replay: set-up, the measured closed loop, answer checking and the
//! metrics of one run. One function drives every workload; the system
//! under test and the label type are its only variables.

use crate::check::{self, Answer, Checker};
use crate::inputs::{
    build_query, distinct_labels, edge_list, round, sub_seed, BenchLabel, BuiltQuery, FlipKind,
    GraphInput, Model, Op, STRETCH,
};
use crate::probe::{self, mean, percentile, CpuMeter, Spans};
use crate::systems::{planner, service_config, sharding, System};
use phom_core::{match_graphs_prepared, MatcherConfig, PHomMapping};
use phom_dynamic::{DynamicConfig, GraphUpdate, SemiDynamicClosure};
use phom_engine::{
    plan_query_with, Engine, EngineConfig, PlanKind, PrepareOptions, PreparedGraph, Query,
};
use phom_graph::{tarjan_scc, DiGraph, DynamicClosure, NodeId, XorShift64};
use phom_service::{QueryResponse, Service};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the data graphs. A workload's graphs are its fixed dataset;
/// `--seed` draws the query patterns and the update stream. Graphs drawn
/// per seed differ in structure enough (SCC layout, closure size) to move
/// latency by more than any bound worth keeping; see README.md.
const DATASET_SEED: u64 = 2010;
/// How many times a run sets the system up; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;
/// Query indices whose configs cover every query shape (each algorithm
/// with and without a stretch bound, and pinned restarts); one warm-up
/// query of each runs during set-up so lazy builds land there.
const WARM_SHAPES: [usize; 9] = [0, 1, 2, 3, 4, 8, 9, 14, 19];
/// Node pairs sampled per query for `graph.reach_ns`.
const REACH_SAMPLES: usize = 256;
/// Errors printed to stderr before the rest are only counted.
const MAX_REPORTED_ERRORS: usize = 5;

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// Pattern-template size `m` of the §6 generator, per part.
    pub m: usize,
    /// Disjoint parts per data graph.
    pub parts: usize,
    /// Registered data graphs.
    pub graphs: usize,
    /// Queries before each flip in a round.
    pub between: usize,
    /// The edges each round flips and flips back.
    pub flips: &'static [FlipKind],
    /// Compare with a fresh preparation every this many rounds (0: never).
    pub checkpoint_every: usize,
    /// Replay against a router, with an in-process sharded service as the
    /// reference the answers must equal.
    pub routed: bool,
}

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Per-layer samples of the traced run, by metric name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| mean(v))
    }
}

/// Failed-operation bookkeeping.
struct Failures {
    count: u64,
}

impl Failures {
    fn fail(&mut self, op: u64, what: &str) {
        self.count += 1;
        if self.count as usize <= MAX_REPORTED_ERRORS {
            eprintln!("op {op}: {what}");
        }
    }
}

fn answer_of(r: &QueryResponse) -> Answer<'_> {
    Answer {
        mapping: &r.mapping,
        qual_card: r.qual_card,
        qual_sim: r.qual_sim,
    }
}

fn same_answer(
    a: &PHomMapping,
    a_card: f64,
    a_sim: f64,
    b: &PHomMapping,
    b_card: f64,
    b_sim: f64,
) -> bool {
    a.pairs().eq(b.pairs()) && a_card == b_card && a_sim == b_sim
}

fn engine_config() -> EngineConfig {
    EngineConfig::builder()
        .cache_capacity(8)
        .threads(1)
        .planner(planner())
        .build()
}

/// Times one call into the program, charging the main thread's CPU to
/// the meter. Returns the result and the latency in milliseconds.
fn timed<T>(cpu: &mut CpuMeter, f: impl FnOnce() -> T) -> (T, f64) {
    let c0 = probe::thread_cpu_ns();
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    cpu.add_call(c0, probe::thread_cpu_ns());
    (out, ms)
}

/// Runs workload `w` against systems made by `start`.
pub fn run<L: BenchLabel + Ord>(
    w: &Workload,
    args: &Args,
    start: &dyn Fn() -> Box<dyn System<L>>,
) -> Result<Outcome, String> {
    // ---- inputs (benchmark work, untimed) ----------------------------
    let inputs: Vec<GraphInput> = (0..w.graphs)
        .map(|g| GraphInput::generate(w.m, w.parts, sub_seed(DATASET_SEED, g as u64)))
        .collect();
    let graphs: Vec<Arc<DiGraph<L>>> = inputs.iter().map(|i| Arc::new(i.data_graph())).collect();
    let names: Vec<String> = (0..w.graphs).map(|g| format!("g{g}")).collect();
    for (g, input) in inputs.iter().enumerate() {
        let m = &input.model;
        let (n, e, l) = (
            graphs[g].node_count(),
            graphs[g].edge_count(),
            distinct_labels(&graphs[g]),
        );
        if (n, e, l) != (m.node_count(), m.edges, m.distinct_labels()) {
            return Err(format!(
                "graph {g}: generated {n}/{e}/{l} nodes/edges/labels, model differs"
            ));
        }
        eprintln!(
            "input {}: {n} nodes, {e} edges, {l} labels, {} parts",
            names[g],
            m.parts.len()
        );
    }
    let mut wrng = XorShift64::new(sub_seed(args.seed, 0x7761_726d));
    let warm: Vec<(usize, BuiltQuery<L>)> = (0..w.graphs)
        .flat_map(|g| WARM_SHAPES.iter().map(move |&i| (g, i)))
        .map(|(g, i)| (g, build_query(&inputs[g].pattern(&mut wrng), &inputs[g], i)))
        .collect();

    // ---- set-up, repeated; the last one serves the replay ------------
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut register_ms = Vec::new();
    let mut system: Option<Box<dyn System<L>>> = None;
    let mut warm_answers = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(system.take());
        let t = Instant::now();
        let sys = start();
        for (g, name) in names.iter().enumerate() {
            let tr = Instant::now();
            sys.register(name, Arc::clone(&graphs[g]))?;
            register_ms.push(tr.elapsed().as_secs_f64() * 1e3);
        }
        warm_answers = warm
            .iter()
            .map(|(g, q)| sys.query(&names[*g], &q.query, false))
            .collect::<Result<Vec<_>, _>>()?;
        setup_s.push(t.elapsed().as_secs_f64());
        system = Some(sys);
    }
    let sys = system.expect("at least one set-up");
    let reference: Option<Service<L>> = if w.routed {
        let service = Service::new(service_config(sharding()));
        for (g, name) in names.iter().enumerate() {
            service
                .register(name.clone(), Arc::clone(&graphs[g]))
                .map_err(|e| e.to_string())?;
        }
        Some(service)
    } else {
        None
    };

    // Same inputs in every mode: what each system registered has the
    // generator's node, edge and label counts.
    for (g, name) in names.iter().enumerate() {
        let m = &inputs[g].model;
        let mut seen = vec![sys.info(name)?];
        if let Some(t) = &reference {
            seen.push(t.info(name).map_err(|e| e.to_string())?);
        }
        for info in seen {
            if (info.nodes, info.edges) != (m.node_count(), m.edges) {
                return Err(format!(
                    "{name}: system holds {}/{} nodes/edges",
                    info.nodes, info.edges
                ));
            }
        }
        if let Some(reg) = sys.graph(name) {
            if distinct_labels(&reg) != m.distinct_labels() {
                return Err(format!("{name}: registered graph has other labels"));
            }
        }
    }

    let mut checker = Checker::new();
    let mut correct = true;
    for ((g, q), r) in warm.iter().zip(&warm_answers) {
        if let Err(e) = checker.check(q, &answer_of(r), &inputs[*g].model, &inputs[*g].pool) {
            eprintln!("warm-up answer rejected: {e}");
            correct = false;
        }
    }
    // The checker must reject corrupted copies of a real answer.
    match warm.iter().zip(&warm_answers).find(|((_, q), r)| {
        q.edges
            .iter()
            .any(|&(a, b)| r.mapping.get(NodeId(a)).is_some() && r.mapping.get(NodeId(b)).is_some())
    }) {
        Some(((g, q), r)) => {
            let input = &inputs[*g];
            if let Err(e) =
                check::self_test(&mut checker, q, &answer_of(r), &input.model, &input.pool)
            {
                eprintln!("checker self-test: {e}");
                correct = false;
            }
        }
        None => {
            eprintln!("checker self-test: no warm-up answer maps an edge");
            correct = false;
        }
    }

    // ---- traced-run set-up probes --------------------------------------
    let mut layers = Layers::default();
    let mut spans = Spans::new();
    let engine: Engine<L> = Engine::new(engine_config());
    let options = PrepareOptions::from_planner(&planner());
    let mut mirrors: Vec<Arc<PreparedGraph<L>>> = Vec::new();
    let mut maintainers: Vec<SemiDynamicClosure<()>> = Vec::new();
    if args.trace {
        for g in &graphs {
            let (_, us) = spans.time("graph.tarjan_scc", 0, None, || tarjan_scc(&**g));
            layers.push("graph.scc_ms", us / 1e3);
            let (prepared, us) = spans.time("engine.prepare", 0, None, || {
                PreparedGraph::prepare(Arc::clone(g), options)
            });
            layers.push("engine.prepare_ms", us / 1e3);
            let (_, us) = spans.time("engine.bounded_closure", 0, None, || {
                prepared.bounded_closure(STRETCH)
            });
            layers.push("engine.bounded_closure_ms", us / 1e3);
            mirrors.push(Arc::new(prepared));
            maintainers.push(SemiDynamicClosure::new(&g.map_labels(|_, _| ())));
        }
        if sys.wire_bytes().is_some() {
            for &ms in &register_ms[register_ms.len() - w.graphs..] {
                layers.push("cluster.register_ms", ms);
            }
        }
    }

    // ---- the measured closed loop --------------------------------------
    let mut models: Vec<Model> = inputs.iter().map(|i| i.model.clone()).collect();
    let mut op_rng = XorShift64::new(sub_seed(args.seed, 0x6f70_7300));
    let mut pattern_rng = XorShift64::new(sub_seed(args.seed, 0x7061_7474));
    let mut reach_rng = XorShift64::new(sub_seed(args.seed, 0x7265_6163));
    let mut fails = Failures { count: 0 };
    let (mut query_ms, mut traced_ms, mut update_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut card_sum, mut sim_sum) = (0.0, 0.0);
    let (mut attempted, mut rounds, mut queries_planned, mut qi) = (0u64, 0usize, 0usize, 0usize);
    let mut cpu = CpuMeter::start();
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < args.seconds {
        let ops = round(
            w.flips,
            w.between,
            rounds % w.graphs,
            w.graphs,
            &models,
            &mut queries_planned,
            &mut op_rng,
        );
        // The last query of a round runs while its last flip is
        // outstanding: the graph then differs from the registered one.
        let checkpoint =
            (w.checkpoint_every > 0 && rounds % w.checkpoint_every == 0).then(|| ops.len() - 2);
        for (k, &op) in ops.iter().enumerate() {
            let op_id = attempted;
            attempted += 1;
            match op {
                Op::Query { graph } => {
                    let input = &inputs[graph];
                    let name = &names[graph];
                    let q = build_query::<L>(&input.pattern(&mut pattern_rng), input, qi);
                    qi += 1;
                    let root = args.trace.then(|| spans.open("op.query", op_id, None));
                    let untraced_first = !args.trace || qi % 2 == 0;
                    let mut traced = None;
                    if !untraced_first {
                        traced = Some(traced_call(
                            &mut spans, &mut cpu, &*sys, name, &q.query, op_id, root,
                        ));
                    }
                    let bytes_before = sys.wire_bytes();
                    let span = root.map(|r| spans.open("system.query", op_id, Some(r)));
                    let (res, ms) = timed(&mut cpu, || sys.query(name, &q.query, false));
                    if let Some(s) = span {
                        spans.close(s);
                    }
                    if let (Some(before), Some(after)) = (bytes_before, sys.wire_bytes()) {
                        layers.push("cluster.bytes_per_query", (after - before) as f64);
                    }
                    if untraced_first && args.trace {
                        traced = Some(traced_call(
                            &mut spans, &mut cpu, &*sys, name, &q.query, op_id, root,
                        ));
                    }
                    let resp = match res {
                        Ok(r) => r,
                        Err(e) => {
                            fails.fail(op_id, &format!("query error: {e}"));
                            continue;
                        }
                    };
                    query_ms.push(ms);
                    card_sum += resp.qual_card;
                    sim_sum += resp.qual_sim;
                    if let Err(e) =
                        checker.check(&q, &answer_of(&resp), &models[graph], &input.pool)
                    {
                        fails.fail(op_id, &format!("wrong answer: {e}"));
                        continue;
                    }
                    // routed ≡ sharded: the router answers exactly as the
                    // in-process sharded service does.
                    let mut reference_ms = None;
                    if let Some(t) = &reference {
                        let span = root.map(|r| spans.open("reference.query", op_id, Some(r)));
                        let t0 = Instant::now();
                        let reference = t.query(name, &q.query);
                        reference_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
                        if let Some(s) = span {
                            spans.close(s);
                        }
                        match reference {
                            Ok(r)
                                if same_answer(
                                    &r.mapping,
                                    r.qual_card,
                                    r.qual_sim,
                                    &resp.mapping,
                                    resp.qual_card,
                                    resp.qual_sim,
                                ) => {}
                            Ok(_) => {
                                fails.fail(op_id, "routed answer differs from the sharded service");
                                continue;
                            }
                            Err(e) => {
                                fails.fail(op_id, &format!("reference query error: {e}"));
                                continue;
                            }
                        }
                    }
                    if checkpoint == Some(k) {
                        if let Err(e) = dynamic_vs_scratch(
                            &*sys,
                            name,
                            &models[graph],
                            &engine,
                            options,
                            &q.query,
                            &resp,
                        ) {
                            fails.fail(op_id, &e);
                            continue;
                        }
                    }
                    if args.trace {
                        if let Some(r) = traced {
                            traced_ms.push(r.0);
                            if let Some(c) = r.1 {
                                layers.push("core.candidate_pairs", c.0 as f64);
                                layers.push("core.restarts_taken", c.1 as f64);
                            }
                        }
                        layers.push("service.shards_consulted", resp.shards_consulted as f64);
                        layers.push(
                            "sim.matrix_mb",
                            (q.query.matrix.n1() * q.query.matrix.n2() * 8) as f64 / 1e6,
                        );
                        let root = root.expect("traced");
                        let exec_us = query_layers(
                            &mut spans,
                            &mut layers,
                            &engine,
                            &mirrors[graph],
                            &q.query,
                            op_id,
                            root,
                            &mut reach_rng,
                        );
                        let service_us = reference_ms.unwrap_or(ms) * 1e3;
                        layers.push("service.overhead_us", service_us - exec_us);
                        if let Some(t) = reference_ms {
                            layers.push("cluster.route_overhead_us", (ms - t) * 1e3);
                        }
                        let span = spans.open("cluster.codec", op_id, Some(root));
                        if let Some(p) = sys.wire_probe(name, &q.query, &resp) {
                            layers.push("cluster.encode_us", p.encode_us);
                            layers.push("cluster.decode_us", p.decode_us);
                        }
                        spans.close(span);
                        spans.close(root);
                    }
                }
                Op::Flip { graph, a, b } => {
                    let name = &names[graph];
                    let update = models[graph].flip(a, b);
                    let root = args.trace.then(|| spans.open("op.update", op_id, None));
                    let bytes_before = sys.wire_bytes();
                    let span = root.map(|r| spans.open("system.apply", op_id, Some(r)));
                    let (res, ms) = timed(&mut cpu, || sys.apply(name, update));
                    if let Some(s) = span {
                        spans.close(s);
                    }
                    let summary = match res {
                        Ok(s) => s,
                        Err(e) => {
                            fails.fail(op_id, &format!("update error: {e}"));
                            continue;
                        }
                    };
                    update_ms.push(ms);
                    models[graph].apply(update);
                    let mut service_ms = ms;
                    if let Some(t) = &reference {
                        let span = root.map(|r| spans.open("reference.apply", op_id, Some(r)));
                        let t0 = Instant::now();
                        let res = t.apply_updates(name, &[update]);
                        service_ms = t0.elapsed().as_secs_f64() * 1e3;
                        if let Some(s) = span {
                            spans.close(s);
                        }
                        if let Err(e) = res {
                            fails.fail(op_id, &format!("reference update error: {e}"));
                            continue;
                        }
                    }
                    if summary.stats.applied != 1 {
                        fails.fail(
                            op_id,
                            &format!("update applied {} edits, expected 1", summary.stats.applied),
                        );
                        continue;
                    }
                    if let Some(root) = root {
                        if let (Some(before), Some(after)) = (bytes_before, sys.wire_bytes()) {
                            layers.push("cluster.bytes_per_update", (after - before) as f64);
                        }
                        let s = &summary.stats;
                        layers.push("service.apply_us", service_ms * 1e3);
                        layers.push("dynamic.bounded_rows", s.bounded_rows_recomputed as f64);
                        layers.push("dynamic.incremental", s.incremental as f64);
                        layers.push("dynamic.rebuilds", s.rebuilds as f64);
                        layers.push("dynamic.closure_unchanged", s.closure_unchanged as f64);
                        let (outcome, us) =
                            spans.time("engine.apply_with", op_id, Some(root), || {
                                mirrors[graph].apply_with(&[update], &DynamicConfig::default())
                            });
                        layers.push("engine.apply_us", us);
                        mirrors[graph] = outcome.prepared;
                        let maintainer = &mut maintainers[graph];
                        let (_, us) =
                            spans.time("dynamic.maintain", op_id, Some(root), || match update {
                                GraphUpdate::InsertEdge(x, y) => maintainer.insert_edge(x, y),
                                GraphUpdate::RemoveEdge(x, y) => maintainer.remove_edge(x, y),
                            });
                        layers.push("dynamic.maintain_us", us);
                        spans.close(root);
                    }
                }
            }
        }
        rounds += 1;
    }
    let busy_ms: f64 = query_ms.iter().chain(&update_ms).sum();
    let cpu_ms = cpu.finish_ms();
    let completed = (query_ms.len() + update_ms.len()) as f64;

    // ---- after the loop ------------------------------------------------
    for (g, name) in names.iter().enumerate() {
        if let Some(reg) = sys.graph(name) {
            if edge_list(&reg) != models[g].edge_list() {
                eprintln!("{name}: registered edges differ from the benchmark's copy");
                correct = false;
            }
        }
    }
    let mut index_bytes = 0usize;
    for name in &names {
        index_bytes += sys.info(name)?.closure_memory_bytes;
    }
    eprintln!(
        "{}: {rounds} rounds, {} queries, {} updates, {} failed, {:.1} s replay",
        w.name,
        query_ms.len(),
        update_ms.len(),
        fails.count,
        began.elapsed().as_secs_f64()
    );

    let metrics = if args.trace {
        for m in &mirrors {
            let (_, us) = spans.time("engine.reprepare", attempted, None, || {
                PreparedGraph::prepare(Arc::clone(m.graph()), options)
            });
            layers.push("engine.reprepare_us", us);
        }
        let untraced_p50 = percentile(&query_ms, 50.0);
        layers.push(
            "trace.overhead_pct",
            (percentile(&traced_ms, 50.0) - untraced_p50) / untraced_p50 * 100.0,
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", w.name, args.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
        crate::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.mean(name), unit))
            .collect()
    } else {
        let queries = query_ms.len().max(1) as f64;
        vec![
            ("setup_s", percentile(&setup_s, 50.0), "s"),
            ("query_p50_ms", percentile(&query_ms, 50.0), "ms"),
            ("query_p99_ms", percentile(&query_ms, 99.0), "ms"),
            ("update_p50_ms", percentile(&update_ms, 50.0), "ms"),
            ("update_p90_ms", percentile(&update_ms, 90.0), "ms"),
            ("throughput_ops_s", completed / (busy_ms / 1e3), "1/s"),
            ("cpu_ms_per_op", cpu_ms / completed, "ms"),
            ("qual_card_mean", card_sum / queries, "ratio"),
            ("qual_sim_mean", sim_sum / queries, "ratio"),
            ("peak_rss_mb", probe::peak_rss_mb(), "MB"),
            ("index_mb", index_bytes as f64 / 1e6, "MB"),
        ]
    };
    Ok(Outcome {
        correct,
        attempted,
        failed: fails.count,
        metrics,
    })
}

/// The traced end-to-end call: its latency in ms and the program's own
/// trace counters (candidate pairs, restarts taken).
fn traced_call<L>(
    spans: &mut Spans,
    cpu: &mut CpuMeter,
    sys: &dyn System<L>,
    name: &str,
    q: &Query<L>,
    op: u64,
    root: Option<usize>,
) -> (f64, Option<(usize, usize)>) {
    let span = spans.open("system.query_traced", op, root);
    let (res, ms) = timed(cpu, || sys.query(name, q, true));
    spans.close(span);
    let counters = res
        .ok()
        .and_then(|r| r.trace)
        .map(|t| (t.counters.candidate_pairs, t.counters.restarts_taken));
    (ms, counters)
}

/// Times the engine, core and graph layers on one query against the
/// benchmark's own prepared copy of the graph. Returns the
/// `Engine::execute` time in µs.
#[allow(clippy::too_many_arguments)]
fn query_layers<L: BenchLabel>(
    spans: &mut Spans,
    layers: &mut Layers,
    engine: &Engine<L>,
    prepared: &PreparedGraph<L>,
    q: &Query<L>,
    op: u64,
    root: usize,
    rng: &mut XorShift64,
) -> f64 {
    let (plan, us) = spans.time("engine.plan", op, Some(root), || {
        plan_query_with(q, &planner())
    });
    layers.push("engine.plan_us", us);
    let (_, exec_us) = spans.time("engine.execute", op, Some(root), || {
        engine.execute(prepared, q)
    });
    layers.push("engine.execute_us", exec_us);
    if matches!(plan.kind, PlanKind::Approx | PlanKind::Bounded) {
        let bounded = q
            .config
            .max_stretch
            .map(|k| (k, prepared.bounded_closure(k)));
        let bounded_ref = bounded.as_ref().map(|(k, c)| (*k, &**c));
        let (inputs, us) = spans.time("core.inputs", op, Some(root), || {
            prepared.inputs(bounded_ref)
        });
        layers.push("core.inputs_us", us);
        let cfg = MatcherConfig {
            algorithm: q.config.algorithm,
            xi: q.config.xi,
            max_stretch: q.config.max_stretch,
            restarts: plan.restarts,
            intra_workers: 1,
            partition_g1: q.config.partition,
            compress_g2: q.config.compress,
            ..Default::default()
        };
        let weights = q.effective_weights();
        let (_, us) = spans.time("core.match", op, Some(root), || {
            match_graphs_prepared(
                &q.pattern,
                prepared.graph(),
                &q.matrix,
                &weights,
                &cfg,
                inputs,
            )
        });
        layers.push("core.match_us", us);
    }
    let n = prepared.graph().node_count();
    let pairs: Vec<(NodeId, NodeId)> = (0..REACH_SAMPLES)
        .map(|_| (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32)))
        .collect();
    let closure = prepared.closure();
    let (_, us) = spans.time("graph.reaches", op, Some(root), || {
        pairs
            .iter()
            .filter(|&&(a, b)| closure.reaches(a, b))
            .count()
    });
    layers.push("graph.reach_ns", us * 1e3 / REACH_SAMPLES as f64);
    exec_us
}

/// dynamic ≡ scratch: the registered graph equals the benchmark's edge
/// copy, and a freshly prepared copy of it answers the query exactly as
/// the live, incrementally maintained one did.
fn dynamic_vs_scratch<L: BenchLabel>(
    sys: &dyn System<L>,
    name: &str,
    model: &Model,
    engine: &Engine<L>,
    options: PrepareOptions,
    q: &Query<L>,
    live: &QueryResponse,
) -> Result<(), String> {
    let Some(graph) = sys.graph(name) else {
        return Ok(());
    };
    if edge_list(&graph) != model.edge_list() {
        return Err("registered graph differs from the benchmark's edge copy".into());
    }
    let fresh = PreparedGraph::prepare(graph, options);
    let r = engine.execute(&fresh, q);
    let o = &r.outcome;
    if same_answer(
        &o.mapping,
        o.qual_card,
        o.qual_sim,
        &live.mapping,
        live.qual_card,
        live.qual_sim,
    ) {
        Ok(())
    } else {
        Err("live answer differs from a fresh preparation of the same graph".into())
    }
}
