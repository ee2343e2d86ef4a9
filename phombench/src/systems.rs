//! The systems under test, behind one interface: an in-process
//! [`Service`] (unsharded or sharded) and a [`Router`] over in-process
//! workers on the channel transport.

use phom_cluster::{
    codec, worker::spawn_service, ChannelHub, FrameConfig, Router, RouterConfig, TransportTimeouts,
    WireMessage, WorkerOptions, WorkerServer,
};
use phom_dynamic::GraphUpdate;
use phom_engine::{EngineConfig, PlannerConfig, Query};
use phom_graph::DiGraph;
use phom_service::{
    GraphInfo, QueryResponse, Request, Response, Service, ServiceConfig, ServiceLabel,
    ShardingConfig, UpdateSummary,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers of the routed cluster.
pub const WORKERS: usize = 3;
/// Shards per graph in the sharded workloads.
pub const SHARDS: usize = 3;
/// Read replicas per shard in the routed workload.
pub const REPLICAS: usize = 1;

/// Planner settings shared by every service, worker and the router: one
/// intra-query worker, so the benchmark's single client uses one core.
pub fn planner() -> PlannerConfig {
    PlannerConfig::builder().intra_query_workers(1).build()
}

pub fn service_config(sharding: ShardingConfig) -> ServiceConfig {
    ServiceConfig::builder()
        .engine(
            EngineConfig::builder()
                .cache_capacity(8)
                .threads(1)
                .planner(planner())
                .build(),
        )
        .sharding(sharding)
        .build()
}

pub fn sharding() -> ShardingConfig {
    ShardingConfig {
        max_shards: SHARDS,
        min_shard_nodes: 2,
    }
}

/// Wire-level costs of one routed query, measured by encoding and
/// decoding the request and response frames the router exchanges.
pub struct WireProbe {
    pub encode_us: f64,
    pub decode_us: f64,
}

/// One system under test.
pub trait System<L> {
    fn register(&self, name: &str, graph: Arc<DiGraph<L>>) -> Result<GraphInfo, String>;
    fn query(&self, graph: &str, q: &Query<L>, trace: bool) -> Result<QueryResponse, String>;
    fn apply(&self, graph: &str, update: GraphUpdate) -> Result<UpdateSummary, String>;
    fn info(&self, graph: &str) -> Result<GraphInfo, String>;
    /// The registered graph, where the system exposes it.
    fn graph(&self, graph: &str) -> Option<Arc<DiGraph<L>>>;
    /// Bytes sent plus received on the wire so far (routed only).
    fn wire_bytes(&self) -> Option<u64> {
        None
    }
    /// Times the codec on the frames of one routed query (routed only).
    fn wire_probe(
        &self,
        _graph: &str,
        _q: &Query<L>,
        _answer: &QueryResponse,
    ) -> Option<WireProbe> {
        None
    }
}

impl<L: ServiceLabel> System<L> for Service<L> {
    fn register(&self, name: &str, graph: Arc<DiGraph<L>>) -> Result<GraphInfo, String> {
        Service::register(self, name.to_owned(), graph).map_err(|e| e.to_string())
    }

    fn query(&self, graph: &str, q: &Query<L>, trace: bool) -> Result<QueryResponse, String> {
        self.query_traced(graph, q, trace)
            .map_err(|e| e.to_string())
    }

    fn apply(&self, graph: &str, update: GraphUpdate) -> Result<UpdateSummary, String> {
        self.apply_updates(graph, &[update])
            .map_err(|e| e.to_string())
    }

    fn info(&self, graph: &str) -> Result<GraphInfo, String> {
        self.graph_info(graph).map_err(|e| e.to_string())
    }

    fn graph(&self, graph: &str) -> Option<Arc<DiGraph<L>>> {
        Service::graph(self, graph).ok()
    }
}

/// A [`Router`] over [`WORKERS`] in-process [`WorkerServer`]s on a
/// [`ChannelHub`]; frames go through the same codec as TCP.
pub struct Routed {
    // Fields drop in declaration order: the router first, closing its
    // connections so the workers' handlers end; then each worker's Drop
    // stops and joins it.
    router: Router,
    _workers: Vec<WorkerServer>,
}

impl Routed {
    pub fn start() -> Routed {
        let hub = ChannelHub::new();
        let frame = FrameConfig::default();
        // Short listener-side read timeout so connection handlers notice
        // shutdown promptly; the router side waits as long as a query may.
        let worker_timeouts = TransportTimeouts {
            read: Duration::from_millis(100),
            write: Duration::from_secs(30),
        };
        let mut addrs = Vec::with_capacity(WORKERS);
        let mut workers = Vec::with_capacity(WORKERS);
        for w in 0..WORKERS {
            let addr = format!("worker-{w}");
            let listener = hub.bind(&addr, worker_timeouts, frame);
            let (_, server) = spawn_service(
                service_config(ShardingConfig::disabled()),
                Box::new(listener),
                WorkerOptions::default(),
            );
            addrs.push(addr);
            workers.push(server);
        }
        let transport = hub.transport(
            TransportTimeouts {
                read: Duration::from_secs(60),
                write: Duration::from_secs(60),
            },
            frame,
        );
        let router = Router::connect(
            Arc::new(transport),
            &addrs,
            RouterConfig {
                planner: planner(),
                sharding: sharding(),
                replicas: REPLICAS,
                frame,
                ..RouterConfig::default()
            },
        );
        Routed {
            router,
            _workers: workers,
        }
    }
}

impl System<String> for Routed {
    fn register(&self, name: &str, graph: Arc<DiGraph<String>>) -> Result<GraphInfo, String> {
        self.router
            .register(name.to_owned(), graph)
            .map_err(|e| e.to_string())
    }

    fn query(&self, graph: &str, q: &Query<String>, trace: bool) -> Result<QueryResponse, String> {
        self.router
            .query(graph, q, trace)
            .map_err(|e| e.to_string())
    }

    fn apply(&self, graph: &str, update: GraphUpdate) -> Result<UpdateSummary, String> {
        self.router
            .apply_updates(graph, &[update])
            .map_err(|e| e.to_string())
    }

    fn info(&self, graph: &str) -> Result<GraphInfo, String> {
        self.router.graph_info(graph).map_err(|e| e.to_string())
    }

    fn graph(&self, _graph: &str) -> Option<Arc<DiGraph<String>>> {
        None
    }

    fn wire_bytes(&self) -> Option<u64> {
        let s = self.router.stats();
        Some(s.bytes_sent + s.bytes_received)
    }

    fn wire_probe(
        &self,
        graph: &str,
        q: &Query<String>,
        answer: &QueryResponse,
    ) -> Option<WireProbe> {
        let frame = FrameConfig::default();
        let request = WireMessage::Request(Request::Query {
            graph: graph.to_owned(),
            query: q.clone(),
            trace: false,
        });
        let response = WireMessage::Ok(Response::Answer(answer.clone()));
        let t = Instant::now();
        // Frames carry a 4-byte length prefix; decode takes the body.
        let req_bytes = codec::encode(&request, &frame).ok()?;
        let resp_bytes = codec::encode(&response, &frame).ok()?;
        let encode_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let decoded = (
            codec::decode(&req_bytes[4..], &frame).ok()?,
            codec::decode(&resp_bytes[4..], &frame).ok()?,
        );
        let decode_us = t.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(decoded);
        Some(WireProbe {
            encode_us,
            decode_us,
        })
    }
}
