//! `phombench`: replays one named workload against the p-hom system from
//! a seed, times every call into the program from outside, checks every
//! answer, and prints the run's metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path phombench/Cargo.toml -- \
//!     --workload match-large --seed 1 --seconds 15 --trace 0
//! ```
//!
//! See `README.md` beside this crate for the workloads and metrics.

mod check;
mod inputs;
mod probe;
mod replay;
mod systems;

use inputs::FlipKind;
use replay::{Args, Outcome, Workload};
use std::process::ExitCode;

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "match-large",
        m: 8000,
        parts: 1,
        graphs: 1,
        between: 19,
        flips: &[FlipKind::Shortcut],
        checkpoint_every: 0,
        routed: false,
    },
    Workload {
        name: "live-updates",
        m: 1000,
        parts: 1,
        graphs: 1,
        between: 1,
        flips: &[FlipKind::AnyPair, FlipKind::ExistingEdge],
        checkpoint_every: 4,
        routed: false,
    },
    Workload {
        name: "sharded-local",
        m: 600,
        parts: 3,
        graphs: 2,
        between: 9,
        flips: &[FlipKind::IntraPart],
        checkpoint_every: 0,
        routed: false,
    },
    Workload {
        name: "sharded-routed",
        m: 600,
        parts: 3,
        graphs: 2,
        between: 9,
        flips: &[FlipKind::IntraPart],
        checkpoint_every: 0,
        routed: true,
    },
];

/// The per-layer metrics of a traced run, with units. A layer a workload
/// does not pass through (the wire, outside `sharded-routed`) reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("engine.prepare_ms", "ms"),
    ("engine.bounded_closure_ms", "ms"),
    ("engine.plan_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.apply_us", "us"),
    ("engine.reprepare_us", "us"),
    ("core.inputs_us", "us"),
    ("core.match_us", "us"),
    ("core.candidate_pairs", "count"),
    ("core.restarts_taken", "count"),
    ("graph.scc_ms", "ms"),
    ("graph.reach_ns", "ns"),
    ("sim.matrix_mb", "MB"),
    ("dynamic.maintain_us", "us"),
    ("dynamic.bounded_rows", "count"),
    ("dynamic.incremental", "count"),
    ("dynamic.rebuilds", "count"),
    ("dynamic.closure_unchanged", "count"),
    ("service.overhead_us", "us"),
    ("service.shards_consulted", "count"),
    ("service.apply_us", "us"),
    ("cluster.encode_us", "us"),
    ("cluster.decode_us", "us"),
    ("cluster.bytes_per_query", "bytes"),
    ("cluster.bytes_per_update", "bytes"),
    ("cluster.route_overhead_us", "us"),
    ("cluster.register_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

fn parse(args: &[String]) -> Result<(&'static Workload, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn print(o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("phombench: {e}");
            eprintln!("usage: phombench --workload <name> --seed <n> --seconds <s> [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let result = if workload.routed {
        replay::run::<String>(workload, &args, &|| Box::new(systems::Routed::start()))
    } else if workload.parts > 1 {
        // Graphs made of disjoint parts are the sharded workloads.
        replay::run::<String>(workload, &args, &|| {
            Box::new(phom_service::Service::new(systems::service_config(
                systems::sharding(),
            )))
        })
    } else {
        replay::run::<u32>(workload, &args, &|| {
            Box::new(phom_service::Service::new(systems::service_config(
                phom_service::ShardingConfig::disabled(),
            )))
        })
    };
    match result {
        Ok(outcome) => {
            print(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("phombench: {}: {e}", workload.name);
            ExitCode::FAILURE
        }
    }
}
