//! The plan front end rebuilt layer by layer from the crates' public
//! functions, so the traced run can time (and heap-bracket) each layer
//! from the benchmark's own code.

use spfactor::partition::{self, DepsEngine, Partition, PartitionParams};
use spfactor::simulate::{self, SimulateEngine, TrafficReport, WorkReport};
use spfactor::trace::alloc;
use spfactor::{order, sched, OrderEngine, Ordering, Pipeline, ScheduleArtifact, Scheme};
use spfactor::{SymbolicFactor, SymmetricPattern};
use spfactor_serve::SolveRequest;

use crate::spans::{SpanId, Tracer};
use crate::stats::Outcome;
use crate::MB;

/// Every front-end choice a plan depends on, selected in one place.
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    pub ordering: Ordering,
    pub order_engine: OrderEngine,
    pub deps_engine: DepsEngine,
    pub sim_engine: SimulateEngine,
    pub params: PartitionParams,
    pub scheme: Scheme,
    pub nprocs: usize,
}

impl PlanConfig {
    /// The configuration `SolverService` plans `req`'s cold build with:
    /// the request's ordering, engine, parameters, scheme and processor
    /// count, and the deps engine left at the `Pipeline` default as the
    /// service leaves it. Simulation is not part of a serve build; the
    /// block engine is used when the benchmark reports a tenant's
    /// traffic.
    pub fn serve(req: &SolveRequest) -> Self {
        PlanConfig {
            ordering: req.ordering,
            order_engine: req.order_engine,
            deps_engine: DepsEngine::default(),
            sim_engine: SimulateEngine::Block,
            params: req.params,
            scheme: req.scheme,
            nprocs: req.nprocs,
        }
    }

    /// The pipeline this configuration describes.
    pub fn pipeline(&self, pattern: SymmetricPattern) -> Pipeline {
        Pipeline::new(pattern)
            .ordering(self.ordering)
            .order_engine(self.order_engine)
            .deps_engine(self.deps_engine)
            .engine(self.sim_engine)
            .params(self.params)
            .scheme(self.scheme)
            .processors(self.nprocs)
    }
}

/// Heap-tracked layers, in pipeline order.
pub const HEAP_LAYERS: [&str; 6] = [
    "order",
    "symbolic",
    "partition",
    "deps",
    "sched",
    "simulate",
];

/// Counts and heap figures from one layer-chain run.
#[derive(Clone, Debug, Default)]
pub struct ChainSample {
    pub flops: f64,
    pub lnnz: f64,
    pub units: f64,
    pub edges: f64,
    /// Per [`HEAP_LAYERS`] entry: (bytes the call allocated above the
    /// live size at entry, live bytes at entry), the largest over the
    /// chains run.
    pub heap: [(f64, f64); 6],
}

/// Runs `f` under span `name`, recording its heap use in `heap`.
fn layer<T>(
    tracer: &Tracer,
    parent: SpanId,
    name: &str,
    heap: Option<&mut (f64, f64)>,
    f: impl FnOnce() -> T,
) -> T {
    let live = alloc::current_bytes();
    alloc::reset_peak();
    let out = tracer.time(name, Some(parent), f);
    if let Some(h) = heap {
        h.0 = h.0.max(alloc::peak_bytes().saturating_sub(live) as f64);
        h.1 = h.1.max(live as f64);
    }
    out
}

/// Plans `pattern` layer by layer under `cfg`, each public call in its
/// own span below a `plan.chain` span, and simulates the result.
/// Returns the artifact (whose fingerprint must equal `try_plan`'s),
/// the analytic reports and the chain's counts.
pub fn chain(
    pattern: &SymmetricPattern,
    cfg: &PlanConfig,
    tracer: &Tracer,
    sample: &mut ChainSample,
) -> (ScheduleArtifact, TrafficReport, WorkReport) {
    let key = cfg.pipeline(pattern.clone()).key();
    let root = tracer.open("plan.chain", None, None);
    let [h_order, h_symbolic, h_partition, h_deps, h_sched, h_simulate] = &mut sample.heap;
    let perm = layer(tracer, root, "order", Some(h_order), || {
        order::order_with_engine(pattern, cfg.ordering, cfg.order_engine)
    });
    let permuted = pattern.permute(&perm);
    let factor = layer(tracer, root, "symbolic", Some(h_symbolic), || {
        SymbolicFactor::from_pattern(&permuted)
    });
    drop(permuted);
    sample.flops += factor.flop_count() as f64;
    sample.lnnz += factor.nnz_lower() as f64;
    let partition = match cfg.scheme {
        Scheme::Block => {
            layer(tracer, root, "partition.clusters", None, || {
                partition::identify_clusters(&factor, &cfg.params)
            });
            layer(tracer, root, "partition.build", Some(h_partition), || {
                Partition::build(&factor, &cfg.params)
            })
        }
        Scheme::Wrap => layer(tracer, root, "partition.build", Some(h_partition), || {
            Partition::columns(&factor)
        }),
    };
    sample.units += partition.num_units() as f64;
    let deps = layer(tracer, root, "deps", Some(h_deps), || {
        partition::build_dependencies(cfg.deps_engine, &factor, &partition)
    });
    sample.edges += deps.num_edges() as f64;
    let assignment = layer(tracer, root, "sched", Some(h_sched), || match cfg.scheme {
        Scheme::Block => sched::block_allocation(&partition, &deps, cfg.nprocs),
        Scheme::Wrap => sched::wrap_allocation(&partition, cfg.nprocs),
    });
    let artifact = ScheduleArtifact::new(key, perm, factor, partition, deps, assignment);
    let (traffic, work) = layer(tracer, root, "simulate", Some(h_simulate), || {
        simulate::simulate(
            cfg.sim_engine,
            artifact.factor(),
            artifact.partition(),
            artifact.assignment(),
        )
    });
    tracer.close(root);
    (artifact, traffic, work)
}

/// Emits the plan-layer metrics of a traced run: self times from the
/// tracer's spans (summed over every chain run, one per tenant), counts
/// and heap figures from `sample`. Returns the summed self time of the
/// front-end layers (order to sched) and of simulate, in milliseconds.
pub fn emit_metrics(out: &mut Outcome, tracer: &Tracer, sample: &ChainSample) -> (f64, f64) {
    let self_ms = tracer.self_ms();
    let ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let units_ms = (ms("partition.build") - ms("partition.clusters")).max(0.0);
    let front_end = [
        ("order.ms", ms("order")),
        ("symbolic.ms", ms("symbolic")),
        ("partition.clusters.ms", ms("partition.clusters")),
        ("partition.units.ms", units_ms),
        ("deps.ms", ms("deps")),
        ("sched.ms", ms("sched")),
    ];
    for (name, value) in front_end {
        out.metric(name, value);
    }
    out.metric("simulate.ms", ms("simulate"));
    out.metric("symbolic.flops", sample.flops);
    out.metric("symbolic.lnnz", sample.lnnz);
    out.metric("partition.units", sample.units);
    out.metric("deps.edges", sample.edges);
    out.metric(
        "partition_deps.ns_per_lnnz",
        (units_ms + ms("deps")) * 1e6 / sample.lnnz.max(1.0),
    );
    for (layer, (delta, live)) in HEAP_LAYERS.iter().zip(sample.heap) {
        out.metric(&format!("{layer}.heap_delta_mb"), delta / MB);
        out.metric(&format!("{layer}.heap_live_mb"), live / MB);
    }
    (front_end.iter().map(|(_, v)| v).sum(), ms("simulate"))
}
