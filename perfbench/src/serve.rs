//! The two serving workloads against `SolverService`:
//!
//! * `serve-zipf` — an open loop at a fixed rate over 8 tenants whose
//!   popularity is Zipf (s = 1.1), with a cache that holds 6 of them, so
//!   most requests hit and read a cached artifact while the misses
//!   rebuild one cold;
//! * `serve-mp-faults` — one closed-loop client against a warm BUS1138
//!   tenant on the message-passing kernel, every request carrying a
//!   seeded 1 % drop plan and every 100th an announced crash, so the
//!   time goes to the mp runtime and the resilience layer.
//!
//! Every solution is checked bit for bit against a sequential reference
//! computed at set-up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spfactor::matrix::gen::{self, paper};
use spfactor::matrix::SymmetricCsc;
use spfactor::mp::{self, CrashPlan, MpConfig};
use spfactor::simulate;
use spfactor::trace::alloc;
use spfactor::{numeric, FaultPlan, NetworkModel, ScheduleArtifact, Scheme, SymmetricPattern};
use spfactor_serve::{
    ExecutionKernel, ServeConfig, SolveRequest, SolveResponse, SolverService, Ticket, ValueBatch,
};

use crate::layers::{self, ChainSample, PlanConfig};
use crate::rng;
use crate::spans::Tracer;
use crate::stats::{self, Outcome};
use crate::{repeat_setup, Args, MB};

/// Open-loop arrival rate of `serve-zipf`, requests per second.
const ZIPF_RATE: f64 = 50.0;
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 1.1;
/// Open-loop prefix discarded before measuring, seconds.
const ZIPF_WARMUP_S: f64 = 1.0;
/// Seed of the fixed order of `serve-zipf`'s request cycle.
const ZIPF_CYCLE_SEED: u64 = 0x5eed_c7c1e;
/// Service shape for `serve-zipf`: the cache holds 6 of the 8 tenants.
const ZIPF_WORKERS: usize = 2;
const ZIPF_CACHE: usize = 6;
const ZIPF_SMOKE_CACHE: usize = 2;
/// Requests measured in smoke mode (the rate is unchanged).
const SMOKE_REQUESTS: usize = 12;

/// Drop probability of every `serve-mp-faults` request, and the crash
/// period (every `CRASH_EVERY`-th request also crashes processor 0).
const MP_DROP: f64 = 0.01;
const CRASH_EVERY: usize = 100;
/// `serve-zipf` samples cold costs (see [`CostSamples`]) in two bursts,
/// before and after its open loop, each at least this many rounds and
/// this long; the open loop's client has no time to spare for them.
const COST_BURST_ROUNDS: usize = 3;
const COST_BURST: Duration = Duration::from_secs(1);
/// `serve-mp-faults` samples one cost round before every this many
/// requests, so the samples span the whole window.
const COST_EVERY: usize = 10;
/// Direct mp executions per traced `mp.exec*` median.
const MP_PROBES: usize = 20;

/// Poll interval of the open-loop client while it waits for the next
/// due instant; bounds how late a completion is noticed.
const POLL: Duration = Duration::from_micros(100);
/// Give up on requests still outstanding this long after the last one
/// was due.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Seed streams (see [`rng::derive`]).
const STREAM_TRACE: u64 = 1;
const STREAM_VALUES: u64 = 2;
const STREAM_FAULTS: u64 = 3;

/// One tenant: a pattern with its plan configuration, seeded values and
/// the sequential reference solution every response must reproduce.
struct Tenant {
    name: String,
    pattern: SymmetricPattern,
    values: SymmetricCsc,
    rhs: Vec<f64>,
    cfg: PlanConfig,
    artifact: Arc<ScheduleArtifact>,
    reference: Vec<f64>,
    traffic: usize,
    imbalance: f64,
}

impl Tenant {
    /// Generates the tenant's values from `seed`, plans it exactly as a
    /// serve cold build does and solves it with the sequential kernel.
    fn new(
        name: &str,
        pattern: SymmetricPattern,
        scheme: Scheme,
        nprocs: usize,
        seed: u64,
    ) -> Result<Tenant, String> {
        let values = gen::spd_from_pattern(&pattern, seed);
        let rhs: Vec<f64> = (0..pattern.n()).map(|i| (i as f64 * 0.37).sin()).collect();
        let cfg = PlanConfig::serve(
            &SolveRequest::new(pattern.clone())
                .scheme(scheme)
                .processors(nprocs),
        );
        let artifact = plan(&pattern, &cfg).map_err(|e| format!("{name}: {e}"))?;
        let reference =
            sequential_solve(&values, &rhs, &artifact).map_err(|e| format!("{name}: {e}"))?;
        let (traffic, work) = simulate::simulate(
            cfg.sim_engine,
            artifact.factor(),
            artifact.partition(),
            artifact.assignment(),
        );
        Ok(Tenant {
            name: name.to_string(),
            pattern,
            values,
            rhs,
            cfg,
            artifact: Arc::new(artifact),
            reference,
            traffic: traffic.total,
            imbalance: work.imbalance(),
        })
    }

    fn request(&self) -> SolveRequest {
        SolveRequest::new(self.pattern.clone())
            .scheme(self.cfg.scheme)
            .processors(self.cfg.nprocs)
            .batch(ValueBatch::new(self.values.clone()).with_rhs(self.rhs.clone()))
    }

    /// Whether `resp` carries exactly the reference solution.
    fn matches(&self, resp: &SolveResponse) -> bool {
        match resp.batches.as_slice() {
            [b] => match b.solutions.as_slice() {
                [x] => same_bits(x, &self.reference),
                _ => false,
            },
            _ => false,
        }
    }
}

/// Bit-for-bit equality of two solutions.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A cold build exactly as the service plans one.
fn plan(pattern: &SymmetricPattern, cfg: &PlanConfig) -> Result<ScheduleArtifact, String> {
    cfg.pipeline(pattern.clone())
        .try_plan()
        .map_err(|e| format!("plan: {e}"))
}

/// The sequential kernel's answer, as a `Sequential` request computes it.
fn sequential_solve(
    values: &SymmetricCsc,
    rhs: &[f64],
    artifact: &ScheduleArtifact,
) -> Result<Vec<f64>, String> {
    let permuted = values.permute(artifact.permutation());
    let factor =
        numeric::cholesky(&permuted, artifact.factor()).map_err(|e| format!("cholesky: {e}"))?;
    let mut x =
        numeric::batch::solve_many_permuted(&factor, artifact.permutation(), &[rhs.to_vec()]);
    Ok(x.pop().expect("one right-hand side"))
}

/// A tenant's cold-build and sequential-kernel times, in milliseconds.
struct Cost {
    build_ms: f64,
    kernel_ms: f64,
}

/// Samples of every tenant's cold `try_plan` and sequential solve,
/// taken in rounds of one of each per tenant; each solve is checked
/// against the reference. The reported costs are per-tenant medians.
struct CostSamples {
    build_ms: Vec<Vec<f64>>,
    kernel_ms: Vec<Vec<f64>>,
    /// Wall time spent sampling, seconds.
    spent_s: f64,
}

impl CostSamples {
    fn new(tenants: usize) -> Self {
        CostSamples {
            build_ms: vec![Vec::new(); tenants],
            kernel_ms: vec![Vec::new(); tenants],
            spent_s: 0.0,
        }
    }

    fn round(&mut self, tenants: &[Tenant], tracer: Option<&Tracer>, out: &mut Outcome) {
        let started = Instant::now();
        for (i, t) in tenants.iter().enumerate() {
            let t0 = Instant::now();
            let artifact = plan(&t.pattern, &t.cfg);
            let t1 = Instant::now();
            let x = artifact.and_then(|a| sequential_solve(&t.values, &t.rhs, &a));
            let t2 = Instant::now();
            if let Some(tr) = tracer {
                tr.record("build", None, None, t0, t1);
                tr.record("kernel", None, None, t1, t2);
            }
            let ok = x.as_ref().is_ok_and(|x| same_bits(x, &t.reference));
            out.check(
                ok,
                &format!("{}: cold solve differs from the reference", t.name),
            );
            self.build_ms[i].push((t1 - t0).as_secs_f64() * 1e3);
            self.kernel_ms[i].push((t2 - t1).as_secs_f64() * 1e3);
        }
        self.spent_s += started.elapsed().as_secs_f64();
    }

    /// Rounds for at least [`COST_BURST_ROUNDS`] and [`COST_BURST`].
    fn burst(&mut self, tenants: &[Tenant], tracer: Option<&Tracer>, out: &mut Outcome) {
        let started = Instant::now();
        for r in 0.. {
            if r >= COST_BURST_ROUNDS && started.elapsed() >= COST_BURST {
                break;
            }
            self.round(tenants, tracer, out);
        }
    }

    fn costs(&self) -> Vec<Cost> {
        self.build_ms
            .iter()
            .zip(&self.kernel_ms)
            .map(|(b, k)| Cost {
                build_ms: stats::median(b),
                kernel_ms: stats::median(k),
            })
            .collect()
    }
}

/// The `serve-zipf` tenants: the paper's five matrices plus three grids,
/// block and wrap alternating; smoke mode keeps three small grids.
fn zipf_tenants(smoke: bool) -> Vec<(String, SymmetricPattern, usize)> {
    if smoke {
        return vec![
            ("grid8".into(), gen::lap9(8, 8), 2),
            ("grid10".into(), gen::lap9(10, 10), 2),
            ("grid12".into(), gen::lap9(12, 12), 4),
        ];
    }
    let mut t: Vec<(String, SymmetricPattern, usize)> = paper::all()
        .into_iter()
        .map(|m| (m.name.to_string(), m.pattern, 4))
        .collect();
    t.push(("grid30".into(), gen::lap9(30, 30), 8));
    t.push(("grid40".into(), gen::lap9(40, 40), 8));
    t.push(("grid25".into(), gen::lap9(25, 25), 4));
    t
}

/// Builds every tenant, its values seeded per tenant; with `alternate`
/// the odd tenants use the wrap scheme.
fn make_tenants(
    specs: Vec<(String, SymmetricPattern, usize)>,
    seed: u64,
    alternate: bool,
) -> Result<Vec<Tenant>, String> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (name, pattern, nprocs))| {
            let scheme = if alternate && i % 2 == 1 {
                Scheme::Wrap
            } else {
                Scheme::Block
            };
            let vseed = rng::derive(seed, STREAM_VALUES ^ ((i as u64) << 8));
            Tenant::new(&name, pattern, scheme, nprocs, vseed)
        })
        .collect()
}

/// Submits `req` and waits for the answer, counting the outcome.
fn solve_checked(
    service: &SolverService,
    tenant: &Tenant,
    req: SolveRequest,
    out: &mut Outcome,
) -> Option<SolveResponse> {
    match service.submit(req).and_then(Ticket::wait) {
        Ok(resp) => {
            let ok = tenant.matches(&resp);
            out.check(
                ok,
                &format!("{}: solution differs from the reference", tenant.name),
            );
            ok.then_some(resp)
        }
        Err(e) => {
            out.check(false, &format!("{}: {e}", tenant.name));
            None
        }
    }
}

/// Traced-run layer probe shared by both serve workloads: replays every
/// tenant's cold build layer by layer and checks the rebuilt artifact
/// against the one the service configuration plans, and that
/// configuration against the request's cache key.
fn layer_probe(tenants: &[Tenant], costs: &[Cost], tracer: &Tracer, out: &mut Outcome) {
    let mut sample = ChainSample::default();
    for t in tenants {
        out.check(
            t.cfg.pipeline(t.pattern.clone()).key() == t.request().key(),
            &format!(
                "{}: plan configuration differs from the service's cache key",
                t.name
            ),
        );
        let (artifact, _, _) = layers::chain(&t.pattern, &t.cfg, tracer, &mut sample);
        out.check(
            artifact.fingerprint() == t.artifact.fingerprint(),
            &format!(
                "{}: layer chain artifact fingerprint differs from try_plan's",
                t.name
            ),
        );
    }
    // A serve build stops before simulate.
    let (layers_ms, _) = layers::emit_metrics(out, tracer, &sample);
    let build_ms: f64 = costs.iter().map(|c| c.build_ms).sum();
    out.metric("build.ms", build_ms);
    out.metric("kernel.ms", costs.iter().map(|c| c.kernel_ms).sum());
    out.metric("trace.overhead_pct", (layers_ms / build_ms - 1.0) * 100.0);
}

/// End-to-end metrics shared by both serve workloads.
fn emit_serve_metrics(
    out: &mut Outcome,
    tenants: &[Tenant],
    setup_s: f64,
    costs: &[Cost],
    latencies_ms: &[f64],
    wall_s: f64,
    peak_bytes: usize,
) {
    let sorted = stats::sorted(latencies_ms);
    out.metric("setup_s", setup_s);
    out.metric(
        "plan_s",
        costs.iter().map(|c| c.build_ms).sum::<f64>() / 1e3,
    );
    out.metric("peak_heap_mb", peak_bytes as f64 / MB);
    out.metric(
        "traffic_elems",
        tenants.iter().map(|t| t.traffic as f64).sum(),
    );
    out.metric(
        "imbalance",
        stats::mean(&tenants.iter().map(|t| t.imbalance).collect::<Vec<_>>()),
    );
    out.metric("latency_p50_ms", stats::percentile(&sorted, 0.50));
    out.metric("latency_p99_ms", stats::percentile(&sorted, 0.99));
    out.metric("latency_mean_ms", stats::mean(latencies_ms));
    out.metric(
        "throughput_rps",
        latencies_ms.len() as f64 / wall_s.max(1e-9),
    );
}

/// One request of the open loop.
struct Pending {
    id: usize,
    tenant: usize,
    due: Instant,
    submitted: Instant,
    ticket: Ticket,
}

/// A completed, measured open-loop request.
struct Done {
    latency_ms: f64,
    hit: bool,
    tenant: usize,
}

pub fn run_zipf(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = args.tracer.as_ref();
    let cache = if args.smoke {
        ZIPF_SMOKE_CACHE
    } else {
        ZIPF_CACHE
    };

    let ((tenants, service), setup_s) = repeat_setup(args, || {
        let tenants = make_tenants(zipf_tenants(args.smoke), args.seed, true)?;
        let service = SolverService::start(ServeConfig {
            cache_capacity: cache,
            workers: ZIPF_WORKERS,
            ..ServeConfig::default()
        });
        // Warm-up: least popular first, so the cache ends up holding
        // the most popular tenants.
        for tenant in tenants.iter().rev() {
            solve_checked(&service, tenant, tenant.request(), &mut out);
        }
        Ok((tenants, service))
    })?;
    let mut samples = CostSamples::new(tenants.len());
    samples.burst(&tenants, tracer, &mut out);

    let warm_n = (ZIPF_RATE * ZIPF_WARMUP_S).round() as usize;
    let measured_n = if args.smoke {
        SMOKE_REQUESTS
    } else {
        (ZIPF_RATE * args.seconds.as_secs_f64()).round().max(1.0) as usize
    };
    let total = warm_n + measured_n;
    // One fixed cycle of the exact Zipf mix; the seed picks where the
    // measured window starts in it. The warm-up replays the requests
    // just before that point, so the cache enters the window in the
    // cycle's steady state and every seed pays the same misses.
    let cycle = rng::zipf(tenants.len(), measured_n, ZIPF_S, ZIPF_CYCLE_SEED);
    let offset = (rng::derive(args.seed, STREAM_TRACE) % measured_n as u64) as usize;
    let first = offset + measured_n - warm_n % measured_n;
    let trace: Vec<usize> = (0..total)
        .map(|i| cycle[(first + i) % measured_n])
        .collect();
    let period = Duration::from_secs_f64(1.0 / ZIPF_RATE);

    let mut outstanding: Vec<Pending> = Vec::new();
    let mut done: Vec<Done> = Vec::new();
    let mut late_max = Duration::ZERO;
    let mut depth_max = 0usize;
    let mut window_start = None;
    let mut window_stats = None;
    let mut last_done = Instant::now();
    let start = Instant::now() + Duration::from_millis(5);
    let mut next = 0usize;
    let mut next_req = Some(tenants[trace[0]].request());

    // Collects finished requests; returns once nothing is ready.
    let mut poll = |outstanding: &mut Vec<Pending>, out: &mut Outcome, done: &mut Vec<Done>| {
        let mut i = 0;
        while i < outstanding.len() {
            let Some(result) = outstanding[i].ticket.try_wait() else {
                i += 1;
                continue;
            };
            let now = Instant::now();
            let p = outstanding.swap_remove(i);
            let measured = p.id >= warm_n;
            let tenant = &tenants[p.tenant];
            let hit = match &result {
                Ok(resp) => resp.cache_hit,
                Err(_) => false,
            };
            if let Some(tr) = tracer {
                let req = Some(p.id as u64);
                let root = tr.record("request", None, req, p.due, now);
                tr.record("loadgen.late", Some(root), req, p.due, p.submitted);
                let stage = if hit { "serve.hit" } else { "serve.miss" };
                tr.record(stage, Some(root), req, p.submitted, now);
            }
            if !measured {
                continue;
            }
            last_done = last_done.max(now);
            match result {
                Ok(resp) => out.check(
                    tenant.matches(&resp),
                    &format!("{}: solution differs from the reference", tenant.name),
                ),
                Err(e) => out.check(false, &format!("{}: {e}", tenant.name)),
            }
            done.push(Done {
                latency_ms: (now - p.due).as_secs_f64() * 1e3,
                hit,
                tenant: p.tenant,
            });
        }
    };

    while next < total || !outstanding.is_empty() {
        if next < total {
            let due = start + period * next as u32;
            loop {
                poll(&mut outstanding, &mut out, &mut done);
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep(POLL.min(due - now));
            }
            if next == warm_n {
                alloc::reset_peak();
                window_start = Some(due);
                window_stats = Some((service.cache_stats(), service.cold_builds()));
            }
            let submitted = Instant::now();
            let req = next_req.take().expect("request prepared");
            match service.submit(req) {
                Ok(ticket) => outstanding.push(Pending {
                    id: next,
                    tenant: trace[next],
                    due,
                    submitted,
                    ticket,
                }),
                Err(e) if next >= warm_n => out.check(false, &format!("submit: {e}")),
                Err(e) => eprintln!("serve-zipf: warm-up submit: {e}"),
            }
            if next >= warm_n {
                late_max = late_max.max(submitted - due);
                depth_max = depth_max.max(service.queue_depth());
            }
            next += 1;
            if next < total {
                next_req = Some(tenants[trace[next]].request());
            }
        } else {
            poll(&mut outstanding, &mut out, &mut done);
            if Instant::now() > start + period * total as u32 + DRAIN_TIMEOUT {
                for p in outstanding.drain(..) {
                    out.check(false, &format!("request {} never completed", p.id));
                }
                break;
            }
            std::thread::sleep(POLL);
        }
    }
    let peak = alloc::peak_bytes();
    samples.burst(&tenants, tracer, &mut out);
    let costs = samples.costs();
    let window_start = window_start.ok_or("no measured requests")?;
    let wall_s = (last_done - window_start).as_secs_f64();
    let latencies: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    emit_serve_metrics(
        &mut out, &tenants, setup_s, &costs, &latencies, wall_s, peak,
    );
    let hits = done.iter().filter(|d| d.hit).count();
    eprintln!(
        "serve-zipf: {} measured requests, {hits} hits, p50 {:.2} ms, p99 {:.2} ms, late max {:.2} ms",
        done.len(),
        out.get("latency_p50_ms").unwrap_or(0.0),
        out.get("latency_p99_ms").unwrap_or(0.0),
        late_max.as_secs_f64() * 1e3
    );

    if let Some(tracer) = tracer {
        let (before, cold_before) = window_stats.expect("window opened");
        let after = service.cache_stats();
        let split = |hit: bool| {
            let v: Vec<f64> = done
                .iter()
                .filter(|d| d.hit == hit)
                .map(|d| d.latency_ms)
                .collect();
            stats::percentile(&stats::sorted(&v), 0.5)
        };
        out.metric("cache.hit_rate", hits as f64 / done.len().max(1) as f64);
        out.metric(
            "cache.evictions",
            (after.evictions - before.evictions) as f64,
        );
        out.metric(
            "serve.cold_builds",
            (service.cold_builds() - cold_before) as f64,
        );
        out.metric("latency.hit_p50_ms", split(true));
        out.metric("latency.miss_p50_ms", split(false));
        out.metric("queue.depth_max", depth_max as f64);
        out.metric("loadgen.late_max_ms", late_max.as_secs_f64() * 1e3);
        layer_probe(&tenants, &costs, tracer, &mut out);
        // Busy time the requests should have cost the workers: every
        // request runs the kernel, every miss also a cold build.
        let busy_ms: f64 = done
            .iter()
            .map(|d| {
                let c = &costs[d.tenant];
                c.kernel_ms + if d.hit { 0.0 } else { c.build_ms }
            })
            .sum();
        let capacity_ms = ZIPF_WORKERS as f64 * wall_s * 1e3;
        println!(
            "reconcile serve-zipf: {hits} hits x kernel + {} misses x (build + kernel) = {busy_ms:.0} ms \
             vs workers x wall = {capacity_ms:.0} ms ({:.1}% busy)",
            done.len() - hits,
            100.0 * busy_ms / capacity_ms
        );
    }
    drop(service);
    Ok(out)
}

/// The fault plan of closed-loop request `k`.
fn fault_plan(seed: u64, k: usize) -> FaultPlan {
    FaultPlan {
        seed: rng::derive(seed, STREAM_FAULTS ^ ((k as u64) << 8)),
        drop: MP_DROP,
        crash: (k + 1).is_multiple_of(CRASH_EVERY).then_some(CrashPlan {
            proc: 0,
            after_units: 0,
            announce: true,
        }),
        ..FaultPlan::none()
    }
}

pub fn run_mp_faults(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = args.tracer.as_ref();
    let kernel = ExecutionKernel::MessagePassing(NetworkModel::default());

    let ((tenants, service), setup_s) = repeat_setup(args, || {
        let spec = if args.smoke {
            vec![("grid12".to_string(), gen::lap9(12, 12), 4)]
        } else {
            let m = paper::bus1138();
            vec![(m.name.to_string(), m.pattern, 4)]
        };
        let tenants = make_tenants(spec, args.seed, false)?;
        let service = SolverService::start(ServeConfig::default());
        let tenant = &tenants[0];
        solve_checked(&service, tenant, tenant.request().kernel(kernel), &mut out);
        Ok((tenants, service))
    })?;
    let tenant = &tenants[0];
    let mut samples = CostSamples::new(tenants.len());

    let mut latencies = Vec::new();
    let mut degraded = 0usize;
    let mut failover_steps = 0usize;
    let mut hit_ms = Vec::new();
    alloc::reset_peak();
    let started = Instant::now();
    let mut k = 0;
    while latencies.is_empty() || started.elapsed() < args.seconds {
        if k % COST_EVERY == 0 {
            samples.round(&tenants, tracer, &mut out);
        }
        let req = tenant
            .request()
            .kernel(kernel)
            .fault_plan(fault_plan(args.seed, k));
        let t = Instant::now();
        let resp = solve_checked(&service, tenant, req, &mut out);
        let end = Instant::now();
        let ms = (end - t).as_secs_f64() * 1e3;
        if let Some(tr) = tracer {
            let stage = match &resp {
                Some(r) if r.degraded() => "request.degraded",
                _ => "request",
            };
            tr.record(stage, None, Some(k as u64), t, end);
        }
        if let Some(resp) = resp {
            degraded += resp.degraded() as usize;
            failover_steps += resp.failover.len();
            if resp.cache_hit {
                hit_ms.push(ms);
            }
        }
        latencies.push(ms);
        k += 1;
        if args.smoke && k >= SMOKE_REQUESTS {
            break;
        }
    }
    // Throughput counts the client's time in requests, not in sampling.
    let wall_s = started.elapsed().as_secs_f64() - samples.spent_s;
    let peak = alloc::peak_bytes();
    let costs = samples.costs();
    emit_serve_metrics(
        &mut out, &tenants, setup_s, &costs, &latencies, wall_s, peak,
    );
    eprintln!(
        "serve-mp-faults: {} requests, {degraded} degraded, p50 {:.2} ms, p99 {:.2} ms",
        latencies.len(),
        out.get("latency_p50_ms").unwrap_or(0.0),
        out.get("latency_p99_ms").unwrap_or(0.0),
    );

    if let Some(tracer) = tracer {
        let stats = service.cache_stats();
        out.metric("cache.hit_rate", stats.hit_rate());
        out.metric("cache.evictions", stats.evictions as f64);
        out.metric("serve.cold_builds", service.cold_builds() as f64);
        out.metric(
            "latency.hit_p50_ms",
            stats::percentile(&stats::sorted(&hit_ms), 0.5),
        );
        out.metric("serve.degraded", degraded as f64);
        out.metric("serve.failover_steps", failover_steps as f64);
        layer_probe(&tenants, &costs, tracer, &mut out);
        mp_probe(tenant, args.seed, tracer, &mut out);
        println!(
            "reconcile serve-mp-faults: mp.exec_faulted.ms {:.2} vs latency_p50_ms {:.2} \
             (mp.exec.ms {:.2} fault-free)",
            out.get("mp.exec_faulted.ms").unwrap_or(0.0),
            out.get("latency_p50_ms").unwrap_or(0.0),
            out.get("mp.exec.ms").unwrap_or(0.0),
        );
    }
    drop(service);
    Ok(out)
}

/// Traced-run probe of the mp runtime on the warm artifact: direct
/// `mp::execute_config` calls, fault-free and under the drop plan.
fn mp_probe(tenant: &Tenant, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let a = tenant.values.permute(tenant.artifact.permutation());
    let art = &tenant.artifact;
    let root = tracer.open("mp.probe", None, None);
    let mut run = |name: &str, fault: Option<FaultPlan>| {
        let mut config = MpConfig::reliable(NetworkModel::default());
        if let Some(plan) = fault {
            config.fault = plan;
        }
        let t = Instant::now();
        let r = mp::execute_config(
            &a,
            art.factor(),
            art.partition(),
            art.deps(),
            art.assignment(),
            &config,
        );
        tracer.record(name, Some(root), None, t, Instant::now());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(report) => Some((ms, report)),
            Err(e) => {
                out.check(false, &format!("{name}: {e}"));
                None
            }
        }
    };
    let mut clean_ms = Vec::new();
    let mut faulted_ms = Vec::new();
    let (mut msgs, mut bytes) = (0.0, 0.0);
    let (mut dropped, mut retries, mut queries) = (0usize, 0usize, 0usize);
    for k in 0..MP_PROBES {
        if let Some((ms, r)) = run("mp.exec", None) {
            clean_ms.push(ms);
            msgs = r.msgs_total() as f64;
            bytes = r.bytes_total() as f64;
        }
        let plan = FaultPlan {
            crash: None,
            ..fault_plan(seed, k)
        };
        if let Some((ms, r)) = run("mp.exec_faulted", Some(plan)) {
            faulted_ms.push(ms);
            dropped += r.faults.dropped;
            retries += r.faults.retries;
            queries += r.faults.queries;
        }
    }
    tracer.close(root);
    let per = MP_PROBES as f64;
    out.metric("mp.exec.ms", stats::median(&clean_ms));
    out.metric("mp.exec_faulted.ms", stats::median(&faulted_ms));
    out.metric("mp.msgs", msgs);
    out.metric("mp.bytes", bytes);
    out.metric("mp.dropped", dropped as f64 / per);
    out.metric("mp.retries", retries as f64 / per);
    out.metric("mp.queries", queries as f64 / per);
}
