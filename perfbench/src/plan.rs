//! `plan-lap200`: the pattern-only front end at scale. One call of
//! `Pipeline::try_run_ref` (analytic backend) on LAP200 — n = 40,000,
//! grain 25, P = 16, block scheme, fast engines — from pattern to the
//! paper's traffic and work reports. The grid is deterministic, so the
//! seed does not change the input.

use std::time::Instant;

use spfactor::matrix::gen::paper;
use spfactor::partition::{DepsEngine, PartitionParams};
use spfactor::simulate::SimulateEngine;
use spfactor::trace::alloc;
use spfactor::{OrderEngine, Ordering, ScheduleArtifact, Scheme, SymmetricPattern};

use crate::layers::{self, ChainSample, PlanConfig};
use crate::stats::{self, Outcome};
use crate::{repeat_setup, Args, MB};

/// Grid side of the measured plan (LAP200) and of its smoke stand-in.
const SIDE: usize = 200;
const SMOKE_SIDE: usize = 30;

/// Grid side of the set-up check against the element oracles.
const ORACLE_SIDE: usize = 16;

/// The one place the plan's engines and parameters are chosen.
fn config() -> PlanConfig {
    PlanConfig {
        ordering: Ordering::paper_default(),
        order_engine: OrderEngine::Compressed,
        deps_engine: DepsEngine::Sweep,
        sim_engine: SimulateEngine::Block,
        params: PartitionParams::with_grain(25),
        scheme: Scheme::Block,
        nprocs: 16,
    }
}

/// Set-up: generates the grid and checks, on a small grid, that the
/// fast engines give the element oracles' traffic, work and deps.
fn setup(side: usize, out: &mut Outcome) -> SymmetricPattern {
    let fast = config();
    let oracle = PlanConfig {
        deps_engine: DepsEngine::Element,
        sim_engine: SimulateEngine::Element,
        ..fast
    };
    let small = paper::lap_grid(ORACLE_SIDE).pattern;
    match (
        fast.pipeline(small.clone()).try_run_ref(),
        oracle.pipeline(small).try_run_ref(),
    ) {
        (Ok(f), Ok(o)) => out.check(
            f.traffic == o.traffic && f.work == o.work && f.deps == o.deps,
            "fast engines disagree with the element oracles",
        ),
        (f, o) => out.check(
            false,
            &format!("oracle check errored: {:?} / {:?}", f.err(), o.err()),
        ),
    }
    paper::lap_grid(side).pattern
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let side = if args.smoke { SMOKE_SIDE } else { SIDE };
    let cfg = config();

    let (pattern, setup_s) = repeat_setup(args, || Ok(setup(side, &mut out)))?;
    let pipeline = cfg.pipeline(pattern.clone());

    if let Some(tracer) = &args.tracer {
        // Untraced reference plan, then the same plan layer by layer.
        let t = Instant::now();
        let r = pipeline.try_run_ref().map_err(|e| e.to_string())?;
        let plan_ms = t.elapsed().as_secs_f64() * 1e3;
        let (traffic, work) = (r.traffic, r.work);
        // `try_run_ref` is `try_plan` plus the back end; its result
        // carries `try_plan`'s parts unchanged.
        let expected = ScheduleArtifact::new(
            pipeline.key(),
            r.permutation,
            r.factor,
            r.partition,
            r.deps,
            r.assignment,
        )
        .fingerprint();
        let mut sample = ChainSample::default();
        let (artifact, t2, w2) = layers::chain(&pattern, &cfg, tracer, &mut sample);
        out.check(
            artifact.fingerprint() == expected,
            "layer chain artifact fingerprint differs from try_plan's",
        );
        out.check(
            t2 == traffic && w2 == work,
            "layer chain reports differ from try_run_ref's",
        );
        drop(artifact);
        let (front_end_ms, simulate_ms) = layers::emit_metrics(&mut out, tracer, &sample);
        let layers_ms = front_end_ms + simulate_ms;
        out.metric("trace.overhead_pct", (layers_ms / plan_ms - 1.0) * 100.0);
        println!(
            "reconcile plan-lap200: layer sum {:.1} ms vs plan_s {:.1} ms ({:.1}%); \
             the rest is try_run_ref copying its parts into the result",
            layers_ms,
            plan_ms,
            100.0 * layers_ms / plan_ms
        );
        return Ok(out);
    }

    let mut plan_s = Vec::new();
    let mut peak = 0usize;
    let mut reports = None;
    let started = Instant::now();
    // As many whole plans as fit in the window, judged by the last one,
    // and at least one.
    let window = args.seconds.as_secs_f64();
    while plan_s
        .last()
        .is_none_or(|last| started.elapsed().as_secs_f64() + last <= window)
    {
        alloc::reset_peak();
        let t = Instant::now();
        let r = pipeline.try_run_ref();
        plan_s.push(t.elapsed().as_secs_f64());
        peak = peak.max(alloc::peak_bytes());
        match r {
            Ok(r) => {
                out.check(
                    r.work.total == r.factor.paper_work(),
                    "work total differs from the factor's paper work",
                );
                let same = reports
                    .as_ref()
                    .is_none_or(|(t, w)| *t == r.traffic && *w == r.work);
                out.check(same, "repeated plans disagree");
                reports = Some((r.traffic, r.work));
            }
            Err(e) => out.check(false, &format!("plan failed: {e}")),
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let (traffic, work) = reports.ok_or("every plan failed")?;
    let ms: Vec<f64> = plan_s.iter().map(|s| s * 1e3).collect();
    let sorted = stats::sorted(&ms);
    out.metric("setup_s", setup_s);
    out.metric("plan_s", stats::median(&plan_s));
    out.metric("peak_heap_mb", peak as f64 / MB);
    out.metric("traffic_elems", traffic.total as f64);
    out.metric("imbalance", work.imbalance());
    out.metric("latency_p50_ms", stats::percentile(&sorted, 0.50));
    out.metric("latency_p99_ms", stats::percentile(&sorted, 0.99));
    out.metric("latency_mean_ms", stats::mean(&ms));
    out.metric("throughput_rps", plan_s.len() as f64 / wall);
    eprintln!("plan-lap200: {} plans, times {ms:.0?} ms", plan_s.len());
    Ok(out)
}
