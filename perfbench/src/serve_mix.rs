//! `serve-mix`: every `registry_small()` entry served on a 4-device fleet.
//!
//! Each (entry, route) pair gets a seeded open-loop Poisson trace at each
//! load of a fixed ladder, expressed as a multiple of fleet capacity
//! (devices / the captured `JobTemplate`'s idle service time). Sharding is
//! least-loaded with bounded queues; the first job of each tenant is
//! functional (one measured frame, the rest replayed) and every other job
//! is replay-only. The loop is open on the *simulated* clock, so latency is
//! `end − submit` on the trace timeline; on the host each trace is a batch,
//! so host cost is reported as jobs per host second. Host time goes to the
//! serve event loop, template replay and profiler span retention rather
//! than to the kernel interpreter.

use std::collections::BTreeMap;
use std::time::Instant;

use sac_lang::opt::OptConfig;
use scenarios::{BuiltWorkload, Route};
use serve::{Job, JobOutcome, JobTemplate, ServeConfig, ShardPolicy};
use simgpu::{ExecOptions, Fleet, LaunchPlan, PlanOptLevel};

use crate::common::{
    compile_entry, percentile, reseeded, route_ix, timed, Budget, Ctx, Fp, Outcome, Rng, Setups,
    SimTotals,
};
use crate::trace::Tracer;

const DEVICES: usize = 4;
/// Offered loads, as multiples of fleet capacity.
const LADDER: [f64; 4] = [0.5, 0.7, 0.9, 1.1];
/// The ladder step whose latencies are reported.
const REPORT_LOAD: usize = 2;
const JOBS_PER_TRACE: usize = 10_000;
const QUEUE_CAPACITY: usize = 8;
/// p99 slowdown limit for `sim_max_load`.
const SLOWDOWN_LIMIT: f64 = 10.0;

/// One served (entry, route): its optimised plan and captured template.
struct Served<'a> {
    built: &'a BuiltWorkload,
    route: Route,
    plan: LaunchPlan<'a>,
    template: JobTemplate,
}

fn exec() -> ExecOptions {
    ExecOptions { streams: 2, pool: true, ..ExecOptions::default() }
}

pub fn run(ctx: &Ctx, budget: Budget, setups: Setups) -> Result<Outcome, String> {
    let ws: Vec<_> = scenarios::registry_small().into_iter().map(|w| reseeded(ctx, w)).collect();
    let t = &ctx.tracer;
    let mut setup_s = Vec::new();
    loop {
        let mut out = Outcome { unit: "job", ..Outcome::default() };
        let t0 = Instant::now();
        let mut builds = Vec::new();
        for w in &ws {
            builds.push(compile_entry(ctx, w, &OptConfig::default(), &mut out)?);
        }
        let mut served = Vec::new();
        let mut sim = SimTotals::default();
        let mut fp = Fp::new();
        for built in &builds {
            let err = |e: &dyn std::fmt::Display| format!("{}: {e}", built.spec.name);
            for route in Route::BOTH {
                let mut plan =
                    t.span("scenarios.plan", || built.plan(route)).map_err(|e| err(&e))?;
                t.span("planopt.optimize", || simgpu::optimize(&mut plan, PlanOptLevel::ALL))
                    .map_err(|e| err(&e))?;
                let mut dev = ctx.device();
                dev.set_pool_enabled(true);
                let probe = built.frames(route, 1);
                let fpj = built.spec.mix.frames_per_job;
                let template = t
                    .span("serve.capture", || {
                        JobTemplate::capture(&plan, &mut dev, &exec(), &probe, fpj)
                    })
                    .map_err(|e| err(&e))?;
                sim.add(&dev, fpj);
                fp.u64(template.total_frames as u64);
                fp.f64(template.dur_us);
                served.push(Served { built, route, plan, template });
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if !setups.more(&setup_s) {
            out.setup_s = setup_s;
            out.fingerprints.push(("sim", fp.get()));
            let service: Vec<f64> = served.iter().map(|s| s.template.dur_us / 1e3).collect();
            out.layer
                .insert("serve.sim_service_ms", service.iter().sum::<f64>() / service.len() as f64);
            traces(ctx, budget, &served, &mut sim, &mut out);
            sim.report(&mut out.layer);
            return Ok(out);
        }
    }
}

/// The open-loop arrival trace for `s` at `load` × fleet capacity.
fn trace_jobs(t: &Tracer, s: &Served, load: f64, seed: u64) -> Vec<Job> {
    let tenants = s.built.spec.mix.tenants;
    let fpj = s.template.total_frames;
    let mean_gap_us = s.template.dur_us / (DEVICES as f64 * load);
    let mut rng = Rng::new(seed);
    let mut submit_us = 0.0;
    (0..JOBS_PER_TRACE)
        .map(|j| {
            submit_us += -mean_gap_us * (1.0 - rng.next_f64()).ln();
            let tenant = j % tenants;
            if j < tenants {
                let f = functional_frame(s.built, j);
                let frames = t.span("scenarios.frames", || s.built.frames_from(s.route, f, 1));
                Job { id: j, tenant, submit_us, frames, total_frames: fpj }
            } else {
                Job::replay(j, tenant, submit_us, fpj)
            }
        })
        .collect()
}

/// Frame index of tenant `j`'s functional job. The temporal entry's
/// reference assumes a batch starting at frame 0, so its jobs use frame 0.
fn functional_frame(built: &BuiltWorkload, j: usize) -> usize {
    if built.spec.temporal() {
        0
    } else {
        j
    }
}

fn traces(ctx: &Ctx, budget: Budget, served: &[Served], sim: &mut SimTotals, out: &mut Outcome) {
    let t = &ctx.tracer;
    let combos: Vec<(usize, usize)> =
        (0..LADDER.len()).flat_map(|l| (0..served.len()).map(move |s| (l, s))).collect();
    let cfg_for = |s: &Served| ServeConfig {
        policy: ShardPolicy::LeastLoaded,
        queue_capacity: QUEUE_CAPACITY,
        tenant_weights: vec![1; s.built.spec.mix.tenants],
        exec: exec(),
    };
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut waits_ms: Vec<f64> = Vec::new();
    let mut busy: Vec<f64> = Vec::new();
    let mut load_ok = [true; LADDER.len()];
    let (mut shed, mut offered) = (0usize, 0usize);
    let mut trace_fp = Fp::new();
    let mut out_fp = Fp::new();
    let started = Instant::now();
    let mut n = 0;
    while budget.more(started, n, combos.len()) {
        let slot = n % combos.len();
        let (l, si) = combos[slot];
        let first_cycle = n < combos.len();
        n += 1;
        let s = &served[si];
        t.set_request(n as u64);
        let seed = ctx.seed_for(0x5E_0000 + (l * served.len() + si) as u64);
        let cfg = cfg_for(s);
        let (res, secs) = timed(|| {
            let jobs = trace_jobs(t, s, LADDER[l], seed);
            // A fresh fleet per trace; releasing it (and the profiler spans
            // it retained) is part of serving the trace.
            let result = t.span("serve.serve", || {
                let mut fleet = Fleet::homogeneous(
                    DEVICES,
                    ctx.device_config(),
                    simgpu::Calibration::gtx480(),
                )?;
                let mut templates = BTreeMap::from([(s.template.total_frames, s.template.clone())]);
                let report =
                    serve::serve_with_templates(&mut fleet, &s.plan, &jobs, &cfg, &mut templates)?;
                let spans: usize = fleet.devices().iter().map(|d| d.profiler.spans().count()).sum();
                let busy_ratio = fleet.total_busy_us() / (DEVICES as f64 * fleet.makespan_us());
                Ok::<_, serve::ServeError>((report, spans, busy_ratio))
            });
            let submits: Vec<f64> = jobs.iter().map(|j| j.submit_us).collect();
            result.map(|(report, spans, busy_ratio)| (report, submits, spans, busy_ratio))
        });
        out.host.record(slot, route_ix(s.route), JOBS_PER_TRACE, secs);
        out.attempted += JOBS_PER_TRACE;
        let (report, submits, spans, busy_ratio) = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve-mix {} {}: {e}", s.built.spec.name, s.route.name());
                out.failed += JOBS_PER_TRACE;
                continue;
            }
        };
        out.count("simgpu.profiler_spans", spans as f64);
        out.count("simgpu.launches", report.stats.launches as f64);
        let tenants = s.built.spec.mix.tenants;
        let bad = t.span("bench.check", || {
            let mut bad = 0;
            for (j, o) in report.outcomes.iter().enumerate().take(tenants) {
                let ok = match o {
                    JobOutcome::Completed { outputs, .. } => {
                        let f = functional_frame(s.built, j);
                        outputs.len() == 1
                            && s.built.canon(outputs[0].clone()) == s.built.reference(f)
                    }
                    JobOutcome::Shed { .. } => false,
                };
                if ok && first_cycle {
                    if let JobOutcome::Completed { outputs, .. } = o {
                        out_fp.array(&s.built.canon(outputs[0].clone()));
                    }
                }
                bad += usize::from(!ok);
            }
            bad
        });
        out.failed += bad;
        out.count("serve.functional_jobs", tenants.min(report.completed) as f64);
        out.count("serve.replayed_jobs", report.completed.saturating_sub(tenants) as f64);
        if !first_cycle {
            continue;
        }
        sim.add_transfers(&report.stats, report.total_frames);
        let mut sd = Vec::new();
        for (o, submit) in report.outcomes.iter().zip(&submits) {
            match o {
                JobOutcome::Completed { start_us, end_us, .. } => {
                    trace_fp.f64(*end_us);
                    sd.push((end_us - submit) / s.template.dur_us);
                    if l == REPORT_LOAD {
                        waits_ms.push((start_us - submit) / 1e3);
                    }
                }
                JobOutcome::Shed { at_us, .. } => trace_fp.f64(-at_us),
            }
        }
        offered += JOBS_PER_TRACE;
        shed += report.shed;
        load_ok[l] &= report.shed == 0 && percentile(&sd, 99.0) <= SLOWDOWN_LIMIT;
        if l == REPORT_LOAD {
            slowdowns.extend(sd);
            busy.push(busy_ratio);
        }
    }
    let max_load =
        LADDER.iter().zip(load_ok).filter(|(_, ok)| *ok).map(|(l, _)| *l).fold(0.0, f64::max);
    out.cycles = n / combos.len();
    out.named.push(("sim_p50_slowdown", percentile(&slowdowns, 50.0), "x"));
    out.named.push(("sim_p99_slowdown", percentile(&slowdowns, 99.0), "x"));
    out.named.push(("sim_max_load", max_load, "x"));
    out.named.push(("shed_ratio", shed as f64 / offered.max(1) as f64, "ratio"));
    out.layer.insert("serve.sim_queue_wait_p99_ms", percentile(&waits_ms, 99.0));
    out.layer.insert("fleet.sim_busy_ratio", busy.iter().sum::<f64>() / busy.len().max(1) as f64);
    out.info.push(format!(
        "ladder {LADDER:?} x capacity on {DEVICES} devices, {JOBS_PER_TRACE} jobs/trace, \
         slowdowns at {} x over {} completed jobs",
        LADDER[REPORT_LOAD],
        slowdowns.len()
    ));
    out.fingerprints.push(("trace", trace_fp.get()));
    out.fingerprints.push(("outputs", out_fp.get()));
}
