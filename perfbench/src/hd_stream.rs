//! `hd-stream`: the paper's downscaler at 1080p on both routes.
//!
//! Streaming config: one device, 2 streams, pool on, `PlanOptLevel::ALL`.
//! The timed operations execute every frame functionally, one frame per
//! batch, alternating routes over the same frames (host cost per frame does
//! not depend on the lane count, and one-frame operations give each route
//! more timed repetitions per run). The simulated numbers come from two
//! untimed 300-frame rows with one functional frame and the rest
//! timing-replayed: the streaming config, and the paper config (1 stream,
//! planopt off, the paper-faithful unfused Gaspard plan — the setting of
//! Tables I and II). Host time here is dominated by the kernel-IR
//! interpreter; the workload never touches `serve`.

use std::time::Instant;

use mdarray::NdArray;
use sac_lang::opt::OptConfig;
use scenarios::{BuiltWorkload, Route};
use simgpu::{BatchScheduler, ExecOptions, LaunchPlan, PlanOptLevel};

use crate::common::{
    compile_entry, reseeded, route_ix, timed, Budget, Ctx, Fp, Outcome, Setups, SimTotals,
};

/// Frames in the simulated rows, as in the paper's run.
const ROW_FRAMES: usize = 300;
/// Published totals, seconds: Table II (SaC) and Table I (GASPARD2).
const PAPER_TOTAL_S: [f64; 2] = [3.43, 2.86];

struct Plans<'a> {
    stream: Vec<LaunchPlan<'a>>,
    paper: Vec<LaunchPlan<'a>>,
}

fn stream_opts() -> ExecOptions {
    ExecOptions { streams: 2, pool: true, ..ExecOptions::default() }
}

pub fn run(ctx: &Ctx, budget: Budget, setups: Setups) -> Result<Outcome, String> {
    let w = scenarios::registry()
        .into_iter()
        .find(|w| w.name == "downscale-hd1080")
        .ok_or("the registry has no downscale-hd1080 entry")?;
    let w = reseeded(ctx, w);
    let mut setup_s = Vec::new();
    loop {
        let mut out = Outcome { unit: "frame", ..Outcome::default() };
        let t0 = Instant::now();
        let built = compile_entry(ctx, &w, &OptConfig::default(), &mut out)?;
        let plans = lower(ctx, &built)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if !setups.more(&setup_s) {
            out.setup_s = setup_s;
            stream(ctx, budget, &built, &plans, &mut out);
            rows(ctx, &built, &plans, &mut out);
            return Ok(out);
        }
    }
}

fn lower<'a>(ctx: &Ctx, built: &'a BuiltWorkload) -> Result<Plans<'a>, String> {
    let t = &ctx.tracer;
    let mut stream = Vec::new();
    for route in Route::BOTH {
        let mut plan = t.span("scenarios.plan", || built.plan(route)).map_err(|e| e.to_string())?;
        t.span("planopt.optimize", || simgpu::optimize(&mut plan, PlanOptLevel::ALL))
            .map_err(|e| e.to_string())?;
        stream.push(plan);
    }
    // The paper row's plans: the SaC lowering with per-channel transfers
    // and the paper-faithful, unfused Gaspard lowering.
    let sac =
        sac_cuda::exec::lower_plan(&built.cuda, built.channels()).map_err(|e| e.to_string())?;
    let gaspard = gaspard::exec::lower_plan(&built.opencl);
    Ok(Plans { stream, paper: vec![sac, gaspard] })
}

fn stream(ctx: &Ctx, budget: Budget, built: &BuiltWorkload, plans: &Plans, out: &mut Outcome) {
    let t = &ctx.tracer;
    let opts = stream_opts();
    let mut sim_fp = Fp::new();
    let mut out_fp = Fp::new();
    let mut first: [Option<(u64, simgpu::RunStats)>; 2] = [None, None];
    let mut reference: Option<NdArray<i64>> = None;
    let mut sac_out: Option<NdArray<i64>> = None;
    let started = Instant::now();
    let mut k = 0;
    // Operations alternate routes over the same frame: one cycle is a pair.
    while budget.more(started, k, 2) {
        let route = Route::BOTH[k % 2];
        let ix = route_ix(route);
        let f = k / 2;
        t.set_request(k as u64);
        let mut dev = ctx.device();
        dev.set_pool_enabled(true);
        let (res, secs) = timed(|| {
            let frames = t.span("scenarios.frames", || built.frames_from(route, f, 1));
            t.span("simgpu.run", || {
                BatchScheduler::new(&plans.stream[ix]).run(&mut dev, &frames, &opts)
            })
        });
        out.host.record(k % 2, ix, 1, secs);
        k += 1;
        let (outs, stats) = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("hd-stream {} frame {f}: {e}", route.name());
                out.check(false);
                continue;
            }
        };
        out.count("simgpu.launches", stats.launches as f64);
        // Every operation simulates the same work, so it must reproduce the
        // first one's clock and counters bit for bit.
        let sig = (dev.now_us().to_bits(), stats);
        let same_sim = match &first[ix] {
            Some(s) => *s == sig,
            None => {
                sim_fp.u64(ix as u64);
                sim_fp.u64(sig.0);
                sim_fp.stats(&sig.1);
                first[ix] = Some(sig);
                true
            }
        };
        let o = outs.into_iter().next().map(|o| built.canon(o));
        t.span("bench.check", || {
            if route == Route::Sac {
                reference = Some(built.reference(f));
            }
            let cross = route == Route::Sac || (o.is_some() && o == sac_out);
            out.check(same_sim && cross && o.is_some() && o == reference);
            if let (0, Some(o)) = (f, &o) {
                out_fp.array(o);
            }
        });
        if route == Route::Sac {
            sac_out = o;
        }
    }
    out.cycles = k / 2;
    out.fingerprints.push(("sim", sim_fp.get()));
    out.fingerprints.push(("outputs", out_fp.get()));
}

/// The simulated rows: 300 frames, one functional and the rest replayed, in
/// the streaming config and in the paper config (Tables I/II's setting,
/// priced by the calibrated model).
fn rows(ctx: &Ctx, built: &BuiltWorkload, plans: &Plans, out: &mut Outcome) {
    let t = &ctx.tracer;
    let mut sim = SimTotals::default();
    let mut fp = Fp::new();
    let configs = [
        (&plans.stream, ExecOptions { total_frames: ROW_FRAMES, ..stream_opts() }),
        (&plans.paper, ExecOptions { total_frames: ROW_FRAMES, ..ExecOptions::default() }),
    ];
    for (row, (row_plans, opts)) in configs.iter().enumerate() {
        for route in Route::BOTH {
            let ix = route_ix(route);
            let mut dev = ctx.device();
            dev.set_pool_enabled(opts.pool);
            let frames = t.span("scenarios.frames", || built.frames_from(route, 0, 1));
            let res = t.span("simgpu.run", || {
                BatchScheduler::new(&row_plans[ix]).run(&mut dev, &frames, opts)
            });
            let (outs, stats) = match res {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("hd-stream {} row {row}: {e}", route.name());
                    out.check(false);
                    continue;
                }
            };
            let ok = t.span("bench.check", || {
                outs.len() == 1 && built.canon(outs[0].clone()) == built.reference(0)
            });
            out.check(ok);
            fp.f64(dev.now_us());
            fp.stats(&stats);
            let sim_s = dev.now_us() / 1e6;
            if row == 0 {
                sim.add(&dev, ROW_FRAMES);
                sim.add_transfers(&stats, ROW_FRAMES);
                let name = ["sim_ms_per_frame.sac", "sim_ms_per_frame.gaspard"][ix];
                out.named.push((name, sim_s * 1e3 / ROW_FRAMES as f64, "sim_ms"));
                continue;
            }
            let err = (sim_s - PAPER_TOTAL_S[ix]) / PAPER_TOTAL_S[ix] * 100.0;
            let name = ["sim_error_pct.sac", "sim_error_pct.gaspard"][ix];
            out.named.push((name, err.abs(), "%"));
            out.info.push(format!(
                "paper row {}: {ROW_FRAMES} frames {sim_s:.4} sim s vs published {} s \
                 ({err:+.2} %; in-sample: the cost model was calibrated to these totals)",
                route.name(),
                PAPER_TOTAL_S[ix]
            ));
        }
    }
    sim.report(&mut out.layer);
    out.fingerprints.push(("rows", fp.get()));
}
