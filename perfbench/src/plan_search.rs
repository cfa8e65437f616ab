//! `plan-search`: the autotuner's search space, evaluated candidate by
//! candidate.
//!
//! Entries: `registry_small()` plus a CIF-size (288×352, 2000-frame)
//! downscaler. Domains (as in `bench::tune`): route × streams {1,2,4} ×
//! pool × 4 planopt presets × Gaspard placement / SaC channel chunking, on
//! the WLF-on build of each entry. Each entry is also built with WLF off and
//! evaluated once where plan-level fusion has to recover the folding (SaC,
//! fusion + transfer passes, 2 streams, pool on).
//! Each evaluation lowers its plan with `BuiltWorkload::plan_placed`,
//! optimises it, and schedules one functional frame (three for the temporal
//! entry) with the rest of the batch timing-replayed. Frames are small, so
//! lowering and planopt are a large share of host time here, unlike
//! `hd-stream` which lowers each plan once.

use std::time::Instant;

use gaspard::Placement;
use mdarray::NdArray;
use sac_lang::opt::OptConfig;
use scenarios::{BuiltWorkload, JobMix, Kind, Route, Workload};
use simgpu::{BatchScheduler, ExecOptions, PlanOptLevel};

use crate::common::{
    compile_entry, reseeded, route_ix, timed, Budget, Ctx, Fp, Outcome, Setups, SimTotals,
};

const STREAMS: [usize; 3] = [1, 2, 4];
const POOLS: [bool; 2] = [false, true];
const PLACEMENTS: [Placement; 2] = [Placement::Resident, Placement::PerKernelRoundTrip];

fn presets() -> [PlanOptLevel; 4] {
    [
        PlanOptLevel::OFF,
        PlanOptLevel::FUSION,
        PlanOptLevel::ALL,
        PlanOptLevel { fusion: true, ..PlanOptLevel::ALL },
    ]
}

/// One point of the search space.
#[derive(Clone, Copy)]
struct Cand {
    entry: usize,
    /// 0 = WLF on, 1 = WLF off (SaC only).
    build: usize,
    route: Route,
    streams: usize,
    pool: bool,
    preset: usize,
    placement: Placement,
    chunks: usize,
}

fn entries(ctx: &Ctx) -> Vec<Workload> {
    let mut all = scenarios::registry_small();
    all.push(Workload {
        name: "downscale-cif",
        summary: "the paper's H.263 downscaler at CIF size",
        kind: Kind::Downscale,
        rows: 288,
        cols: 352,
        frames: 2000,
        seed: 0x5CE7,
        mix: JobMix { jobs: 1, mean_gap_us: 0.0, tenants: 1, frames_per_job: 1 },
    });
    all.into_iter().map(|w| reseeded(ctx, w)).collect()
}

/// Every candidate, interleaved across entries so each entry's evaluations
/// are spread over the whole pass rather than bunched in one stretch of it.
fn candidates(builds: &[[BuiltWorkload; 2]]) -> Vec<Cand> {
    let per_entry: Vec<Vec<Cand>> = builds
        .iter()
        .enumerate()
        .map(|(entry, b)| {
            let channels = b[0].channels();
            let mut v = Vec::new();
            for preset in 0..presets().len() {
                for streams in STREAMS {
                    for pool in POOLS {
                        let base = Cand {
                            entry,
                            build: 0,
                            route: Route::Sac,
                            streams,
                            pool,
                            preset,
                            placement: Placement::Resident,
                            chunks: 0,
                        };
                        for chunks in if channels > 1 { vec![channels, 0] } else { vec![0] } {
                            v.push(Cand { chunks, ..base });
                        }
                        for placement in PLACEMENTS {
                            v.push(Cand { route: Route::Gaspard, placement, ..base });
                        }
                    }
                }
            }
            v.push(Cand {
                entry,
                build: 1,
                route: Route::Sac,
                streams: 2,
                pool: true,
                preset: 3, // fusion + transfer passes
                placement: Placement::Resident,
                chunks: channels,
            });
            v
        })
        .collect();
    let longest = per_entry.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(|i| per_entry.iter().filter_map(move |v| v.get(i).copied())).collect()
}

pub fn run(ctx: &Ctx, budget: Budget, setups: Setups) -> Result<Outcome, String> {
    let ws = entries(ctx);
    let no_wlf = OptConfig { with_loop_folding: false, ..OptConfig::default() };
    let mut setup_s = Vec::new();
    loop {
        let mut out = Outcome { unit: "eval", ..Outcome::default() };
        let t0 = Instant::now();
        let mut builds = Vec::new();
        for w in &ws {
            let on = compile_entry(ctx, w, &OptConfig::default(), &mut out)?;
            let off = ctx
                .tracer
                .span("scenarios.build", || w.build_with_sac_config(&no_wlf))
                .map_err(|e| format!("{}: {e}", w.name))?;
            builds.push([on, off]);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if !setups.more(&setup_s) {
            out.setup_s = setup_s;
            search(ctx, budget, &builds, &mut out);
            return Ok(out);
        }
    }
}

fn search(ctx: &Ctx, budget: Budget, builds: &[[BuiltWorkload; 2]], out: &mut Outcome) {
    let t = &ctx.tracer;
    let cands = candidates(builds);
    let mut refs: Vec<Option<Vec<NdArray<i64>>>> = vec![None; builds.len()];
    let mut best = vec![f64::INFINITY; builds.len()];
    let mut sim = SimTotals::default();
    let mut sim_fp = Fp::new();
    let mut out_fp = Fp::new();
    let started = Instant::now();
    let mut i = 0;
    while budget.more(started, i, cands.len()) {
        let c = cands[i % cands.len()];
        let first_pass = i < cands.len();
        t.set_request(i as u64);
        let built = &builds[c.entry][c.build];
        let executed = if built.spec.temporal() { 3.min(built.spec.frames) } else { 1 };
        let mut dev = ctx.device();
        dev.set_pool_enabled(c.pool);
        let opts = ExecOptions {
            streams: c.streams,
            pool: c.pool,
            total_frames: built.spec.frames,
            ..ExecOptions::default()
        };
        let (res, secs) = timed(|| -> Result<_, scenarios::ScenarioError> {
            let mut plan =
                t.span("scenarios.plan", || built.plan_placed(c.route, c.chunks, c.placement))?;
            t.span("planopt.optimize", || simgpu::optimize(&mut plan, presets()[c.preset]))?;
            let frames = t.span("scenarios.frames", || built.frames(c.route, executed));
            Ok(t.span("simgpu.run", || BatchScheduler::new(&plan).run(&mut dev, &frames, &opts))?)
        });
        out.host.record(i % cands.len(), route_ix(c.route), 1, secs);
        i += 1;
        let (outs, stats) = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("plan-search {} {}: {e}", built.spec.name, c.route.name());
                out.check(false);
                continue;
            }
        };
        out.count("simgpu.launches", stats.launches as f64);
        let ok = t.span("bench.check", || {
            let r = refs[c.entry]
                .get_or_insert_with(|| (0..executed).map(|f| built.reference(f)).collect());
            outs.len() == r.len()
                && outs.into_iter().zip(r.iter()).all(|(o, r)| {
                    let o = built.canon(o);
                    if first_pass {
                        out_fp.array(&o);
                    }
                    o == *r
                })
        });
        out.check(ok);
        if first_pass {
            sim.add(&dev, built.spec.frames);
            sim.add_transfers(&stats, built.spec.frames);
            sim_fp.u64(dev.now_us().to_bits());
            sim_fp.stats(&stats);
            let ms_per_frame = dev.now_us() / 1e3 / built.spec.frames as f64;
            best[c.entry] = best[c.entry].min(ms_per_frame);
        }
    }
    let geo = (best.iter().map(|b| b.ln()).sum::<f64>() / best.len() as f64).exp();
    out.cycles = i / cands.len();
    out.named.push(("sim_best_ms_per_frame", geo, "sim_ms"));
    for (b, ms) in builds.iter().zip(&best) {
        out.info.push(format!("best {}: {ms} sim ms/frame", b[0].spec.name));
    }
    out.info.push(format!("search space: {} candidates", cands.len()));
    sim.report(&mut out.layer);
    out.fingerprints.push(("sim", sim_fp.get()));
    out.fingerprints.push(("outputs", out_fp.get()));
}
