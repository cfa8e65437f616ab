//! Pieces shared by the three workloads: run context, seeding, budgets,
//! route compilation, simulated-statistics fingerprints and totals.

use std::collections::BTreeMap;
use std::time::Instant;

use downscaler::sac_src::{program_src, Part, Variant};
use downscaler::Scenario;
use gaspard::transform::{deploy, schedule};
use gaspard::Platform;
use mdarray::NdArray;
use sac_lang::opt::{optimize, ArgDesc, OptConfig};
use scenarios::{BuiltWorkload, Kind, Route, Workload};
use simgpu::{Device, DeviceConfig, OpClass, RunStats};

use crate::trace::Tracer;

/// Everything a workload needs from the command line and the host.
pub struct Ctx {
    pub tracer: Tracer,
    /// Host threads each simulated device may use (capped at the host's
    /// available parallelism).
    pub workers: usize,
    pub seed: u64,
}

impl Ctx {
    /// A paper-calibrated GTX480 with the host-worker cap applied.
    pub fn device(&self) -> Device {
        Device::new(self.device_config(), simgpu::Calibration::gtx480())
    }

    pub fn device_config(&self) -> DeviceConfig {
        DeviceConfig { host_workers: self.workers, ..DeviceConfig::gtx480() }
    }

    /// A seed for one input stream, derived from the command-line seed.
    pub fn seed_for(&self, salt: u64) -> u64 {
        splitmix(self.seed ^ splitmix(salt))
    }
}

pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded generator for arrival traces.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(1);
        (splitmix(self.0) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How long a timed phase runs. A timed phase repeats a fixed cycle of
/// distinct operations and only stops between cycles, so every operation is
/// timed equally often: for a wall-clock span (and at least `MIN_CYCLES`
/// cycles), or for an exact cycle count (the traced re-run repeats the
/// untraced run's count).
#[derive(Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Cycles(usize),
}

/// Fewest cycles a timed run makes: one warm-up cycle plus three scored.
const MIN_CYCLES: usize = 4;

impl Budget {
    /// Whether to start iteration `i` of a loop whose cycle is `cycle`
    /// iterations long.
    pub fn more(self, started: Instant, i: usize, cycle: usize) -> bool {
        if !i.is_multiple_of(cycle) {
            return true;
        }
        let done = i / cycle;
        match self {
            Budget::Seconds(s) => done < MIN_CYCLES || started.elapsed().as_secs_f64() < s,
            Budget::Cycles(n) => done < n,
        }
    }
}

/// How often a run repeats its set-up: at least `min` times, and again
/// while the repetitions so far took less than `target_s` in all, up to
/// `max` times. Cheap set-ups are repeated more, so the median is steady.
#[derive(Clone, Copy)]
pub struct Setups {
    min: usize,
    max: usize,
    target_s: f64,
}

impl Setups {
    /// The timed runs' set-up: 3 to 25 repetitions, 2 s in all.
    pub const TIMED: Setups = Setups { min: 3, max: 25, target_s: 2.0 };
    /// A single set-up (the traced run).
    pub const ONCE: Setups = Setups { min: 1, max: 1, target_s: 0.0 };

    /// Whether another set-up should follow the ones that took `done`.
    pub fn more(self, done: &[f64]) -> bool {
        done.len() < self.min || (done.len() < self.max && done.iter().sum::<f64>() < self.target_s)
    }
}

/// Host seconds of timed work between two runs of the reference.
const REF_EVERY_S: f64 = 0.5;

/// Host seconds of every repetition of each distinct operation in a cycle,
/// and of the reference computation run between them.
///
/// The first repetition of each operation is a warm-up and is not scored:
/// it runs on cold caches and a heap that has not grown yet. Each operation
/// is then scored by the median of its remaining repetitions, so one slow
/// or fast moment of a shared host does not decide the score.
///
/// After every `REF_EVERY_S` of timed work (and after the first operation)
/// the reference ([`crate::refvm`]) runs once, outside the operations' time.
/// Its median gauges the host's speed during the run.
#[derive(Default)]
pub struct HostTimes {
    slots: Vec<Slot>,
    refs: Vec<f64>,
    since_ref_s: f64,
}

struct Slot {
    route: usize,
    units: usize,
    warmed: bool,
    secs: Vec<f64>,
}

impl Slot {
    fn score(&self) -> f64 {
        median(&self.secs)
    }
}

impl HostTimes {
    /// Record one repetition of operation `slot` on route `route` that
    /// completed `units` units of work (frames, evaluations or jobs).
    pub fn record(&mut self, slot: usize, route: usize, units: usize, secs: f64) {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || Slot {
                route,
                units,
                warmed: false,
                secs: Vec::new(),
            });
        }
        let s = &mut self.slots[slot];
        if s.warmed {
            s.secs.push(secs);
        }
        s.warmed = true;
        self.since_ref_s += secs;
        if self.refs.is_empty() || self.since_ref_s >= REF_EVERY_S {
            self.since_ref_s = 0.0;
            self.refs.push(crate::refvm::run_s());
        }
    }

    /// Median host seconds of the reference over the run.
    pub fn ref_s(&self) -> f64 {
        median(&self.refs)
    }

    /// Runs of the reference.
    pub fn ref_runs(&self) -> usize {
        self.refs.len()
    }

    /// Units completed, over every scored repetition.
    pub fn units(&self) -> usize {
        self.slots.iter().map(|s| s.units * s.secs.len()).sum()
    }

    /// Host seconds, over every scored repetition.
    pub fn total_s(&self) -> f64 {
        self.slots.iter().flat_map(|s| &s.secs).sum()
    }

    /// Host seconds of one typical cycle: each operation at its median.
    pub fn cycle_s(&self) -> f64 {
        self.slots.iter().map(Slot::score).sum()
    }

    /// Units per host second of one typical cycle.
    pub fn units_per_s(&self) -> f64 {
        let units: usize = self.slots.iter().map(|s| s.units).sum();
        units as f64 / self.cycle_s()
    }

    /// Host ms per unit of the route's operations in one typical cycle.
    pub fn unit_ms(&self, route: usize) -> f64 {
        let mine = || self.slots.iter().filter(|s| s.route == route);
        let units: usize = mine().map(|s| s.units).sum();
        mine().map(Slot::score).sum::<f64>() * 1e3 / units.max(1) as f64
    }

    /// Factor that turns this run's host seconds into standard-host seconds:
    /// the reference's nominal time over its median time in this run.
    pub fn to_standard(&self) -> f64 {
        crate::refvm::NOMINAL_S / self.ref_s()
    }

    /// Operations of the route in one cycle.
    pub fn ops(&self, route: usize) -> usize {
        self.slots.iter().filter(|s| s.route == route).count()
    }
}

/// Run `f`, returning its result and the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

pub fn route_ix(route: Route) -> usize {
    match route {
        Route::Sac => 0,
        Route::Gaspard => 1,
    }
}

/// FNV-1a over the exact bits of simulated results.
pub struct Fp(u64);

impl Fp {
    pub fn new() -> Fp {
        Fp(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn stats(&mut self, s: &RunStats) {
        for v in [s.launches, s.h2d, s.d2h, s.h2d_bytes, s.d2h_bytes, s.host_steps] {
            self.u64(v as u64);
        }
        self.u64(s.host_ops);
    }

    pub fn array(&mut self, a: &NdArray<i64>) {
        for &d in a.shape().dims() {
            self.u64(d as u64);
        }
        for &v in a.as_slice() {
            self.u64(v as u64);
        }
    }

    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Simulated-device statistics summed over a fixed set of runs.
#[derive(Default)]
pub struct SimTotals {
    runs: usize,
    frames: usize,
    launches: usize,
    kernel_us: f64,
    transfer_us: f64,
    overlap_pct: f64,
    pool_hits: u64,
    pool_misses: u64,
    peak_device_bytes: usize,
    transfer_frames: usize,
    h2d_bytes: usize,
    d2h_bytes: usize,
}

impl SimTotals {
    /// Fold in one finished run of `frames` frames on `dev`.
    pub fn add(&mut self, dev: &Device, frames: usize) {
        let p = &dev.profiler;
        self.runs += 1;
        self.frames += frames;
        self.launches += p.class_calls(OpClass::Kernel) as usize;
        self.kernel_us += p.class_total_us(OpClass::Kernel);
        self.transfer_us += p.class_total_us(OpClass::H2D) + p.class_total_us(OpClass::D2H);
        self.overlap_pct += p.overlap_percent();
        self.pool_hits += p.alloc.pool_hits;
        self.pool_misses += p.alloc.pool_misses;
        self.peak_device_bytes = self.peak_device_bytes.max(dev.peak_allocated_bytes());
    }

    /// Fold in the transfer counters of runs that charged `frames` frames.
    pub fn add_transfers(&mut self, stats: &RunStats, frames: usize) {
        self.transfer_frames += frames;
        self.h2d_bytes += stats.h2d_bytes;
        self.d2h_bytes += stats.d2h_bytes;
    }

    /// Per-layer simulated metrics, per simulated frame where it applies.
    pub fn report(&self, out: &mut BTreeMap<&'static str, f64>) {
        let frames = self.frames.max(1) as f64;
        let lookups = (self.pool_hits + self.pool_misses).max(1) as f64;
        out.insert("simgpu.sim_kernel_ms", self.kernel_us / 1e3 / frames);
        out.insert("simgpu.sim_transfer_ms", self.transfer_us / 1e3 / frames);
        out.insert("simgpu.sim_overlap_pct", self.overlap_pct / self.runs.max(1) as f64);
        out.insert("simgpu.pool_hit_ratio", self.pool_hits as f64 / lookups);
        out.insert("simgpu.peak_device_mb", self.peak_device_bytes as f64 / 1e6);
        out.insert("planopt.launches_per_frame", self.launches as f64 / frames);
        let transfer_frames = self.transfer_frames.max(1) as f64;
        out.insert("simgpu.h2d_bytes", self.h2d_bytes as f64 / transfer_frames);
        out.insert("simgpu.d2h_bytes", self.d2h_bytes as f64 / transfer_frames);
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// The unit of work: `frame`, `eval` or `job`.
    pub unit: &'static str,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host time of the timed operations (checks excluded).
    pub host: HostTimes,
    /// Cycles of operations the timed phase completed.
    pub cycles: usize,
    /// Checked operations and how many of them failed or mismatched.
    pub attempted: usize,
    pub failed: usize,
    /// Workload-level simulated results by name.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer counts and simulated statistics.
    pub layer: BTreeMap<&'static str, f64>,
    /// Fingerprints of simulated statistics and outputs.
    pub fingerprints: Vec<(&'static str, u64)>,
    /// Extra human-readable lines.
    pub info: Vec<String>,
}

impl Outcome {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.layer.entry(name).or_insert(0.0) += v;
    }
}

/// Compile `w` on both routes. The route crates are called one stage at a
/// time so each stage is its own span; `Workload::build_with_sac_config`
/// then builds the registry's own `BuiltWorkload`, and the two programs
/// must emit identical kernel source.
pub fn compile_entry(
    ctx: &Ctx,
    w: &Workload,
    cfg: &OptConfig,
    out: &mut Outcome,
) -> Result<BuiltWorkload, String> {
    use scenarios::{models, sources};
    let t = &ctx.tracer;
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", w.name);
    let (r, c) = (w.rows, w.cols);
    let (src, in_shape, (model, alloc)) = match w.kind {
        Kind::Downscale => {
            let s = Scenario::new(w.name, 3, r, c, w.frames).map_err(|e| err(&e))?;
            let src = program_src(&s, Variant::NonGeneric, Part::Full);
            (src, vec![3, r, c], downscaler::model::downscaler_model(&s))
        }
        Kind::ImagePipe => {
            (sources::imagepipe_src(r, c), vec![r, c], models::imagepipe_model(r, c))
        }
        Kind::Delta => (sources::delta_src(r, c), vec![2, r, c], models::delta_model(r, c)),
        Kind::BlockMean => {
            (sources::blockmean_src(r, c), vec![r, c], models::blockmean_model(r, c))
        }
    };
    let prog = t.span("sac-lang.parse", || sac_lang::parse_program(&src)).map_err(|e| err(&e))?;
    let args = [ArgDesc::Array { name: "frame".into(), shape: in_shape }];
    let (flat, report) =
        t.span("sac-lang.optimize", || optimize(&prog, "main", &args, cfg)).map_err(|e| err(&e))?;
    let cuda = t
        .span("sac-cuda.codegen", || sac_cuda::codegen::compile_flat_program(&flat))
        .map_err(|e| err(&e))?;
    let scheduled = t
        .span("gaspard.transform", || {
            deploy(model, Platform::cpu_gpu(), alloc).and_then(|d| schedule(&d))
        })
        .map_err(|e| err(&e))?;
    let opencl = t
        .span("gaspard.codegen", || gaspard::codegen::generate_opencl(&scheduled))
        .map_err(|e| err(&e))?;

    let built = t.span("scenarios.build", || w.build_with_sac_config(cfg)).map_err(|e| err(&e))?;
    let same = t.span("bench.check", || {
        cuda.emit_cuda_source() == built.cuda.emit_cuda_source()
            && opencl.emit_opencl_source() == built.opencl.emit_opencl_source()
    });
    out.check(same);
    if !same {
        eprintln!("{}: route crates and the registry build emitted different kernels", w.name);
    }
    out.count("sac-lang.folds", report.fold.folds as f64);
    out.count("sac-cuda.kernels", cuda.kernels.len() as f64);
    out.count("gaspard.kernels", opencl.kernels.len() as f64);
    Ok(built)
}

/// `w` with its frame-content seed drawn from the command-line seed.
pub fn reseeded(ctx: &Ctx, mut w: Workload) -> Workload {
    w.seed = ctx.seed_for(w.seed);
    w
}

/// Median, the mean of the two middle values for an even count; 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}
