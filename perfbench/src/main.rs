//! The repository benchmark: one command, three workloads, every metric by
//! name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hd-stream|serve-mix|plan-search> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two kinds of time are reported. *Sim* time is what the modelled GTX480
//! would take: deterministic and exact, it does not depend on frame content
//! or on the host. *Host* time is the wall-clock time the simulator takes on
//! the machine running the benchmark. Each workload repeats a fixed cycle of
//! distinct operations for `--seconds` (at least four times), leaves each
//! operation's first repetition unscored as a warm-up and scores it by the
//! median of the others. The gated host metrics are scaled to a standard
//! host speed by a reference computation timed between the operations (see
//! `refvm`), which cancels the shared host's drift in speed; raw host times
//! are printed beside them. With `--trace 0` the last stdout
//! line carries the end-to-end host metrics; with `--trace 1` the workload
//! runs untraced for half the time and then again traced over the same
//! cycles, and the last line carries the per-layer metrics (span self
//! times, counts and simulated statistics). Every functional output is bit-checked against
//! the CPU reference outside the timed spans.

mod common;
mod hd_stream;
mod plan_search;
mod refvm;
mod serve_mix;
mod trace;

use std::time::Instant;

use common::{median, Budget, Ctx, Outcome, Setups};
use trace::Tracer;

/// Spans the benchmark records around its calls into each layer; each
/// becomes a `<span>_ms` self-time metric in the traced run.
const SPANS: [&str; 14] = [
    "sac-lang.parse",
    "sac-lang.optimize",
    "sac-cuda.codegen",
    "gaspard.transform",
    "gaspard.codegen",
    "scenarios.build",
    "scenarios.plan",
    "scenarios.frames",
    "planopt.optimize",
    "simgpu.run",
    "serve.capture",
    "serve.serve",
    "bench.check",
    "bench.run",
];

/// Per-layer counts, simulated statistics and workload-level simulated
/// results; a workload that does not touch a layer reports 0 for it.
const LAYER_METRICS: [(&str, &str); 31] = [
    ("sac-lang.folds", "count"),
    ("sac-cuda.kernels", "count"),
    ("gaspard.kernels", "count"),
    ("simgpu.launches", "count"),
    ("simgpu.host_us_per_launch", "us"),
    ("simgpu.h2d_bytes", "B/frame"),
    ("simgpu.d2h_bytes", "B/frame"),
    ("simgpu.sim_kernel_ms", "sim_ms"),
    ("simgpu.sim_transfer_ms", "sim_ms"),
    ("simgpu.sim_overlap_pct", "%"),
    ("simgpu.pool_hit_ratio", "ratio"),
    ("simgpu.peak_device_mb", "MB"),
    ("simgpu.profiler_spans", "count"),
    ("planopt.launches_per_frame", "count"),
    ("serve.replayed_jobs", "count"),
    ("serve.functional_jobs", "count"),
    ("serve.sim_queue_wait_p99_ms", "sim_ms"),
    ("serve.sim_service_ms", "sim_ms"),
    ("fleet.sim_busy_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.ref_ms", "ms"),
    ("sim_ms_per_frame.sac", "sim_ms"),
    ("sim_ms_per_frame.gaspard", "sim_ms"),
    ("sim_error_pct.sac", "%"),
    ("sim_error_pct.gaspard", "%"),
    ("sim_best_ms_per_frame", "sim_ms"),
    ("sim_p50_slowdown", "x"),
    ("sim_p99_slowdown", "x"),
    ("sim_max_load", "x"),
    ("shed_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Host threads per simulated device. simgpu defaults to 8, which
/// oversubscribes small hosts; one worker per device keeps the simulator
/// single-threaded, so host times do not swing with how much of a second
/// core co-tenant processes leave free (with two workers on a 2-core host
/// the run-to-run spread of host frame times was about 15 %).
const HOST_WORKERS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, ctx: &Ctx, budget: Budget, setups: Setups) -> Result<Outcome, String> {
    ctx.tracer.span("bench.run", || match name {
        "hd-stream" => hd_stream::run(ctx, budget, setups),
        "serve-mix" => serve_mix::run(ctx, budget, setups),
        "plan-search" => plan_search::run(ctx, budget, setups),
        _ => Err(format!("unknown workload {name} (hd-stream, serve-mix, plan-search)")),
    })
}

/// Peak resident set of this process, MB (`VmHWM`), less `exclude` bytes.
fn peak_rss_mb(exclude: usize) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| (kb * 1024.0 - exclude as f64) / (1024.0 * 1024.0))
}

fn print_outcome(o: &Outcome) {
    for (name, v, unit) in &o.named {
        println!("{name} = {v} {unit}");
    }
    for line in &o.info {
        println!("{line}");
    }
    for (name, fp) in &o.fingerprints {
        println!("fingerprint.{name} = {fp:016x}");
    }
    println!("failed_ratio = {}/{}", o.failed, o.attempted);
}

fn json_metrics(m: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(r#""{name}": {{"value": {v:?}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    // The reference's buffers stay resident from here on; the peak resident
    // set reported is the program's, without them.
    let ref_bytes = refvm::init();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <hd-stream|serve-mix|plan-search> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = HOST_WORKERS.min(nproc);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host workers per device: {workers} (simgpu default {}, available parallelism {nproc})",
        simgpu::device::DEFAULT_HOST_WORKERS
    );
    let ctx = |on: bool| Ctx { tracer: Tracer::new(on), workers, seed: args.seed };
    let fail = |e: String| -> ! {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    };

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (attempted, failed);
    if !args.trace {
        // Set-up is repeated (three times or more) and reported as the median.
        let c = ctx(false);
        let o = run_workload(&args.workload, &c, Budget::Seconds(args.seconds), Setups::TIMED)
            .unwrap_or_else(|e| fail(e));
        print_outcome(&o);
        let h = &o.host;
        let unit = o.unit;
        let (setup, per_s, sac, gaspard) =
            (median(&o.setup_s), h.units_per_s(), h.unit_ms(0), h.unit_ms(1));
        println!("raw setup_s = {setup} s");
        println!("raw host_{unit}s_per_s = {per_s} 1/s");
        println!("raw host_{unit}_ms.sac = {sac} ms");
        println!("raw host_{unit}_ms.gaspard = {gaspard} ms");
        let k = h.to_standard();
        println!(
            "bench.ref_ms = {} ms (median of {} runs; nominal {} ms): host times below are raw \
             times x {k:.4}",
            h.ref_s() * 1e3,
            h.ref_runs(),
            refvm::NOMINAL_S * 1e3
        );
        println!(
            "host: {} cycles of {} sac + {} gaspard operations, {} {unit}s in {:.3} timed host s \
             (mean {:.4} {unit}s/s); each operation scored by the median of its repetitions after \
             the first",
            o.cycles,
            h.ops(0),
            h.ops(1),
            h.units(),
            h.total_s(),
            h.units() as f64 / h.total_s()
        );
        metrics.push(("setup_s".into(), setup * k, "s"));
        metrics.push(("host_ops_per_s".into(), per_s / k, "1/s"));
        metrics.push(("host_op_ms.sac".into(), sac * k, "ms"));
        metrics.push(("host_op_ms.gaspard".into(), gaspard * k, "ms"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(ref_bytes), "MB"));
        attempted = o.attempted;
        failed = o.failed;
    } else {
        // Half the time untraced, then the same cycles again traced.
        let untraced = ctx(false);
        let t0 = Instant::now();
        let a = run_workload(
            &args.workload,
            &untraced,
            Budget::Seconds(args.seconds / 2.0),
            Setups::ONCE,
        )
        .unwrap_or_else(|e| fail(e));
        let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
        let traced = ctx(true);
        let b = run_workload(&args.workload, &traced, Budget::Cycles(a.cycles), Setups::ONCE)
            .unwrap_or_else(|e| fail(e));
        print_outcome(&b);
        let traced_ms = traced.tracer.root_ms();
        let self_ms = traced.tracer.self_ms();
        let sum: f64 = self_ms.values().sum();
        // Both passes time the same operations; compare their typical
        // cycles, each scaled by its own pass's reference time.
        let (a_cycle, b_cycle) =
            (a.host.cycle_s() * a.host.to_standard(), b.host.cycle_s() * b.host.to_standard());
        let overhead = (b_cycle / a_cycle - 1.0) * 100.0;
        println!(
            "trace: untraced run {untraced_ms:.1} ms, traced run {traced_ms:.1} ms, layer self \
             times sum to {sum:.1} ms; typical cycle untraced {:.1} ms, traced {:.1} ms \
             (standard host), overhead {overhead:.2} %",
            a_cycle * 1e3,
            b_cycle * 1e3
        );
        for name in SPANS {
            let ms = self_ms.get(name).copied().unwrap_or(0.0);
            metrics.push((format!("{name}_ms"), ms, "ms"));
        }
        let mut layer = b.layer.clone();
        let launches = layer.get("simgpu.launches").copied().unwrap_or(0.0);
        let run_ms = self_ms.get("simgpu.run").copied().unwrap_or(0.0);
        layer.insert(
            "simgpu.host_us_per_launch",
            if launches > 0.0 { run_ms * 1e3 / launches } else { 0.0 },
        );
        layer.insert("bench.trace_overhead_pct", overhead);
        layer.insert("bench.ref_ms", b.host.ref_s() * 1e3);
        layer.insert("failed_ratio", b.failed as f64 / b.attempted.max(1) as f64);
        for (name, v, _) in &b.named {
            layer.insert(name, *v);
        }
        for (name, unit) in LAYER_METRICS {
            metrics.push((name.into(), layer.get(name).copied().unwrap_or(0.0), unit));
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match traced.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => fail(format!("writing {}: {e}", path.display())),
        }
        attempted = a.attempted + b.attempted;
        failed = a.failed + b.failed;
    }
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        json_metrics(&metrics)
    );
}
