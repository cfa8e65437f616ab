//! The reference computation: a fixed piece of work owned by the benchmark,
//! timed between the workload's operations to gauge how fast the host runs
//! at the moment.
//!
//! A shared host runs slower and faster for a minute or more at a time, and
//! every host time of a run follows it; sac and gaspard frame times on
//! `hd-stream` drifted together by ±15 % between runs. The reference is a
//! small register-machine interpreter over 40 MB of `i64`, like the
//! simulator's kernel-IR interpreter in kind (a dispatch per instruction,
//! loads and stores spread over a buffer larger than a core's cache), so
//! the host's drift slows it by about as much. It is the benchmark's own
//! code: a change to the program under test never changes it, so dividing
//! by its time cancels the host's drift and keeps the program's own change.
//!
//! Host times are reported on a *standard host*, one on which the reference
//! takes [`NOMINAL_S`]: a run's raw host seconds times `NOMINAL_S` over the
//! reference's median time in that run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

#[derive(Clone, Copy)]
enum Op {
    Const(u8, i64),
    Tid(u8),
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Div(u8, u8, u8),
    Rem(u8, u8, u8),
    Min(u8, u8, u8),
    Lt(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
}

/// Host seconds the reference takes on the standard host; about its median
/// on the 2-core 2.0 GHz Xeon VM the benchmark was tuned on.
pub const NOMINAL_S: f64 = 0.030;

/// Elements in the input buffer (32 MB, larger than the host's caches).
const LEN: usize = 1 << 22;
/// Elements in the output buffer (8 MB).
const OUT_LEN: usize = 1 << 20;
/// Threads one run interprets the program for; successive runs continue
/// where the last one stopped, so they sweep the whole input.
const THREADS: usize = 400_000;

static INPUT: LazyLock<Vec<i64>> = LazyLock::new(|| (0..LEN as i64).map(|i| i % 251).collect());
static OUTPUT: LazyLock<Mutex<Vec<i64>>> = LazyLock::new(|| Mutex::new(vec![1; OUT_LEN]));
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

/// Fill both buffers; returns the bytes they keep resident from then on.
/// Called first thing, so they are part of every later resident-set
/// reading and can be subtracted from the peak exactly.
pub fn init() -> usize {
    let out = OUTPUT.lock().expect("reference output").len();
    (INPUT.len() + out) * std::mem::size_of::<i64>()
}

/// A two-tap filter with a clamp, over a strided gather.
fn program() -> Vec<Op> {
    use Op::*;
    vec![
        Tid(0),
        Const(1, 1920),
        Const(2, LEN as i64),
        Const(3, 3),
        Mul(4, 0, 3),
        Rem(4, 4, 2),
        Load(5, 4),
        Add(6, 4, 1),
        Rem(6, 6, 2),
        Load(7, 6),
        Add(8, 5, 7),
        Const(9, 2),
        Div(8, 8, 9),
        Const(10, 200),
        Min(8, 8, 10),
        Lt(11, 8, 10),
        Add(8, 8, 11),
        Const(13, OUT_LEN as i64),
        Rem(12, 0, 13),
        Store(12, 8),
    ]
}

/// Run the reference once; returns its host seconds.
pub fn run_s() -> f64 {
    let prog = std::hint::black_box(program());
    let input = &*INPUT;
    let mut out = OUTPUT.lock().expect("reference output");
    let base = NEXT_TID.fetch_add(THREADS, Ordering::Relaxed);
    let t = Instant::now();
    let mut r = [0i64; 16];
    for tid in base..base + THREADS {
        r.iter_mut().for_each(|v| *v = 0);
        for op in &prog {
            match *op {
                Op::Const(d, v) => r[d as usize] = v,
                Op::Tid(d) => r[d as usize] = tid as i64,
                Op::Add(d, a, b) => r[d as usize] = r[a as usize].wrapping_add(r[b as usize]),
                Op::Mul(d, a, b) => r[d as usize] = r[a as usize].wrapping_mul(r[b as usize]),
                Op::Div(d, a, b) => r[d as usize] = r[a as usize] / r[b as usize],
                Op::Rem(d, a, b) => r[d as usize] = r[a as usize] % r[b as usize],
                Op::Min(d, a, b) => r[d as usize] = r[a as usize].min(r[b as usize]),
                Op::Lt(d, a, b) => r[d as usize] = (r[a as usize] < r[b as usize]) as i64,
                Op::Load(d, a) => r[d as usize] = input[r[a as usize] as usize],
                Op::Store(a, v) => out[r[a as usize] as usize] = r[v as usize],
            }
        }
    }
    std::hint::black_box(&*out);
    t.elapsed().as_secs_f64()
}
