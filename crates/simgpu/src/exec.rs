//! Kernel execution engine: grid/block interpretation of kernel IR.
//!
//! Semantics mirror a CUDA/OpenCL launch:
//!
//! * the kernel body runs once per thread of `grid × block`,
//! * loads observe the buffer contents *as of launch time*; stores become
//!   visible when the launch completes (blocks cannot communicate — exactly
//!   the discipline data-parallel kernels obey),
//! * if two threads store to the same address the one in the higher
//!   (block-major, then thread-major) rank wins — deterministic, though
//!   well-formed kernels never rely on it.
//!
//! # Lane groups
//!
//! Threads execute a **lane group** at a time (the `simt` submodule): a run of
//! consecutive thread ranks (up to 64, crossing block boundaries when
//! blocks are small) shares one register file laid out register-major, and
//! each decoded instruction is issued once for every active lane of the
//! group. Divergence is carried by structured masks — lists of active lanes:
//! an `If` partitions its lanes into a then-list and an else-list, a `For`
//! keeps the lanes whose own trip count is not yet exhausted, and a `Return`
//! retires its lanes for the rest of the group.
//!
//! The kernel is decoded once per launch. Parameters are bound and
//! kind-checked there, so a load or store through a scalar (or a store
//! through a read-only buffer) becomes a fault instruction. Thread-invariant
//! top-level definitions — constants, scalar parameters, block and grid
//! dimensions whose register is written exactly once and never read before —
//! are **hoisted** into a per-launch register image. A `Div`/`Rem` by a
//! hoisted constant `d` in `[2, 2³²)` is strength-reduced to an exact
//! multiply-high (Lemire, Kaser and Kurz: `c = ⌈2⁶⁴/d⌉`, `n / d = ⌊c·n /
//! 2⁶⁴⌋`, `n % d = ⌊(c·n mod 2⁶⁴)·d / 2⁶⁴⌋`, exact for every `n` in
//! `[0, 2³²)`); any other dividend takes `wrapping_div`/`wrapping_rem`.
//!
//! Everything observable is exact. Counters are charged per active lane,
//! and each lane touches the same address bitsets a thread would. Stores are
//! logged with their lane and stably ordered by lane before they join the
//! worker's log, so block-major, thread-major last-writer-wins holds. A loop
//! counter whose next value would overflow ends its loop, in both
//! executors.
//!
//! # Error replay
//!
//! When any lane of a group faults, the group is re-run through the scalar
//! per-thread interpreter (`run_ranks_scalar`), which stops at the first
//! error in rank order. The reported [`SimError`] is therefore the error of
//! the lowest-ranked faulting thread — its first one — exactly as if every
//! thread had run alone. The scalar interpreter is the reference the lane
//! executor is tested against and otherwise runs only on this error path.
//!
//! Blocks are distributed over std::thread scoped threads. Each worker keeps a
//! private write log and private access bitsets; the coordinator applies the
//! logs in block order and merges the bitsets, so execution is deterministic
//! and data-race-free while the dynamic counters remain exact.

mod simt;

use crate::kir::{BinOp, Instr, Kernel, KernelArg, Param, Special};
use crate::SimError;
use std::ops::Range;

/// Grid/block geometry of a launch (x, y). A missing dimension is 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks along (x, y).
    pub grid: (u32, u32),
    /// Threads per block along (x, y).
    pub block: (u32, u32),
}

impl LaunchConfig {
    /// A 1-D launch covering at least `n` threads with the given block size.
    pub fn cover_1d(n: usize, block: u32) -> Self {
        let blocks = (n as u64).div_ceil(block as u64) as u32;
        LaunchConfig { grid: (blocks.max(1), 1), block: (block, 1) }
    }

    /// A 2-D launch covering at least `(nx, ny)` threads.
    pub fn cover_2d(nx: usize, ny: usize, block: (u32, u32)) -> Self {
        let gx = (nx as u64).div_ceil(block.0 as u64) as u32;
        let gy = (ny as u64).div_ceil(block.1 as u64) as u32;
        LaunchConfig { grid: (gx.max(1), gy.max(1)), block }
    }

    /// Total number of threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.block.0 as u64 * self.block.1 as u64
    }

    /// Total number of blocks.
    pub fn total_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64
    }

    /// Threads per block.
    pub fn block_threads(&self) -> u64 {
        self.block.0 as u64 * self.block.1 as u64
    }

    /// Check the geometry of a launch of `kernel`: every grid and block
    /// dimension must be non-zero and a block may hold at most
    /// `max_block_threads` threads.
    pub fn validate(&self, kernel: &str, max_block_threads: usize) -> Result<(), SimError> {
        let (g, b) = (self.grid, self.block);
        if g.0 == 0
            || g.1 == 0
            || b.0 == 0
            || b.1 == 0
            || self.block_threads() > max_block_threads as u64
        {
            return Err(SimError::BadLaunch {
                kernel: kernel.to_string(),
                grid: g,
                block: b,
                max_block_threads,
            });
        }
        Ok(())
    }
}

/// Dynamic counters of one launch; input to the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Threads executed.
    pub threads: u64,
    /// Dynamic instructions executed (loop bodies counted per iteration).
    pub instructions: u64,
    /// Global loads executed.
    pub loads: u64,
    /// Global stores executed.
    pub stores: u64,
    /// Distinct (buffer, address) pairs touched — charged as DRAM traffic.
    pub distinct_accesses: u64,
    /// Accesses beyond the first to an address — charged as L1 hits.
    pub l1_hits: u64,
}

/// Resolved view of one kernel argument during execution.
enum Bound<'a> {
    Buf { buf_index: usize, data: &'a [i32], writable: bool },
    Scalar(i64),
}

/// A pending store: (argument slot, address, value).
type WriteLog = Vec<(usize, u32, i32)>;

/// Per-worker dynamic counters plus address bitsets (one per buffer argument).
struct WorkerState {
    instructions: u64,
    loads: u64,
    stores: u64,
    touched: Vec<Vec<u64>>, // bitset per kernel argument (empty for scalars)
    log: WriteLog,
}

impl WorkerState {
    fn new(bound: &[Bound<'_>]) -> Self {
        WorkerState {
            instructions: 0,
            loads: 0,
            stores: 0,
            touched: empty_bitsets(bound),
            log: Vec::new(),
        }
    }

    #[inline]
    fn touch(&mut self, arg: usize, addr: u32) {
        touch(&mut self.touched[arg], addr);
    }
}

/// One all-clear address bitset per buffer argument.
fn empty_bitsets(bound: &[Bound<'_>]) -> Vec<Vec<u64>> {
    bound
        .iter()
        .map(|b| match b {
            Bound::Buf { data, .. } => vec![0u64; data.len().div_ceil(64)],
            Bound::Scalar(_) => Vec::new(),
        })
        .collect()
}

#[inline]
fn touch(bits: &mut [u64], addr: u32) {
    bits[(addr / 64) as usize] |= 1u64 << (addr % 64);
}

/// Execute `kernel` over `cfg` against the supplied buffers.
///
/// `buffers` are the device buffers indexed by [`KernelArg::Buffer`] ids.
/// On success the stores are applied and the dynamic counters returned. A
/// grid or block with a zero dimension is [`SimError::BadLaunch`]; on any
/// error nothing is stored.
pub fn run_kernel(
    kernel: &Kernel,
    cfg: LaunchConfig,
    args: &[KernelArg],
    buffers: &mut [Option<Vec<i32>>],
    host_workers: usize,
) -> Result<LaunchStats, SimError> {
    launch(kernel, cfg, args, buffers, host_workers, false)
}

/// [`run_kernel`] with every thread run by the scalar per-thread interpreter:
/// the reference the lane-group executor is checked against.
#[cfg(test)]
fn run_kernel_reference(
    kernel: &Kernel,
    cfg: LaunchConfig,
    args: &[KernelArg],
    buffers: &mut [Option<Vec<i32>>],
    host_workers: usize,
) -> Result<LaunchStats, SimError> {
    launch(kernel, cfg, args, buffers, host_workers, true)
}

fn launch(
    kernel: &Kernel,
    cfg: LaunchConfig,
    args: &[KernelArg],
    buffers: &mut [Option<Vec<i32>>],
    host_workers: usize,
    scalar_only: bool,
) -> Result<LaunchStats, SimError> {
    cfg.validate(&kernel.name, usize::MAX)?;
    // Bind arguments to parameters.
    if args.len() != kernel.params.len() {
        return Err(SimError::BadParam { kernel: kernel.name.clone(), index: args.len() });
    }
    // Shared view for the read-only sweep; stores go to write logs that are
    // applied through `buffers` only after every borrow of `view` has ended.
    let view: &[Option<Vec<i32>>] = buffers;
    let mut bound: Vec<Bound<'_>> = Vec::with_capacity(args.len());
    for (i, (p, a)) in kernel.params.iter().zip(args).enumerate() {
        match (p, a) {
            (Param::Buffer { writable, .. }, KernelArg::Buffer(id)) => {
                let data = view
                    .get(*id)
                    .and_then(|b| b.as_ref())
                    .ok_or(SimError::UnknownBuffer { id: *id })?;
                bound.push(Bound::Buf { buf_index: *id, data, writable: *writable });
            }
            (Param::Scalar { .. }, KernelArg::Scalar(v)) => bound.push(Bound::Scalar(*v)),
            _ => return Err(SimError::ArgKindMismatch { kernel: kernel.name.clone(), index: i }),
        }
    }

    let total_blocks = cfg.total_blocks();
    // Respect the caller's worker count (clamped only by the block count):
    // the Device defaults it to the host's parallelism, and tests force
    // higher counts to exercise the multi-worker merge even on small hosts.
    let workers = host_workers.max(1).min(total_blocks as usize);
    let chunk = total_blocks.div_ceil(workers as u64);
    let block_threads = cfg.block_threads();
    let program = (!scalar_only).then(|| simt::Program::decode(kernel, &bound, cfg));

    // Run blocks, either inline or across scoped threads.
    let run_range = |lo: u64, hi: u64| -> Result<WorkerState, SimError> {
        let mut st = WorkerState::new(&bound);
        let ranks = lo * block_threads..hi * block_threads;
        match &program {
            Some(program) => program.run_ranks(ranks, &mut st)?,
            None => run_ranks_scalar(kernel, &bound, cfg, ranks, &mut st)?,
        }
        Ok(st)
    };

    let states: Vec<Result<WorkerState, SimError>> = if workers <= 1 {
        vec![run_range(0, total_blocks)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers as u64)
                .map(|w| {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(total_blocks);
                    let run_range = &run_range;
                    s.spawn(move || run_range(lo, hi))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("kernel worker panicked")).collect()
        })
    };
    drop(program);

    // Merge counters and bitsets; apply write logs in block order.
    let mut stats = LaunchStats { threads: cfg.total_threads(), ..Default::default() };
    let mut merged = empty_bitsets(&bound);
    let mut logs: Vec<WriteLog> = Vec::with_capacity(states.len());
    for st in states {
        let st = st?;
        stats.instructions += st.instructions;
        stats.loads += st.loads;
        stats.stores += st.stores;
        for (m, t) in merged.iter_mut().zip(&st.touched) {
            for (a, b) in m.iter_mut().zip(t) {
                *a |= *b;
            }
        }
        logs.push(st.log);
    }
    stats.distinct_accesses = merged.iter().flatten().map(|w| w.count_ones() as u64).sum();
    stats.l1_hits = (stats.loads + stats.stores).saturating_sub(stats.distinct_accesses);

    // Apply stores. Workers were assigned increasing block ranges, so applying
    // in worker order preserves block-rank order.
    let slot_of: Vec<Option<usize>> = bound
        .iter()
        .map(|b| match b {
            Bound::Buf { buf_index, .. } => Some(*buf_index),
            Bound::Scalar(_) => None,
        })
        .collect();
    drop(bound);
    for log in logs {
        for (arg, addr, val) in log {
            let id = slot_of[arg].expect("store through scalar argument");
            let buf = buffers[id].as_mut().expect("buffer vanished during launch");
            buf[addr as usize] = val;
        }
    }
    Ok(stats)
}

/// Run the threads of `ranks` (global thread ranks: block-major, then
/// thread-major) one at a time through the scalar interpreter, stopping at
/// the first error.
fn run_ranks_scalar(
    kernel: &Kernel,
    bound: &[Bound<'_>],
    cfg: LaunchConfig,
    ranks: Range<u64>,
    st: &mut WorkerState,
) -> Result<(), SimError> {
    let mut regs = vec![0i64; kernel.register_count()];
    let block_threads = cfg.block_threads();
    for rank in ranks {
        let (blk, t) = (rank / block_threads, rank % block_threads);
        let ctx = ThreadCtx {
            kernel,
            bound,
            cfg,
            bx: (blk % cfg.grid.0 as u64) as i64,
            by: (blk / cfg.grid.0 as u64) as i64,
            tx: (t % cfg.block.0 as u64) as i64,
            ty: (t / cfg.block.0 as u64) as i64,
        };
        regs.iter_mut().for_each(|r| *r = 0);
        exec_block(&kernel.body, &ctx, &mut regs, st)?;
    }
    Ok(())
}

/// Per-thread execution context.
struct ThreadCtx<'a> {
    kernel: &'a Kernel,
    bound: &'a [Bound<'a>],
    cfg: LaunchConfig,
    bx: i64,
    by: i64,
    tx: i64,
    ty: i64,
}

/// Whether control should keep flowing after an instruction sequence.
enum Flow {
    Continue,
    Return,
}

fn exec_block(
    instrs: &[Instr],
    ctx: &ThreadCtx<'_>,
    regs: &mut [i64],
    st: &mut WorkerState,
) -> Result<Flow, SimError> {
    let mut flow = Flow::Continue;
    for i in instrs {
        st.instructions += 1;
        match i {
            Instr::Const { dst, value } => regs[*dst as usize] = *value,
            Instr::LoadParam { dst, param } => match ctx.bound.get(*param) {
                Some(Bound::Scalar(v)) => regs[*dst as usize] = *v,
                _ => {
                    return Err(SimError::BadParam {
                        kernel: ctx.kernel.name.clone(),
                        index: *param,
                    })
                }
            },
            Instr::Special { dst, kind } => {
                regs[*dst as usize] = match kind {
                    Special::GlobalIdX => ctx.bx * ctx.cfg.block.0 as i64 + ctx.tx,
                    Special::GlobalIdY => ctx.by * ctx.cfg.block.1 as i64 + ctx.ty,
                    Special::ThreadIdxX => ctx.tx,
                    Special::ThreadIdxY => ctx.ty,
                    Special::BlockIdxX => ctx.bx,
                    Special::BlockIdxY => ctx.by,
                    Special::BlockDimX => ctx.cfg.block.0 as i64,
                    Special::BlockDimY => ctx.cfg.block.1 as i64,
                    Special::GridDimX => ctx.cfg.grid.0 as i64,
                    Special::GridDimY => ctx.cfg.grid.1 as i64,
                };
            }
            Instr::Bin { op, dst, lhs, rhs } => {
                let a = regs[*lhs as usize];
                let b = regs[*rhs as usize];
                regs[*dst as usize] = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(SimError::DivByZero { kernel: ctx.kernel.name.clone() });
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return Err(SimError::DivByZero { kernel: ctx.kernel.name.clone() });
                        }
                        a.wrapping_rem(b)
                    }
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                    BinOp::Lt => (a < b) as i64,
                    BinOp::Le => (a <= b) as i64,
                    BinOp::Eq => (a == b) as i64,
                    BinOp::Ne => (a != b) as i64,
                    BinOp::And => ((a != 0) && (b != 0)) as i64,
                    BinOp::Or => ((a != 0) || (b != 0)) as i64,
                };
            }
            Instr::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize],
            Instr::Load { dst, param, index } => {
                let ix = regs[*index as usize];
                match ctx.bound.get(*param) {
                    Some(Bound::Buf { data, .. }) => {
                        if ix < 0 || ix as usize >= data.len() {
                            return Err(SimError::OutOfBounds {
                                kernel: ctx.kernel.name.clone(),
                                buffer: *param,
                                index: ix,
                                len: data.len(),
                            });
                        }
                        regs[*dst as usize] = data[ix as usize] as i64;
                        st.loads += 1;
                        st.touch(*param, ix as u32);
                    }
                    _ => {
                        return Err(SimError::BadParam {
                            kernel: ctx.kernel.name.clone(),
                            index: *param,
                        })
                    }
                }
            }
            Instr::Store { param, index, src } => {
                let ix = regs[*index as usize];
                match ctx.bound.get(*param) {
                    Some(Bound::Buf { data, writable, .. }) => {
                        if !*writable {
                            return Err(SimError::ReadOnlyStore {
                                kernel: ctx.kernel.name.clone(),
                                param: *param,
                            });
                        }
                        if ix < 0 || ix as usize >= data.len() {
                            return Err(SimError::OutOfBounds {
                                kernel: ctx.kernel.name.clone(),
                                buffer: *param,
                                index: ix,
                                len: data.len(),
                            });
                        }
                        st.stores += 1;
                        st.touch(*param, ix as u32);
                        // Device buffers hold 32-bit ints (the paper's frames
                        // are `int` arrays); like real CUDA/OpenCL `int`
                        // stores, values are truncated modulo 2^32. Registers
                        // are 64-bit, so *intermediate* arithmetic is wider
                        // than a real device's — programs relying on i32
                        // wrap-around mid-expression would diverge, which the
                        // studied pixel workloads never do.
                        st.log.push((*param, ix as u32, regs[*src as usize] as i32));
                    }
                    _ => {
                        return Err(SimError::BadParam {
                            kernel: ctx.kernel.name.clone(),
                            index: *param,
                        })
                    }
                }
            }
            Instr::For { var, start, end, step, body } => {
                let mut v = regs[*start as usize];
                let end_v = regs[*end as usize];
                let step_v = regs[*step as usize].max(1);
                while v < end_v {
                    regs[*var as usize] = v;
                    match exec_block(body, ctx, regs, st)? {
                        Flow::Continue => {}
                        Flow::Return => return Ok(Flow::Return),
                    }
                    // A counter whose next value would overflow ends the
                    // loop (it could never again be below `end_v`).
                    match v.checked_add(step_v) {
                        Some(next) => v = next,
                        None => break,
                    }
                }
            }
            Instr::If { cond, then, els } => {
                let branch = if regs[*cond as usize] != 0 { then } else { els };
                match exec_block(branch, ctx, regs, st)? {
                    Flow::Continue => {}
                    Flow::Return => return Ok(Flow::Return),
                }
            }
            Instr::Return => {
                flow = Flow::Return;
                break;
            }
        }
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kir::{KernelBuilder, KernelFlavor};

    fn scale_kernel() -> Kernel {
        let mut b = KernelBuilder::new("scale2", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let n = b.scalar_param("n");
        let gid = b.special(Special::GlobalIdX);
        let nv = b.param_value(n);
        let ok = b.bin(BinOp::Lt, gid, nv);
        b.begin_if(ok);
        let v = b.load(x, gid);
        let two = b.constant(2);
        let d = b.bin(BinOp::Mul, v, two);
        b.store(y, gid, d);
        b.end_if();
        b.finish()
    }

    #[test]
    fn launch_config_covers_requested_threads() {
        let c = LaunchConfig::cover_1d(1000, 256);
        assert_eq!(c.grid.0, 4);
        assert_eq!(c.total_threads(), 1024);
        let c2 = LaunchConfig::cover_2d(100, 7, (32, 4));
        assert!(c2.grid.0 * c2.block.0 >= 100);
        assert!(c2.grid.1 * c2.block.1 >= 7);
    }

    #[test]
    fn kernel_computes_and_guards_tail() {
        let k = scale_kernel();
        let mut bufs = vec![Some((0..100).collect::<Vec<_>>()), Some(vec![0i32; 100])];
        let cfg = LaunchConfig::cover_1d(100, 32);
        let args = [KernelArg::Buffer(0), KernelArg::Buffer(1), KernelArg::Scalar(100)];
        let stats = run_kernel(&k, cfg, &args, &mut bufs, 1).unwrap();
        let out = bufs[1].as_ref().unwrap();
        assert_eq!(out[0], 0);
        assert_eq!(out[99], 198);
        assert_eq!(stats.threads, 128);
        assert_eq!(stats.loads, 100);
        assert_eq!(stats.stores, 100);
        assert_eq!(stats.distinct_accesses, 200);
        assert_eq!(stats.l1_hits, 0);
    }

    #[test]
    fn parallel_execution_matches_single_worker() {
        let k = scale_kernel();
        let input: Vec<i32> = (0..4096).map(|v| v * 7 % 101).collect();
        let mut a = vec![Some(input.clone()), Some(vec![0i32; 4096])];
        let mut b = vec![Some(input), Some(vec![0i32; 4096])];
        let cfg = LaunchConfig::cover_1d(4096, 128);
        let args = [KernelArg::Buffer(0), KernelArg::Buffer(1), KernelArg::Scalar(4096)];
        let s1 = run_kernel(&k, cfg, &args, &mut a, 1).unwrap();
        let s8 = run_kernel(&k, cfg, &args, &mut b, 8).unwrap();
        assert_eq!(a[1], b[1]);
        assert_eq!(s1, s8);
    }

    #[test]
    fn repeated_loads_count_as_l1_hits() {
        // Every thread loads x[0].
        let mut b = KernelBuilder::new("bcast", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let zero = b.constant(0);
        let v = b.load(x, zero);
        b.store(y, gid, v);
        let _ = gid;
        let k = b.finish();
        let mut bufs = vec![Some(vec![5i32]), Some(vec![0i32; 64])];
        let cfg = LaunchConfig::cover_1d(64, 64);
        let stats =
            run_kernel(&k, cfg, &[KernelArg::Buffer(0), KernelArg::Buffer(1)], &mut bufs, 2)
                .unwrap();
        assert_eq!(stats.loads, 64);
        // 1 distinct load address + 64 distinct store addresses.
        assert_eq!(stats.distinct_accesses, 65);
        assert_eq!(stats.l1_hits, 63);
        assert!(bufs[1].as_ref().unwrap().iter().all(|&v| v == 5));
    }

    #[test]
    fn oob_access_is_reported() {
        let k = scale_kernel();
        let mut bufs = vec![Some(vec![1i32; 10]), Some(vec![0i32; 10])];
        // Claim n = 64 with only 10 elements: threads 10..64 go out of bounds.
        let cfg = LaunchConfig::cover_1d(64, 64);
        let err = run_kernel(
            &k,
            cfg,
            &[KernelArg::Buffer(0), KernelArg::Buffer(1), KernelArg::Scalar(64)],
            &mut bufs,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn store_through_readonly_param_is_rejected() {
        let mut b = KernelBuilder::new("bad", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let gid = b.special(Special::GlobalIdX);
        b.store(x, gid, gid);
        let k = b.finish();
        let mut bufs = vec![Some(vec![0i32; 4])];
        let err =
            run_kernel(&k, LaunchConfig::cover_1d(4, 4), &[KernelArg::Buffer(0)], &mut bufs, 1)
                .unwrap_err();
        assert!(matches!(err, SimError::ReadOnlyStore { .. }));
    }

    #[test]
    fn arg_kind_mismatch_is_rejected() {
        let k = scale_kernel();
        let mut bufs = vec![Some(vec![0i32; 4])];
        let err = run_kernel(
            &k,
            LaunchConfig::cover_1d(4, 4),
            &[KernelArg::Scalar(0), KernelArg::Buffer(0), KernelArg::Scalar(4)],
            &mut bufs,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::ArgKindMismatch { .. }));
    }

    #[test]
    fn for_loop_executes_bounded_iterations() {
        // y[gid] = sum(0..5) = 10, via a for loop.
        let mut b = KernelBuilder::new("sum5", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let acc = b.constant(0);
        let zero = b.constant(0);
        let five = b.constant(5);
        let one = b.constant(1);
        let i = b.begin_for(zero, five, one);
        let s = b.bin(BinOp::Add, acc, i);
        b.mov(acc, s);
        b.end_for();
        b.store(y, gid, acc);
        let k = b.finish();
        let mut bufs = vec![Some(vec![0i32; 8])];
        run_kernel(&k, LaunchConfig::cover_1d(8, 8), &[KernelArg::Buffer(0)], &mut bufs, 1)
            .unwrap();
        assert!(bufs[0].as_ref().unwrap().iter().all(|&v| v == 10));
    }

    #[test]
    fn return_exits_thread_early() {
        let mut b = KernelBuilder::new("guard", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let four = b.constant(4);
        let big = b.bin(BinOp::Le, four, gid);
        b.begin_if(big);
        b.ret();
        b.end_if();
        let seven = b.constant(7);
        b.store(y, gid, seven);
        let k = b.finish();
        let mut bufs = vec![Some(vec![0i32; 8])];
        run_kernel(&k, LaunchConfig::cover_1d(8, 8), &[KernelArg::Buffer(0)], &mut bufs, 1)
            .unwrap();
        assert_eq!(bufs[0].as_ref().unwrap().as_slice(), &[7, 7, 7, 7, 0, 0, 0, 0]);
    }

    #[test]
    fn later_block_wins_write_conflicts() {
        // All threads store their gid to y[0]; the highest-ranked thread wins.
        let mut b = KernelBuilder::new("conflict", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let zero = b.constant(0);
        b.store(y, zero, gid);
        let k = b.finish();
        for workers in [1usize, 4] {
            let mut bufs = vec![Some(vec![-1i32])];
            run_kernel(
                &k,
                LaunchConfig { grid: (4, 1), block: (8, 1) },
                &[KernelArg::Buffer(0)],
                &mut bufs,
                workers,
            )
            .unwrap();
            assert_eq!(bufs[0].as_ref().unwrap()[0], 31);
        }
    }

    #[test]
    fn zero_grid_or_block_is_a_typed_error() {
        let k = scale_kernel();
        let args = [KernelArg::Buffer(0), KernelArg::Buffer(1), KernelArg::Scalar(4)];
        for (grid, block) in
            [((0, 1), (4, 1)), ((2, 0), (4, 1)), ((1, 1), (0, 1)), ((1, 1), (4, 0))]
        {
            for workers in [1usize, 3] {
                let mut bufs = vec![Some(vec![1i32; 4]), Some(vec![0i32; 4])];
                let cfg = LaunchConfig { grid, block };
                let err = run_kernel(&k, cfg, &args, &mut bufs, workers).unwrap_err();
                assert_eq!(
                    err,
                    SimError::BadLaunch {
                        kernel: "scale2".into(),
                        grid,
                        block,
                        max_block_threads: usize::MAX
                    }
                );
                assert_eq!(bufs[1].as_deref(), Some(&[0i32; 4][..]), "nothing was stored");
            }
        }
    }

    /// `y[gid] = number of iterations of for (i = MAX - 10; i < MAX; i += step)`.
    fn overflow_loop_kernel(step: i64) -> Kernel {
        let mut b = KernelBuilder::new("to_max", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let trips = b.constant(0);
        let one = b.constant(1);
        let start = b.constant(i64::MAX - 10);
        let end = b.constant(i64::MAX);
        let step = b.constant(step);
        b.begin_for(start, end, step);
        let t = b.bin(BinOp::Add, trips, one);
        b.mov(trips, t);
        b.end_for();
        b.store(y, gid, trips);
        b.finish()
    }

    #[test]
    fn loop_counter_overflow_ends_the_loop() {
        // Counters MAX-10, MAX-6, MAX-2; the next, MAX+2, overflows. With
        // step 5: MAX-10, MAX-5, then MAX itself is not below the end.
        for (step, trips) in [(4i64, 3i32), (5, 2), (1, 10), (i64::MAX, 1)] {
            let k = overflow_loop_kernel(step);
            for reference in [false, true] {
                let mut bufs = vec![Some(vec![-1i32; 96])];
                let cfg = LaunchConfig::cover_1d(96, 32);
                let args = [KernelArg::Buffer(0)];
                let stats = if reference {
                    run_kernel_reference(&k, cfg, &args, &mut bufs, 1)
                } else {
                    run_kernel(&k, cfg, &args, &mut bufs, 1)
                }
                .unwrap();
                assert_eq!(bufs[0].as_deref(), Some(&[trips; 96][..]), "step {step}");
                assert_eq!(stats.stores, 96);
            }
        }
    }

    #[test]
    fn lowest_ranked_thread_reports_its_error_first() {
        // Thread 5 faults at the first instruction after the guard; thread 2
        // faults only at the end. Thread 2 runs first, so its (later) error
        // is the launch's error, whatever the block split or worker count.
        let mut b = KernelBuilder::new("two_faults", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let five = b.constant(5);
        let is5 = b.bin(BinOp::Eq, gid, five);
        b.begin_if(is5);
        let far = b.constant(1000);
        let _ = b.load(x, far);
        b.end_if();
        let v = b.load(x, gid);
        let w = b.bin_imm(BinOp::Mul, v, 3);
        b.store(y, gid, w);
        let two = b.constant(2);
        let is2 = b.bin(BinOp::Eq, gid, two);
        b.begin_if(is2);
        let zero = b.constant(0);
        let _ = b.bin(BinOp::Div, gid, zero);
        b.end_if();
        let k = b.finish();
        for (block, workers) in [(8u32, 1usize), (4, 2), (1, 5), (3, 3)] {
            let mut bufs = vec![Some(vec![1i32; 8]), Some(vec![0i32; 8])];
            let cfg = LaunchConfig::cover_1d(8, block);
            let err = run_kernel(
                &k,
                cfg,
                &[KernelArg::Buffer(0), KernelArg::Buffer(1)],
                &mut bufs,
                workers,
            )
            .unwrap_err();
            assert_eq!(err, SimError::DivByZero { kernel: "two_faults".into() }, "block {block}");
            assert_eq!(bufs[1].as_deref(), Some(&[0i32; 8][..]), "a failed launch stores nothing");
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::kir::{KernelBuilder, KernelFlavor, Reg, Special};
    use proptest::prelude::*;

    /// Build a random straight-line kernel: y[gid] = f(x[gid], gid) for a
    /// random arithmetic expression tree f.
    fn random_kernel(ops: &[(u8, i64)]) -> Kernel {
        let mut b = KernelBuilder::new("rand", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let mut acc = b.load(x, gid);
        for &(op, k) in ops {
            let c = b.constant(k);
            acc = match op % 5 {
                0 => b.bin(BinOp::Add, acc, c),
                1 => b.bin(BinOp::Sub, acc, c),
                2 => b.bin(BinOp::Mul, acc, c),
                3 => b.bin(BinOp::Min, acc, gid),
                _ => b.bin(BinOp::Max, acc, c),
            };
        }
        b.store(y, gid, acc);
        b.finish()
    }

    proptest! {
        /// Worker count never changes results or dynamic counters: the
        /// parallel execution engine is deterministic.
        #[test]
        fn execution_is_worker_count_invariant(
            ops in proptest::collection::vec((0u8..5, -7i64..7), 1..8),
            n in 1usize..300,
            block in prop_oneof![Just(32u32), Just(64), Just(128)],
        ) {
            let kernel = random_kernel(&ops);
            let input: Vec<i32> = (0..n as i32).map(|v| v.wrapping_mul(31) % 1000).collect();
            let cfg = LaunchConfig::cover_1d(n, block);
            // Over-provisioned threads store out of range? The kernel has no
            // guard, so clamp the launch to exactly n via grid covering and
            // expect OOB when padding exists — instead give the buffers the
            // full padded size to keep the property about determinism.
            let padded = cfg.total_threads() as usize;
            let mut base: Vec<Option<Vec<i32>>> = vec![
                Some({ let mut v = input.clone(); v.resize(padded, 0); v }),
                Some(vec![0i32; padded]),
            ];
            let args = [KernelArg::Buffer(0), KernelArg::Buffer(1)];
            let s1 = run_kernel(&kernel, cfg, &args, &mut base, 1).unwrap();
            for workers in [2usize, 5, 9] {
                let mut bufs: Vec<Option<Vec<i32>>> = vec![
                    Some({ let mut v = input.clone(); v.resize(padded, 0); v }),
                    Some(vec![0i32; padded]),
                ];
                let s = run_kernel(&kernel, cfg, &args, &mut bufs, workers).unwrap();
                prop_assert_eq!(&bufs[1], &base[1], "workers = {}", workers);
                prop_assert_eq!(s, s1);
            }
        }
    }

    /// Dividends and divisors that probe the constant-division fast path's
    /// edges: 1, negatives, values at and beyond 2³², `i64::MIN` and -1.
    const EDGES: [i64; 16] = [
        0,
        1,
        -1,
        2,
        3,
        7,
        -6,
        64,
        255,
        (1 << 32) - 1,
        1 << 32,
        (1 << 32) + 3,
        -(1 << 33),
        i64::MIN,
        i64::MAX,
        1_000_003,
    ];

    /// Generates random structured kernels over a read-only `x`, a small
    /// writable `y` (so threads collide on addresses), a `gid`-indexed
    /// writable `z` and a scalar `n`. Each finishing thread also stores a
    /// hash of a random third of the registers it can name to `h[gid]`, so a
    /// wrong value shows even where no store reads it.
    struct KernelGen<'r> {
        rng: &'r mut TestRng,
        b: KernelBuilder,
        /// Registers any later instruction may read (including ones written
        /// only on some paths: the reference zeroes every register).
        pool: Vec<Reg>,
        params: [usize; 5],
        loops: usize,
    }

    const X_LEN: i64 = 37;
    const Y_LEN: i64 = 5;

    impl KernelGen<'_> {
        fn pick(&mut self) -> Reg {
            self.pool[self.rng.below(self.pool.len() as u64) as usize]
        }

        fn edge(&mut self) -> i64 {
            EDGES[self.rng.below(EDGES.len() as u64) as usize]
        }

        /// `v` reduced into `[0, len)`.
        fn wrap(&mut self, v: Reg, len: i64) -> Reg {
            let n = self.b.constant(len);
            self.b.wrap_mod(v, n)
        }

        /// A small per-lane value in `[0, k)` derived from thread ids.
        fn lane_small(&mut self, k: i64) -> Reg {
            let id = match self.rng.below(3) {
                0 => self.b.special(Special::GlobalIdX),
                1 => self.b.special(Special::ThreadIdxY),
                _ => self.pick(),
            };
            self.wrap(id, k)
        }

        fn block(&mut self, depth: usize) {
            let len = 1 + self.rng.below(6);
            for _ in 0..len {
                let choice = self.rng.below(if depth < 3 { 14 } else { 10 });
                self.instr(choice, depth);
            }
        }

        fn instr(&mut self, choice: u64, depth: usize) {
            let [x, y, z, n, _] = self.params;
            match choice {
                0 => {
                    let v = self.edge();
                    let r = self.b.constant(v);
                    self.pool.push(r);
                }
                1 => {
                    let kinds = [
                        Special::GlobalIdX,
                        Special::GlobalIdY,
                        Special::ThreadIdxX,
                        Special::ThreadIdxY,
                        Special::BlockIdxX,
                        Special::BlockIdxY,
                        Special::BlockDimX,
                        Special::BlockDimY,
                        Special::GridDimX,
                        Special::GridDimY,
                    ];
                    let r = self.b.special(kinds[self.rng.below(10) as usize]);
                    self.pool.push(r);
                }
                2 | 3 => {
                    let ops = [
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::Min,
                        BinOp::Max,
                        BinOp::Lt,
                        BinOp::Le,
                        BinOp::Eq,
                        BinOp::Ne,
                        BinOp::And,
                        BinOp::Or,
                    ];
                    let op = ops[self.rng.below(ops.len() as u64) as usize];
                    let (a, c) = (self.pick(), self.pick());
                    let r = self.b.bin(op, a, c);
                    self.pool.push(r);
                }
                4 | 5 => {
                    // Division by a constant (the fast path when the constant
                    // is hoisted), rarely by a register that may be zero.
                    let op = if self.rng.below(2) == 0 { BinOp::Div } else { BinOp::Rem };
                    let a = if self.rng.below(3) == 0 {
                        // Lanes straddling an edge, e.g. 2³² - 2 ..= 2³² + 2.
                        let near = self.lane_small(5);
                        let base = self.edge().wrapping_sub(2);
                        let base = self.b.constant(base);
                        self.b.bin(BinOp::Add, near, base)
                    } else {
                        self.pick()
                    };
                    let d = if self.rng.below(12) == 0 {
                        self.pick()
                    } else {
                        let v = match self.edge() {
                            0 => 3,
                            v => v,
                        };
                        self.b.constant(v)
                    };
                    let r = self.b.bin(op, a, d);
                    self.pool.push(r);
                }
                6 => {
                    let v = self.pick();
                    // Mostly in bounds; a raw index may fault.
                    let ix = if self.rng.below(10) == 0 { v } else { self.wrap(v, X_LEN) };
                    let r = self.b.load(x, ix);
                    self.pool.push(r);
                }
                7 => {
                    // Cross-lane conflicts on the small buffer; a second store
                    // to the same address is a same-thread conflict.
                    let v = self.pick();
                    let ix = self.lane_small(Y_LEN);
                    let val = self.pick();
                    self.b.store(y, ix, val);
                    if self.rng.below(3) == 0 {
                        self.b.store(y, ix, v);
                    }
                }
                8 => {
                    let gid = self.b.special(Special::GlobalIdX);
                    let r = self.b.param_value(n);
                    let inside = self.b.bin(BinOp::Lt, gid, r);
                    self.b.begin_if(inside);
                    let v = self.pick();
                    self.b.store(z, gid, v);
                    self.b.end_if();
                }
                9 => {
                    // Loop-carried (and branch-carried) mutation.
                    let (dst, src) = (self.pick(), self.pick());
                    self.b.mov(dst, src);
                }
                10 | 11 => {
                    let c = if self.rng.below(2) == 0 { self.pick() } else { self.lane_small(2) };
                    self.b.begin_if(c);
                    self.block(depth + 1);
                    if self.rng.below(4) == 0 {
                        self.b.ret();
                    }
                    if self.rng.below(2) == 0 {
                        self.b.begin_else();
                        self.block(depth + 1);
                    }
                    self.b.end_if();
                }
                12 if self.loops < 3 => {
                    self.loops += 1;
                    let (start, end, step) = if self.rng.below(6) == 0 {
                        // Counters that reach i64::MAX.
                        let back = self.rng.below(9) as i64;
                        let start = self.b.constant(i64::MAX - back);
                        let end = self.b.constant(i64::MAX);
                        let step = self.b.constant(1 + self.rng.below(4) as i64);
                        (start, end, step)
                    } else {
                        // Per-lane start and trip count; steps may be < 1.
                        let start = self.lane_small(3);
                        let trips = self.lane_small(4);
                        let end = self.b.bin(BinOp::Add, start, trips);
                        let step = self.b.constant(self.rng.below(3) as i64 - 1);
                        (start, end, step)
                    };
                    let var = self.b.begin_for(start, end, step);
                    self.pool.push(var);
                    self.block(depth + 1);
                    if self.rng.below(5) == 0 {
                        let c = self.lane_small(3);
                        self.b.begin_if(c);
                        self.b.ret();
                        self.b.end_if();
                    }
                    self.b.end_for();
                }
                _ => {
                    let c = self.lane_small(5);
                    self.b.begin_if(c);
                    self.b.ret();
                    self.b.end_if();
                }
            }
        }
    }

    fn random_structured_kernel(rng: &mut TestRng) -> Kernel {
        let mut b = KernelBuilder::new("structured", KernelFlavor::Cuda);
        let params = [
            b.buffer_param("x", false),
            b.buffer_param("y", true),
            b.buffer_param("z", true),
            b.scalar_param("n"),
            b.buffer_param("h", true),
        ];
        let gid = b.special(Special::GlobalIdX);
        let len = b.constant(X_LEN);
        let ix = b.wrap_mod(gid, len);
        let xv = b.load(params[0], ix);
        let mut gen = KernelGen { rng, b, pool: vec![gid, xv], params, loops: 0 };
        gen.block(0);
        // Always publish something per thread.
        let v = gen.pick();
        let ix = gen.lane_small(Y_LEN);
        gen.b.store(params[1], ix, v);
        let mut hash = gen.b.constant(17);
        let mul = gen.b.constant(1_000_003);
        // Only some registers: hashing all would keep every register live to
        // the end and leave no register-file rows to share.
        for r in std::mem::take(&mut gen.pool) {
            if gen.rng.below(3) == 0 {
                let h = gen.b.bin(BinOp::Mul, hash, mul);
                hash = gen.b.bin(BinOp::Add, h, r);
            }
        }
        let gid = gen.b.special(Special::GlobalIdX);
        gen.b.store(params[4], gid, hash);
        gen.b.finish()
    }

    type Outcome = (Result<LaunchStats, SimError>, Vec<Option<Vec<i32>>>);

    fn launch_with(
        k: &Kernel,
        cfg: LaunchConfig,
        x: &[i32],
        n: i64,
        workers: usize,
        reference: bool,
    ) -> Outcome {
        let threads = cfg.total_threads() as usize;
        let mut bufs = vec![
            Some(x.to_vec()),
            Some(vec![-7i32; Y_LEN as usize]),
            Some(vec![0i32; threads]),
            Some(vec![0i32; threads]),
        ];
        let args = [
            KernelArg::Buffer(0),
            KernelArg::Buffer(1),
            KernelArg::Buffer(2),
            KernelArg::Scalar(n),
            KernelArg::Buffer(3),
        ];
        let res = if reference {
            run_kernel_reference(k, cfg, &args, &mut bufs, workers)
        } else {
            run_kernel(k, cfg, &args, &mut bufs, workers)
        };
        (res, bufs)
    }

    proptest! {
        /// The lane-group executor is observationally the scalar reference:
        /// same buffers, same counters, same first error — over divergent
        /// branches, per-lane loops, early returns, loop-carried moves,
        /// constant division edge cases, store conflicts, 2-D geometry and
        /// several worker counts.
        #[test]
        fn lane_groups_match_the_scalar_reference(
            seed in any::<u64>(),
            grid in (1u32..4, 1u32..3),
            block in prop_oneof![
                Just((1u32, 1u32)),
                Just((3, 1)),
                Just((7, 3)),
                Just((16, 4)),
                Just((64, 1)),
                Just((5, 5)),
                Just((100, 1)),
                Just((32, 3)),
            ],
            n_frac in 0u8..5,
        ) {
            let mut rng = TestRng::new(seed);
            let k = random_structured_kernel(&mut rng);
            let cfg = LaunchConfig { grid, block };
            let x: Vec<i32> = (0..X_LEN)
                .map(|_| match rng.below(4) {
                    0 => EDGES[rng.below(EDGES.len() as u64) as usize] as i32,
                    _ => rng.next_u64() as i32 >> rng.below(31),
                })
                .collect();
            // `n` guards the z stores: all, most, or none of the threads.
            let n = cfg.total_threads() as i64 * n_frac as i64 / 4;
            let reference = launch_with(&k, cfg, &x, n, 1, true);
            for workers in [1usize, 2, 5] {
                let simt = launch_with(&k, cfg, &x, n, workers, false);
                prop_assert_eq!(&simt.0, &reference.0, "workers {}: {:?}", workers, k.body);
                prop_assert_eq!(&simt.1, &reference.1, "workers {}: {:?}", workers, k.body);
                if workers > 1 {
                    let scalar = launch_with(&k, cfg, &x, n, workers, true);
                    prop_assert_eq!(&scalar.0, &reference.0);
                    prop_assert_eq!(&scalar.1, &reference.1);
                }
            }
        }
    }
}
