//! Lane-group (SIMT) execution of kernel IR.
//!
//! A [`Program`] is the kernel decoded once per launch: parameters bound and
//! kind-checked, thread-invariant definitions hoisted into a register image,
//! constant divisors strength-reduced. [`Program::run_ranks`] then runs a
//! range of thread ranks a lane group at a time. The parent module documents
//! the semantics; this one keeps them exact.

use super::{run_ranks_scalar, touch, Bound, LaunchConfig, WorkerState, WriteLog};
use crate::kir::{BinOp, Instr, Kernel, Reg, Special};
use crate::SimError;
use std::cell::RefCell;
use std::ops::Range;

/// Run `$body` once per active lane with the lane index bound to `$l`: a
/// straight `0..n` loop when every lane of the group is active, otherwise
/// over the (ascending) active-lane list.
macro_rules! each_lane {
    ($act:expr, $n:expr, $l:ident => $body:block) => {
        if $act.len() == $n {
            for $l in 0..$n $body
        } else {
            for &lane in $act.iter() {
                let $l = lane as usize;
                $body
            }
        }
    };
}

/// Most lanes in one group. A worker's register file holds
/// `rows × GROUP_LANES` values (a row is one register across the group).
const GROUP_LANES: usize = 64;

/// A register row of the lane register file.
type Row = usize;

/// Exact truncating division by a constant `d` in `[2, 2³²)`.
///
/// Dividends in `[0, 2³²)` use the multiply-high of Lemire, Kaser and Kurz
/// ("Faster remainder by direct computation", 2019) with `c = ⌈2⁶⁴/d⌉`,
/// exact for every 32-bit dividend and divisor. Any other dividend
/// (negative, or 2³² and above) falls back to `wrapping_div` /
/// `wrapping_rem`, so results equal `i64` division everywhere.
#[derive(Debug, Clone, Copy)]
struct FastDiv {
    d: i64,
    c: u64,
}

impl FastDiv {
    fn new(d: i64) -> Option<Self> {
        (2..1i64 << 32).contains(&d).then(|| FastDiv { d, c: u64::MAX / d as u64 + 1 })
    }

    #[inline(always)]
    fn div(self, n: i64) -> i64 {
        if (n as u64) >> 32 == 0 {
            ((self.c as u128 * n as u128) >> 64) as i64
        } else {
            n.wrapping_div(self.d)
        }
    }

    #[inline(always)]
    fn rem(self, n: i64) -> i64 {
        if (n as u64) >> 32 == 0 {
            let low = self.c.wrapping_mul(n as u64);
            ((low as u128 * self.d as u128) >> 64) as i64
        } else {
            n.wrapping_rem(self.d)
        }
    }
}

/// A per-lane thread coordinate read by a special; indexes [`Lanes::ids`].
#[derive(Debug, Clone, Copy)]
enum Coord {
    GlobalX,
    GlobalY,
    ThreadX,
    ThreadY,
    BlockX,
    BlockY,
}

/// One decoded instruction. Every op is charged one instruction per active
/// lane, except `Hoisted`, which stands for `count` of them.
enum Op<'a> {
    /// Definitions moved into the register image: charged, not executed.
    Hoisted {
        count: u64,
    },
    Const {
        dst: Row,
        value: i64,
    },
    Special {
        dst: Row,
        coord: Coord,
    },
    Bin {
        op: BinOp,
        dst: Row,
        lhs: Row,
        rhs: Row,
    },
    DivConst {
        dst: Row,
        lhs: Row,
        by: FastDiv,
    },
    RemConst {
        dst: Row,
        lhs: Row,
        by: FastDiv,
    },
    Mov {
        dst: Row,
        src: Row,
    },
    Load {
        dst: Row,
        arg: usize,
        data: &'a [i32],
        index: Row,
    },
    Store {
        arg: usize,
        len: usize,
        index: Row,
        src: Row,
    },
    /// `state` is the first of three hidden rows: counter, end and step.
    For {
        var: Row,
        start: Row,
        end: Row,
        step: Row,
        state: Row,
        body: Vec<Op<'a>>,
    },
    If {
        cond: Row,
        then: Vec<Op<'a>>,
        els: Vec<Op<'a>>,
    },
    Return,
    /// An instruction that fails whenever a lane reaches it (a parameter of
    /// the wrong kind, a store through a read-only buffer).
    Fault(SimError),
}

/// A kernel decoded for one launch.
pub(super) struct Program<'a> {
    kernel: &'a Kernel,
    bound: &'a [Bound<'a>],
    cfg: LaunchConfig,
    body: Vec<Op<'a>>,
    /// Register rows: the kernel's registers plus three per `For`.
    rows: usize,
    /// Hoisted `(row, value)` pairs, written once per worker.
    image: Vec<(Row, i64)>,
    /// Rows some path may read before writing them; zeroed per group.
    exposed: Vec<Row>,
    /// Lane lists the deepest `If`/`For` nesting needs.
    lists: usize,
}

impl<'a> Program<'a> {
    /// Decode `kernel` against its bound arguments and launch geometry.
    pub(super) fn decode(kernel: &'a Kernel, bound: &'a [Bound<'a>], cfg: LaunchConfig) -> Self {
        let regs = kernel.register_count();
        let hoisted = hoist(&kernel.body, bound, cfg, regs);
        let mut dec = Decoder { name: &kernel.name, bound, cfg, hoisted: &hoisted, rows: regs };
        let body = dec.lower(&kernel.body);
        let image = hoisted.iter().enumerate().filter_map(|(r, v)| v.map(|v| (r, v))).collect();
        Program {
            kernel,
            bound,
            cfg,
            body,
            rows: dec.rows,
            image,
            exposed: exposed_reads(&kernel.body, regs),
            lists: list_depth(&kernel.body),
        }
    }

    /// Run the threads of `ranks` a lane group at a time. A group in which
    /// any lane faults is replayed through the scalar interpreter, whose
    /// first error (in rank order) is returned.
    pub(super) fn run_ranks(
        &self,
        ranks: Range<u64>,
        st: &mut WorkerState,
    ) -> Result<(), SimError> {
        let width = ranks.end.saturating_sub(ranks.start).min(GROUP_LANES as u64) as usize;
        if width == 0 {
            return Ok(());
        }
        SCRATCH.with_borrow_mut(|scratch| self.run_groups(scratch, ranks, width, st))
    }

    fn run_groups(
        &self,
        scratch: &mut Scratch,
        ranks: Range<u64>,
        width: usize,
        st: &mut WorkerState,
    ) -> Result<(), SimError> {
        let Scratch { lanes, lists, act } = scratch;
        lanes.reset(self.rows, width);
        for &(row, value) in &self.image {
            lanes.regs[row * width..(row + 1) * width].fill(value);
        }
        if lists.len() < self.lists {
            lists.resize_with(self.lists, Vec::new);
        }
        let mut first = ranks.start;
        while first < ranks.end {
            let n = (ranks.end - first).min(width as u64) as usize;
            lanes.start_group(first, n, self.cfg, &self.exposed);
            act.clear();
            act.extend(0..n as u32);
            if let Err(err) = self.exec(&self.body, act, lists, lanes, st) {
                let group = first..first + n as u64;
                let replay = run_ranks_scalar(self.kernel, self.bound, self.cfg, group, st);
                return Err(replay.err().unwrap_or(err));
            }
            lanes.flush(&mut st.log);
            first += n as u64;
        }
        Ok(())
    }

    fn out_of_bounds(&self, buffer: usize, index: i64, len: usize) -> SimError {
        SimError::OutOfBounds { kernel: self.kernel.name.clone(), buffer, index, len }
    }

    /// Run `ops` for the lanes in `act`. Lanes that return are retired in
    /// `ln.alive` and dropped from `act`; the result says whether any were.
    fn exec(
        &self,
        ops: &[Op<'a>],
        act: &mut Vec<u32>,
        lists: &mut [Vec<u32>],
        ln: &mut Lanes,
        st: &mut WorkerState,
    ) -> Result<bool, SimError> {
        let (w, n) = (ln.width, ln.n);
        let mut retired = false;
        for op in ops {
            let active = act.len() as u64;
            match op {
                Op::Hoisted { count } => st.instructions += count * active,
                Op::Const { dst, value } => {
                    st.instructions += active;
                    each_lane!(act, n, l => { ln.regs[dst * w + l] = *value; });
                }
                Op::Special { dst, coord } => {
                    st.instructions += active;
                    let (ids, row) = (&ln.ids[*coord as usize], &mut ln.regs[dst * w..][..w]);
                    if act.len() == n {
                        row[..n].copy_from_slice(&ids[..n]);
                    } else {
                        act.iter().for_each(|&l| row[l as usize] = ids[l as usize]);
                    }
                }
                Op::Bin { op, dst, lhs, rhs } => {
                    st.instructions += active;
                    let (d, a, b) = (*dst, *lhs, *rhs);
                    let regs = &mut ln.regs;
                    match op {
                        BinOp::Add => map2(regs, w, act, n, d, a, b, |x, y| x.wrapping_add(y)),
                        BinOp::Sub => map2(regs, w, act, n, d, a, b, |x, y| x.wrapping_sub(y)),
                        BinOp::Mul => map2(regs, w, act, n, d, a, b, |x, y| x.wrapping_mul(y)),
                        BinOp::Min => map2(regs, w, act, n, d, a, b, |x, y| x.min(y)),
                        BinOp::Max => map2(regs, w, act, n, d, a, b, |x, y| x.max(y)),
                        BinOp::Lt => map2(regs, w, act, n, d, a, b, |x, y| (x < y) as i64),
                        BinOp::Le => map2(regs, w, act, n, d, a, b, |x, y| (x <= y) as i64),
                        BinOp::Eq => map2(regs, w, act, n, d, a, b, |x, y| (x == y) as i64),
                        BinOp::Ne => map2(regs, w, act, n, d, a, b, |x, y| (x != y) as i64),
                        BinOp::And => {
                            map2(regs, w, act, n, d, a, b, |x, y| (x != 0 && y != 0) as i64)
                        }
                        BinOp::Or => {
                            map2(regs, w, act, n, d, a, b, |x, y| (x != 0 || y != 0) as i64)
                        }
                        BinOp::Div | BinOp::Rem => {
                            let div = matches!(op, BinOp::Div);
                            each_lane!(act, n, l => {
                                let (x, y) = (regs[a * w + l], regs[b * w + l]);
                                if y == 0 {
                                    return Err(SimError::DivByZero {
                                        kernel: self.kernel.name.clone(),
                                    });
                                }
                                regs[d * w + l] =
                                    if div { x.wrapping_div(y) } else { x.wrapping_rem(y) };
                            });
                        }
                    }
                }
                Op::DivConst { dst, lhs, by } => {
                    st.instructions += active;
                    let by = *by;
                    map1(&mut ln.regs, w, act, n, *dst, *lhs, move |x| by.div(x));
                }
                Op::RemConst { dst, lhs, by } => {
                    st.instructions += active;
                    let by = *by;
                    map1(&mut ln.regs, w, act, n, *dst, *lhs, move |x| by.rem(x));
                }
                Op::Mov { dst, src } => {
                    st.instructions += active;
                    map1(&mut ln.regs, w, act, n, *dst, *src, |x| x);
                }
                Op::Load { dst, arg, data, index } => {
                    st.instructions += active;
                    st.loads += active;
                    let bits = &mut st.touched[*arg];
                    each_lane!(act, n, l => {
                        let ix = ln.regs[index * w + l];
                        let Some(&v) = usize::try_from(ix).ok().and_then(|i| data.get(i)) else {
                            return Err(self.out_of_bounds(*arg, ix, data.len()));
                        };
                        ln.regs[dst * w + l] = v as i64;
                        touch(bits, ix as u32);
                    });
                }
                Op::Store { arg, len, index, src } => {
                    st.instructions += active;
                    st.stores += active;
                    let bits = &mut st.touched[*arg];
                    each_lane!(act, n, l => {
                        let ix = ln.regs[index * w + l];
                        if usize::try_from(ix).map_or(true, |i| i >= *len) {
                            return Err(self.out_of_bounds(*arg, ix, *len));
                        }
                        touch(bits, ix as u32);
                        // Stored values truncate to the buffer's 32-bit ints,
                        // as in the scalar interpreter.
                        ln.log.push((l as u32, *arg as u32, ix as u32, ln.regs[src * w + l] as i32));
                    });
                }
                Op::For { var, start, end, step, state, body } => {
                    st.instructions += active;
                    let (cur, lim, inc) = (*state, state + 1, state + 2);
                    let (looping, deeper) =
                        lists.split_first_mut().expect("decoder sized the lane lists");
                    looping.clear();
                    for &lane in act.iter() {
                        let l = lane as usize;
                        let (s, e) = (ln.regs[start * w + l], ln.regs[end * w + l]);
                        ln.regs[inc * w + l] = ln.regs[step * w + l].max(1);
                        ln.regs[cur * w + l] = s;
                        ln.regs[lim * w + l] = e;
                        if s < e {
                            looping.push(lane);
                        }
                    }
                    let mut died = false;
                    while !looping.is_empty() {
                        for &lane in looping.iter() {
                            let l = lane as usize;
                            ln.regs[var * w + l] = ln.regs[cur * w + l];
                        }
                        died |= self.exec(body, looping, deeper, ln, st)?;
                        // A counter whose next value would overflow ends the
                        // lane's loop, as in the scalar interpreter.
                        let regs = &mut ln.regs;
                        looping.retain(|&lane| {
                            let l = lane as usize;
                            match regs[cur * w + l].checked_add(regs[inc * w + l]) {
                                Some(next) if next < regs[lim * w + l] => {
                                    regs[cur * w + l] = next;
                                    true
                                }
                                _ => false,
                            }
                        });
                    }
                    if died {
                        retired = true;
                        act.retain(|&l| ln.alive[l as usize]);
                        if act.is_empty() {
                            return Ok(true);
                        }
                    }
                }
                Op::If { cond, then, els } => {
                    st.instructions += active;
                    let [taken, other, deeper @ ..] = &mut *lists else {
                        unreachable!("decoder sized the lane lists")
                    };
                    taken.clear();
                    other.clear();
                    for &lane in act.iter() {
                        if ln.regs[cond * w + lane as usize] != 0 {
                            taken.push(lane);
                        } else {
                            other.push(lane);
                        }
                    }
                    let mut died = false;
                    if !taken.is_empty() && !then.is_empty() {
                        died |= self.exec(then, taken, deeper, ln, st)?;
                    }
                    if !other.is_empty() && !els.is_empty() {
                        died |= self.exec(els, other, deeper, ln, st)?;
                    }
                    if died {
                        retired = true;
                        act.retain(|&l| ln.alive[l as usize]);
                        if act.is_empty() {
                            return Ok(true);
                        }
                    }
                }
                Op::Return => {
                    st.instructions += active;
                    for &l in act.iter() {
                        ln.alive[l as usize] = false;
                    }
                    act.clear();
                    return Ok(true);
                }
                Op::Fault(err) => return Err(err.clone()),
            }
        }
        Ok(retired)
    }
}

/// `dst = f(a, b)` on every active lane.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn map2(
    regs: &mut [i64],
    w: usize,
    act: &[u32],
    n: usize,
    dst: Row,
    a: Row,
    b: Row,
    f: impl Fn(i64, i64) -> i64,
) {
    if act.len() == n && dst != a && dst != b {
        let (d, x, y) = rows3(regs, w, n, dst, a, b);
        for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
            *d = f(x, y);
        }
    } else {
        each_lane!(act, n, l => { regs[dst * w + l] = f(regs[a * w + l], regs[b * w + l]); });
    }
}

/// `dst = f(a)` on every active lane.
#[inline(always)]
fn map1(
    regs: &mut [i64],
    w: usize,
    act: &[u32],
    n: usize,
    dst: Row,
    a: Row,
    f: impl Fn(i64) -> i64,
) {
    if act.len() == n && dst != a {
        let (d, x, _) = rows3(regs, w, n, dst, a, a);
        for (d, &x) in d.iter_mut().zip(x) {
            *d = f(x);
        }
    } else {
        each_lane!(act, n, l => { regs[dst * w + l] = f(regs[a * w + l]); });
    }
}

/// The first `n` lanes of row `dst` (mutable) and of rows `a` and `b`,
/// neither of which may be `dst`.
fn rows3(
    regs: &mut [i64],
    w: usize,
    n: usize,
    dst: Row,
    a: Row,
    b: Row,
) -> (&mut [i64], &[i64], &[i64]) {
    fn row<'r>(lo: &'r [i64], hi: &'r [i64], split: Row, r: Row, w: usize, n: usize) -> &'r [i64] {
        if r < split {
            &lo[r * w..r * w + n]
        } else {
            &hi[(r - split - 1) * w..(r - split - 1) * w + n]
        }
    }
    let (lo, rest) = regs.split_at_mut(dst * w);
    let (d, hi) = rest.split_at_mut(w);
    let (lo, hi) = (&*lo, &*hi);
    (&mut d[..n], row(lo, hi, dst, a, w, n), row(lo, hi, dst, b, w, n))
}

thread_local! {
    /// Lane state reused by every launch on a host thread, so a launch does
    /// not reallocate (and fault in) its register file.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A host thread's lane state plus the active-lane lists of one group.
#[derive(Default)]
struct Scratch {
    lanes: Lanes,
    /// Lane lists for nested `If`/`For` ops.
    lists: Vec<Vec<u32>>,
    /// The group's top-level active lanes.
    act: Vec<u32>,
}

/// One worker's lane state: the register file and the current group.
#[derive(Default)]
struct Lanes {
    /// Register-major file: row `r`, lane `l` at `r * width + l`.
    regs: Vec<i64>,
    width: usize,
    /// Lanes in the current group.
    n: usize,
    /// Lanes that have not returned.
    alive: Vec<bool>,
    /// Per-lane thread coordinates, in [`Coord`] order.
    ids: [Vec<i64>; 6],
    /// The group's stores: (lane, argument slot, address, value).
    log: Vec<(u32, u32, u32, i32)>,
}

impl Lanes {
    /// Size the register file for `rows` rows of `width` lanes. Contents
    /// left from an earlier launch are never read: every row is hoisted
    /// (filled per launch), exposed (zeroed per group) or written by a lane
    /// before that lane reads it.
    fn reset(&mut self, rows: usize, width: usize) {
        self.width = width;
        self.regs.resize(rows * width, 0);
        self.alive.resize(width, true);
        for ids in &mut self.ids {
            ids.resize(width, 0);
        }
        self.log.clear();
    }

    /// Set up lanes for the `n` threads ranked from `first`.
    fn start_group(&mut self, first: u64, n: usize, cfg: LaunchConfig, exposed: &[Row]) {
        self.n = n;
        self.alive[..n].fill(true);
        for &row in exposed {
            self.regs[row * self.width..row * self.width + n].fill(0);
        }
        let (bdx, bdy, gx) = (cfg.block.0 as i64, cfg.block.1 as i64, cfg.grid.0 as i64);
        let bt = cfg.block_threads();
        let (blk, t) = ((first / bt) as i64, (first % bt) as i64);
        let (mut tx, mut ty, mut bx, mut by) = (t % bdx, t / bdx, blk % gx, blk / gx);
        for l in 0..n {
            for (ids, v) in self.ids.iter_mut().zip([bx * bdx + tx, by * bdy + ty, tx, ty, bx, by])
            {
                ids[l] = v;
            }
            tx += 1;
            if tx == bdx {
                tx = 0;
                ty += 1;
                if ty == bdy {
                    ty = 0;
                    bx += 1;
                    if bx == gx {
                        bx = 0;
                        by += 1;
                    }
                }
            }
        }
    }

    /// Move the group's stores to `out` in rank order (a stable sort by
    /// lane keeps each lane's program order).
    fn flush(&mut self, out: &mut WriteLog) {
        if !self.log.is_sorted_by_key(|e| e.0) {
            self.log.sort_by_key(|e| e.0);
        }
        out.extend(self.log.drain(..).map(|(_, arg, addr, v)| (arg as usize, addr, v)));
    }
}

/// Decodes instructions into ops.
struct Decoder<'a, 'h> {
    name: &'a str,
    bound: &'a [Bound<'a>],
    cfg: LaunchConfig,
    hoisted: &'h [Option<i64>],
    rows: usize,
}

impl<'a> Decoder<'a, '_> {
    fn lower(&mut self, instrs: &'a [Instr]) -> Vec<Op<'a>> {
        let mut ops: Vec<Op<'a>> = Vec::with_capacity(instrs.len());
        for i in instrs {
            let op = self.lower_one(i);
            if let (Op::Hoisted { count: more }, Some(Op::Hoisted { count })) =
                (&op, ops.last_mut())
            {
                *count += more;
            } else {
                ops.push(op);
            }
        }
        ops
    }

    fn bad_param(&self, index: usize) -> Op<'a> {
        Op::Fault(SimError::BadParam { kernel: self.name.to_string(), index })
    }

    fn lower_one(&mut self, i: &'a Instr) -> Op<'a> {
        let row = |r: Reg| r as Row;
        if let Some((dst, _)) = invariant(i, self.bound, self.cfg) {
            if self.hoisted[row(dst)].is_some() {
                return Op::Hoisted { count: 1 };
            }
        }
        match *i {
            Instr::Const { dst, value } => Op::Const { dst: row(dst), value },
            Instr::LoadParam { dst, param } => match self.bound.get(param) {
                Some(Bound::Scalar(value)) => Op::Const { dst: row(dst), value: *value },
                _ => self.bad_param(param),
            },
            Instr::Special { dst, kind } => {
                let coord = match kind {
                    Special::GlobalIdX => Coord::GlobalX,
                    Special::GlobalIdY => Coord::GlobalY,
                    Special::ThreadIdxX => Coord::ThreadX,
                    Special::ThreadIdxY => Coord::ThreadY,
                    Special::BlockIdxX => Coord::BlockX,
                    Special::BlockIdxY => Coord::BlockY,
                    Special::BlockDimX
                    | Special::BlockDimY
                    | Special::GridDimX
                    | Special::GridDimY => {
                        let (_, value) = invariant(i, self.bound, self.cfg)
                            .expect("dimension specials are launch constants");
                        return Op::Const { dst: row(dst), value };
                    }
                };
                Op::Special { dst: row(dst), coord }
            }
            Instr::Bin { op, dst, lhs, rhs } => {
                let by = self.hoisted[row(rhs)].and_then(FastDiv::new);
                match (op, by) {
                    (BinOp::Div, Some(by)) => Op::DivConst { dst: row(dst), lhs: row(lhs), by },
                    (BinOp::Rem, Some(by)) => Op::RemConst { dst: row(dst), lhs: row(lhs), by },
                    _ => Op::Bin { op, dst: row(dst), lhs: row(lhs), rhs: row(rhs) },
                }
            }
            Instr::Mov { dst, src } => Op::Mov { dst: row(dst), src: row(src) },
            Instr::Load { dst, param, index } => match self.bound.get(param) {
                Some(Bound::Buf { data, .. }) => {
                    Op::Load { dst: row(dst), arg: param, data, index: row(index) }
                }
                _ => self.bad_param(param),
            },
            Instr::Store { param, index, src } => match self.bound.get(param) {
                Some(Bound::Buf { data, writable: true, .. }) => {
                    Op::Store { arg: param, len: data.len(), index: row(index), src: row(src) }
                }
                Some(Bound::Buf { writable: false, .. }) => {
                    Op::Fault(SimError::ReadOnlyStore { kernel: self.name.to_string(), param })
                }
                _ => self.bad_param(param),
            },
            Instr::For { var, start, end, step, ref body } => {
                let state = self.rows;
                self.rows += 3;
                Op::For {
                    var: row(var),
                    start: row(start),
                    end: row(end),
                    step: row(step),
                    state,
                    body: self.lower(body),
                }
            }
            Instr::If { cond, ref then, ref els } => {
                Op::If { cond: row(cond), then: self.lower(then), els: self.lower(els) }
            }
            Instr::Return => Op::Return,
        }
    }
}

/// The register and launch-invariant value an instruction defines, if it
/// defines one: a constant, a scalar parameter, or a block/grid dimension.
fn invariant(i: &Instr, bound: &[Bound<'_>], cfg: LaunchConfig) -> Option<(Reg, i64)> {
    match *i {
        Instr::Const { dst, value } => Some((dst, value)),
        Instr::LoadParam { dst, param } => match bound.get(param) {
            Some(Bound::Scalar(v)) => Some((dst, *v)),
            _ => None,
        },
        Instr::Special { dst, kind } => {
            let v = match kind {
                Special::BlockDimX => cfg.block.0,
                Special::BlockDimY => cfg.block.1,
                Special::GridDimX => cfg.grid.0,
                Special::GridDimY => cfg.grid.1,
                _ => return None,
            };
            Some((dst, v as i64))
        }
        _ => None,
    }
}

/// Registers one instruction (not its nested blocks) reads and writes.
fn operands(i: &Instr) -> ([Option<Reg>; 3], Option<Reg>) {
    match *i {
        Instr::Const { dst, .. } | Instr::LoadParam { dst, .. } | Instr::Special { dst, .. } => {
            ([None; 3], Some(dst))
        }
        Instr::Bin { dst, lhs, rhs, .. } => ([Some(lhs), Some(rhs), None], Some(dst)),
        Instr::Mov { dst, src } => ([Some(src), None, None], Some(dst)),
        Instr::Load { dst, index, .. } => ([Some(index), None, None], Some(dst)),
        Instr::Store { index, src, .. } => ([Some(index), Some(src), None], None),
        Instr::For { var, start, end, step, .. } => {
            ([Some(start), Some(end), Some(step)], Some(var))
        }
        Instr::If { cond, .. } => ([Some(cond), None, None], None),
        Instr::Return => ([None; 3], None),
    }
}

/// Visit every instruction in pre-order.
fn visit(instrs: &[Instr], f: &mut impl FnMut(&Instr)) {
    for i in instrs {
        f(i);
        match i {
            Instr::For { body, .. } => visit(body, f),
            Instr::If { then, els, .. } => {
                visit(then, f);
                visit(els, f);
            }
            _ => {}
        }
    }
}

/// Per register, the hoisted value: set for a top-level invariant
/// definition that is the register's only write and its first mention, so
/// every read of the register sees that value in every thread.
fn hoist(body: &[Instr], bound: &[Bound<'_>], cfg: LaunchConfig, regs: usize) -> Vec<Option<i64>> {
    let mut writes = vec![0u32; regs];
    visit(body, &mut |i| {
        if let (_, Some(w)) = operands(i) {
            writes[w as usize] += 1;
        }
    });
    let mut seen = vec![false; regs];
    let mut hoisted = vec![None; regs];
    for i in body {
        if let Some((dst, value)) = invariant(i, bound, cfg) {
            if !seen[dst as usize] && writes[dst as usize] == 1 {
                hoisted[dst as usize] = Some(value);
            }
        }
        visit(std::slice::from_ref(i), &mut |i| {
            let (reads, write) = operands(i);
            reads.into_iter().chain([write]).flatten().for_each(|r| seen[r as usize] = true);
        });
    }
    hoisted
}

/// Registers that some path may read before writing them (definite
/// assignment over the structured body). Only these rows need clearing to
/// the scalar interpreter's zero between groups.
fn exposed_reads(body: &[Instr], regs: usize) -> Vec<Row> {
    fn walk(instrs: &[Instr], defined: &mut [bool], exposed: &mut [bool]) {
        for i in instrs {
            let (reads, write) = operands(i);
            for r in reads.into_iter().flatten() {
                exposed[r as usize] |= !defined[r as usize];
            }
            match i {
                Instr::For { var, body, .. } => {
                    // The body may run zero times: its writes (the loop
                    // variable's included) are not definite afterwards.
                    let mut inner = defined.to_vec();
                    inner[*var as usize] = true;
                    walk(body, &mut inner, exposed);
                }
                Instr::If { then, els, .. } => {
                    let mut a = defined.to_vec();
                    walk(then, &mut a, exposed);
                    let mut b = defined.to_vec();
                    walk(els, &mut b, exposed);
                    for ((d, a), b) in defined.iter_mut().zip(a).zip(b) {
                        *d = a && b;
                    }
                }
                Instr::Return => {
                    // Nothing after a return runs on this path.
                    defined.fill(true);
                    return;
                }
                _ => {
                    if let Some(w) = write {
                        defined[w as usize] = true;
                    }
                }
            }
        }
    }
    let mut defined = vec![false; regs];
    let mut exposed = vec![false; regs];
    walk(body, &mut defined, &mut exposed);
    exposed.iter().enumerate().filter(|(_, &e)| e).map(|(r, _)| r).collect()
}

/// Lane lists an instruction sequence needs: two per `If` level (taken and
/// not taken), one per `For` level (lanes still looping).
fn list_depth(instrs: &[Instr]) -> usize {
    instrs
        .iter()
        .map(|i| match i {
            Instr::For { body, .. } => 1 + list_depth(body),
            Instr::If { then, els, .. } => 2 + list_depth(then).max(list_depth(els)),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::FastDiv;

    #[test]
    fn fast_division_matches_i64_division() {
        let divisors = [2i64, 3, 5, 6, 7, 10, 25, 255, 641, 1 << 16, (1 << 31) - 1, 1 << 31];
        let divisors = divisors.into_iter().chain([(1i64 << 32) - 1, (1 << 32) - 2, 3 << 30]);
        let edge = [0i64, 1, 2, 5, 63, 64, 65, 1000, (1 << 31) - 1, 1 << 31, (1 << 32) - 1];
        let beyond = [1i64 << 32, (1 << 32) + 7, -1, -7, i64::MIN, i64::MAX, i64::MIN + 1];
        for d in divisors {
            let by = FastDiv::new(d).unwrap();
            let near = [d - 1, d, d + 1, 2 * d - 1, 2 * d, (1 << 32) - d, ((1 << 32) - 1) / d * d];
            let sweep = (0..2000i64).map(|k| k.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF);
            for x in edge.into_iter().chain(beyond).chain(near).chain(sweep) {
                assert_eq!(by.div(x), x.wrapping_div(d), "{x} / {d}");
                assert_eq!(by.rem(x), x.wrapping_rem(d), "{x} % {d}");
            }
        }
        for d in [i64::MIN, -5, -1, 0, 1, 1 << 32, i64::MAX] {
            assert!(FastDiv::new(d).is_none(), "{d} takes the generic path");
        }
    }
}
