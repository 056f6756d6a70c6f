//! Template-JIT executor tier: fused row kernels over the weighted sum
//! analysis.
//!
//! Real stencil compilers (Devito's generated C, the paper's LLVM path)
//! emit **one fused loop per kernel**: all taps are loaded into
//! registers, combined in registers, and stored once. True runtime
//! codegen needs a backend (cranelift) this repo cannot depend on, so
//! this module does the next-best thing — a **template JIT**: every
//! kernel [`crate::specialize`] proves to be a weighted sum of taps
//! (a [`WsProgram`]) is compiled at pipeline-build time into one of three
//! fused plans ([`JitPlan`]), with no interpretation dispatch per point:
//!
//! 1. **`chain<T>`** — a single-output pure tap chain runs on const-generic
//!    micro-kernels monomorphized for every tap count up to
//!    [`MAX_TERMS`], fully unrolled.
//! 2. **Two-level fold** — the catalog shape mirroring how frontends emit
//!    stencils (`out = Σ groups, group = [c ·] Σ elements`), every
//!    intermediate held in registers:
//!
//!    ```text
//!    out  := term₁ ⊕ term₂ ⊕ … ⊕ term_G          (left fold, ⊕ ∈ {+,−})
//!    term := elem                                 (plain element)
//!          | [c ·] (elem₁ ⊕ … ⊕ elem_T)          (const-scaled group fold)
//!    elem := tap | c · tap | tap ⊕ tap | const   (tap = one grid load)
//!    ```
//!
//!    jacobi-1d matches as a pure 3-tap chain, heat-2d as
//!    `c + s·(((u+d)+(l+r)) − k·c)` (one plain term + one scaled group),
//!    the Devito heat-3d operator as `s₁·(a+b+c) + s₂·(d+e+f) + g·center`.
//! 3. **Lane DAG** — every other weighted sum (division nodes, nesting
//!    deeper than two levels, more than [`MAX_TERMS`] terms, `Index`
//!    taps, more than four outputs — e.g. Devito space-order-12
//!    operators): the [`WsProgram`] itself is evaluated one lane block at
//!    a time. Each tap, index and combine node owns one `W`-wide row of
//!    the per-thread slot matrix ([`crate::ExecScratch::slots`]); every
//!    node is one lane op over its operand rows, so the matrix stays
//!    L1-resident and no stage makes a pass over a long row.
//!
//! The catalog plans beat the DAG on their own kernels (everything stays
//! in registers), so the DAG only serves what the catalog misses.
//! Kernels with no weighted sum form at all (runtime scalars, products of
//! loads) stay on the opt-bytecode tier.
//!
//! **Bit-exactness.** Evaluation replays exactly the operation sequence
//! of the matched DAG per point: every tap is scaled with the recorded
//! operand order, every fold applies the recorded operator with the
//! accumulator on the recorded side, no expression is reassociated and
//! no FMA contraction is introduced (products and sums stay separate
//! instructions). Vectorization only batches *across* points — each lane
//! executes the same scalar op sequence — so results are bit-for-bit
//! identical to `KernelProgram::eval`, which the random-stencil property
//! suite enforces across strategies, overlap, halo depth and threads.
//!
//! **Lanes.** Rows are evaluated eight points at a time through the
//! [`Lanes`] abstraction: a portable `[f64; 8]` implementation whose
//! fixed-width loops the compiler auto-vectorizes on any target, and —
//! behind the `simd` cargo feature on x86_64, gated at runtime by
//! `is_x86_feature_detected!("avx2")` — an explicit AVX2 implementation
//! (two `__m256d` halves per block). Row remainders — and whole rows
//! shorter than a block, such as the boundary shells of overlapped halo
//! exchanges — replay the same op sequence one point at a time.

use crate::program::BinOp;
use crate::specialize::{WsNode, WsProgram, WsTap};

/// Maximum top-level fold terms (a pure chain of taps may use all of
/// them; `chain<T>` micro-kernels are monomorphized for every `T` up to
/// this bound).
pub const MAX_TERMS: usize = 16;
/// Maximum elements inside one scaled group.
pub const MAX_GROUP_ELEMS: usize = 8;
/// Maximum total evaluated operations per output (guards the
/// recomputation that tree-shaped sharing can introduce).
const MAX_OPS: usize = 64;
/// Maximum outputs of a (horizontally fused) apply the fold templates
/// accept.
const MAX_OUTS: usize = 4;
/// Points per lane block (both [`Lanes`] implementations).
const LANE_W: usize = 8;

/// A leaf value of the fold grammar.
#[derive(Clone, Debug)]
pub enum JitValue {
    /// A (possibly scaled) tap.
    Tap(WsTap),
    /// `a ⊕ b` over two (possibly scaled) taps.
    Pair {
        /// `Add` or `Sub`.
        op: BinOp,
        /// Left tap.
        a: WsTap,
        /// Right tap.
        b: WsTap,
    },
    /// A loop-invariant constant.
    Const(f64),
}

/// One element of a group fold: `acc = acc ⊕ value`.
#[derive(Clone, Debug)]
pub struct JitElem {
    /// `Add` or `Sub` (the first element ignores it and seeds the fold).
    pub op: BinOp,
    /// The element value.
    pub value: JitValue,
}

/// What one top-level term evaluates.
#[derive(Clone, Debug)]
pub enum JitTermValue {
    /// A plain element.
    Elem(JitValue),
    /// `[c ·] (elem₁ ⊕ … ⊕ elem_T)`.
    Group {
        /// Constant scale applied to the folded group (value, const on
        /// the left).
        scale: Option<(f64, bool)>,
        /// The group fold.
        elems: Vec<JitElem>,
    },
}

/// One top-level fold term: `acc = acc ⊕ value`.
#[derive(Clone, Debug)]
pub struct JitTerm {
    /// `Add` or `Sub` (the first term ignores it and seeds the fold).
    pub op: BinOp,
    /// The term value.
    pub value: JitTermValue,
}

/// The fold plan for one output.
#[derive(Clone, Debug)]
pub struct JitOut {
    /// Top-level terms, applied left to right.
    pub terms: Vec<JitTerm>,
}

/// How a [`JitProgram`] evaluates its rows.
#[derive(Clone, Debug)]
pub enum JitPlan {
    /// A single-output pure tap chain, `(op, tap)` per term (the first
    /// op is ignored): the const-generic `chain<T>` micro-kernels.
    Chain(Vec<(BinOp, WsTap)>),
    /// The two-level fold template, one plan per output.
    Fold(Vec<JitOut>),
    /// The generic lane DAG over the whole [`WsProgram`].
    Dag(WsProgram),
}

/// A [`WsProgram`] compiled into a fused plan.
#[derive(Clone, Debug)]
pub struct JitProgram {
    /// The selected plan.
    pub plan: JitPlan,
    /// Distinct taps of the source [`WsProgram`] (label only).
    pub tap_count: usize,
    /// Per-input `(min, max)` relative displacement loaded.
    pub rel_bounds: Vec<Option<(i64, i64)>>,
    /// Whether the explicit AVX2 lane path is compiled in *and* the CPU
    /// supports it (detected once at build time).
    pub use_avx2: bool,
}

impl JitProgram {
    /// Compiles a [`WsProgram`]: a catalog plan (`chain<T>` or the
    /// two-level fold) when its combine DAG matches one, else the generic
    /// lane DAG.
    pub fn compile(ws: WsProgram) -> JitProgram {
        let tap_count = ws.taps.len();
        let rel_bounds = ws.rel_bounds.clone();
        let plan = match_catalog(&ws).unwrap_or(JitPlan::Dag(ws));
        JitProgram { plan, tap_count, rel_bounds, use_avx2: avx2_available() }
    }

    /// Human label fragment, e.g. `chain<3>`, `2 terms` or `dag`.
    pub fn shape_label(&self) -> String {
        match &self.plan {
            JitPlan::Chain(taps) => format!("chain<{}>", taps.len()),
            JitPlan::Fold(outs) => {
                format!("{} terms", outs.iter().map(|o| o.terms.len()).max().unwrap_or(0))
            }
            JitPlan::Dag(_) => "dag".into(),
        }
    }

    /// Slot scratch the plan needs ([`crate::ExecScratch::slots`]): one
    /// lane row per DAG slot, none for the register-resident catalog
    /// plans.
    pub fn slot_len(&self) -> usize {
        match &self.plan {
            JitPlan::Dag(ws) => ws.slot_count() * LANE_W,
            _ => 0,
        }
    }

    /// Splats the DAG's loop-invariant constants into their lane rows;
    /// call once per chunk on a `slot_len()`-element scratch.
    pub fn init_slots(&self, slots: &mut [f64]) {
        if let JitPlan::Dag(ws) = &self.plan {
            let base = ws.taps.len() + ws.index_taps.len();
            for (k, &c) in ws.consts.iter().enumerate() {
                slots[(base + k) * LANE_W..(base + k + 1) * LANE_W].fill(c);
            }
        }
    }
}

/// Whether the AVX2 lane path is available on this build and CPU.
fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", feature = "simd"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", feature = "simd")))]
    {
        false
    }
}

// ---------------------------------------------------------------------
// Template matching
// ---------------------------------------------------------------------

/// What a [`WsProgram`] slot holds during matching.
#[derive(Copy, Clone)]
enum SlotKind<'a> {
    Tap(&'a WsTap),
    Const(f64),
    Node(&'a WsNode),
}

struct Matcher<'a> {
    ws: &'a WsProgram,
    ops: usize,
}

impl<'a> Matcher<'a> {
    fn slot(&self, s: u16) -> SlotKind<'a> {
        let s = s as usize;
        let taps = self.ws.taps.len();
        let consts = taps + self.ws.index_taps.len() + self.ws.consts.len();
        if s < taps {
            SlotKind::Tap(&self.ws.taps[s])
        } else if s < consts {
            // Index slots are rejected up front, so anything between the
            // taps and the nodes is a constant here.
            SlotKind::Const(self.ws.consts[s - taps - self.ws.index_taps.len()])
        } else {
            SlotKind::Node(&self.ws.nodes[s - consts])
        }
    }

    fn charge(&mut self, n: usize) -> Option<()> {
        self.ops += n;
        (self.ops <= MAX_OPS).then_some(())
    }

    fn tap(&mut self, t: &WsTap) -> Option<WsTap> {
        self.charge(if t.scaled { 2 } else { 1 })?;
        Some(*t)
    }

    /// Matches a leaf: tap, `c·tap`, `tap ⊕ tap`, or a constant.
    fn value(&mut self, s: u16) -> Option<JitValue> {
        match self.slot(s) {
            SlotKind::Tap(t) => Some(JitValue::Tap(self.tap(t)?)),
            SlotKind::Const(c) => {
                self.charge(1)?;
                Some(JitValue::Const(c))
            }
            SlotKind::Node(WsNode::Bin { op: op @ (BinOp::Add | BinOp::Sub), a, b }) => {
                let (SlotKind::Tap(ta), SlotKind::Tap(tb)) = (self.slot(*a), self.slot(*b)) else {
                    return None;
                };
                let (a, b) = (self.tap(ta)?, self.tap(tb)?);
                self.charge(1)?;
                Some(JitValue::Pair { op: *op, a, b })
            }
            SlotKind::Node(WsNode::Bin { op: BinOp::Mul, a, b }) => {
                // An unfused `const · tap` (the weighted sum matcher only
                // fuses coefficients into single-use taps).
                let (c, t, left) = match (self.slot(*a), self.slot(*b)) {
                    (SlotKind::Const(c), SlotKind::Tap(t)) => (c, t, true),
                    (SlotKind::Tap(t), SlotKind::Const(c)) => (c, t, false),
                    _ => return None,
                };
                if t.scaled {
                    return None; // nested scaling: left to the lane DAG
                }
                let mut tap = self.tap(t)?;
                self.charge(1)?;
                tap.coeff = c;
                tap.coeff_left = left;
                tap.scaled = true;
                Some(JitValue::Tap(tap))
            }
            _ => None,
        }
    }

    /// Linearizes the left spine of `Add`/`Sub` nodes rooted at `s` into
    /// `(seed, [(op, term), …])`, mirroring the DAG's exact association.
    fn linearize(&self, s: u16) -> (u16, Vec<(BinOp, u16)>) {
        let mut rev: Vec<(BinOp, u16)> = Vec::new();
        let mut cur = s;
        while rev.len() < MAX_TERMS.max(MAX_GROUP_ELEMS) {
            match self.slot(cur) {
                SlotKind::Node(WsNode::Bin { op: op @ (BinOp::Add | BinOp::Sub), a, b }) => {
                    rev.push((*op, *b));
                    cur = *a;
                }
                _ => break,
            }
        }
        rev.reverse();
        (cur, rev)
    }

    /// Matches a group fold (second fold level): every term must be a
    /// leaf value.
    fn group_elems(&mut self, s: u16) -> Option<Vec<JitElem>> {
        let (seed, folds) = self.linearize(s);
        if folds.len() + 1 > MAX_GROUP_ELEMS {
            return None;
        }
        let mut elems = vec![JitElem { op: BinOp::Add, value: self.value(seed)? }];
        for (op, slot) in folds {
            self.charge(1)?;
            elems.push(JitElem { op, value: self.value(slot)? });
        }
        Some(elems)
    }

    /// Matches one top-level term: a leaf, or a (possibly const-scaled)
    /// group fold.
    fn term_value(&mut self, s: u16) -> Option<JitTermValue> {
        if let Some(v) = self.value(s) {
            return Some(JitTermValue::Elem(v));
        }
        match self.slot(s) {
            SlotKind::Node(WsNode::Bin { op: BinOp::Mul, a, b }) => {
                let (c, inner, left) = match (self.slot(*a), self.slot(*b)) {
                    (SlotKind::Const(c), _) => (c, *b, true),
                    (_, SlotKind::Const(c)) => (c, *a, false),
                    _ => return None,
                };
                self.charge(1)?;
                Some(JitTermValue::Group {
                    scale: Some((c, left)),
                    elems: self.group_elems(inner)?,
                })
            }
            SlotKind::Node(WsNode::Bin { op: BinOp::Add | BinOp::Sub, .. }) => {
                Some(JitTermValue::Group { scale: None, elems: self.group_elems(s)? })
            }
            _ => None,
        }
    }

    fn out(&mut self, s: u16) -> Option<JitOut> {
        let (seed, folds) = self.linearize(s);
        if folds.len() + 1 > MAX_TERMS {
            return None;
        }
        let mut terms = vec![JitTerm { op: BinOp::Add, value: self.term_value(seed)? }];
        for (op, slot) in folds {
            self.charge(1)?;
            terms.push(JitTerm { op, value: self.term_value(slot)? });
        }
        Some(JitOut { terms })
    }
}

/// Tries to match a [`WsProgram`] against the catalog plans.
/// Returns `None` when the kernel needs a shape the catalog doesn't
/// pre-compile — the caller then uses the lane DAG.
fn match_catalog(ws: &WsProgram) -> Option<JitPlan> {
    if !ws.index_taps.is_empty() || ws.outs.is_empty() || ws.outs.len() > MAX_OUTS {
        return None;
    }
    let mut m = Matcher { ws, ops: 0 };
    let outs: Vec<JitOut> = ws.outs.iter().map(|&o| m.out(o)).collect::<Option<_>>()?;
    if let [o] = &outs[..] {
        let chain: Option<Vec<(BinOp, WsTap)>> = o
            .terms
            .iter()
            .map(|t| match &t.value {
                JitTermValue::Elem(JitValue::Tap(tap)) => Some((t.op, *tap)),
                _ => None,
            })
            .collect();
        if let Some(chain) = chain {
            return Some(JitPlan::Chain(chain));
        }
    }
    Some(JitPlan::Fold(outs))
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/// A block of `W` consecutive grid points processed together. Every
/// operation applies the identical scalar IEEE op per lane — lane width
/// only batches points, it never changes any point's op sequence.
trait Lanes: Copy {
    /// Points per block.
    const W: usize;
    /// # Safety
    /// `p .. p + W` must be readable.
    unsafe fn load(p: *const f64) -> Self;
    fn splat(c: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// Flips the sign bit of every lane, bitwise identical to scalar
    /// `-x` (NaN payloads included).
    fn neg(self) -> Self;
    /// # Safety
    /// `p .. p + W` must be writable.
    unsafe fn store(self, p: *mut f64);
}

/// Portable lanes: `N` points as a plain array, whose fixed-width loops
/// the compiler auto-vectorizes. `[f64; LANE_W]` is the portable block
/// type; `[f64; 1]` runs row remainders (and rows shorter than a block)
/// through the same generic block code one point at a time.
impl<const N: usize> Lanes for [f64; N] {
    const W: usize = N;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        p.cast::<[f64; N]>().read_unaligned()
    }
    #[inline(always)]
    fn splat(c: f64) -> Self {
        [c; N]
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        zip(self, o, |a, b| a + b)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        zip(self, o, |a, b| a - b)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        zip(self, o, |a, b| a * b)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        zip(self, o, |a, b| a / b)
    }
    #[inline(always)]
    fn neg(self) -> Self {
        zip(self, self, |a, _| -a)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        p.cast::<[f64; N]>().write_unaligned(self);
    }
}

#[inline(always)]
fn zip<const N: usize>(mut a: [f64; N], b: [f64; N], f: impl Fn(f64, f64) -> f64) -> [f64; N] {
    for i in 0..N {
        a[i] = f(a[i], b[i]);
    }
    a
}

/// Explicit AVX2 lanes (two `__m256d` halves). `vaddpd`/`vsubpd`/
/// `vmulpd`/`vdivpd` are lane-wise IEEE ops — no FMA contraction, so
/// results match the scalar path bit for bit.
#[cfg(all(target_arch = "x86_64", feature = "simd"))]
mod avx2 {
    use super::Lanes;
    use std::arch::x86_64::*;

    #[derive(Copy, Clone)]
    pub struct Avx2(__m256d, __m256d);

    // SAFETY (every `unsafe` block below): the intrinsics need AVX2,
    // and this type is only used where `is_x86_feature_detected!` found
    // it (`JitProgram::use_avx2`, the lane test).
    impl Lanes for Avx2 {
        const W: usize = super::LANE_W;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Avx2(_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)))
        }
        #[inline(always)]
        fn splat(c: f64) -> Self {
            unsafe { Avx2(_mm256_set1_pd(c), _mm256_set1_pd(c)) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_add_pd(self.0, o.0), _mm256_add_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_sub_pd(self.0, o.0), _mm256_sub_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_mul_pd(self.0, o.0), _mm256_mul_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            unsafe { Avx2(_mm256_div_pd(self.0, o.0), _mm256_div_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn neg(self) -> Self {
            // XOR with −0.0 flips only the sign bit, like scalar `-x`.
            unsafe {
                let m = _mm256_set1_pd(-0.0);
                Avx2(_mm256_xor_pd(self.0, m), _mm256_xor_pd(self.1, m))
            }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0);
            _mm256_storeu_pd(p.add(4), self.1);
        }
    }
}

/// Loads and scales one tap for the block at `x`.
///
/// # Safety
/// Caller validated `flats[input] + rel + x .. + W` per
/// [`JitProgram::rel_bounds`].
#[inline(always)]
unsafe fn tap_block<L: Lanes>(t: &WsTap, inputs: &[&[f64]], flats: &[i64], x: i64) -> L {
    let f = *flats.get_unchecked(t.input as usize) + t.rel + x;
    let v = L::load(inputs.get_unchecked(t.input as usize).as_ptr().offset(f as isize));
    // The multiplication operand order is semantic (NaN payload
    // propagation matches the bytecode).
    if !t.scaled {
        v
    } else if t.coeff_left {
        L::splat(t.coeff).mul(v)
    } else {
        v.mul(L::splat(t.coeff))
    }
}

#[inline(always)]
fn bin_op<L: Lanes>(op: BinOp, a: L, b: L) -> L {
    match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b),
        BinOp::Div => a.div(b),
    }
}

/// A fold step `acc ⊕ v`. Catalog folds only hold `Add`/`Sub`; the
/// two-way select keeps their loops branch-light (the four-way
/// [`bin_op`] measured slower on the chain and fold plans).
#[inline(always)]
fn fold_op<L: Lanes>(op: BinOp, acc: L, v: L) -> L {
    match op {
        BinOp::Sub => acc.sub(v),
        _ => acc.add(v),
    }
}

/// # Safety
/// See [`tap_block`].
#[inline(always)]
unsafe fn value_block<L: Lanes>(v: &JitValue, inputs: &[&[f64]], flats: &[i64], x: i64) -> L {
    match v {
        JitValue::Tap(t) => tap_block(t, inputs, flats, x),
        JitValue::Pair { op, a, b } => {
            fold_op(*op, tap_block::<L>(a, inputs, flats, x), tap_block::<L>(b, inputs, flats, x))
        }
        JitValue::Const(c) => L::splat(*c),
    }
}

/// # Safety
/// See [`tap_block`].
#[inline(always)]
unsafe fn term_block<L: Lanes>(t: &JitTermValue, inputs: &[&[f64]], flats: &[i64], x: i64) -> L {
    match t {
        JitTermValue::Elem(v) => value_block(v, inputs, flats, x),
        JitTermValue::Group { scale, elems } => {
            let mut acc = value_block::<L>(&elems[0].value, inputs, flats, x);
            for e in &elems[1..] {
                acc = fold_op(e.op, acc, value_block(&e.value, inputs, flats, x));
            }
            match *scale {
                Some((c, true)) => L::splat(c).mul(acc),
                Some((c, false)) => acc.mul(L::splat(c)),
                None => acc,
            }
        }
    }
}

/// One two-level-fold block at `x`, stored to `out + x`.
///
/// # Safety
/// See [`tap_block`]; `out + x .. + W` must be writable.
#[inline(always)]
unsafe fn fold_block<L: Lanes>(
    plan: &JitOut,
    inputs: &[&[f64]],
    flats: &[i64],
    out: *mut f64,
    x: i64,
) {
    let mut acc = term_block::<L>(&plan.terms[0].value, inputs, flats, x);
    for t in &plan.terms[1..] {
        acc = fold_op(t.op, acc, term_block(&t.value, inputs, flats, x));
    }
    acc.store(out.offset(x as isize));
}

/// General fused row kernel: `L`-blocks, then the remainder one point
/// at a time through the same block code.
///
/// Generic core only — the callable kernels are the monomorphizing
/// per-ISA entry points ([`eval_row_portable`], `eval_row_avx2`), which
/// each row kernel must inline into: a `std::arch`
/// intrinsic only compiles to its instruction inside a function carrying
/// the matching `#[target_feature]`; an out-of-line generic body would
/// turn every lane op of the AVX2 instantiation into a real function
/// call with `__m256d` operands spilled through memory (measured ~9×
/// *slower* on jacobi-1d).
///
/// # Safety
/// Caller validated the row per [`JitProgram::rel_bounds`]; `out` must
/// cover `of .. of + len`.
#[inline(always)]
unsafe fn fold_row<L: Lanes>(
    plan: &JitOut,
    inputs: &[&[f64]],
    flats: &[i64],
    out: &mut [f64],
    of: i64,
    len: i64,
) {
    let out = out.as_mut_ptr().offset(of as isize);
    let mut x = 0i64;
    while x + L::W as i64 <= len {
        fold_block::<L>(plan, inputs, flats, out, x);
        x += L::W as i64;
    }
    for x in x..len {
        fold_block::<[f64; 1]>(plan, inputs, flats, out, x);
    }
}

/// One pure-chain block at `x`: `T` taps folded left to right, fully
/// unrolled.
///
/// # Safety
/// See [`fold_block`]; `taps.len() == T`.
#[inline(always)]
unsafe fn chain_block<L: Lanes, const T: usize>(
    taps: &[(BinOp, WsTap)],
    inputs: &[&[f64]],
    flats: &[i64],
    out: *mut f64,
    x: i64,
) {
    let mut acc = tap_block::<L>(&taps.get_unchecked(0).1, inputs, flats, x);
    for i in 1..T {
        let (op, t) = taps.get_unchecked(i);
        acc = fold_op(*op, acc, tap_block(t, inputs, flats, x));
    }
    acc.store(out.offset(x as isize));
}

/// Const-generic pure-chain row kernel. Generic core — see [`fold_row`]
/// on why it must inline into the per-ISA entry points.
///
/// # Safety
/// Same contract as [`fold_row`]; the plan must be a pure tap chain of
/// exactly `T` terms.
#[inline(always)]
unsafe fn chain_row<L: Lanes, const T: usize>(
    taps: &[(BinOp, WsTap)],
    inputs: &[&[f64]],
    flats: &[i64],
    out: &mut [f64],
    of: i64,
    len: i64,
) {
    debug_assert_eq!(taps.len(), T);
    // A local copy lets the taps live in registers across the row: the
    // stores through `out` cannot alias it.
    let taps: [(BinOp, WsTap); T] = std::array::from_fn(|i| *taps.get_unchecked(i));
    let out = out.as_mut_ptr().offset(of as isize);
    let mut x = 0i64;
    while x + L::W as i64 <= len {
        chain_block::<L, T>(&taps, inputs, flats, out, x);
        x += L::W as i64;
    }
    for x in x..len {
        chain_block::<[f64; 1], T>(&taps, inputs, flats, out, x);
    }
}

/// One lane-DAG block at `x`. Every slot of the [`WsProgram`]
/// owns one [`LANE_W`]-wide row of `slots` (taps, index values, consts,
/// then nodes): the taps are loaded and scaled into their rows, index
/// rows are iota- or broadcast-filled, each node is one lane op over its
/// operand rows, and the output rows are stored. Slot rows never alias:
/// a node's operands have strictly smaller slot ids than its
/// destination.
///
/// # Safety
/// See [`dag_row`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn dag_block<L: Lanes>(
    ws: &WsProgram,
    inputs: &[&[f64]],
    flats: &[i64],
    outs: &mut [&mut [f64]],
    out_flats: &[i64],
    point: &[i64],
    x: i64,
    slots: *mut f64,
) {
    let index_base = ws.taps.len();
    let node_base = index_base + ws.index_taps.len() + ws.consts.len();
    let last = point.len() - 1;
    let row = |s: usize| slots.add(s * LANE_W);
    for (k, t) in ws.taps.iter().enumerate() {
        tap_block::<L>(t, inputs, flats, x).store(row(k));
    }
    for (k, &(dim, offset)) in ws.index_taps.iter().enumerate() {
        let coord = *point.get_unchecked(dim as usize) + offset;
        for j in 0..L::W {
            // Varies along the row only for the last dimension.
            let c = if dim as usize == last { coord + x + j as i64 } else { coord };
            *row(index_base + k).add(j) = c as f64;
        }
    }
    for (j, n) in ws.nodes.iter().enumerate() {
        let v = match *n {
            WsNode::Bin { op, a, b } => {
                bin_op(op, L::load(row(a as usize)), L::load(row(b as usize)))
            }
            WsNode::Neg { a } => L::load(row(a as usize)).neg(),
        };
        v.store(row(node_base + j));
    }
    for (o, &s) in ws.outs.iter().enumerate() {
        let of = *out_flats.get_unchecked(o) + x;
        L::load(row(s as usize)).store(outs.get_unchecked_mut(o).as_mut_ptr().offset(of as isize));
    }
}

/// Lane-DAG row kernel. Generic core — see [`fold_row`] on why it must
/// inline into the per-ISA entry points.
///
/// # Safety
/// Caller validated the row per [`JitProgram::rel_bounds`],
/// `out_flats[o] .. out_flats[o] + len` is in bounds for `outs[o]`, and
/// `slots` holds [`JitProgram::slot_len`] elements prepared by
/// [`JitProgram::init_slots`]. `point` is the row-start coordinate.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn dag_row<L: Lanes>(
    ws: &WsProgram,
    inputs: &[&[f64]],
    flats: &[i64],
    outs: &mut [&mut [f64]],
    out_flats: &[i64],
    point: &[i64],
    len: i64,
    slots: &mut [f64],
) {
    let slots = slots.as_mut_ptr();
    let mut x = 0i64;
    while x + L::W as i64 <= len {
        dag_block::<L>(ws, inputs, flats, outs, out_flats, point, x, slots);
        x += L::W as i64;
    }
    for x in x..len {
        dag_block::<[f64; 1]>(ws, inputs, flats, outs, out_flats, point, x, slots);
    }
}

/// Expands to the `taps.len()` match dispatching a chain to its
/// const-generic `chain_row::<L, T>` monomorphization.
macro_rules! chain_match {
    ($L:ty, $taps:expr, $inputs:expr, $flats:expr, $out:expr, $of:expr, $len:expr) => {
        match $taps.len() {
            1 => chain_row::<$L, 1>($taps, $inputs, $flats, $out, $of, $len),
            2 => chain_row::<$L, 2>($taps, $inputs, $flats, $out, $of, $len),
            3 => chain_row::<$L, 3>($taps, $inputs, $flats, $out, $of, $len),
            4 => chain_row::<$L, 4>($taps, $inputs, $flats, $out, $of, $len),
            5 => chain_row::<$L, 5>($taps, $inputs, $flats, $out, $of, $len),
            6 => chain_row::<$L, 6>($taps, $inputs, $flats, $out, $of, $len),
            7 => chain_row::<$L, 7>($taps, $inputs, $flats, $out, $of, $len),
            8 => chain_row::<$L, 8>($taps, $inputs, $flats, $out, $of, $len),
            9 => chain_row::<$L, 9>($taps, $inputs, $flats, $out, $of, $len),
            10 => chain_row::<$L, 10>($taps, $inputs, $flats, $out, $of, $len),
            11 => chain_row::<$L, 11>($taps, $inputs, $flats, $out, $of, $len),
            12 => chain_row::<$L, 12>($taps, $inputs, $flats, $out, $of, $len),
            13 => chain_row::<$L, 13>($taps, $inputs, $flats, $out, $of, $len),
            14 => chain_row::<$L, 14>($taps, $inputs, $flats, $out, $of, $len),
            15 => chain_row::<$L, 15>($taps, $inputs, $flats, $out, $of, $len),
            16 => chain_row::<$L, 16>($taps, $inputs, $flats, $out, $of, $len),
            _ => unreachable!("chain length bounded by MAX_TERMS"),
        }
    };
}

/// Evaluates one row through the plan's row kernel over `L`-blocks.
/// Generic core — see [`fold_row`] on why it must inline into the
/// per-ISA entry points ([`eval_row_portable`], `eval_row_avx2`).
///
/// # Safety
/// See [`JitProgram::eval_row`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn plan_row<L: Lanes>(
    plan: &JitPlan,
    inputs: &[&[f64]],
    flats: &[i64],
    outs: &mut [&mut [f64]],
    out_flats: &[i64],
    point: &[i64],
    len: i64,
    slots: &mut [f64],
) {
    match plan {
        JitPlan::Chain(taps) => chain_match!(L, taps, inputs, flats, outs[0], out_flats[0], len),
        JitPlan::Fold(plans) => {
            for (o, plan) in plans.iter().enumerate() {
                fold_row::<L>(plan, inputs, flats, outs[o], out_flats[o], len);
            }
        }
        JitPlan::Dag(ws) => dag_row::<L>(ws, inputs, flats, outs, out_flats, point, len, slots),
    }
}

/// Portable entry point: the row kernels auto-vectorized for the
/// build's baseline ISA.
///
/// # Safety
/// See [`JitProgram::eval_row`].
#[allow(clippy::too_many_arguments)]
#[inline(never)]
unsafe fn eval_row_portable(
    plan: &JitPlan,
    inputs: &[&[f64]],
    flats: &[i64],
    outs: &mut [&mut [f64]],
    out_flats: &[i64],
    point: &[i64],
    len: i64,
    slots: &mut [f64],
) {
    plan_row::<[f64; LANE_W]>(plan, inputs, flats, outs, out_flats, point, len, slots)
}

/// AVX2 entry point. `#[target_feature]` compiles the inlined generic
/// cores (and the `_mm256_*` intrinsics inside them) with AVX2 codegen,
/// and is itself a hard inline boundary from the non-AVX2 caller.
///
/// # Safety
/// Caller checked `is_x86_feature_detected!("avx2")` (recorded in
/// [`JitProgram::use_avx2`]); otherwise see [`JitProgram::eval_row`].
#[cfg(all(target_arch = "x86_64", feature = "simd"))]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn eval_row_avx2(
    plan: &JitPlan,
    inputs: &[&[f64]],
    flats: &[i64],
    outs: &mut [&mut [f64]],
    out_flats: &[i64],
    point: &[i64],
    len: i64,
    slots: &mut [f64],
) {
    plan_row::<avx2::Avx2>(plan, inputs, flats, outs, out_flats, point, len, slots)
}

impl JitProgram {
    /// Evaluates one stride-1 row of `len` points for every output.
    ///
    /// # Safety
    /// The caller validated (per [`JitProgram::rel_bounds`]) that every
    /// `flats[i] + rel + x` for `x < len` is in bounds for `inputs[i]`
    /// and that `out_flats[o] .. out_flats[o] + len` is in bounds for
    /// `outs[o]`; `slots` holds [`JitProgram::slot_len`] elements
    /// prepared by [`JitProgram::init_slots`]. `point` is the row-start
    /// coordinate (it drives `Index` slots).
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn eval_row(
        &self,
        inputs: &[&[f64]],
        flats: &[i64],
        outs: &mut [&mut [f64]],
        out_flats: &[i64],
        point: &[i64],
        len: i64,
        slots: &mut [f64],
    ) {
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        if self.use_avx2 {
            // SAFETY: `use_avx2` records the runtime AVX2 detection.
            return eval_row_avx2(&self.plan, inputs, flats, outs, out_flats, point, len, slots);
        }
        eval_row_portable(&self.plan, inputs, flats, outs, out_flats, point, len, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specialize::{SpecializedKernel, Tier, TierKind};

    fn heat_jit() -> SpecializedKernel {
        let mut m = sten_stencil::samples::heat_2d(16, 0.1);
        let k = crate::specialize::tests::kernel_of(
            &mut m,
            "heat",
            crate::program::InputDesc::new(vec![18, 18], vec![-1, -1]),
        );
        SpecializedKernel::specialize(k, Some(TierKind::TemplateJit))
    }

    #[test]
    fn heat_matches_term_template() {
        let spec = heat_jit();
        assert_eq!(spec.tier_kind(), TierKind::TemplateJit);
        let Tier::TemplateJit(jit) = &spec.tier else { panic!() };
        // heat-2d: `c + s·(((u+d)+(l+r)) − k·c)` — one plain term plus
        // one scaled group. The group's left spine linearizes through
        // the leading tap pair: [tap, tap, pair, scaled tap], preserving
        // the exact left-nested association.
        let JitPlan::Fold(outs) = &jit.plan else { panic!("heat is a fold: {jit:?}") };
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].terms.len(), 2);
        let JitTermValue::Group { scale: Some(_), elems } = &outs[0].terms[1].value else {
            panic!("second term is a scaled group: {jit:?}");
        };
        assert_eq!(elems.len(), 4);
        assert!(matches!(elems[2].value, JitValue::Pair { .. }));
        assert!(matches!(elems[3].value, JitValue::Tap(WsTap { scaled: true, .. })));
    }

    #[test]
    fn shape_label_reports_chain_and_terms() {
        let spec = heat_jit();
        let Tier::TemplateJit(jit) = &spec.tier else { panic!() };
        assert_eq!(jit.shape_label(), "2 terms");
    }

    #[test]
    fn lane_neg_and_div_match_scalar_bitwise() {
        let xs = std::hint::black_box([
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::from_bits(0x7ff8_0000_0000_1234),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::MIN_POSITIVE / 3.0,
            -3.25,
        ]);
        let ys = std::hint::black_box([3.0, -7.0, 0.0, 2.5, -0.0, 1e-300, f64::NAN, -1.0]);
        unsafe fn lanes<L: Lanes>(xs: &[f64; LANE_W], ys: &[f64; LANE_W]) -> Vec<(u64, u64)> {
            let (mut neg, mut div) = ([0.0; LANE_W], [0.0; LANE_W]);
            for i in (0..LANE_W).step_by(L::W) {
                let (x, y) = (L::load(xs.as_ptr().add(i)), L::load(ys.as_ptr().add(i)));
                x.neg().store(neg.as_mut_ptr().add(i));
                x.div(y).store(div.as_mut_ptr().add(i));
            }
            neg.iter().zip(&div).map(|(n, d)| (n.to_bits(), d.to_bits())).collect()
        }
        let want: Vec<(u64, u64)> =
            xs.iter().zip(&ys).map(|(x, y)| ((-x).to_bits(), (x / y).to_bits())).collect();
        assert_eq!(want[5].0, 0x7ff0_0000_0000_0001, "scalar `-x` flips only the sign bit");
        // SAFETY: every lane type reads and writes within the two
        // `LANE_W` arrays; the AVX2 type runs only where it is detected.
        assert_eq!(unsafe { lanes::<[f64; 1]>(&xs, &ys) }, want);
        assert_eq!(unsafe { lanes::<[f64; LANE_W]>(&xs, &ys) }, want);
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        if avx2_available() {
            assert_eq!(unsafe { lanes::<avx2::Avx2>(&xs, &ys) }, want);
        }
    }
}
