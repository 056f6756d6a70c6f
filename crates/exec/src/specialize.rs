//! Kernel specialization: executor tiers over [`KernelProgram`].
//!
//! `KernelProgram::eval` pays a full `match` dispatch, bounds-checked
//! register-file traffic, and re-executed loop-invariant `Const`
//! instructions at every grid point — exactly the address-computation and
//! interpretation overheads whose elimination the source paper credits
//! for its performance. This module compiles each kernel **once, at
//! pipeline-build time**, into the fastest applicable tier of a
//! three-rung ladder:
//!
//! 1. **[`TierKind::Eval`]** — the seed interpreter path, kept as the
//!    reference semantics (the oracle) and selectable for A/B
//!    measurement.
//! 2. **[`TierKind::OptBytecode`]** — bytecode-level CSE (identical
//!    `LoadInput`/`Const`/`Index` deduped), constant folding of
//!    `Const ⊕ Const`, hoisting of loop-invariant `Const` writes into a
//!    pre-initialized register file, dead-code elimination, and an
//!    unchecked (bounds-validated once per chunk) evaluation loop. It runs
//!    every kernel, including those with runtime scalar arguments.
//! 3. **[`TierKind::TemplateJit`]** — one fused row kernel per apply (see
//!    [`crate::jit`]) for every kernel in **weighted sum form**: each
//!    multiplication has a constant operand and each division a constant
//!    divisor, so the kernel is an affine function of its loads (and
//!    `Index` values). jacobi/heat/wave all qualify, as do horizontally
//!    fused multi-output applies. `match_weighted_sum` is the analysis:
//!    it turns the optimized bytecode into a [`WsProgram`] — a flat tap
//!    table (`(input, rel, coeff)`) plus a combine DAG that preserves the
//!    bytecode's exact association — which the JIT compiles into a
//!    catalog micro-kernel or, failing that, its generic lane-DAG plan.
//!
//! All tiers are bit-for-bit identical to [`KernelProgram::eval`]: the
//! transformations only deduplicate or pre-compute identical operations
//! and reorder *independent* ones — no floating-point expression is
//! reassociated. The workspace property suite enforces this on random
//! stencils, serial and parallel.
//!
//! Inner loops are rank-specialized: 1D/2D/3D row walkers are
//! monomorphized per tier (the generic odometer only drives rank ≥ 4).
//!
//! Tier selection is automatic (`TemplateJit` when the kernel has a
//! weighted sum form, else `OptBytecode`) and can be overridden with the
//! `STEN_EXEC_TIER` environment variable (`eval` | `opt-bytecode` |
//! `template-jit` | `auto`) or per pipeline via
//! [`crate::Pipeline::respecialize`]. Forcing `template-jit` on a kernel
//! without a weighted sum form falls back to `opt-bytecode`.

use crate::jit::JitProgram;
use crate::program::{BinOp, CompiledKernel, ExecScratch, Instr};
use std::collections::HashMap;
use std::sync::Arc;
use sten_ir::Bounds;

/// Names an executor tier (the ladder: `eval` → `opt-bytecode` →
/// `template-jit`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TierKind {
    /// The seed `KernelProgram::eval` interpreter (reference semantics).
    Eval,
    /// Pre-optimized bytecode: CSE + constant folding + const hoisting.
    OptBytecode,
    /// Fused row kernels over the weighted sum analysis.
    TemplateJit,
}

impl TierKind {
    /// The stable name used by `STEN_EXEC_TIER`, `--timing` reports and
    /// `BENCH_exec.json`.
    pub fn name(self) -> &'static str {
        match self {
            TierKind::Eval => "eval",
            TierKind::OptBytecode => "opt-bytecode",
            TierKind::TemplateJit => "template-jit",
        }
    }

    /// Parses a tier name (`auto`/empty → `None`).
    pub fn parse(s: &str) -> Result<Option<TierKind>, String> {
        match s.trim() {
            "" | "auto" => Ok(None),
            "eval" => Ok(Some(TierKind::Eval)),
            "opt" | "opt-bytecode" => Ok(Some(TierKind::OptBytecode)),
            "jit" | "template-jit" => Ok(Some(TierKind::TemplateJit)),
            other => Err(format!(
                "unknown STEN_EXEC_TIER '{other}' \
                 (expected auto|eval|opt-bytecode|template-jit)"
            )),
        }
    }

    /// Reads the `STEN_EXEC_TIER` override (unset/`auto` → `None`;
    /// invalid values are reported once to stderr and ignored).
    pub fn from_env() -> Option<TierKind> {
        match std::env::var("STEN_EXEC_TIER") {
            Ok(v) => match TierKind::parse(&v) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("// sten-exec: {e}; using auto");
                    None
                }
            },
            Err(_) => None,
        }
    }
}

/// Pre-optimized bytecode: per-point instructions with all
/// loop-invariant `Const`s hoisted into a pre-initialized register file.
#[derive(Clone, Debug)]
pub struct OptProgram {
    /// Per-point instructions (never `Const`).
    pub instrs: Vec<Instr>,
    /// `(register, value)` pairs written once before the point loop.
    pub preinit: Vec<(u32, f64)>,
    /// Registers holding runtime scalar arguments, preloaded from
    /// [`ExecScratch::scalars`] once per chunk (like `preinit`, but the
    /// values are only known at execution time).
    pub scalar_regs: Vec<u32>,
    /// Registers needed.
    pub num_regs: u32,
    /// Registers holding the per-point results.
    pub outputs: Vec<u32>,
    /// Whether any `Index` instruction survives (needs the coordinate).
    pub has_index: bool,
    /// Per-input `(min, max)` relative displacement actually loaded
    /// (`None` when the input is never loaded).
    pub rel_bounds: Vec<Option<(i64, i64)>>,
}

impl OptProgram {
    /// Evaluates one point. `x` is the offset along the last (stride-1)
    /// dimension from the row-start `flats`/`point`.
    ///
    /// # Safety
    /// Register indices were validated at build time; the caller must
    /// have validated (per [`OptProgram::rel_bounds`]) that every
    /// `flats[i] + rel + x` this row produces is in bounds for
    /// `inputs[i]`.
    #[inline(always)]
    unsafe fn eval(
        &self,
        inputs: &[&[f64]],
        flats: &[i64],
        point: &[i64],
        x: i64,
        regs: &mut [f64],
    ) {
        for instr in &self.instrs {
            match *instr {
                Instr::LoadInput { input, rel, dst } => {
                    *regs.get_unchecked_mut(dst as usize) = *inputs
                        .get_unchecked(input as usize)
                        .get_unchecked((*flats.get_unchecked(input as usize) + rel + x) as usize);
                }
                Instr::Bin { op, a, b, dst } => {
                    *regs.get_unchecked_mut(dst as usize) =
                        op.eval(*regs.get_unchecked(a as usize), *regs.get_unchecked(b as usize));
                }
                Instr::Neg { a, dst } => {
                    *regs.get_unchecked_mut(dst as usize) = -*regs.get_unchecked(a as usize);
                }
                Instr::Index { dim, offset, dst } => {
                    let coord = *point.get_unchecked(dim as usize)
                        + offset
                        + if dim as usize == point.len() - 1 { x } else { 0 };
                    *regs.get_unchecked_mut(dst as usize) = coord as f64;
                }
                // Hoisted into `preinit` by construction.
                Instr::Const { v, dst } => *regs.get_unchecked_mut(dst as usize) = v,
            }
        }
    }
}

/// One tap of a weighted sum: a load, optionally fused with its constant
/// coefficient. `coeff_left` records which multiplication operand the
/// constant was, so even NaN payload propagation matches the bytecode.
#[derive(Copy, Clone, Debug)]
pub struct WsTap {
    /// Which apply input the tap reads.
    pub input: u32,
    /// Constant flat displacement from the centre point.
    pub rel: i64,
    /// Fused coefficient (ignored unless `scaled`).
    pub coeff: f64,
    /// Whether the constant was the left multiplication operand.
    pub coeff_left: bool,
    /// Whether the tap is multiplied by `coeff`.
    pub scaled: bool,
}

/// One combine step over the slot array (taps, then consts, then node
/// results). Entry `i` writes slot `taps + consts + i`.
#[derive(Clone, Debug)]
pub enum WsNode {
    /// `slot[dst] = slot[a] ⊕ slot[b]`.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
    },
    /// `slot[dst] = -slot[a]`.
    Neg {
        /// Operand slot.
        a: u16,
    },
}

/// A kernel in weighted sum form: the analysis [`crate::jit`] compiles
/// into a fused plan. Slot layout: taps, then index taps, then consts,
/// then combine nodes.
#[derive(Clone, Debug)]
pub struct WsProgram {
    /// The taps, loaded (and coefficient-scaled) each point.
    pub taps: Vec<WsTap>,
    /// `Index` slots `(dim, offset)`: the coordinate along `dim` plus
    /// `offset`, as f64 (slots `taps.len()..`). A last-dimension index
    /// varies along the row (iota fill); any other dimension is
    /// row-invariant (broadcast).
    pub index_taps: Vec<(u8, i64)>,
    /// Loop-invariant constant slot values.
    pub consts: Vec<f64>,
    /// Combine schedule preserving the bytecode's exact association.
    pub nodes: Vec<WsNode>,
    /// Slots holding the per-point results, one per apply output
    /// (horizontally fused applies have several).
    pub outs: Vec<u16>,
    /// Per-input `(min, max)` relative displacement loaded.
    pub rel_bounds: Vec<Option<(i64, i64)>>,
}

impl WsProgram {
    /// Slots per point: taps, index values, consts, combine nodes.
    pub(crate) fn slot_count(&self) -> usize {
        self.taps.len() + self.index_taps.len() + self.consts.len() + self.nodes.len()
    }
}

/// The executable form a kernel was specialized into.
///
/// Tier payloads are `Arc`-shared: cloning a [`SpecializedKernel`] —
/// which the pipeline does when it splits an apply into
/// interior/boundary-shell region steps — shares the same tap tables
/// and combine schedules instead of rebuilding per-shell state.
#[derive(Clone, Debug)]
pub enum Tier {
    /// Reference interpreter over the original bytecode.
    Eval,
    /// Pre-optimized bytecode.
    OptBytecode(Arc<OptProgram>),
    /// Template-JIT fused plan (see [`crate::jit`]).
    TemplateJit(Arc<JitProgram>),
}

/// A [`CompiledKernel`] plus its chosen executor tier.
///
/// Dereferences to the underlying kernel, so geometry and cost-model
/// consumers (`.program`, `.range`, `.points()`) are unchanged.
#[derive(Clone, Debug)]
pub struct SpecializedKernel {
    /// The original kernel (geometry + reference bytecode).
    pub kernel: CompiledKernel,
    /// The selected tier.
    pub tier: Tier,
}

impl std::ops::Deref for SpecializedKernel {
    type Target = CompiledKernel;
    fn deref(&self) -> &CompiledKernel {
        &self.kernel
    }
}

impl SpecializedKernel {
    /// Specializes `kernel` into the fastest applicable tier (`force`
    /// pins one; forcing `TemplateJit` on a kernel without a
    /// weighted sum form falls back to `OptBytecode`).
    pub fn specialize(kernel: CompiledKernel, force: Option<TierKind>) -> SpecializedKernel {
        let tier = match force {
            Some(TierKind::Eval) => Tier::Eval,
            Some(TierKind::OptBytecode) => Tier::OptBytecode(Arc::new(optimize(&kernel))),
            Some(TierKind::TemplateJit) | None => {
                let opt = optimize(&kernel);
                match match_weighted_sum(&opt) {
                    Some(ws) => Tier::TemplateJit(Arc::new(JitProgram::compile(ws))),
                    None => Tier::OptBytecode(Arc::new(opt)),
                }
            }
        };
        SpecializedKernel { kernel, tier }
    }

    /// The selected tier.
    pub fn tier_kind(&self) -> TierKind {
        match &self.tier {
            Tier::Eval => TierKind::Eval,
            Tier::OptBytecode(_) => TierKind::OptBytecode,
            Tier::TemplateJit(_) => TierKind::TemplateJit,
        }
    }

    /// A one-line human description, e.g.
    /// `template-jit (3 taps, chain<3>; rank 1)` or
    /// `template-jit (26 taps, dag; rank 2)`.
    pub fn tier_label(&self) -> String {
        match &self.tier {
            Tier::Eval => {
                format!("eval ({} instrs; rank {})", self.program.instrs.len(), self.program.rank)
            }
            Tier::OptBytecode(o) => format!(
                "opt-bytecode ({} instrs, {} hoisted consts; rank {})",
                o.instrs.len(),
                o.preinit.len(),
                self.program.rank
            ),
            Tier::TemplateJit(j) => format!(
                "template-jit ({} taps, {}; rank {})",
                j.tap_count,
                j.shape_label(),
                self.program.rank
            ),
        }
    }

    /// Executes over `inputs` into `outs`, serially, with fresh scratch.
    pub fn execute(&self, inputs: &[&[f64]], outs: &mut [&mut [f64]]) {
        let range = self.range.clone();
        self.execute_rows(inputs, outs, &range, &mut ExecScratch::new());
    }

    /// Executes with `threads` scoped workers, chunking the longest
    /// dimension (see [`crate::program::split_longest_dim`]).
    pub fn execute_parallel(&self, inputs: &[&[f64]], outs: &mut [&mut [f64]], threads: usize) {
        let subs = crate::program::split_longest_dim(&self.range, threads);
        if threads <= 1 || subs.len() <= 1 {
            self.execute(inputs, outs);
            return;
        }
        crate::program::scoped_parallel(subs, outs, |sub, outs| {
            self.execute_rows(inputs, outs, sub, &mut ExecScratch::new());
        });
    }

    /// Executes rows of `range` (a sub-range of `self.range`) through the
    /// selected tier, reusing `scratch`.
    ///
    /// # Panics
    /// Panics if buffer lengths don't cover the displacements the kernel
    /// loads/stores over `range`.
    pub fn execute_rows(
        &self,
        inputs: &[&[f64]],
        outs: &mut [&mut [f64]],
        range: &Bounds,
        scratch: &mut ExecScratch,
    ) {
        if range.0.iter().any(|&(lb, ub)| ub <= lb) {
            return;
        }
        match &self.tier {
            Tier::Eval => self.kernel.execute_rows(inputs, outs, range, scratch),
            Tier::OptBytecode(opt) => {
                self.validate(inputs, outs, range, &opt.rel_bounds);
                scratch.ensure(
                    opt.num_regs as usize,
                    0,
                    self.inputs.len(),
                    self.outputs.len(),
                    range.rank(),
                );
                for &(r, v) in &opt.preinit {
                    scratch.regs[r as usize] = v;
                }
                crate::program::preload_scalars(&opt.scalar_regs, scratch);
                walk_rows(&self.kernel, range, scratch, |sc, len| unsafe {
                    for x in 0..len {
                        opt.eval(inputs, &sc.flats, &sc.point, x, &mut sc.regs);
                        for (o, &reg) in opt.outputs.iter().enumerate() {
                            *outs[o].get_unchecked_mut((sc.out_flats[o] + x) as usize) =
                                *sc.regs.get_unchecked(reg as usize);
                        }
                    }
                });
            }
            Tier::TemplateJit(jit) => {
                self.validate(inputs, outs, range, &jit.rel_bounds);
                // Only the lane DAG needs slot rows; the catalog plans
                // keep every intermediate in registers.
                scratch.ensure(
                    0,
                    jit.slot_len(),
                    self.inputs.len(),
                    self.outputs.len(),
                    range.rank(),
                );
                jit.init_slots(&mut scratch.slots);
                // SAFETY: `validate` checked every row of `range` against
                // `jit.rel_bounds` and the output extents; `ensure` sized
                // the slots to `slot_len()` and `init_slots` filled them.
                walk_rows(&self.kernel, range, scratch, |sc, len| unsafe {
                    jit.eval_row(
                        inputs,
                        &sc.flats,
                        outs,
                        &sc.out_flats,
                        &sc.point,
                        len,
                        &mut sc.slots,
                    );
                });
            }
        }
    }

    /// Validates, once per chunk, that every flat index the unchecked
    /// tiers will form over `range` is in bounds — the strides are
    /// positive, so corners bound the whole range.
    fn validate(
        &self,
        inputs: &[&[f64]],
        outs: &[&mut [f64]],
        range: &Bounds,
        rel_bounds: &[Option<(i64, i64)>],
    ) {
        let lower = range.lower();
        let upper: Vec<i64> = range.0.iter().map(|&(_, ub)| ub - 1).collect();
        for (i, desc) in self.inputs.iter().enumerate() {
            let Some((rel_min, rel_max)) = rel_bounds.get(i).copied().flatten() else {
                continue;
            };
            let lo = desc.flat(&lower) + rel_min;
            let hi = desc.flat(&upper) + rel_max;
            assert!(
                lo >= 0 && hi < inputs[i].len() as i64,
                "input {i}: flat range [{lo}, {hi}] outside buffer of {} elements",
                inputs[i].len()
            );
        }
        for (o, desc) in self.outputs.iter().enumerate() {
            let lo = desc.flat(&lower);
            let hi = desc.flat(&upper);
            assert!(
                lo >= 0 && hi < outs[o].len() as i64,
                "output {o}: flat range [{lo}, {hi}] outside buffer of {} elements",
                outs[o].len()
            );
        }
    }
}

/// Drives `row(scratch, row_len)` over every stride-1 row of `range`,
/// with the row-start coordinate in `scratch.point` and the row-start
/// flat cursors in `scratch.flats`/`scratch.out_flats`. Monomorphized
/// loops for ranks 1–3; generic odometer above.
#[inline]
fn walk_rows<F>(kernel: &CompiledKernel, range: &Bounds, scratch: &mut ExecScratch, mut row: F)
where
    F: FnMut(&mut ExecScratch, i64),
{
    let rank = range.rank();
    debug_assert!(rank >= 1);
    let last = rank - 1;
    let (last_lb, last_ub) = range.0[last];
    let len = last_ub - last_lb;
    if len <= 0 {
        return;
    }
    let fill = |sc: &mut ExecScratch, kernel: &CompiledKernel| {
        for (i, d) in kernel.inputs.iter().enumerate() {
            sc.flats[i] = d.flat(&sc.point);
        }
        for (i, d) in kernel.outputs.iter().enumerate() {
            sc.out_flats[i] = d.flat(&sc.point);
        }
    };
    match rank {
        1 => {
            scratch.point[0] = last_lb;
            fill(scratch, kernel);
            row(scratch, len);
        }
        2 => {
            let (lb0, ub0) = range.0[0];
            for i in lb0..ub0 {
                scratch.point[0] = i;
                scratch.point[1] = last_lb;
                fill(scratch, kernel);
                row(scratch, len);
            }
        }
        3 => {
            let (lb0, ub0) = range.0[0];
            let (lb1, ub1) = range.0[1];
            for i in lb0..ub0 {
                for j in lb1..ub1 {
                    scratch.point[0] = i;
                    scratch.point[1] = j;
                    scratch.point[2] = last_lb;
                    fill(scratch, kernel);
                    row(scratch, len);
                }
            }
        }
        _ => {
            for d in 0..rank {
                scratch.point[d] = range.0[d].0;
            }
            loop {
                scratch.point[last] = last_lb;
                fill(scratch, kernel);
                row(scratch, len);
                let mut d = last;
                let mut done = false;
                loop {
                    if d == 0 {
                        done = true;
                        break;
                    }
                    d -= 1;
                    scratch.point[d] += 1;
                    if scratch.point[d] < range.0[d].1 {
                        break;
                    }
                    scratch.point[d] = range.0[d].0;
                }
                if done {
                    return;
                }
            }
        }
    }
}

/// Builds the [`OptProgram`] for a kernel: value-numbering CSE over
/// `LoadInput`/`Const`/`Index`, constant folding of `Const ⊕ Const` and
/// `-Const` (computed with the identical f64 operation at build time),
/// dead-code elimination, and hoisting of the surviving constants into
/// the pre-initialized register file. No expression is reassociated.
fn optimize(kernel: &CompiledKernel) -> OptProgram {
    let p = &kernel.program;
    // Pass 1: value-number into a new instruction list.
    let mut map: HashMap<u32, u32> = HashMap::new(); // old reg -> new reg
    let mut const_vn: HashMap<u64, u32> = HashMap::new(); // f64 bits -> new reg
    let mut load_vn: HashMap<(u32, i64), u32> = HashMap::new();
    let mut index_vn: HashMap<(u8, i64), u32> = HashMap::new();
    let mut const_val: HashMap<u32, f64> = HashMap::new(); // new reg -> value
    let mut instrs: Vec<Instr> = Vec::new();
    let mut next: u32 = 0;
    // Runtime scalar registers have no defining instruction: give them
    // stable value numbers up front so operand lookups resolve.
    let mut scalar_vn: Vec<u32> = Vec::new();
    for &sr in &p.scalar_regs {
        let d = next;
        next += 1;
        map.insert(sr, d);
        scalar_vn.push(d);
    }
    let intern_const = |v: f64,
                        const_vn: &mut HashMap<u64, u32>,
                        const_val: &mut HashMap<u32, f64>,
                        instrs: &mut Vec<Instr>,
                        next: &mut u32|
     -> u32 {
        *const_vn.entry(v.to_bits()).or_insert_with(|| {
            let dst = *next;
            *next += 1;
            instrs.push(Instr::Const { v, dst });
            const_val.insert(dst, v);
            dst
        })
    };
    for instr in &p.instrs {
        match *instr {
            Instr::Const { v, dst } => {
                let r = intern_const(v, &mut const_vn, &mut const_val, &mut instrs, &mut next);
                map.insert(dst, r);
            }
            Instr::LoadInput { input, rel, dst } => {
                let r = *load_vn.entry((input, rel)).or_insert_with(|| {
                    let d = next;
                    next += 1;
                    instrs.push(Instr::LoadInput { input, rel, dst: d });
                    d
                });
                map.insert(dst, r);
            }
            Instr::Index { dim, offset, dst } => {
                let r = *index_vn.entry((dim, offset)).or_insert_with(|| {
                    let d = next;
                    next += 1;
                    instrs.push(Instr::Index { dim, offset, dst: d });
                    d
                });
                map.insert(dst, r);
            }
            Instr::Bin { op, a, b, dst } => {
                let (a, b) = (map[&a], map[&b]);
                if let (Some(&ca), Some(&cb)) = (const_val.get(&a), const_val.get(&b)) {
                    let r = intern_const(
                        op.eval(ca, cb),
                        &mut const_vn,
                        &mut const_val,
                        &mut instrs,
                        &mut next,
                    );
                    map.insert(dst, r);
                } else {
                    let d = next;
                    next += 1;
                    instrs.push(Instr::Bin { op, a, b, dst: d });
                    map.insert(dst, d);
                }
            }
            Instr::Neg { a, dst } => {
                let a = map[&a];
                if let Some(&ca) = const_val.get(&a) {
                    let r =
                        intern_const(-ca, &mut const_vn, &mut const_val, &mut instrs, &mut next);
                    map.insert(dst, r);
                } else {
                    let d = next;
                    next += 1;
                    instrs.push(Instr::Neg { a, dst: d });
                    map.insert(dst, d);
                }
            }
        }
    }
    let outputs: Vec<u32> = p.outputs.iter().map(|r| map[r]).collect();

    // Pass 2: dead-code elimination (backwards liveness).
    let mut live = vec![false; next as usize];
    for &o in &outputs {
        live[o as usize] = true;
    }
    for instr in instrs.iter().rev() {
        let (dst, ops) = instr_uses(instr);
        if live[dst as usize] {
            for o in ops {
                live[o as usize] = true;
            }
        }
    }
    // Pass 3: compact renumbering, splitting consts into preinit.
    let mut renum = vec![u32::MAX; next as usize];
    let mut num_regs: u32 = 0;
    let mut out_instrs = Vec::new();
    let mut preinit = Vec::new();
    let mut has_index = false;
    let mut rel_bounds: Vec<Option<(i64, i64)>> = vec![None; kernel.inputs.len()];
    // Scalar registers survive unconditionally (index-aligned with the
    // kernel's `scalar_args`) and are preloaded like hoisted consts.
    let mut scalar_regs = Vec::with_capacity(scalar_vn.len());
    for &sr in &scalar_vn {
        let d = num_regs;
        num_regs += 1;
        renum[sr as usize] = d;
        scalar_regs.push(d);
    }
    for instr in &instrs {
        let (dst, _) = instr_uses(instr);
        if !live[dst as usize] {
            continue;
        }
        let d = num_regs;
        num_regs += 1;
        renum[dst as usize] = d;
        match *instr {
            Instr::Const { v, .. } => preinit.push((d, v)),
            Instr::LoadInput { input, rel, .. } => {
                let e = rel_bounds[input as usize].get_or_insert((rel, rel));
                e.0 = e.0.min(rel);
                e.1 = e.1.max(rel);
                out_instrs.push(Instr::LoadInput { input, rel, dst: d });
            }
            Instr::Index { dim, offset, .. } => {
                has_index = true;
                out_instrs.push(Instr::Index { dim, offset, dst: d });
            }
            Instr::Bin { op, a, b, .. } => out_instrs.push(Instr::Bin {
                op,
                a: renum[a as usize],
                b: renum[b as usize],
                dst: d,
            }),
            Instr::Neg { a, .. } => out_instrs.push(Instr::Neg { a: renum[a as usize], dst: d }),
        }
    }
    let outputs = outputs.iter().map(|&o| renum[o as usize]).collect();
    OptProgram {
        instrs: out_instrs,
        preinit,
        scalar_regs,
        num_regs,
        outputs,
        has_index,
        rel_bounds,
    }
}

fn instr_uses(instr: &Instr) -> (u32, Vec<u32>) {
    match *instr {
        Instr::Const { dst, .. } | Instr::LoadInput { dst, .. } | Instr::Index { dst, .. } => {
            (dst, vec![])
        }
        Instr::Bin { a, b, dst, .. } => (dst, vec![a, b]),
        Instr::Neg { a, dst } => (dst, vec![a]),
    }
}

/// What a register holds during weighted sum matching.
#[derive(Copy, Clone, Debug)]
enum WsVal {
    Tap(u16),
    Ix(u16),
    Const(f64),
    Node(u16),
}

/// Tries to match the optimized program as a weighted sum of taps:
/// every output an affine function of its loads and index values (every
/// multiplication has a constant operand, every division a constant
/// divisor). Horizontally fused multi-output applies and `Index`-using
/// kernels qualify — `Index` values become dedicated slots. The combine
/// schedule preserves the bytecode's exact association.
fn match_weighted_sum(opt: &OptProgram) -> Option<WsProgram> {
    // Runtime scalars are loop-invariant but not known at specialization
    // time, so they can't fuse into a constant tap table — such kernels
    // gracefully fall back to the opt-bytecode tier.
    if opt.outputs.is_empty() || !opt.scalar_regs.is_empty() {
        return None;
    }
    // Use counts decide whether a `const * load` can fuse into the tap.
    let mut uses = vec![0usize; opt.num_regs as usize];
    for instr in &opt.instrs {
        for o in instr_uses(instr).1 {
            uses[o as usize] += 1;
        }
    }
    for &o in &opt.outputs {
        uses[o as usize] += 1;
    }
    let consts: HashMap<u32, f64> = opt.preinit.iter().map(|&(r, v)| (r, v)).collect();
    let mut vals: HashMap<u32, WsVal> = HashMap::new();
    for (&r, &v) in &consts {
        vals.insert(r, WsVal::Const(v));
    }
    let mut taps: Vec<WsTap> = Vec::new();
    let mut tap_of_reg: HashMap<u32, u16> = HashMap::new(); // load reg -> tap
    let mut index_taps: Vec<(u8, i64)> = Vec::new();
    let mut const_slots: Vec<f64> = Vec::new();
    let mut const_slot_vn: HashMap<u64, u16> = HashMap::new();
    let mut nodes: Vec<WsNode> = Vec::new();
    // Slot ids are only final once the tap/index/const counts are known,
    // so collect symbolic slots first.
    #[derive(Copy, Clone, PartialEq)]
    enum Slot {
        Tap(u16),
        Ix(u16),
        Const(u16),
        Node(u16),
    }
    let mut node_ops: Vec<(WsNode, [Slot; 2])> = Vec::new(); // ops resolved later
    let slot_of =
        |v: WsVal, const_slots: &mut Vec<f64>, const_slot_vn: &mut HashMap<u64, u16>| -> Slot {
            match v {
                WsVal::Tap(t) => Slot::Tap(t),
                WsVal::Ix(i) => Slot::Ix(i),
                WsVal::Node(n) => Slot::Node(n),
                WsVal::Const(c) => {
                    let id = *const_slot_vn.entry(c.to_bits()).or_insert_with(|| {
                        const_slots.push(c);
                        (const_slots.len() - 1) as u16
                    });
                    Slot::Const(id)
                }
            }
        };
    for instr in &opt.instrs {
        match *instr {
            Instr::LoadInput { input, rel, dst } => {
                let t = taps.len() as u16;
                taps.push(WsTap { input, rel, coeff: 1.0, coeff_left: false, scaled: false });
                tap_of_reg.insert(dst, t);
                vals.insert(dst, WsVal::Tap(t));
            }
            Instr::Index { dim, offset, dst } => {
                // The opt pass already deduped identical `Index`
                // instructions, so each one gets a fresh slot.
                let i = index_taps.len() as u16;
                index_taps.push((dim, offset));
                vals.insert(dst, WsVal::Ix(i));
            }
            Instr::Bin { op, a, b, dst } => {
                let va = *vals.get(&a)?;
                let vb = *vals.get(&b)?;
                match op {
                    BinOp::Mul => match (va, vb) {
                        (WsVal::Const(c), WsVal::Tap(t))
                            if uses[b as usize] == 1
                                && !taps[t as usize].scaled
                                && tap_of_reg.get(&b) == Some(&t) =>
                        {
                            taps[t as usize].coeff = c;
                            taps[t as usize].coeff_left = true;
                            taps[t as usize].scaled = true;
                            vals.insert(dst, WsVal::Tap(t));
                        }
                        (WsVal::Tap(t), WsVal::Const(c))
                            if uses[a as usize] == 1
                                && !taps[t as usize].scaled
                                && tap_of_reg.get(&a) == Some(&t) =>
                        {
                            taps[t as usize].coeff = c;
                            taps[t as usize].coeff_left = false;
                            taps[t as usize].scaled = true;
                            vals.insert(dst, WsVal::Tap(t));
                        }
                        (WsVal::Const(_), _) | (_, WsVal::Const(_)) => {
                            let sa = slot_of(va, &mut const_slots, &mut const_slot_vn);
                            let sb = slot_of(vb, &mut const_slots, &mut const_slot_vn);
                            let n = node_ops.len() as u16;
                            node_ops.push((WsNode::Bin { op, a: 0, b: 0 }, [sa, sb]));
                            vals.insert(dst, WsVal::Node(n));
                        }
                        // load * load etc. is not a weighted sum.
                        _ => return None,
                    },
                    BinOp::Div => {
                        // Only a constant divisor keeps the kernel affine.
                        let WsVal::Const(_) = vb else { return None };
                        if matches!(va, WsVal::Const(_)) {
                            return None; // folded already; be conservative
                        }
                        let sa = slot_of(va, &mut const_slots, &mut const_slot_vn);
                        let sb = slot_of(vb, &mut const_slots, &mut const_slot_vn);
                        let n = node_ops.len() as u16;
                        node_ops.push((WsNode::Bin { op, a: 0, b: 0 }, [sa, sb]));
                        vals.insert(dst, WsVal::Node(n));
                    }
                    BinOp::Add | BinOp::Sub => {
                        let sa = slot_of(va, &mut const_slots, &mut const_slot_vn);
                        let sb = slot_of(vb, &mut const_slots, &mut const_slot_vn);
                        let n = node_ops.len() as u16;
                        node_ops.push((WsNode::Bin { op, a: 0, b: 0 }, [sa, sb]));
                        vals.insert(dst, WsVal::Node(n));
                    }
                }
            }
            Instr::Neg { a, dst } => {
                let va = *vals.get(&a)?;
                let sa = slot_of(va, &mut const_slots, &mut const_slot_vn);
                let n = node_ops.len() as u16;
                node_ops.push((WsNode::Neg { a: 0 }, [sa, sa]));
                vals.insert(dst, WsVal::Node(n));
            }
            Instr::Const { .. } => return None,
        }
    }
    if taps.len() > 2000
        || index_taps.len() > 2000
        || node_ops.len() > 2000
        || const_slots.len() > 2000
    {
        return None; // keep slot ids comfortably within u16
    }
    // Intern every output into a symbolic slot first (a pure-constant
    // output may still grow the const table), then resolve: taps, then
    // index slots, then consts, then nodes.
    let out_slots: Vec<Slot> = opt
        .outputs
        .iter()
        .map(|r| vals.get(r).map(|&v| slot_of(v, &mut const_slots, &mut const_slot_vn)))
        .collect::<Option<_>>()?;
    let tap_n = taps.len() as u16;
    let index_n = index_taps.len() as u16;
    let const_n = const_slots.len() as u16;
    let resolve = |s: Slot| -> u16 {
        match s {
            Slot::Tap(t) => t,
            Slot::Ix(i) => tap_n + i,
            Slot::Const(c) => tap_n + index_n + c,
            Slot::Node(n) => tap_n + index_n + const_n + n,
        }
    };
    for (node, ops) in &node_ops {
        let n = match *node {
            WsNode::Bin { op, .. } => WsNode::Bin { op, a: resolve(ops[0]), b: resolve(ops[1]) },
            WsNode::Neg { .. } => WsNode::Neg { a: resolve(ops[0]) },
        };
        nodes.push(n);
    }
    let outs: Vec<u16> = out_slots.into_iter().map(resolve).collect();

    Some(WsProgram {
        rel_bounds: opt.rel_bounds.clone(),
        taps,
        index_taps,
        consts: const_slots,
        nodes,
        outs,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::program::{compile_apply, InputDesc};
    use std::collections::HashMap as Map;
    use sten_ir::Pass as _;

    pub(crate) fn kernel_of(
        module: &mut sten_ir::Module,
        func: &str,
        desc: InputDesc,
    ) -> CompiledKernel {
        sten_stencil::ShapeInference.run(module).unwrap();
        let f = module.lookup_symbol(func).unwrap();
        let apply = f.region_block(0).ops.iter().find(|o| o.name == "stencil.apply").unwrap();
        compile_apply(
            apply,
            &module.values,
            vec![Some(desc.clone())],
            vec![desc],
            &Map::new(),
            &Map::new(),
        )
        .unwrap()
    }

    /// `arith.*f` body op without pulling in the dialect crate.
    fn binf(
        vt: &mut sten_ir::ValueTable,
        name: &str,
        a: sten_ir::Value,
        b: sten_ir::Value,
    ) -> sten_ir::Op {
        let mut op = sten_ir::Op::new(name);
        op.operands = vec![a, b];
        op.results.push(vt.alloc(sten_ir::Type::F64));
        op
    }

    /// The weighted sum analysis of a kernel (what the JIT consumes).
    fn analyze(k: &CompiledKernel) -> WsProgram {
        match_weighted_sum(&optimize(k)).expect("kernel has a weighted sum form")
    }

    #[test]
    fn jacobi_specializes_to_weighted_sum_chain() {
        let mut m = sten_stencil::samples::jacobi_1d(64);
        let k = kernel_of(&mut m, "jacobi", InputDesc::new(vec![64], vec![0]));
        let ws = analyze(&k);
        assert_eq!(ws.taps.len(), 3);
        assert!(ws.consts.is_empty() && ws.index_taps.is_empty(), "{ws:?}");
        // A left fold `(tap ⊕ tap) ⊕ tap`: each node folds the previous
        // one with a tap, and the last node is the output.
        let tap_n = ws.taps.len() as u16;
        assert_eq!(ws.nodes.len(), 2);
        for (k, n) in ws.nodes.iter().enumerate() {
            let WsNode::Bin { a, b, .. } = *n else { panic!("{ws:?}") };
            let acc = if k == 0 { a < tap_n } else { a == tap_n + k as u16 - 1 };
            assert!(acc && b < tap_n, "node {k} is not a fold step: {ws:?}");
        }
        assert_eq!(ws.outs, vec![tap_n + 1]);
    }

    #[test]
    fn heat_specializes_to_weighted_sum_tree() {
        let mut m = sten_stencil::samples::heat_2d(16, 0.1);
        let k = kernel_of(&mut m, "heat", InputDesc::new(vec![18, 18], vec![-1, -1]));
        let ws = analyze(&k);
        assert_eq!(ws.taps.len(), 5, "5-point star");
        // heat's `(u+d)+(l+r)` association is a tree: some node combines
        // two nodes rather than folding a tap into an accumulator.
        let first_node = (ws.taps.len() + ws.index_taps.len() + ws.consts.len()) as u16;
        assert!(
            ws.nodes.iter().any(|n| matches!(*n,
                WsNode::Bin { a, b, .. } if a >= first_node && b >= first_node)),
            "{ws:?}"
        );
    }

    #[test]
    fn auto_selection_prefers_template_jit() {
        let mut m = sten_stencil::samples::jacobi_1d(64);
        let k = kernel_of(&mut m, "jacobi", InputDesc::new(vec![64], vec![0]));
        let spec = SpecializedKernel::specialize(k, None);
        assert_eq!(spec.tier_kind(), TierKind::TemplateJit);
        assert!(
            spec.tier_label().starts_with("template-jit (3 taps, chain<3>"),
            "{}",
            spec.tier_label()
        );

        let mut m = sten_stencil::samples::heat_2d(16, 0.1);
        let k = kernel_of(&mut m, "heat", InputDesc::new(vec![18, 18], vec![-1, -1]));
        let spec = SpecializedKernel::specialize(k, None);
        assert_eq!(spec.tier_kind(), TierKind::TemplateJit);
    }

    #[test]
    fn all_tiers_bit_identical_on_heat() {
        let n = 20i64;
        let mut m = sten_stencil::samples::heat_2d(n, 0.1);
        let d = InputDesc::new(vec![n + 2, n + 2], vec![-1, -1]);
        let k = kernel_of(&mut m, "heat", d);
        let size = ((n + 2) * (n + 2)) as usize;
        let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.013).sin()).collect();
        let mut want = vec![0.0; size];
        k.execute(&[&input], &mut [&mut want]);
        for tier in [TierKind::Eval, TierKind::OptBytecode, TierKind::TemplateJit] {
            let spec = SpecializedKernel::specialize(k.clone(), Some(tier));
            assert_eq!(spec.tier_kind(), tier);
            let mut got = vec![0.0; size];
            spec.execute(&[&input], &mut [&mut got]);
            assert_eq!(got, want, "tier {}", tier.name());
            let mut par = vec![0.0; size];
            spec.execute_parallel(&[&input], &mut [&mut par], 3);
            assert_eq!(par, want, "tier {} parallel", tier.name());
        }
    }

    #[test]
    fn fused_two_output_apply_selects_weighted_sum() {
        use sten_ir::{Attribute, TempType, Type};
        // A horizontally fused apply (two results over one input), as
        // stencil-horizontal-fusion produces: out0 = l + r, out1 = l - r.
        let mut m = sten_ir::Module::new();
        let temp = m.values.alloc(Type::Temp(TempType::unknown(1, Type::F64)));
        let mut apply = sten_stencil::ops::apply(
            &mut m.values,
            vec![temp],
            vec![
                Type::Temp(TempType::unknown(1, Type::F64)),
                Type::Temp(TempType::unknown(1, Type::F64)),
            ],
            |vt, a| {
                let l = sten_stencil::ops::access(vt, a[0], vec![-1]);
                let r = sten_stencil::ops::access(vt, a[0], vec![1]);
                let s = binf(vt, "arith.addf", l.result(0), r.result(0));
                let d = binf(vt, "arith.subf", l.result(0), r.result(0));
                let (sum_v, diff_v) = (s.result(0), d.result(0));
                vec![l, r, s, d, sten_stencil::ops::ret(vec![sum_v, diff_v])]
            },
        );
        apply.set_attr("lb", Attribute::DenseI64(vec![1]));
        apply.set_attr("ub", Attribute::DenseI64(vec![31]));
        let desc = InputDesc::new(vec![32], vec![0]);
        let kernel = compile_apply(
            &apply,
            &m.values,
            vec![Some(desc.clone())],
            vec![desc.clone(), desc],
            &Map::new(),
            &Map::new(),
        )
        .unwrap();

        // The multi-output matcher accepts it (it used to fall back to
        // opt-bytecode).
        let ws = analyze(&kernel);
        assert_eq!(ws.outs.len(), 2);
        assert_eq!(ws.taps.len(), 2, "both outputs share the two taps");

        // Bit-identical to eval on both outputs, on every tier.
        let input: Vec<f64> = (0..32).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut want = (vec![0.0; 32], vec![0.0; 32]);
        kernel.execute(&[&input], &mut [&mut want.0, &mut want.1]);
        for tier in [TierKind::OptBytecode, TierKind::TemplateJit] {
            let spec = SpecializedKernel::specialize(kernel.clone(), Some(tier));
            assert_eq!(spec.tier_kind(), tier);
            let mut got = (vec![0.0; 32], vec![0.0; 32]);
            spec.execute(&[&input], &mut [&mut got.0, &mut got.1]);
            assert_eq!(got, want, "tier {}", tier.name());
        }
    }

    #[test]
    fn index_kernel_selects_weighted_sum() {
        use sten_ir::{Attribute, TempType, Type};
        // out = u[i,j] + (i+1) + j: one broadcast index slot (dim 0) and
        // one row-varying iota slot (dim 1).
        let mut m = sten_ir::Module::new();
        let temp = m.values.alloc(Type::Temp(TempType::unknown(2, Type::F64)));
        let mut apply = sten_stencil::ops::apply(
            &mut m.values,
            vec![temp],
            vec![Type::Temp(TempType::unknown(2, Type::F64))],
            |vt, a| {
                let c = sten_stencil::ops::access(vt, a[0], vec![0, 0]);
                let i0 = sten_stencil::ops::index(vt, 0, 1);
                let i1 = sten_stencil::ops::index(vt, 1, 0);
                let s0 = binf(vt, "arith.addf", c.result(0), i0.result(0));
                let s1 = binf(vt, "arith.addf", s0.result(0), i1.result(0));
                let out = s1.result(0);
                vec![c, i0, i1, s0, s1, sten_stencil::ops::ret(vec![out])]
            },
        );
        apply.set_attr("lb", Attribute::DenseI64(vec![0, 0]));
        apply.set_attr("ub", Attribute::DenseI64(vec![5, 40]));
        let desc = InputDesc::new(vec![5, 40], vec![0, 0]);
        let kernel = compile_apply(
            &apply,
            &m.values,
            vec![Some(desc.clone())],
            vec![desc],
            &Map::new(),
            &Map::new(),
        )
        .unwrap();

        // Index kernels have a weighted sum form but no catalog template:
        // they run on the template-JIT's lane-DAG plan.
        let ws = analyze(&kernel);
        assert_eq!(ws.index_taps, vec![(0, 1), (1, 0)]);
        let spec = SpecializedKernel::specialize(kernel.clone(), None);
        assert_eq!(spec.tier_kind(), TierKind::TemplateJit);
        let Tier::TemplateJit(jit) = &spec.tier else { panic!() };
        assert!(matches!(jit.plan, crate::jit::JitPlan::Dag(_)), "{jit:?}");
        assert!(spec.tier_label().contains("dag"), "{}", spec.tier_label());

        let size = 5 * 40;
        let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.013).sin()).collect();
        let mut want = vec![0.0; size];
        kernel.execute(&[&input], &mut [&mut want]);
        for tier in [TierKind::OptBytecode, TierKind::TemplateJit] {
            let spec = SpecializedKernel::specialize(kernel.clone(), Some(tier));
            let mut got = vec![0.0; size];
            spec.execute(&[&input], &mut [&mut got]);
            assert_eq!(got, want, "tier {}", tier.name());
        }
        // Rows shorter than a lane block, and block remainders, replay
        // the op sequence per point — exercise them too.
        for cols in [(12, 17), (3, 30)] {
            let sub = Bounds::new(vec![(0, 5), cols]);
            let mut got = vec![0.0; size];
            spec.execute_rows(&[&input], &mut [&mut got], &sub, &mut ExecScratch::new());
            let mut sub_want = vec![0.0; size];
            kernel.execute_rows(&[&input], &mut [&mut sub_want], &sub, &mut ExecScratch::new());
            assert_eq!(got, sub_want, "columns {cols:?}");
        }
    }

    #[test]
    fn opt_bytecode_hoists_and_dedupes() {
        let mut m = sten_stencil::samples::heat_2d(16, 0.1);
        let k = kernel_of(&mut m, "heat", InputDesc::new(vec![18, 18], vec![-1, -1]));
        let opt = optimize(&k);
        assert!(opt.preinit.len() >= 2, "4.0 and alpha hoisted");
        assert!(opt.instrs.iter().all(|i| !matches!(i, Instr::Const { .. })));
        assert!(opt.instrs.len() < k.program.instrs.len());
    }

    #[test]
    fn runtime_scalar_kernel_falls_back_from_weighted_sum() {
        use sten_ir::{Bounds, Type, Value};
        let n = 32i64;
        let full = Bounds::new(vec![(0, n)]);
        let mut m = sten_stencil::samples::axpy(full.clone(), full);
        sten_stencil::ShapeInference.run(&mut m).unwrap();
        let f = m.lookup_symbol("axpy").unwrap();
        let apply = f.region_block(0).ops.iter().find(|o| o.name == "stencil.apply").unwrap();
        let alpha: Value =
            *f.region_block(0).args.iter().find(|&&a| *m.values.ty(a) == Type::F64).unwrap();
        let slots: Map<Value, usize> = Map::from([(alpha, 0)]);
        let d = InputDesc::new(vec![n], vec![0]);
        let kernel = compile_apply(
            apply,
            &m.values,
            vec![Some(d.clone()), Some(d.clone()), None],
            vec![d],
            &Map::new(),
            &slots,
        )
        .unwrap();

        // Forcing the template-JIT must fall back: the coefficient isn't
        // a compile-time constant, so there is no weighted sum form.
        let spec = SpecializedKernel::specialize(kernel.clone(), Some(TierKind::TemplateJit));
        assert_eq!(spec.tier_kind(), TierKind::OptBytecode);

        // All applicable tiers agree bit-for-bit with the reference.
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.47).cos()).collect();
        let mut scratch = ExecScratch::new();
        scratch.scalars = vec![0.37];
        let range = kernel.range.clone();
        let mut want = vec![0.0; n as usize];
        kernel.execute_rows(&[&a, &b], &mut [&mut want], &range, &mut scratch);
        for tier in [TierKind::Eval, TierKind::OptBytecode] {
            let spec = SpecializedKernel::specialize(kernel.clone(), Some(tier));
            let mut got = vec![0.0; n as usize];
            let mut scratch = ExecScratch::new();
            scratch.scalars = vec![0.37];
            spec.execute_rows(&[&a, &b], &mut [&mut got], &range, &mut scratch);
            assert_eq!(got, want, "tier {}", tier.name());
        }
    }

    #[test]
    fn tier_env_parse() {
        assert_eq!(TierKind::parse("auto").unwrap(), None);
        assert_eq!(TierKind::parse("eval").unwrap(), Some(TierKind::Eval));
        assert!(TierKind::parse("ws").is_err(), "a retired tier name");
        assert_eq!(TierKind::parse("template-jit").unwrap(), Some(TierKind::TemplateJit));
        assert_eq!(TierKind::parse("jit").unwrap(), Some(TierKind::TemplateJit));
        assert!(TierKind::parse("nope").is_err());
    }
}
