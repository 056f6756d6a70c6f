//! The two time-stepping workloads: a Devito operator lowered by the
//! shared stack, distributed over 2 SimMPI ranks (2×1 standard slicing)
//! and stepped by the compiled executor.
//!
//! * `heat2d-dram` — heat, space order 4, on a 7424² grid: each field is
//!   ≈ 441 MB, more than 4× a 105 MB L3, so the kernel streams from DRAM
//!   and the exchange is a negligible share of a step. Steps run
//!   continuously; the result is checked against the eval tier on
//!   domain-of-dependence windows over the whole trajectory plus the
//!   full last step.
//! * `wave2d-halo` — acoustic wave, space order 8, on 256² with the
//!   overlapped exchange: per-step fixed costs (pack/unpack, channel
//!   hand-off, interior/boundary split, 3-buffer rotation) dominate.
//!   Steps run in bursts that restart from the seeded initial state, so
//!   every burst is compared bit for bit with one full eval-tier
//!   reference trajectory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use stencil_core::devito::{problems, Operator};
use stencil_core::exec::{
    compile_module_tiered, BufId, CompiledKernel, ExecScratch, Pipeline, Step,
};
use stencil_core::interp::SimWorld;
use stencil_core::ir::{Bounds, Module, Type};
use stencil_core::opt::Driver;
use stencil_core::prelude::{Runner, TierKind};
use stencil_core::trace::{TraceReport, Tracer};

use crate::compile_probe;
use crate::spans::{self, Rec};
use crate::util::{
    initial_value, iqr, median, nproc, quantile, stream, warm_up, Outcome, Reservoir, PASS_THREADS,
};

/// One stepping workload.
pub struct Spec {
    pub name: &'static str,
    pub shape: [i64; 2],
    pub space_order: usize,
    pub wave: bool,
    pub overlap: bool,
    /// Steps per block: the unit of `solve_s`, of the rank barrier that
    /// ends a run, and of the traced/untraced alternation.
    pub block: usize,
    /// Restart every block from the initial state (full-trajectory check).
    pub burst: bool,
    /// Untraced/traced block pairs that open a traced run.
    pub traced_pairs: usize,
}

pub const HEAT: Spec = Spec {
    name: "heat2d-dram",
    shape: [7424, 7424],
    space_order: 4,
    wave: false,
    overlap: false,
    block: 4,
    burst: false,
    traced_pairs: 6,
};

pub const WAVE: Spec = Spec {
    name: "wave2d-halo",
    shape: [64, 64],
    space_order: 8,
    wave: true,
    overlap: true,
    block: 512,
    burst: true,
    traced_pairs: 16,
};

const RANKS: usize = 2;
/// Set-up and cold/repeated compile samples per run; `setup_s` and
/// `compile_*_p50` are their medians.
const SAMPLES: usize = 40;
/// Untraced step times kept per rank for `step_us_p50`/`exec.step_us_p99`.
const STEP_SAMPLE: usize = 1 << 16;
/// Output windows of the heat trajectory check (side, in points).
const WINDOW: i64 = 32;
/// Blocks every run executes, whatever its deadline.
const MIN_BLOCKS: usize = 3;

fn operator(spec: &Spec) -> Result<Operator, String> {
    if spec.wave {
        problems::acoustic_wave(&spec.shape, spec.space_order, 1.5)
    } else {
        problems::heat(&spec.shape, spec.space_order, 0.5)
    }
}

/// The per-rank lowering: the stack's fusion prologue, then
/// `distribute-stencil` specialized to the rank, through the registry.
fn rank_pipeline(spec: &Spec, rank: usize) -> String {
    let ov = if spec.overlap { " overlap=true" } else { "" };
    format!(
        "shape-inference,stencil-fusion,stencil-horizontal-fusion,shape-inference,\
         distribute-stencil{{grid=2x1{ov} rank={rank}}},shape-inference,\
         dmp-eliminate-redundant-swaps"
    )
}

/// What one rank executes.
struct RankPlan {
    pipeline: Pipeline,
    /// The rank's stored box (core + halo), in global coordinates.
    field: Bounds,
    /// The rank's owned core.
    core: Bounds,
}

struct Built {
    op: Operator,
    ranks: Vec<RankPlan>,
    runners: Vec<Runner>,
}

#[derive(Default, Clone, Copy)]
struct SetupTimes {
    total: f64,
    devito: f64,
    build: f64,
}

fn first_arg_bounds(module: &Module, func: &str) -> Result<Bounds, String> {
    let f = module.lookup_symbol(func).ok_or_else(|| format!("no function @{func}"))?;
    let arg = *f.region_block(0).args.first().ok_or("function without arguments")?;
    match module.values.ty(arg) {
        Type::Field(fld) => Ok(fld.bounds.clone()),
        other => Err(format!("first argument is {other:?}, not a field")),
    }
}

/// Frontend → pass pipeline → per-rank distribute → pipeline build →
/// `Runner::new`, timed as a whole and per layer.
fn setup(spec: &Spec, tracer: &Tracer) -> Result<(Built, SetupTimes), String> {
    let rec = Rec::compiler(tracer);
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let built = rec.span("bench:setup", || -> Result<Built, String> {
        let t = Instant::now();
        let op = rec.span("devito::problems", || operator(spec))?;
        let module = rec.span("devito::Operator::compile", || op.compile())?;
        times.devito = t.elapsed().as_secs_f64();
        let stack =
            Driver::new().with_cache(None).with_parallelism(PASS_THREADS).with_trace(tracer);
        let mut ranks = Vec::new();
        let mut runners = Vec::new();
        for rank in 0..RANKS {
            let out = rec
                .span("Driver::run_str", || {
                    stack.run_str(module.clone(), &rank_pipeline(spec, rank))
                })
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            let pipeline = rec.span("exec::compile_module_tiered", || {
                compile_module_tiered(&out.module, "step", None)
            })?;
            runners.push(rec.span("Runner::new", || Runner::new(pipeline.clone(), 1)));
            times.build += t.elapsed().as_secs_f64();
            let field = first_arg_bounds(&out.module, "step")?;
            let core = Bounds::new(
                field
                    .0
                    .iter()
                    .zip(op.halo_lo.iter().zip(&op.halo_hi))
                    .map(|(&(lo, hi), (&l, &h))| (lo + l, hi - h))
                    .collect(),
            );
            if pipeline.arg_shapes[0] != field.shape() {
                return Err(format!("rank {rank}: pipeline shape disagrees with the field"));
            }
            ranks.push(RankPlan { pipeline, field, core });
        }
        Ok(Built { op, ranks, runners })
    })?;
    times.total = t0.elapsed().as_secs_f64();
    Ok((built, times))
}

/// Row-major fill of `field` with the seeded initial value of `level`.
fn fill(field: &Bounds, seed: u64, level: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(field.num_points() as usize);
    let (r, c) = (field.0[0], field.0[1]);
    for i in r.0..r.1 {
        v.extend((c.0..c.1).map(|j| initial_value(seed, level, &[i, j])));
    }
    v
}

fn flat(field: &Bounds, i: i64, j: i64) -> usize {
    ((i - field.0[0].0) * field.size(1) + (j - field.0[1].0)) as usize
}

/// The single apply of a global eval-tier pipeline, with the argument
/// indices it reads and writes.
fn eval_apply(pipeline: &Pipeline) -> Result<(CompiledKernel, Vec<usize>, usize), String> {
    let applies: Vec<_> = pipeline
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Apply { kernel, inputs, outputs, .. } => Some((kernel, inputs, outputs)),
            _ => None,
        })
        .collect();
    let [(kernel, inputs, outputs)] = applies.as_slice() else {
        return Err(format!("expected one apply, found {}", applies.len()));
    };
    let arg = |b: &BufId| match b {
        BufId::Arg(i) => Ok(*i),
        BufId::Tmp(_) => Err("apply reads a temporary".to_string()),
    };
    let ins = inputs.iter().map(arg).collect::<Result<Vec<_>, _>>()?;
    let [out] = outputs.as_slice() else { return Err("apply has several outputs".into()) };
    Ok((kernel.kernel.clone(), ins, arg(out)?))
}

/// Advances `bufs` (global layout over `field`, one per time level) by
/// `steps` eval-tier steps, computing only the domain of dependence of
/// `window`: at step `k` the range is `window` grown by `r·(steps-k)`.
/// Pages outside that region are never touched. Rotates like the runner.
#[allow(clippy::too_many_arguments)]
fn eval_trajectory(
    kernel: &CompiledKernel,
    ins: &[usize],
    out: usize,
    radius: i64,
    field: &Bounds,
    window: &Bounds,
    steps: usize,
    seed: u64,
    bufs: &mut [Vec<f64>],
) {
    let dep = window.grown(radius * (steps as i64 + 1)).intersect(field).expect("window inside");
    for (level, buf) in bufs.iter_mut().enumerate() {
        for i in dep.0[0].0..dep.0[0].1 {
            for j in dep.0[1].0..dep.0[1].1 {
                buf[flat(field, i, j)] = initial_value(seed, level, &[i, j]);
            }
        }
    }
    let mut scratch = ExecScratch::new();
    for k in 1..=steps {
        let range = window.grown(radius * (steps - k) as i64).intersect(&kernel.range);
        if let Some(range) = range {
            let (srcs, dst) = bufs.split_at_mut(out);
            let inputs: Vec<&[f64]> = ins.iter().map(|&i| srcs[i].as_slice()).collect();
            kernel.execute_rows(&inputs, &mut [dst[0].as_mut_slice()], &range, &mut scratch);
        }
        bufs.rotate_left(1);
    }
}

/// Bits of the `(i, j)` point of a rank's newest state that differ from
/// the reference, counted over `region ∩ core`.
fn mismatches(
    local: &[f64],
    plan_field: &Bounds,
    reference: &[f64],
    ref_field: &Bounds,
    region: &Bounds,
) -> u64 {
    let mut bad = 0;
    for i in region.0[0].0..region.0[0].1 {
        for j in region.0[1].0..region.0[1].1 {
            let a = local[flat(plan_field, i, j)].to_bits();
            let b = reference[flat(ref_field, i, j)].to_bits();
            bad += u64::from(a != b);
        }
    }
    bad
}

/// Per-rank results of the step loop.
struct RankRun {
    /// Steps executed, and how many of them traced.
    steps: usize,
    traced_steps: usize,
    /// Untraced step times in µs (a fixed-size sample, so memory does not
    /// grow with the step count).
    plain_us: Reservoir,
    /// `(traced, seconds)` per block.
    blocks: Vec<(bool, f64)>,
    /// Bursts whose final state differed from the reference.
    bad_bursts: u64,
    error: Option<String>,
}

struct LoopCfg {
    deadline: Duration,
    /// Open with this many untraced/traced block pairs (0 = untraced).
    traced_pairs: usize,
}

/// Runs both ranks, one OS thread each, block by block until the
/// deadline. Ranks agree on stopping at block barriers, so they always
/// execute the same number of steps.
#[allow(clippy::too_many_arguments)]
fn step_loop(
    spec: &Spec,
    plans: &[RankPlan],
    runners: &mut [Runner],
    traced_runners: &mut [Option<Runner>],
    args: &mut [Vec<Vec<f64>>],
    init: &[Vec<Vec<f64>>],
    reference: Option<(&[Vec<f64>], &Bounds)>,
    worlds: (&Arc<SimWorld>, &Arc<SimWorld>),
    tracer: &Tracer,
    cfg: &LoopCfg,
    sampler: &mut (dyn FnMut(Duration) + Send),
) -> Vec<RankRun> {
    let mut sampler = Some(sampler);
    let barrier = Barrier::new(RANKS);
    let go = AtomicBool::new(true);
    let failed = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = runners
            .iter_mut()
            .zip(traced_runners.iter_mut())
            .zip(args.iter_mut())
            .enumerate()
            .map(|(rank, ((runner, traced_runner), args))| {
                let (barrier, go, failed) = (&barrier, &go, &failed);
                let plan = &plans[rank];
                let init = &init[rank];
                let rec = Rec::new(tracer, rank as u32);
                let mut sampler = if rank == 0 { sampler.take() } else { None };
                s.spawn(move || {
                    let mut out = RankRun {
                        steps: 0,
                        traced_steps: 0,
                        plain_us: Reservoir::new(STEP_SAMPLE, rank as u64),
                        blocks: Vec::new(),
                        bad_bursts: 0,
                        error: None,
                    };
                    let nb = args.len();
                    let mut b = 0usize;
                    loop {
                        let traced = b < 2 * cfg.traced_pairs && b % 2 == 1;
                        if spec.burst {
                            for (a, i) in args.iter_mut().zip(init) {
                                a.copy_from_slice(i);
                            }
                        }
                        barrier.wait();
                        let tb = Instant::now();
                        let root = tracer.now();
                        for _ in 0..spec.block {
                            let t = Instant::now();
                            let r = if traced {
                                let runner = traced_runner.as_mut().expect("traced runner");
                                rec.span("Runner::step_distributed", || {
                                    runner.step_distributed_checked(args, worlds.1, rank as i64)
                                })
                            } else {
                                runner.step_distributed_checked(args, worlds.0, rank as i64)
                            };
                            let us = t.elapsed().as_secs_f64() * 1e6;
                            out.steps += 1;
                            if traced {
                                out.traced_steps += 1;
                            } else {
                                out.plain_us.push(us);
                            }
                            if let Err(e) = r {
                                out.error = Some(e.to_string());
                                failed.store(true, Ordering::SeqCst);
                                break;
                            }
                            args.rotate_left(1);
                        }
                        if traced {
                            tracer.record_span(rank as u32, 0, root, || {
                                stencil_core::trace::SpanKind::Pass { name: "bench:rank-loop" }
                            });
                        }
                        out.blocks.push((traced, tb.elapsed().as_secs_f64()));
                        if let (Some((refs, ref_field)), None) = (reference, &out.error) {
                            let bad: u64 = (0..nb)
                                .map(|l| {
                                    mismatches(
                                        &args[l],
                                        &plan.field,
                                        &refs[l],
                                        ref_field,
                                        &plan.core,
                                    )
                                })
                                .sum();
                            out.bad_bursts += u64::from(bad > 0);
                        }
                        barrier.wait();
                        if let Some(sample) = sampler.as_mut() {
                            sample(start.elapsed());
                        }
                        if rank == 0 {
                            let more = (b + 1 < MIN_BLOCKS.max(2 * cfg.traced_pairs)
                                || start.elapsed() < cfg.deadline)
                                && !failed.load(Ordering::SeqCst);
                            go.store(more, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !go.load(Ordering::SeqCst) {
                            break;
                        }
                        b += 1;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    })
}

/// Heat check: eval-tier trajectories of seeded windows (global corners,
/// the rank boundary at both domain edges and at a seeded column, and
/// one seeded window per rank) compared with the ranks' final states, plus
/// the full last step recomputed on every rank's own buffers.
fn check_heat(
    built: &Built,
    args: &[Vec<Vec<f64>>],
    steps: usize,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let global = built.op.compile()?;
    let eval = compile_module_tiered(&global, "step", Some(TierKind::Eval))?;
    let (kernel, ins, o) = eval_apply(&eval)?;
    let field = built.op.field_bounds();
    let n = built.op.grid.shape.clone();
    let radius = kernel.program.radius();
    let mut rng = crate::util::Rng::new(seed ^ 0x57e9);
    let split = built.ranks[1].core.0[0].0;
    let w = WINDOW;
    let win = |i: i64, j: i64| Bounds::new(vec![(i, i + w), (j, j + w)]);
    let windows = [
        win(0, 0),
        win(n[0] - w, n[1] - w),
        win(split - w / 2, 0),
        win(split - w / 2, n[1] - w),
        win(split - w / 2, rng.range(0, n[1] - w)),
        win(rng.range(0, split - w), rng.range(0, n[1] - w)),
        win(rng.range(split, n[0] - w), rng.range(0, n[1] - w)),
    ];
    let nb = built.op.num_buffers();
    // Windows split across two threads; each owns lazily-touched
    // global-layout buffers.
    let halves: Vec<Vec<Bounds>> = vec![
        windows.iter().step_by(2).cloned().collect(),
        windows.iter().skip(1).step_by(2).cloned().collect(),
    ];
    let bad_windows: u64 = std::thread::scope(|s| {
        let hs: Vec<_> = halves
            .iter()
            .map(|ws| {
                let (kernel, ins, field) = (&kernel, &ins, &field);
                s.spawn(move || {
                    let mut bufs: Vec<Vec<f64>> =
                        (0..nb).map(|_| vec![0.0; field.num_points() as usize]).collect();
                    let mut bad = 0;
                    for wdw in ws {
                        eval_trajectory(kernel, ins, o, radius, field, wdw, steps, seed, &mut bufs);
                        let mut diff = 0;
                        for (plan, a) in built.ranks.iter().zip(args) {
                            if let Some(r) = wdw.intersect(&plan.core) {
                                diff +=
                                    mismatches(&a[nb - 2], &plan.field, &bufs[nb - 2], field, &r);
                            }
                        }
                        bad += u64::from(diff > 0);
                    }
                    bad
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().expect("window thread panicked")).sum()
    });
    out.ops(windows.len() as u64, bad_windows, "eval-tier window trajectories");

    // Last step: rebuild the newest state from the previous one with the
    // eval tier on each rank's buffers (their halos hold what the last
    // exchange delivered).
    let bad_ranks: u64 = std::thread::scope(|s| {
        let hs: Vec<_> = built
            .ranks
            .iter()
            .zip(args)
            .map(|(plan, a)| {
                s.spawn(move || -> Result<u64, String> {
                    let mut eval = plan.pipeline.clone();
                    eval.respecialize(Some(TierKind::Eval));
                    let mut pre: Vec<&[f64]> = a.iter().map(Vec::as_slice).collect();
                    pre.rotate_right(1);
                    let mut fresh = vec![0.0; a[0].len()];
                    let mut scratch = ExecScratch::new();
                    for step in &eval.steps {
                        if let Step::Apply { kernel, inputs, region, .. } = step {
                            let ins: Vec<&[f64]> = inputs
                                .iter()
                                .map(|b| match b {
                                    BufId::Arg(i) => Ok(pre[*i]),
                                    BufId::Tmp(_) => Err("temporary input".to_string()),
                                })
                                .collect::<Result<_, _>>()?;
                            kernel.kernel.execute_rows(
                                &ins,
                                &mut [fresh.as_mut_slice()],
                                region.bounds(&kernel.range),
                                &mut scratch,
                            );
                        }
                    }
                    let newest = pre[nb - 1];
                    Ok(mismatches(newest, &plan.field, &fresh, &plan.field, &plan.core))
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect::<Result<Vec<u64>, String>>()
            .map(|v| v.into_iter().filter(|&b| b > 0).count() as u64)
    })?;
    out.ops(RANKS as u64, bad_ranks, "eval-tier last step on each rank");
    Ok(())
}

/// Points per second of one rank owning the whole problem on one thread
/// (the base of `exec.parallel_efficiency`).
fn single_rank_rate(spec: &Spec, op: &Operator, seed: u64, min_s: f64) -> Result<f64, String> {
    let module = op.compile()?;
    let pipeline = compile_module_tiered(&module, "step", None)?;
    let field = op.field_bounds();
    let pts = pipeline.points_per_step() as f64;
    let mut args: Vec<Vec<f64>> = (0..op.num_buffers()).map(|l| fill(&field, seed, l)).collect();
    let mut runner = Runner::new(pipeline, 1);
    runner.step(&mut args)?;
    let t = Instant::now();
    let mut steps = 0;
    while steps < spec.block || t.elapsed().as_secs_f64() < min_s {
        runner.step(&mut args)?;
        args.rotate_left(1);
        steps += 1;
    }
    Ok(pts * steps as f64 / t.elapsed().as_secs_f64())
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    warm_up(RANKS, Duration::from_millis(300));
    let tracer = if trace { Tracer::new() } else { Tracer::disabled() };
    // The set-up whose runners step (traced in a traced run).
    let (mut built, _) = setup(spec, &tracer)?;
    let disabled = Tracer::disabled();
    let mut setups = Vec::new();
    // Compile latency of the workload's program to the full distributed
    // target (down to MPI calls), cold and from the cache.
    let mut probe =
        compile_probe::Probe::new(|| operator(spec)?.compile(), vec![2, 1], spec.overlap);

    // Inputs (not timed): every time level of every rank from the seed.
    let nb = built.op.num_buffers();
    let init: Vec<Vec<Vec<f64>>> = std::thread::scope(|s| {
        let hs: Vec<_> = built
            .ranks
            .iter()
            .map(|p| s.spawn(move || (0..nb).map(|l| fill(&p.field, seed, l)).collect()))
            .collect();
        hs.into_iter().map(|h| h.join().expect("fill thread panicked")).collect()
    });
    let ws_bytes: usize = init.iter().flatten().map(|b| b.len() * 8).sum();
    let mut args = if spec.burst { init.clone() } else { init };
    let init_ref: Vec<Vec<Vec<f64>>> =
        if spec.burst { args.clone() } else { vec![Vec::new(); RANKS] };

    // Full eval-tier reference of one burst (global layout).
    let reference = if spec.burst {
        let global = built.op.compile()?;
        let eval = compile_module_tiered(&global, "step", Some(TierKind::Eval))?;
        let (kernel, ins, o) = eval_apply(&eval)?;
        let field = built.op.field_bounds();
        let mut bufs: Vec<Vec<f64>> =
            (0..built.op.num_buffers()).map(|_| vec![0.0; field.num_points() as usize]).collect();
        let core = kernel.range.clone();
        let radius = kernel.program.radius();
        eval_trajectory(&kernel, &ins, o, radius, &field, &core, spec.block, seed, &mut bufs);
        Some((bufs, field))
    } else {
        None
    };

    let world = SimWorld::new(RANKS);
    let traced_world = SimWorld::new_traced(RANKS, Duration::ZERO, tracer.clone());
    let mut traced_runners: Vec<Option<Runner>> = built
        .ranks
        .iter()
        .enumerate()
        .map(|(r, p)| {
            trace.then(|| Runner::new(p.pipeline.clone(), 1).with_trace(&tracer, r as u32))
        })
        .collect();
    // Set-up and compile samples are taken between blocks on a schedule
    // spread over the whole run, so they see the same machine conditions
    // as the steps rather than only the run's first fraction of a second.
    let deadline = Duration::from_secs(seconds);
    let mut taken = 0;
    let mut sample_error = None;
    let mut sample = |elapsed: Duration| {
        while taken < SAMPLES && elapsed >= deadline.mul_f64(taken as f64 / SAMPLES as f64) {
            let r = setup(spec, &disabled).and_then(|(_, t)| {
                setups.push(t);
                probe.sample(1, out)
            });
            if let Err(e) = r {
                sample_error.get_or_insert(e);
            }
            taken += 1;
        }
    };
    let cfg = LoopCfg { deadline, traced_pairs: if trace { spec.traced_pairs } else { 0 } };
    let runs = step_loop(
        spec,
        &built.ranks,
        &mut built.runners,
        &mut traced_runners,
        &mut args,
        &init_ref,
        reference.as_ref().map(|(b, f)| (b.as_slice(), f)),
        (&world, &traced_world),
        &tracer,
        &cfg,
        &mut sample,
    );
    sample(Duration::MAX);
    if let Some(e) = sample_error {
        return Err(e);
    }
    drop(traced_runners);
    probe.finish(out);
    out.metric("setup_s", median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()), "s");

    let steps = runs[0].steps;
    for (rank, r) in runs.iter().enumerate() {
        if let Some(e) = &r.error {
            out.fail(format!("rank {rank}: {e}"));
        }
    }
    if spec.burst {
        let bad: u64 =
            runs.iter().map(|r| r.bad_bursts).sum::<u64>().min(runs[0].blocks.len() as u64);
        out.ops(
            steps as u64,
            bad * spec.block as u64,
            "steps in bursts that differ from the eval tier",
        );
    } else if runs.iter().all(|r| r.error.is_none()) {
        out.ops(steps as u64, 0, "steps");
        check_heat(&built, &args, steps, seed, out)?;
    }

    let points: u64 = built.ranks.iter().map(|p| p.pipeline.points_per_step()).sum();
    let plain = runs[0].plain_us.values();
    let plain_blocks: Vec<f64> = runs[0].blocks.iter().filter(|b| !b.0).map(|b| b.1).collect();
    let gpts = points as f64 * spec.block as f64 / median(&plain_blocks) / 1e9;
    out.metric("gpts_per_s", gpts, "Gpts/s");
    out.metric("step_us_p50", median(plain), "us");
    out.metric("solve_s", median(&plain_blocks), "s");
    out.notes.push(format!(
        "{}: {} steps on {} ranks, {} points/step, tiers {:?}",
        spec.name,
        steps,
        RANKS,
        points,
        built.ranks[0].pipeline.tier_summary()
    ));
    out.notes.push(format!("env ws_bytes={ws_bytes}"));

    // The single-rank baseline and the bandwidth ceiling below allocate
    // the working set again.
    drop(args);
    if trace {
        layer_metrics(spec, &built, &runs, &world, &tracer, &setups, ws_bytes, gpts, seed, out)?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    spec: &Spec,
    built: &Built,
    runs: &[RankRun],
    world: &Arc<SimWorld>,
    tracer: &Tracer,
    setups: &[SetupTimes],
    ws_bytes: usize,
    gpts: f64,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let plans = &built.ranks;
    out.metric(
        "devito.lower_ms",
        1e3 * median(&setups.iter().map(|t| t.devito).collect::<Vec<_>>()),
        "ms",
    );
    out.metric(
        "exec.build_ms",
        1e3 * median(&setups.iter().map(|t| t.build).collect::<Vec<_>>()),
        "ms",
    );
    out.metric(
        "exec.points_per_step",
        plans.iter().map(|p| p.pipeline.points_per_step()).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "exec.flops_per_step",
        plans.iter().map(|p| p.pipeline.flops_per_step()).sum::<u64>() as f64,
        "count",
    );

    let plain = runs[0].plain_us.values();
    let traced_steps = runs[0].traced_steps.max(1) as f64;
    out.metric("exec.step_us_p99", quantile(plain, 0.99), "us");

    // Exact SimMPI counts of the untraced world, per step.
    let plain_steps = (runs[0].steps - runs[0].traced_steps).max(1) as f64;
    out.metric("simmpi.msgs_per_step", world.total_sent_messages() as f64 / plain_steps, "count");
    out.metric(
        "simmpi.bytes_per_step",
        8.0 * world.total_sent_elements() as f64 / plain_steps,
        "B",
    );
    let (blocked, immediate) = (world.total_recv_blocked(), world.total_recv_immediate());
    out.metric(
        "simmpi.recv_blocked_ratio",
        blocked as f64 / (blocked + immediate).max(1) as f64,
        "ratio",
    );

    // Trace overhead: each traced block against the untraced block just
    // before it, signed.
    let blocks = &runs[0].blocks;
    let pct: Vec<f64> = blocks
        .chunks(2)
        .filter(|p| p.len() == 2 && !p[0].0 && p[1].0)
        .map(|p| 100.0 * (p[1].1 - p[0].1) / p[0].1)
        .collect();
    out.metric("trace.overhead_pct", median(&pct), "%");
    out.metric("trace.overhead_iqr_pct", iqr(&pct), "%");

    // Per-layer self time from the trace.
    let events = tracer.events();
    let st = spans::self_times(&events);
    let per_step = |layer: &str| st.layer_ms(layer) * 1e3 / (traced_steps * RANKS as f64);
    out.metric("exec.apply_us", per_step("exec.apply"), "us");
    out.metric("exec.pack_unpack_us", per_step("exec.pack_unpack"), "us");
    out.metric("exec.swap_wait_us", per_step("exec.swap_wait") + per_step("simmpi"), "us");
    let report = TraceReport::from_events(&events);
    out.metric("exec.overlap_efficiency", report.overlap_efficiency(), "ratio");
    let busy: Vec<f64> = (0..RANKS as u32)
        .map(|r| {
            ["exec.apply", "exec.pack_unpack", "exec.swap_begin", "exec.step"]
                .iter()
                .map(|l| st.pid_ns(r, l) as f64)
                .sum()
        })
        .collect();
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    out.metric(
        "exec.rank_imbalance",
        busy.iter().cloned().fold(0.0, f64::max) / mean.max(1.0),
        "ratio",
    );
    spans::attribution(&st, out);
    let spans = spans::export(&events, RANKS, &format!("perfbench/out/{}.trace.json", spec.name))
        .map_err(|e| format!("chrome trace: {e}"))?;
    out.notes.push(format!("chrome trace: {spans} spans, validated"));

    // Kernel and machine ceiling at the workload's working-set size.
    let apply_io = plans[0]
        .pipeline
        .steps
        .iter()
        .find_map(|s| match s {
            Step::Apply { inputs, outputs, .. } => Some(inputs.len() + outputs.len()),
            _ => None,
        })
        .unwrap_or(0);
    let bytes_per_pt = 8.0 * apply_io as f64;
    out.metric("kernel.bytes_per_pt", bytes_per_pt, "B");
    let (copy, triad) = stream(ws_bytes, RANKS.min(nproc()), 3);
    out.metric("kernel.stream_copy_gbs", copy, "GB/s");
    out.metric("kernel.stream_triad_gbs", triad, "GB/s");
    out.metric("kernel.bw_fraction", gpts * bytes_per_pt / triad, "ratio");
    out.metric("kernel.working_set_mb", ws_bytes as f64 / (1 << 20) as f64, "MB");
    let single = single_rank_rate(spec, &built.op, seed, 1.0)?;
    out.metric("exec.parallel_efficiency", gpts * 1e9 / (RANKS as f64 * single), "ratio");
    Ok(())
}
