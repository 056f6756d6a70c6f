//! `cg-2rank`: `cg::solve_distributed` of `(I − λ∇²) x = b` on 2 ranks
//! (2×1 standard slicing, overlapped exchange), n = 512, λ = 4,
//! tol 1e-10. Each iteration runs runtime-scalar kernels (three `axpy`)
//! and two exact reductions with an allreduce, so this is where scalar
//! kernel tiers and the accumulator show. `cg::rhs` is fixed: the
//! workload ignores the seed.
//!
//! Per-layer attribution comes from kernel probes: one `Runner::step` of
//! the public sample kernels (`samples::heat_2d` distributed to rank 0,
//! `samples::axpy`, `samples::reduce_nd`) on rank 0's local box, times
//! the per-iteration counts (1 operator, 3 axpy, 2 dot). What they do not
//! explain (allreduce, halo wait, rank skew) is `cg.unattributed_us`.

use std::time::{Duration, Instant};

use stencil_core::cg::{self, CgConfig, CgReport};
use stencil_core::exec::{compile_module_tiered, Pipeline, Step};
use stencil_core::ir::{Bounds, Module, Pass as _};
use stencil_core::opt::Driver;
use stencil_core::prelude::{Runner, TierKind};
use stencil_core::stencil::{samples, ShapeInference};
use stencil_core::trace::Tracer;

use crate::compile_probe;
use crate::spans::{self, Rec};
use crate::util::{iqr, median, warm_up, Outcome};

const N: i64 = 512;
const LAMBDA: f64 = 4.0;
/// Set-up measurements (`solve_distributed` with `max_iters = 0`) and
/// cold/repeated compile pairs taken before each untraced solve.
const SETUPS_PER_SOLVE: usize = 2;
const PAIRS_PER_SOLVE: usize = 2;
/// Traced/untraced solve pairs in a traced run.
const TRACED_PAIRS: usize = 4;
/// How far the kernel probes × per-iteration counts may be from the
/// iteration time, as a share of it (allreduce, halo wait and rank skew
/// live in the remainder).
const PROBE_TOLERANCE: f64 = 0.5;

fn config(max_iters: usize, tier: Option<TierKind>) -> CgConfig {
    CgConfig { n: N, lam: LAMBDA, tol: 1e-10, max_iters, threads: 1, tier }
}

fn solve(max_iters: usize) -> Result<CgReport, String> {
    cg::solve_distributed(&config(max_iters, None), "standard-slicing", None, vec![2, 1], true)
        .map_err(|e| e.to_string())
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(seconds: u64, trace: bool, out: &mut Outcome) -> Result<(), String> {
    warm_up(2, Duration::from_millis(300));
    let mut probe = compile_probe::Probe::new(
        || {
            let mut m = samples::heat_2d(N, -LAMBDA);
            ShapeInference.run(&mut m).map_err(|e| e.to_string())?;
            Ok(m)
        },
        vec![2, 1],
        true,
    );
    let mut setups = Vec::new();

    // The eval-tier serial solve every distributed solve must match.
    let reference = cg::solve(&config(200, Some(TierKind::Eval))).map_err(|e| e.to_string())?;

    let tracer = if trace { Tracer::new() } else { Tracer::disabled() };
    let rec = Rec::compiler(&tracer);
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut iterations = 0;
    let mut i = 0;
    while i < 3 || (start.elapsed() < deadline && (!trace || i < 2 * TRACED_PAIRS)) {
        let is_traced = trace && i % 2 == 1;
        // Set-up and compile samples between solves, spread over the run.
        if !is_traced {
            for _ in 0..SETUPS_PER_SOLVE {
                let t = Instant::now();
                solve(0)?;
                setups.push(t.elapsed().as_secs_f64());
            }
            probe.sample(PAIRS_PER_SOLVE, out)?;
        }
        let t = Instant::now();
        let report = if is_traced {
            rec.span("bench:solve-loop", || rec.span("cg::solve_distributed", || solve(200)))
        } else {
            solve(200)
        };
        let dt = t.elapsed().as_secs_f64();
        match report {
            Ok(r) => {
                let ok = r.converged
                    && r.iterations == reference.iterations
                    && same_bits(&r.residuals, &reference.residuals)
                    && same_bits(&r.x, &reference.x);
                out.ops(1, u64::from(!ok), "solves bit-identical to the eval-tier serial solve");
                iterations = r.iterations;
            }
            Err(e) => out.fail(format!("solve: {e}")),
        }
        if is_traced {
            traced.push(dt)
        } else {
            plain.push(dt)
        }
        i += 1;
    }
    probe.finish(out);
    let setup = median(&setups);
    out.metric("setup_s", setup, "s");
    let solve_s = median(&plain);
    let iters = iterations.max(1) as f64;
    let per_iter: Vec<f64> = plain.iter().map(|s| 1e6 * (s - setup) / iters).collect();
    out.metric("solve_s", solve_s, "s");
    out.metric("step_us_p50", median(&per_iter), "us");
    out.metric("gpts_per_s", (N * N) as f64 * iters / solve_s / 1e9, "Gpts/s");
    out.notes.push(format!("cg-2rank: {} solves, {iterations} iterations each", plain.len()));

    if trace {
        let pct: Vec<f64> = plain.iter().zip(&traced).map(|(p, t)| 100.0 * (t - p) / p).collect();
        out.metric("trace.overhead_pct", median(&pct), "%");
        out.metric("trace.overhead_iqr_pct", iqr(&pct), "%");
        out.metric("cg.iterations", iterations as f64, "count");
        let iter_us = median(&per_iter);
        out.metric("cg.iter_ms", iter_us / 1e3, "ms");
        let probes = probes(&tracer, out)?;
        let explained = probes.op + 3.0 * probes.axpy + 2.0 * probes.dot;
        out.metric("cg.unattributed_us", iter_us - explained, "us");
        let events = tracer.events();
        let n = spans::export(&events, 2, "perfbench/out/cg-2rank.trace.json")
            .map_err(|e| format!("chrome trace: {e}"))?;
        out.notes.push(format!("chrome trace: {n} spans, validated"));
        spans::attribution(&spans::self_times(&events), out);
        let share = explained / iter_us;
        out.notes.push(format!(
            "cg probes explain {:.1}% of an iteration (tolerance: 100 ± {:.0}%)",
            100.0 * share,
            100.0 * PROBE_TOLERANCE
        ));
        if !(1.0 - PROBE_TOLERANCE..=1.0 + PROBE_TOLERANCE).contains(&share) {
            out.fail(format!(
                "cg attribution: probes explain {:.1}% of an iteration",
                100.0 * share
            ));
        } else {
            out.ops(1, 0, "cg probe attribution");
        }
    }
    Ok(())
}

struct Probes {
    op: f64,
    axpy: f64,
    dot: f64,
}

/// Median µs of `Runner::step` over `reps` calls after a warm-up.
fn time_steps(runner: &mut Runner, args: &mut [Vec<f64>], reps: usize) -> Result<f64, String> {
    for _ in 0..3 {
        runner.step(args)?;
    }
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        runner.step(args)?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

fn build(m: &Module, func: &str, rec: &Rec) -> Result<Pipeline, String> {
    rec.span("exec::compile_module_tiered", || compile_module_tiered(m, func, None))
}

/// The kernel probes on rank 0's local box, plus `exec.build_ms` for
/// their three pipelines.
fn probes(tracer: &Tracer, out: &mut Outcome) -> Result<Probes, String> {
    let rec = Rec::compiler(tracer);
    rec.span("bench:probe", || -> Result<Probes, String> {
        let t = Instant::now();
        let op_m = rec
            .span("Driver::run_str", || {
                Driver::new().with_cache(None).run_str(
                    samples::heat_2d(N, -LAMBDA),
                    "shape-inference,distribute-stencil{grid=2x1 overlap=true rank=0},shape-inference",
                )
            })
            .map_err(|e| e.to_string())?
            .module;
        let mut op = build(&op_m, "heat", &rec)?;
        // The exchange is measured by the solve, not the probe.
        op.steps.retain(|s| !matches!(s, Step::SwapBegin { .. } | Step::SwapWait { .. }));
        let field = Bounds::new(vec![(-1, N / 2 + 1), (-1, N + 1)]);
        if op.arg_shapes[0] != field.shape() {
            return Err(format!("rank 0 box {:?} is not {:?}", op.arg_shapes[0], field.shape()));
        }
        let core = Bounds::new(vec![(0, N / 2), (0, N)]);
        let prep = |mut m: Module| -> Result<Module, String> {
            ShapeInference.run(&mut m).map_err(|e| e.to_string())?;
            Ok(m)
        };
        let axpy = build(&prep(samples::axpy(field.clone(), core.clone()))?, "axpy", &rec)?;
        let dot = build(&prep(samples::reduce_nd("dot", field.clone(), core))?, "reduce", &rec)?;
        out.metric("exec.build_ms", 1e3 * t.elapsed().as_secs_f64(), "ms");
        out.notes.push(format!(
            "cg probe tiers: op {:?}, axpy {:?}, dot {:?}",
            op.tier_summary(),
            axpy.tier_summary(),
            dot.step_summary()
        ));

        let len = field.num_points() as usize;
        let buf = |k: f64| -> Vec<f64> { (0..len).map(|i| ((i as f64) * k).sin()).collect() };
        let mut op_r = rec.span("Runner::new", || Runner::new(op, 1));
        let mut axpy_r = rec.span("Runner::new", || Runner::new(axpy, 1));
        let mut dot_r = rec.span("Runner::new", || Runner::new(dot, 1));
        axpy_r.set_scalar(0, 0.5);
        let p = Probes {
            op: rec.span("Runner::step", || time_steps(&mut op_r, &mut [buf(0.01), buf(0.02)], 200))?,
            axpy: rec.span("Runner::step", || {
                time_steps(&mut axpy_r, &mut [buf(0.01), buf(0.02), buf(0.03)], 100)
            })?,
            dot: rec.span("Runner::step", || time_steps(&mut dot_r, &mut [buf(0.01), buf(0.02)], 100))?,
        };
        out.metric("cg.op_us", p.op, "us");
        out.metric("cg.axpy_us", p.axpy, "us");
        out.metric("cg.dot_us", p.dot, "us");
        Ok(p)
    })
}
