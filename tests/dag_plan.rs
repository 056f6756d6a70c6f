//! The template-JIT's lane-DAG plan on the operators the template
//! catalog misses: Devito space-order-12 wave-2d, heat-3d and wave-3d
//! (25–38 taps, wider than any catalog fold) must select
//! `template-jit (… dag …)` and stay bit-identical to the eval oracle —
//! serially, through the worker pool, and on 2 overlapped SimMPI ranks
//! split along the stride-1 dimension, whose boundary-shell rows (and
//! the 3D interiors) are shorter than one 8-point lane block.

use std::sync::Arc;
use stencil_stack::dmp::DistributeStencil;
use stencil_stack::exec::Pipeline;
use stencil_stack::prelude::*;
use stencil_stack::stencil::ShapeInference;

const STEPS: usize = 3;

/// Runs `STEPS` timesteps with the buffer rotation `Operator::run` uses
/// and returns the buffers (the last step wrote index
/// `(STEPS - 1 + nb - 1) % nb`).
fn run(
    pipeline: &Pipeline,
    tier: TierKind,
    threads: usize,
    mut bufs: Vec<Vec<f64>>,
    world: Option<(&Arc<SimWorld>, i64)>,
) -> Vec<Vec<f64>> {
    let mut p = pipeline.clone();
    p.respecialize(Some(tier));
    let nb = bufs.len();
    let mut runner = Runner::new(p, threads);
    for k in 0..STEPS {
        let mut args: Vec<Vec<f64>> =
            (0..nb).map(|i| std::mem::take(&mut bufs[(k + i) % nb])).collect();
        match world {
            Some((w, rank)) => runner.step_distributed(&mut args, w, rank).unwrap(),
            None => runner.step(&mut args).unwrap(),
        }
        for (i, a) in args.into_iter().enumerate() {
            bufs[(k + i) % nb] = a;
        }
    }
    bufs
}

/// Asserts every apply step selects the lane-DAG plan and returns the
/// tier summary.
fn assert_dag(pipeline: &Pipeline, what: &str) -> Vec<String> {
    let mut p = pipeline.clone();
    p.respecialize(None);
    let lines = p.tier_summary();
    assert!(
        !lines.is_empty() && lines.iter().all(|l| l.contains("template-jit") && l.contains("dag")),
        "{what}: {lines:?}"
    );
    lines
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check(name: &str, op: Operator) {
    let shape = op.field_shape();
    let len: usize = shape.iter().product::<i64>() as usize;
    let nb = op.num_buffers();
    let init: Vec<Vec<f64>> =
        (0..nb).map(|b| (0..len).map(|i| ((i * (b + 3)) as f64 * 0.013).sin()).collect()).collect();
    let last = (STEPS - 1 + nb - 1) % nb;

    // Serial: eval oracle vs the DAG plan at 1 and 2 threads.
    let serial = compile_pipeline(&op.compile().unwrap(), "step").unwrap();
    assert_dag(&serial, name);
    let want = run(&serial, TierKind::Eval, 1, init.clone(), None);
    for threads in [1, 2] {
        let got = run(&serial, TierKind::TemplateJit, threads, init.clone(), None);
        assert_eq!(bits(&got[last]), bits(&want[last]), "{name}: {threads} threads");
    }

    // Two overlapped ranks split along the stride-1 dimension.
    let rank_dims = shape.len();
    let mut topology = vec![1; rank_dims];
    topology[rank_dims - 1] = 2;
    let mut m = op.compile().unwrap();
    DistributeStencil::new(topology).with_overlap(true).run(&mut m).unwrap();
    ShapeInference.run(&mut m).unwrap();
    let dist = compile_pipeline(&m, "step").unwrap();
    let lines = assert_dag(&dist, &format!("{name} (2 ranks)"));
    assert!(
        lines.iter().any(|l| l.contains("interior"))
            && lines.iter().any(|l| l.contains("boundary")),
        "{name}: the exchange must be overlapped: {lines:?}"
    );
    let halo = op.halo_lo[rank_dims - 1];
    let width = shape[rank_dims - 1];
    let core = (width - 2 * halo) / 2;
    let local_w = core + 2 * halo;
    let rows = len / width as usize;
    let world = SimWorld::new(2);
    let outs: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2i64)
            .map(|rank| {
                let (world, dist, init) = (Arc::clone(&world), &dist, &init);
                scope.spawn(move || {
                    let local: Vec<Vec<f64>> = init
                        .iter()
                        .map(|buf| {
                            (0..rows)
                                .flat_map(|r| {
                                    let at = r * width as usize + (rank * core) as usize;
                                    buf[at..at + local_w as usize].iter().copied()
                                })
                                .collect()
                        })
                        .collect();
                    run(dist, TierKind::TemplateJit, 1, local, Some((&world, rank)))
                        .swap_remove(last)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Compare every owned point (interior rows of the other dimensions
    // included; halo rows are never written by either run).
    for (rank, out) in outs.iter().enumerate() {
        for r in 0..rows {
            for x in halo..halo + core {
                let got = out[r * local_w as usize + x as usize];
                let exp = want[last][r * width as usize + (rank as i64 * core + x) as usize];
                assert_eq!(got.to_bits(), exp.to_bits(), "{name}: rank {rank} row {r} x {x}");
            }
        }
    }
}

#[test]
fn devito_so12_operators_run_bit_identical_on_the_dag_plan() {
    check("wave-2d so12", problems::acoustic_wave(&[40, 44], 12, 1.0).unwrap());
    check("heat-3d so12", problems::heat(&[12, 12, 32], 12, 0.5).unwrap());
    check("wave-3d so12", problems::acoustic_wave(&[12, 12, 32], 12, 1.0).unwrap());
}
