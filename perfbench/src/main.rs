//! `perfbench` — the repository benchmark: four closed-loop workloads,
//! each from a frontend program to a verified result, in one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <heat2d-dram|wave2d-halo|cg-2rank|compile-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that prints the per-layer
//! metrics and writes `perfbench/out/<workload>.trace.json`. Either way
//! every output is checked against the eval tier (or the cold compile)
//! outside the timed region, and the last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for what each metric means on each workload.

mod cg;
mod compile_mix;
mod compile_probe;
mod spans;
mod stepping;
mod util;

use util::Outcome;

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 7] = [
    ("gpts_per_s", "Gpts/s"),
    ("step_us_p50", "us"),
    ("solve_s", "s"),
    ("compile_ms_p50", "ms"),
    ("compile_hit_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run.
const PER_LAYER: [(&str, &str); 40] = [
    ("devito.lower_ms", "ms"),
    ("psyclone.lower_ms", "ms"),
    ("opt.pipeline_ms", "ms"),
    ("opt.cache_hit_ratio", "ratio"),
    ("opt.cache_evictions", "count"),
    ("ir.ops_out", "count"),
    ("stencil.pass_ms", "ms"),
    ("dmp.pass_ms", "ms"),
    ("mpi.pass_ms", "ms"),
    ("dialects.pass_ms", "ms"),
    ("ir.pass_ms", "ms"),
    ("opt.target_pass_ms", "ms"),
    ("exec.build_ms", "ms"),
    ("exec.apply_us", "us"),
    ("exec.pack_unpack_us", "us"),
    ("exec.swap_wait_us", "us"),
    ("exec.overlap_efficiency", "ratio"),
    ("exec.step_us_p99", "us"),
    ("exec.rank_imbalance", "ratio"),
    ("exec.points_per_step", "count"),
    ("exec.flops_per_step", "count"),
    ("exec.parallel_efficiency", "ratio"),
    ("kernel.bytes_per_pt", "B"),
    ("kernel.bw_fraction", "ratio"),
    ("kernel.stream_copy_gbs", "GB/s"),
    ("kernel.stream_triad_gbs", "GB/s"),
    ("kernel.working_set_mb", "MB"),
    ("simmpi.msgs_per_step", "count"),
    ("simmpi.bytes_per_step", "B"),
    ("simmpi.recv_blocked_ratio", "ratio"),
    ("cg.iterations", "count"),
    ("cg.iter_ms", "ms"),
    ("cg.op_us", "us"),
    ("cg.axpy_us", "us"),
    ("cg.dot_us", "us"),
    ("cg.unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_iqr_pct", "%"),
    ("attr.coverage", "ratio"),
    ("attr.unattributed_ms", "ms"),
];

/// Per-layer metrics a workload does not exercise; they read 0.
fn not_exercised(workload: &str) -> Vec<&'static str> {
    const STEPPING_ONLY: [&str; 17] = [
        "exec.apply_us",
        "exec.pack_unpack_us",
        "exec.swap_wait_us",
        "exec.overlap_efficiency",
        "exec.step_us_p99",
        "exec.rank_imbalance",
        "exec.points_per_step",
        "exec.flops_per_step",
        "exec.parallel_efficiency",
        "kernel.bytes_per_pt",
        "kernel.bw_fraction",
        "kernel.stream_copy_gbs",
        "kernel.stream_triad_gbs",
        "kernel.working_set_mb",
        "simmpi.msgs_per_step",
        "simmpi.bytes_per_step",
        "simmpi.recv_blocked_ratio",
    ];
    const CG_ONLY: [&str; 6] = [
        "cg.iterations",
        "cg.iter_ms",
        "cg.op_us",
        "cg.axpy_us",
        "cg.dot_us",
        "cg.unattributed_us",
    ];
    let mut v = Vec::new();
    match workload {
        "heat2d-dram" | "wave2d-halo" => {
            v.extend(["psyclone.lower_ms", "opt.target_pass_ms"]);
            v.extend(CG_ONLY);
        }
        "cg-2rank" => {
            v.extend(["devito.lower_ms", "psyclone.lower_ms", "opt.target_pass_ms"]);
            v.extend(STEPPING_ONLY);
        }
        _ => {
            v.push("exec.build_ms");
            v.extend(STEPPING_ONLY);
            v.extend(CG_ONLY);
        }
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe_setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, probe_setup: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got '{v}'")),
                }
            }
            "--probe-setup" => a.probe_setup = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !["heat2d-dram", "wave2d-halo", "cg-2rank", "compile-mix"].contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be heat2d-dram | wave2d-halo | cg-2rank | compile-mix, got '{}'",
            a.workload
        ));
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.probe_setup {
        match compile_mix::first_request(args.seed) {
            Ok(s) => println!("{s:?}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "heat2d-dram" => {
            stepping::run(&stepping::HEAT, args.seed, args.seconds, args.trace, &mut out)
        }
        "wave2d-halo" => {
            stepping::run(&stepping::WAVE, args.seed, args.seconds, args.trace, &mut out)
        }
        "cg-2rank" => cg::run(args.seconds, args.trace, &mut out),
        _ => compile_mix::run(args.seed, args.seconds, args.trace, &mut out),
    };
    if let Err(e) = result {
        out.fail(format!("{}: {e}", args.workload));
    }
    out.metric("peak_rss_mb", util::peak_rss_mb(), "MB");
    for name in not_exercised(&args.workload) {
        if out.get(name).is_none() {
            out.metric(name, 0.0, "");
        }
    }
    let line = out.render(if args.trace { &PER_LAYER } else { &END_TO_END });
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# env workload={} seed={} seconds={} trace={} nproc={} l3_bytes={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc(),
        util::l3_bytes(),
        util::commit()
    );
    println!("{line}");
}
