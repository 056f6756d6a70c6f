//! Compile latency of one workload's program through `stencil_core::compile`
//! to the full distributed target, cold (cache cleared) and repeated
//! (served by the compile cache), and the pass-pipeline layer metrics
//! shared with `compile-mix`.

use std::collections::BTreeMap;
use std::time::Instant;

use stencil_core::ir::{verify_module, DialectRegistry, Module, PassTiming};
use stencil_core::opt::{CacheStats, CompileCache};
use stencil_core::{compile, CompileOptions, Compiled};

use crate::spans::pass_group;
use crate::util::{median, Outcome, PASS_THREADS};

/// Sums of the Driver's own per-pass timings by owning crate, over cold
/// compiles.
#[derive(Default)]
pub struct PassSums {
    by_group: BTreeMap<&'static str, f64>,
    compiles: usize,
}

impl PassSums {
    pub fn add(&mut self, timings: &[PassTiming]) {
        for t in timings {
            *self.by_group.entry(pass_group(t.name)).or_default() += t.duration.as_secs_f64();
        }
        self.compiles += 1;
    }

    pub fn total_ms(&self) -> f64 {
        1e3 * self.by_group.values().sum::<f64>()
    }

    /// Mean per cold compile, in ms, per group.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.compiles.max(1) as f64;
        for (group, name) in [
            ("stencil", "stencil.pass_ms"),
            ("dmp", "dmp.pass_ms"),
            ("mpi", "mpi.pass_ms"),
            ("dialects", "dialects.pass_ms"),
            ("ir", "ir.pass_ms"),
            ("opt.target", "opt.target_pass_ms"),
        ] {
            let ms = 1e3 * self.by_group.get(group).copied().unwrap_or(0.0) / n;
            out.metric(name, ms, "ms");
        }
    }
}

pub fn op_count(m: &Module) -> u64 {
    let mut n = 0;
    m.walk(|_| n += 1);
    n
}

/// Checks one compile result: the module verifies, and when `cold` is
/// given, the text is byte-identical to it. Returns the failure, if any.
pub fn check(registry: &DialectRegistry, got: &Compiled, cold: Option<&str>) -> Option<String> {
    if let Err(e) = verify_module(&got.module, Some(registry)) {
        return Some(format!("lowered module fails verification: {e}"));
    }
    match cold {
        Some(text) if text != got.text => Some("cache hit differs from the cold compile".into()),
        _ => None,
    }
}

/// Cold/hit compile pairs of one program for a distributed target,
/// sampled a few at a time across a run (so a run's share of machine
/// noise is spread over its whole duration), then reported as
/// `compile_ms_p50`, `compile_hit_ms_p50` and the opt/pass metrics.
pub struct Probe<F> {
    build: F,
    opts: CompileOptions,
    registry: DialectRegistry,
    before: CacheStats,
    cold: Vec<f64>,
    hit: Vec<f64>,
    pipeline: Vec<f64>,
    sums: PassSums,
    ops: u64,
}

impl<F: Fn() -> Result<Module, String>> Probe<F> {
    pub fn new(build: F, topology: Vec<i64>, overlap: bool) -> Probe<F> {
        Probe {
            build,
            opts: CompileOptions::distributed(topology)
                .with_overlap(overlap)
                .with_threads(PASS_THREADS),
            registry: stencil_core::standard_registry(),
            before: CompileCache::global().stats(),
            cold: Vec::new(),
            hit: Vec::new(),
            pipeline: Vec::new(),
            sums: PassSums::default(),
            ops: 0,
        }
    }

    /// Measures `pairs` cold (cache cleared) / repeated compiles; both
    /// outputs must verify and the repeat must be byte-identical.
    pub fn sample(&mut self, pairs: usize, out: &mut Outcome) -> Result<(), String> {
        let cache = CompileCache::global();
        for _ in 0..pairs {
            cache.clear();
            let t = Instant::now();
            let module = (self.build)()?;
            let tc = Instant::now();
            let first = compile(module, &self.opts).map_err(|e| e.to_string())?;
            self.pipeline.push(tc.elapsed().as_secs_f64());
            self.cold.push(t.elapsed().as_secs_f64());
            self.sums.add(&first.timings);
            self.ops = op_count(&first.module);
            let t = Instant::now();
            let again = compile((self.build)()?, &self.opts).map_err(|e| e.to_string())?;
            self.hit.push(t.elapsed().as_secs_f64());
            let mut bad = 0;
            for (c, reference) in [(&first, None), (&again, Some(first.text.as_str()))] {
                if let Some(e) = check(&self.registry, c, reference) {
                    out.notes.push(e);
                    bad += 1;
                }
            }
            if !again.cache_hit {
                out.notes.push("repeated compile missed the cache".into());
            }
            out.ops(2, bad, "compiles of the workload program");
        }
        Ok(())
    }

    pub fn finish(self, out: &mut Outcome) {
        let after = CompileCache::global().stats();
        out.metric("compile_ms_p50", 1e3 * median(&self.cold), "ms");
        out.metric("compile_hit_ms_p50", 1e3 * median(&self.hit), "ms");
        out.metric("opt.pipeline_ms", 1e3 * median(&self.pipeline), "ms");
        let (hits, misses) = (after.hits - self.before.hits, after.misses - self.before.misses);
        out.metric("opt.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
        out.metric(
            "opt.cache_evictions",
            (after.evictions - self.before.evictions) as f64,
            "count",
        );
        out.metric("ir.ops_out", self.ops as f64, "count");
        self.sums.report(out);
    }
}
