//! The traced run's own spans and their analysis.
//!
//! The benchmark records one span around every call it makes into a
//! public entry point of a layer (`devito::problems`, `Driver::run_str`,
//! `Runner::step_distributed`, ...) into the program's own
//! [`Tracer`], on the rank's process track or the compiler track. The
//! program's built-in sinks (`Runner::with_trace`, `SimWorld::new_traced`,
//! `Driver::with_trace`) add their spans to the same tracer. Parent links
//! are derived from nesting on each `(pid, tid)` track, exactly as the
//! Chrome exporter's validator checks them; a span's self time is its
//! duration minus the time its direct children cover.

use std::collections::BTreeMap;
use stencil_core::trace::{chrome, Event, SpanKind, Tracer, COMPILER_PID};

use crate::util::Outcome;

/// Records benchmark spans into a tracer; a no-op on a disabled tracer.
#[derive(Clone)]
pub struct Rec {
    tracer: Tracer,
    pid: u32,
}

impl Rec {
    pub fn new(tracer: &Tracer, pid: u32) -> Rec {
        Rec { tracer: tracer.clone(), pid }
    }

    pub fn compiler(tracer: &Tracer) -> Rec {
        Rec::new(tracer, COMPILER_PID)
    }

    /// Runs `f` inside a span named after the public call it makes.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = self.tracer.now();
        let out = f();
        self.tracer.record_span(self.pid, 0, t0, || SpanKind::Pass { name });
        out
    }
}

/// Root spans: time inside them that no child covers is unattributed.
pub const ROOTS: [&str; 5] =
    ["bench:setup", "bench:rank-loop", "bench:request", "bench:solve-loop", "bench:probe"];

/// The layer a span belongs to.
pub fn layer_of(kind: &SpanKind) -> &'static str {
    match kind {
        SpanKind::Pass { name } => match *name {
            n if ROOTS.contains(&n) => "unattributed",
            "devito::problems" | "devito::Operator::compile" => "devito",
            "psyclone::kernels" => "psyclone",
            "stencil_core::compile" | "Driver::run_str" | "compile-cache-hit" => "opt",
            "exec::compile_module_tiered" | "Runner::new" => "exec.build",
            "Runner::step_distributed" | "Runner::step" => "exec.call",
            "cg::solve_distributed" => "core",
            pass => pass_group(pass),
        },
        SpanKind::Timestep { .. } => "exec.step",
        SpanKind::Apply { .. } => "exec.apply",
        SpanKind::SwapBegin { .. } => "exec.swap_begin",
        SpanKind::SwapWait { .. } => "exec.swap_wait",
        SpanKind::Pack { .. } | SpanKind::Unpack { .. } => "exec.pack_unpack",
        SpanKind::Copy { .. } | SpanKind::Task => "exec.step",
        SpanKind::Reduce { .. } => "exec.reduce",
        SpanKind::MsgRecv { .. } | SpanKind::MsgSend { .. } => "simmpi",
        _ => "other",
    }
}

/// The crate that owns a registered pass (the `*.pass_ms` groups).
pub fn pass_group(pass: &str) -> &'static str {
    match pass {
        "stencil-shape-inference"
        | "shape-inference"
        | "stencil-fusion"
        | "stencil-horizontal-fusion"
        | "convert-stencil-to-loops"
        | "tile-parallel-loops" => "stencil",
        "distribute-stencil" | "dmp-eliminate-redundant-swaps" => "dmp",
        "dmp-to-mpi" | "mpi-to-func" => "mpi",
        "canonicalize" | "licm" => "dialects",
        "cse" | "dce" => "ir",
        "gpu-map-parallel-loops" | "hls-mark-dataflow" => "opt.target",
        _ => "other",
    }
}

/// Per-layer self time over a set of events.
#[derive(Default, Debug)]
pub struct SelfTimes {
    /// Layer → self time in ns, over all tracks.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// `(pid, layer)` → self time in ns.
    pub by_pid: BTreeMap<(u32, &'static str), u64>,
    /// Total duration of root spans (the wall-clock the check covers).
    pub root_ns: u64,
}

impl SelfTimes {
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn pid_ns(&self, pid: u32, layer: &str) -> u64 {
        self.by_pid.get(&(pid, layer)).copied().unwrap_or(0)
    }

    /// Share of the roots' wall-clock covered by some layer's span.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        1.0 - self.layer_ms("unattributed") * 1e6 / self.root_ns as f64
    }
}

/// Self time per layer, nesting spans per `(pid, tid)` track. Events
/// outside any root span are ignored (they belong to no measured call).
pub fn self_times(events: &[Event]) -> SelfTimes {
    let mut tracks: BTreeMap<(u32, u32), Vec<&Event>> = BTreeMap::new();
    for e in events.iter().filter(|e| !e.kind.is_instant()) {
        tracks.entry((e.pid, e.tid)).or_default().push(e);
    }
    let mut out = SelfTimes::default();
    for ((pid, _), mut evs) in tracks {
        evs.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        // Stack of (index, end); each event's self time starts at its
        // duration and loses its direct children's durations.
        let mut self_ns: Vec<i128> = evs.iter().map(|e| e.dur_ns as i128).collect();
        let mut in_root = vec![false; evs.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if evs[top].end_ns() <= e.start_ns || evs[top].end_ns() < e.end_ns() {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                self_ns[parent] -= e.dur_ns as i128;
                in_root[i] = in_root[parent];
            }
            if layer_of(&e.kind) == "unattributed" {
                in_root[i] = true;
                if stack.is_empty() {
                    out.root_ns += e.dur_ns;
                }
            }
            stack.push(i);
        }
        for (i, e) in evs.iter().enumerate() {
            if !in_root[i] {
                continue;
            }
            let layer = layer_of(&e.kind);
            let ns = self_ns[i].max(0) as u64;
            *out.by_layer.entry(layer).or_default() += ns;
            *out.by_pid.entry((pid, layer)).or_default() += ns;
        }
    }
    out
}

/// Largest unattributed share of the traced wall-clock.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.05;

/// The attribution check over the traced run's root spans.
pub fn attribution(st: &SelfTimes, out: &mut Outcome) {
    let coverage = st.coverage();
    out.metric("attr.coverage", coverage, "ratio");
    out.metric("attr.unattributed_ms", st.layer_ms("unattributed"), "ms");
    for (layer, ns) in &st.by_layer {
        out.notes.push(format!("self time {layer:<18} {:>12.3} ms", *ns as f64 / 1e6));
    }
    if coverage < 1.0 - ATTRIBUTION_TOLERANCE {
        out.fail(format!(
            "attribution: layers cover {:.1}% of the traced wall-clock (tolerance {:.0}%)",
            100.0 * coverage,
            100.0 * ATTRIBUTION_TOLERANCE
        ));
    } else {
        out.ops(1, 0, "attribution check");
    }
}

/// Events per `(pid, tid)` track written to the Chrome trace. The
/// program's trace validator parses strings in time quadratic in the
/// document size, so the file keeps the first events of every track (the
/// set-up and the first traced steps); the per-layer numbers use every
/// event. Any subset of properly nested spans is properly nested.
pub const EXPORT_PER_TRACK: usize = 300;

/// Writes the Chrome trace of the first [`EXPORT_PER_TRACK`] events of
/// every track to `path` and validates it with the program's own schema
/// checker. Returns the number of spans written.
pub fn export(events: &[Event], ranks: usize, path: &str) -> Result<usize, String> {
    let mut names: Vec<(u32, String)> =
        (0..ranks as u32).map(|r| (r, format!("rank {r}"))).collect();
    names.push((COMPILER_PID, "compiler".to_string()));
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    let mut kept: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    let subset: Vec<Event> = sorted
        .into_iter()
        .filter(|e| {
            let n = kept.entry((e.pid, e.tid)).or_default();
            *n += 1;
            *n <= EXPORT_PER_TRACK
        })
        .cloned()
        .collect();
    let json = chrome::to_json(&subset, &names);
    let stats = chrome::validate(&json)?;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    Ok(stats.spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pid: u32, start: u64, dur: u64, kind: SpanKind) -> Event {
        Event { pid, tid: 0, start_ns: start, dur_ns: dur, kind }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            ev(0, 0, 100, SpanKind::Pass { name: "bench:rank-loop" }),
            ev(0, 10, 80, SpanKind::Pass { name: "Runner::step_distributed" }),
            ev(0, 12, 70, SpanKind::Timestep { index: 0 }),
            ev(0, 15, 40, SpanKind::Apply { tier: "eval", region: String::new(), points: 1 }),
            // Outside every root: ignored.
            ev(0, 200, 50, SpanKind::Apply { tier: "eval", region: String::new(), points: 1 }),
        ];
        let t = self_times(&events);
        assert_eq!(t.by_layer["unattributed"], 20);
        assert_eq!(t.by_layer["exec.call"], 10);
        assert_eq!(t.by_layer["exec.step"], 30);
        assert_eq!(t.by_layer["exec.apply"], 40);
        assert_eq!(t.root_ns, 100);
        assert!((t.coverage() - 0.8).abs() < 1e-12);
    }
}
