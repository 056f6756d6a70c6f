//! `compile-mix`: closed-loop clients, one per core (at most two), each
//! sending its own seeded stream of compile requests, each a frontend
//! lowering (Devito or PSyclone) plus `stencil_core::compile` with the
//! shared compile cache on. Timing starts once the cache is full and
//! evicting, the state a long-running compile service is in.
//!
//! Programs: Devito heat/wave in 2D (space orders 2, 4, 8) and 3D (2, 4),
//! PSyclone PW advection and tracer advection. Targets: shared-cpu,
//! distributed 2×1 with overlap (down to MPI calls), gpu, fpga. Tracer
//! advection × distributed is left out: the stack refuses it by design
//! (its halo is asymmetric). Grid sizes vary per request, so cold keys
//! are distinct; a fixed share of requests repeats a recent key and must
//! be served from the cache with text byte-identical to its cold compile.

use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

use stencil_core::devito::problems;
use stencil_core::ir::{DialectRegistry, Module};
use stencil_core::opt::CompileCache;
use stencil_core::psyclone::kernels;
use stencil_core::trace::Tracer;
use stencil_core::{compile, CompileOptions, Compiled};

use crate::compile_probe::{check, op_count, PassSums};
use crate::spans::{self, Rec};
use crate::util::{iqr, median, nproc, warm_up, Outcome, Rng, PASS_THREADS};

/// Repeated requests per cycle: 16 of the cycle's 63 requests (25%).
const REPEATS: usize = 16;
/// Recent cold keys a repeat may pick from.
const RECENT: usize = 16;
/// Fresh processes whose first request gives `setup_s`.
const SETUP_PROBES: usize = 9;
/// Concurrent clients of an untraced run, capped by the core count. On a
/// shared 2-core host each core's speed drifts by up to ±25% over
/// seconds, independently of the other core; one client per core
/// averages both.
const CLIENTS: usize = 2;
/// Longest warm-up before timing, should the cache never fill.
const WARM_UP_CAP: Duration = Duration::from_secs(10);
/// Untraced/traced cycle pairs that open a traced run.
const TRACED_PAIRS: usize = 3;
/// Cycles of a traced run: one client and a fixed request count (7560),
/// so its exact counts repeat for a seed, and enough cold compiles to
/// fill the compile cache's byte budget.
const TRACED_CYCLES: usize = 120;
/// Cold requests served both untraced and traced for the overhead.
const OVERHEAD_PAIRS: usize = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Prog {
    Heat,
    Wave,
    PwAdvection,
    TracerAdvection,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Target {
    SharedCpu,
    Distributed,
    Gpu,
    Fpga,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Request {
    prog: Prog,
    space_order: usize,
    size: Vec<i64>,
    target: Target,
}

impl Request {
    fn points(&self) -> f64 {
        self.size.iter().product::<i64>() as f64
    }

    fn options(&self) -> CompileOptions {
        let o = match self.target {
            Target::SharedCpu => CompileOptions::shared_cpu(),
            Target::Distributed => {
                let mut topo = vec![1; self.size.len()];
                topo[0] = 2;
                CompileOptions::distributed(topo).with_overlap(true)
            }
            Target::Gpu => CompileOptions::gpu(),
            Target::Fpga => CompileOptions::fpga(true),
        };
        o.with_threads(PASS_THREADS)
    }
}

/// One kind of cold request: program, dimensionality, space order and
/// target.
type Kind = (Prog, usize, usize, Target);

/// Every kind once: Devito heat/wave in 2D (space orders 2, 4, 8) and
/// 3D (2, 4), PSyclone PW and tracer advection, on every target except
/// tracer advection × distributed.
fn kinds() -> Vec<Kind> {
    let mut programs = Vec::new();
    for prog in [Prog::Heat, Prog::Wave] {
        programs.extend([2, 4, 8].map(|so| (prog, 2, so)));
        programs.extend([2, 4].map(|so| (prog, 3, so)));
    }
    programs.push((Prog::PwAdvection, 3, 0));
    programs.push((Prog::TracerAdvection, 3, 0));
    let mut out = Vec::new();
    for (prog, dims, so) in programs {
        for target in [Target::SharedCpu, Target::Distributed, Target::Gpu, Target::Fpga] {
            if !(prog == Prog::TracerAdvection && target == Target::Distributed) {
                out.push((prog, dims, so, target));
            }
        }
    }
    out
}

enum Slot {
    Cold(Kind),
    Repeat,
}

/// The seeded request stream, in cycles: each cycle holds every kind
/// once as a cold request (fresh seeded grid size) plus `REPEATS`
/// repeats of a recent key, in seeded order. The first request of the
/// stream is always a Devito heat 2D space-order-4 shared-cpu compile, so
/// `setup_s` measures one kind of first request on every seed.
struct Stream {
    rng: Rng,
    /// This stream's first grid dimensions are `client` modulo `clients`,
    /// so concurrent clients never send the same key.
    client: i64,
    clients: i64,
    queue: VecDeque<Slot>,
    used: HashSet<Request>,
    recent: VecDeque<(Request, String)>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream::client(seed, 0, 1)
    }

    fn client(seed: u64, client: usize, clients: usize) -> Stream {
        Stream {
            rng: Rng::new(seed ^ (client as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)),
            client: client as i64,
            clients: clients as i64,
            queue: VecDeque::new(),
            used: HashSet::new(),
            recent: VecDeque::new(),
        }
    }

    fn cycle_len() -> usize {
        kinds().len() + REPEATS
    }

    fn refill(&mut self) {
        let mut slots: Vec<Slot> = kinds().into_iter().map(Slot::Cold).collect();
        slots.extend((0..REPEATS).map(|_| Slot::Repeat));
        for i in (1..slots.len()).rev() {
            slots.swap(i, (self.rng.next_u64() % (i as u64 + 1)) as usize);
        }
        if self.used.is_empty() {
            let first = (Prog::Heat, 2, 4, Target::SharedCpu);
            let at = slots.iter().position(|s| matches!(s, Slot::Cold(k) if *k == first));
            slots.swap(0, at.expect("the first kind is in every cycle"));
        }
        self.queue.extend(slots);
    }

    /// The next request and, for a repeat, the text its cold compile gave.
    fn next(&mut self) -> (Request, Option<String>) {
        if self.queue.is_empty() {
            self.refill();
        }
        let kind = match self.queue.pop_front().expect("refilled") {
            Slot::Repeat if !self.recent.is_empty() => {
                let i = (self.rng.next_u64() % self.recent.len() as u64) as usize;
                let (req, text) = self.recent[i].clone();
                return (req, Some(text));
            }
            Slot::Repeat => (Prog::Heat, 2, 4, Target::SharedCpu),
            Slot::Cold(kind) => kind,
        };
        loop {
            let req = self.sized(kind);
            if self.used.insert(req.clone()) {
                return (req, None);
            }
        }
    }

    fn sized(&mut self, (prog, dims, space_order, target): Kind) -> Request {
        let rng = &mut self.rng;
        let mut size = match (prog, dims) {
            _ if self.used.is_empty() => {
                let n = rng.range(64, 1024);
                vec![n, n]
            }
            (Prog::Heat | Prog::Wave, 2) => vec![rng.range(32, 2048), rng.range(32, 2048)],
            (Prog::Heat | Prog::Wave, _) => (0..3).map(|_| rng.range(16, 160)).collect(),
            _ => (0..3).map(|_| rng.range(16, 96)).collect(),
        };
        size[0] += (self.client - size[0]).rem_euclid(self.clients);
        Request { prog, space_order, size, target }
    }

    /// Remembers a cold compile as a repeat candidate.
    fn remember(&mut self, req: Request, text: String) {
        self.recent.push_back((req, text));
        if self.recent.len() > RECENT {
            self.recent.pop_front();
        }
    }
}

/// One timed request: frontend lowering, then the shared stack.
struct Served {
    compiled: Compiled,
    lower_s: f64,
    compile_s: f64,
    total_s: f64,
}

fn lower(req: &Request, rec: &Rec) -> Result<Module, String> {
    let s = &req.size;
    match req.prog {
        Prog::Heat | Prog::Wave => {
            let op = rec.span("devito::problems", || {
                if req.prog == Prog::Heat {
                    problems::heat(s, req.space_order, 0.5)
                } else {
                    problems::acoustic_wave(s, req.space_order, 1.5)
                }
            })?;
            rec.span("devito::Operator::compile", || op.compile())
        }
        Prog::PwAdvection => rec
            .span("psyclone::kernels", || kernels::pw_advection(s[0], s[1], s[2]))
            .map(|k| k.module),
        Prog::TracerAdvection => rec
            .span("psyclone::kernels", || kernels::tracer_advection(s[0], s[1], s[2]))
            .map(|k| k.module),
    }
}

fn serve(req: &Request, rec: &Rec) -> Result<Served, String> {
    let t = Instant::now();
    let module = lower(req, rec)?;
    let lower_s = t.elapsed().as_secs_f64();
    let tc = Instant::now();
    let compiled = rec
        .span("stencil_core::compile", || compile(module, &req.options()))
        .map_err(|e| e.to_string())?;
    let compile_s = tc.elapsed().as_secs_f64();
    Ok(Served { compiled, lower_s, compile_s, total_s: t.elapsed().as_secs_f64() })
}

/// Tracing overhead per cold request, in percent: each of `keys` is
/// compiled cold untraced and cold traced (cache cleared before each, the
/// order alternating), after the measured stream.
fn trace_overhead(keys: &[Request], traced: &Rec) -> Result<Vec<f64>, String> {
    let plain = Rec::compiler(&Tracer::disabled());
    let cache = CompileCache::global();
    let mut pct = Vec::new();
    for (i, req) in keys.iter().enumerate() {
        let time = |rec: &Rec| -> Result<f64, String> {
            cache.clear();
            Ok(serve(req, rec)?.total_s)
        };
        let (p, t) = if i % 2 == 0 {
            let p = time(&plain)?;
            (p, time(traced)?)
        } else {
            let t = time(traced)?;
            (time(&plain)?, t)
        };
        pct.push(100.0 * (t - p) / p);
    }
    Ok(pct)
}

/// The first request of a fresh process, in seconds (`--probe-setup`).
pub fn first_request(seed: u64) -> Result<f64, String> {
    let (req, _) = Stream::new(seed).next();
    Ok(serve(&req, &Rec::compiler(&Tracer::disabled()))?.total_s)
}

/// The first-request latency of a fresh process of this binary.
fn first_request_in_child(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let o = std::process::Command::new(&exe)
        .args(["--workload", "compile-mix", "--probe-setup", "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&o.stdout);
    match (o.status.success(), text.lines().last().and_then(|l| l.trim().parse::<f64>().ok())) {
        (true, Some(s)) => Ok(s),
        _ => Err(format!("set-up probe failed: {}", String::from_utf8_lossy(&o.stderr))),
    }
}

#[derive(Default)]
struct Tally {
    cold: Vec<f64>,
    hit: Vec<f64>,
    all: Vec<f64>,
    cycles: Vec<f64>,
    /// Grid points of each request's program per second of its latency.
    rates: Vec<f64>,
    devito: Vec<f64>,
    psyclone: Vec<f64>,
    pipeline: Vec<f64>,
    ops: Vec<u64>,
    passes: PassSums,
}

/// One closed-loop client: its request stream and what it measured.
struct Client {
    stream: Stream,
    registry: DialectRegistry,
    tally: Tally,
    out: Outcome,
    cold_keys: Vec<Request>,
    /// Fresh-process first requests, taken between cycles by the client
    /// given the seed.
    setup_seed: Option<u64>,
    first_requests: Vec<f64>,
}

impl Client {
    fn new(stream: Stream) -> Client {
        Client {
            stream,
            registry: stencil_core::standard_registry(),
            tally: Tally::default(),
            out: Outcome::default(),
            cold_keys: Vec::new(),
            setup_seed: None,
            first_requests: Vec::new(),
        }
    }

    /// Serves and checks one cycle of requests; returns its latency sum.
    fn cycle(&mut self, rec: &Rec, traced: bool) -> f64 {
        let t = &mut self.tally;
        let mut cycle_s = 0.0;
        for _ in 0..Stream::cycle_len() {
            let (req, cold_text) = self.stream.next();
            let served = if traced {
                rec.span("bench:request", || serve(&req, rec))
            } else {
                serve(&req, rec)
            };
            let s = match served {
                Ok(s) => s,
                Err(e) => {
                    self.out.fail(format!("{req:?}: {e}"));
                    continue;
                }
            };
            cycle_s += s.total_s;
            t.all.push(s.total_s);
            t.rates.push(req.points() / s.total_s);
            let bad = check(&self.registry, &s.compiled, cold_text.as_deref());
            if let Some(e) = &bad {
                self.out.notes.push(format!("{req:?}: {e}"));
            }
            self.out.ops(1, u64::from(bad.is_some()), "compile requests");
            match req.prog {
                Prog::Heat | Prog::Wave => t.devito.push(s.lower_s),
                _ => t.psyclone.push(s.lower_s),
            }
            if cold_text.is_some() {
                t.hit.push(s.total_s);
            } else {
                t.cold.push(s.total_s);
                t.pipeline.push(s.compile_s);
                t.ops.push(op_count(&s.compiled.module));
                t.passes.add(&s.compiled.timings);
                if self.cold_keys.len() < OVERHEAD_PAIRS {
                    self.cold_keys.push(req.clone());
                }
                self.stream.remember(req, s.compiled.text);
            }
        }
        t.cycles.push(cycle_s);
        cycle_s
    }

    /// Untraced cycles until `done(cycles served)`, with the set-up
    /// probes spread over them.
    fn run(&mut self, done: &(dyn Fn(usize) -> bool + Sync)) {
        let rec = Rec::compiler(&Tracer::disabled());
        let mut cycles = 0;
        while !done(cycles) {
            self.cycle(&rec, false);
            if let Some(seed) = self.setup_seed {
                if cycles % 3 == 0 && self.first_requests.len() < SETUP_PROBES {
                    match first_request_in_child(seed) {
                        Ok(s) => self.first_requests.push(s),
                        Err(e) => self.out.fail(e),
                    }
                }
            }
            cycles += 1;
        }
    }
}

/// Runs every client on its own thread until `done` stops it.
fn drive(clients: &mut [Client], done: &(dyn Fn(usize) -> bool + Sync)) {
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(move || c.run(done));
        }
    });
}

pub fn run(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) -> Result<(), String> {
    warm_up(2, Duration::from_millis(300));
    if trace {
        traced_run(seed, out)
    } else {
        timed_run(seed, seconds, out)
    }
}

/// The end-to-end run: every client warms up untimed until the shared
/// cache evicts, then all serve for `seconds`; latencies pool over
/// clients.
fn timed_run(seed: u64, seconds: u64, out: &mut Outcome) -> Result<(), String> {
    let n = CLIENTS.min(nproc());
    let mut clients: Vec<Client> =
        (0..n).map(|c| Client::new(Stream::client(seed, c, n))).collect();
    let cache = CompileCache::global();
    let evictions = cache.stats().evictions;
    let warm = Instant::now();
    drive(&mut clients, &|_| cache.stats().evictions > evictions || warm.elapsed() > WARM_UP_CAP);
    for c in &mut clients {
        c.tally = Tally::default();
    }
    clients[0].setup_seed = Some(seed);
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    drive(&mut clients, &|cycles| cycles >= 2 && start.elapsed() >= deadline);

    let mut t = Tally::default();
    let mut first_requests = Vec::new();
    for c in clients {
        t.cold.extend(c.tally.cold);
        t.hit.extend(c.tally.hit);
        t.all.extend(c.tally.all);
        t.cycles.extend(c.tally.cycles);
        t.rates.extend(c.tally.rates);
        first_requests.extend(c.first_requests);
        out.absorb(c.out);
    }
    while first_requests.len() < SETUP_PROBES {
        first_requests.push(first_request_in_child(seed)?);
    }
    out.metric("setup_s", median(&first_requests), "s");
    out.metric("compile_ms_p50", 1e3 * median(&t.cold), "ms");
    out.metric("compile_hit_ms_p50", 1e3 * median(&t.hit), "ms");
    out.metric("step_us_p50", 1e6 * median(&t.all), "us");
    out.metric("solve_s", median(&t.cycles), "s");
    out.metric("gpts_per_s", median(&t.rates) / 1e9, "Gpts/s");
    out.notes.push(format!(
        "compile-mix: {n} clients, {} timed requests ({} cold, {} repeated) in {} cycles after {:.1} s of warm-up",
        t.all.len(),
        t.cold.len(),
        t.hit.len(),
        t.cycles.len(),
        (start - warm).as_secs_f64()
    ));
    Ok(())
}

/// The per-layer run: one client, a fixed `TRACED_CYCLES`, the first
/// few alternating untraced and traced.
fn traced_run(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let tracer = Tracer::new();
    let plain_rec = Rec::compiler(&Tracer::disabled());
    let traced_rec = Rec::compiler(&tracer);
    let cache = CompileCache::global();
    let before = cache.stats();
    let mut c = Client::new(Stream::new(seed));
    for cycle in 0..TRACED_CYCLES {
        let traced = cycle < 2 * TRACED_PAIRS && cycle % 2 == 1;
        c.cycle(if traced { &traced_rec } else { &plain_rec }, traced);
    }
    let after = cache.stats();
    let t = &c.tally;
    out.notes.push(format!(
        "compile-mix: {} requests ({} cold, {} repeated) in {TRACED_CYCLES} cycles",
        t.all.len(),
        t.cold.len(),
        t.hit.len()
    ));
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.metric("opt.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    out.metric("opt.cache_evictions", (after.evictions - before.evictions) as f64, "count");
    out.metric("opt.pipeline_ms", 1e3 * median(&t.pipeline), "ms");
    out.metric("ir.ops_out", t.ops.iter().sum::<u64>() as f64 / t.ops.len().max(1) as f64, "count");
    out.metric("devito.lower_ms", 1e3 * median(&t.devito), "ms");
    out.metric("psyclone.lower_ms", 1e3 * median(&t.psyclone), "ms");
    t.passes.report(out);
    let pct = trace_overhead(&c.cold_keys, &traced_rec)?;
    out.metric("trace.overhead_pct", median(&pct), "%");
    out.metric("trace.overhead_iqr_pct", iqr(&pct), "%");
    let events = tracer.events();
    let n = spans::export(&events, 0, "perfbench/out/compile-mix.trace.json")
        .map_err(|e| format!("chrome trace: {e}"))?;
    out.notes.push(format!("chrome trace: {n} spans, validated"));
    spans::attribution(&spans::self_times(&events), out);
    out.notes.push(format!(
        "passes: {:.3} ms per cold request of {:.3} ms in stencil_core::compile",
        t.passes.total_ms() / t.cold.len().max(1) as f64,
        1e3 * t.pipeline.iter().sum::<f64>() / t.pipeline.len().max(1) as f64
    ));
    out.absorb(c.out);
    Ok(())
}
