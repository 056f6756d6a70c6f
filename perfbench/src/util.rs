//! Shared helpers: the seeded generator, order statistics, the metric
//! sink that prints the final JSON line, the machine record, and the
//! STREAM-style bandwidth ceiling.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: a tiny, seedable, reproducible generator (no external
/// crates). Also used as a stateless hash for per-point initial values.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform random sample of at most `cap` values (Algorithm R), so the
/// memory a run uses does not grow with how many values it sees.
pub struct Reservoir {
    values: Vec<f64>,
    cap: usize,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir { values: Vec::with_capacity(cap), cap, seen: 0, rng: Rng::new(seed) }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(v);
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < self.cap {
                self.values[j] = v;
            }
        }
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// The initial value of time level `level` at global point `p`: uniform
/// in `[-1, 1)`, a pure function of `(seed, level, p)` so every rank and
/// every reference fills the same field without sharing a buffer.
pub fn initial_value(seed: u64, level: usize, p: &[i64]) -> f64 {
    let mut h = mix(seed ^ ((level as u64 + 1) << 56));
    for &c in p {
        h = mix(h ^ (c + (1 << 20)) as u64);
    }
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Interquartile range.
pub fn iqr(v: &[f64]) -> f64 {
    quantile(v, 0.75) - quantile(v, 0.25)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Keeps `threads` cores busy for `dur` before anything is measured, so
/// the first measurements of a process do not run at an idle clock.
pub fn warm_up(threads: usize, dur: std::time::Duration) {
    std::thread::scope(|s| {
        for t in 0..threads.max(1) {
            s.spawn(move || {
                let start = Instant::now();
                let mut x = t as u64;
                while start.elapsed() < dur {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(mix(x));
                    }
                }
            });
        }
    });
}

/// Pass-scheduler threads for every compile. Serial is the stack's
/// deterministic-timing setting; on a 2-core machine the 2-thread
/// scheduler measured both slower and several times noisier.
pub const PASS_THREADS: usize = 1;

/// Threads the benchmark may use: two ranks, never more than the cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Operation counts and the metrics of one run; renders the result line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, ..)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Records `failed` failures out of `attempted` operations, with the
    /// reason when any failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("FAILED {failed}/{attempted} {what}"));
        }
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(format!("FAILED {what}"));
    }

    /// Adds another outcome's operation counts and notes to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, ..)| *n == name).map(|m| m.1)
    }

    /// The result line, restricted to `names` (every one must be set; a
    /// missing or non-finite value is itself a failure).
    pub fn render(&mut self, names: &[(&'static str, &'static str)]) -> String {
        let mut body = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                other => {
                    self.fail(format!("metric {name} missing or not finite ({other:?})"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        if self.attempted == 0 {
            self.fail("no operation attempted".into());
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Bandwidth ceiling measured in this binary: STREAM copy (`a = b`,
/// 16 B/element) and triad (`a = b + s·c`, 24 B/element, write-allocate
/// traffic not counted, the STREAM convention) over three arrays whose
/// total size is `ws_bytes`, split across `threads` threads the way the
/// ranks split the stencil. Each thread sweeps its chunk repeatedly
/// (at least 256 MiB of traffic per measurement, so small working sets
/// are not dominated by thread start-up). Returns `(copy, triad)` in
/// GB/s, each the best of `reps` measurements.
pub fn stream(ws_bytes: usize, threads: usize, reps: usize) -> (f64, f64) {
    let n = (ws_bytes / 24).max(1024);
    let chunk = n.div_ceil(threads.max(1));
    let sweeps = ((256usize << 20) / (n * 24)).max(1);
    let mut a = vec![0.0f64; n];
    let b: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 * 1e-3).collect();
    let c: Vec<f64> = (0..n).map(|i| (i % 777) as f64 * 1e-3).collect();
    let measure = |a: &mut [f64], triad: bool| -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((ac, bc), cc) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for _ in 0..sweeps {
                        if triad {
                            for ((x, y), z) in ac.iter_mut().zip(bc).zip(cc) {
                                *x = y + 3.0 * z;
                            }
                        } else {
                            ac.copy_from_slice(bc);
                        }
                        std::hint::black_box(&mut *ac);
                    }
                });
            }
        });
        t0.elapsed().as_secs_f64() / sweeps as f64
    };
    measure(&mut a, true);
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        best.0 = best.0.min(measure(&mut a, false));
        best.1 = best.1.min(measure(&mut a, true));
    }
    let bytes = n as f64 * 8.0;
    (2.0 * bytes / best.0 / 1e9, 3.0 * bytes / best.1 / 1e9)
}

/// Size of the last-level (L3) cache in bytes, 0 when unknown.
pub fn l3_bytes() -> u64 {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .unwrap_or_default();
    let t = text.trim();
    let (num, mult) = match t.chars().last() {
        Some('K') => (&t[..t.len() - 1], 1u64 << 10),
        Some('M') => (&t[..t.len() - 1], 1 << 20),
        _ => (t, 1),
    };
    num.parse::<u64>().map_or(0, |v| v * mult)
}

/// The commit the checkout was made from, when it is a git work tree
/// (read from `.git` directly so no other process is started).
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn initial_values_are_reproducible_and_bounded() {
        let a = initial_value(7, 0, &[-2, 5]);
        assert_eq!(a.to_bits(), initial_value(7, 0, &[-2, 5]).to_bits());
        assert_ne!(a.to_bits(), initial_value(8, 0, &[-2, 5]).to_bits());
        assert_ne!(a.to_bits(), initial_value(7, 1, &[-2, 5]).to_bits());
        assert!((-1.0..1.0).contains(&a));
    }
}
