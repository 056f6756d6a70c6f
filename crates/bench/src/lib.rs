//! # sten-bench — the evaluation harness (paper §6)
//!
//! One binary per table/figure regenerates the paper's rows and series:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig07_cpu_throughput` | Fig. 7a/7b — single-node CPU, Devito vs xDSL |
//! | `fig08_strong_scaling` | Fig. 8a/8b — heat/wave so4 strong scaling |
//! | `fig09_gpu_throughput` | Fig. 9a/9b — V100, OpenACC-Devito vs xDSL |
//! | `fig10_psyclone` | Fig. 10a/10b — PSyclone CPU + GPU |
//! | `fig11_psyclone_scaling` | Fig. 11a/11b — PW/tracer advection scaling |
//! | `table1_fpga` | Table 1 — U280 initial vs optimized |
//! | `ablations` | DESIGN.md §5 design-choice ablations |
//!
//! Kernel characteristics (flops/point, stencil points, regions) are
//! extracted from **really compiled pipelines** at reduced grid sizes and
//! scaled to the paper's problem sizes; throughput comes from the
//! `sten-perf` machine models (see EXPERIMENTS.md for the
//! paper-vs-modeled record and the honesty notes).

use stencil_core::perf::KernelProfile;
use stencil_core::prelude::*;

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain([h.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

/// The paper's kernel labels: space orders matching the figure point
/// counts (radii 1/2/3 — see EXPERIMENTS.md on the SDO-8 label).
pub const SPACE_ORDERS: [(usize, &str, &str); 3] =
    [(2, "5pt", "7pt"), (4, "9pt", "13pt"), (6, "13pt", "19pt")];

/// Builds the heat kernel profile from a real compiled pipeline at a
/// reduced size, then rescales the point count to `points`.
///
/// `factorized` selects Devito's flop-reduced codegen versus the plain
/// xDSL pipeline.
pub fn heat_profile(dims: usize, so: usize, factorized: bool, points: f64) -> KernelProfile {
    let small: Vec<i64> = if dims == 2 { vec![48, 48] } else { vec![24, 24, 24] };
    let opt = if factorized { OptLevel::Advanced } else { OptLevel::Noop };
    let op = stencil_core::devito::problems::heat_with_opt(&small, so, 0.5, opt).expect("heat");
    let module = op.compile().expect("compiles");
    let pipeline = compile_pipeline(&module, "step").expect("pipeline");
    KernelProfile::from_pipeline("heat", dims, &pipeline).scaled_points(points)
}

/// Like [`heat_profile`] for the acoustic wave equation.
pub fn wave_profile(dims: usize, so: usize, factorized: bool, points: f64) -> KernelProfile {
    let small: Vec<i64> = if dims == 2 { vec![48, 48] } else { vec![24, 24, 24] };
    let opt = if factorized { OptLevel::Advanced } else { OptLevel::Noop };
    let op =
        stencil_core::devito::problems::acoustic_wave_with_opt(&small, so, 1.0, opt).expect("wave");
    let module = op.compile().expect("compiles");
    let pipeline = compile_pipeline(&module, "step").expect("pipeline");
    KernelProfile::from_pipeline("wave", dims, &pipeline).scaled_points(points)
}

/// PW advection profile from the real PSyclone frontend (fused), scaled.
pub fn pw_profile(points: f64) -> KernelProfile {
    let k = stencil_core::psyclone::kernels::pw_advection(32, 32, 16).expect("pw");
    let pipeline = compile_pipeline(&k.module, "pw_advection").expect("pipeline");
    KernelProfile::from_pipeline("pw", 3, &pipeline).scaled_points(points)
}

/// Tracer advection profile (fused: 18 regions), scaled.
pub fn traadv_profile(points: f64) -> KernelProfile {
    let k = stencil_core::psyclone::kernels::tracer_advection(32, 16, 8).expect("traadv");
    let pipeline = compile_pipeline(&k.module, "tra_adv").expect("pipeline");
    KernelProfile::from_pipeline("traadv", 3, &pipeline).scaled_points(points)
}

/// The median of `samples` (the upper one for an even count), sorting
/// them in place.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The interquartile range of `samples` (nearest-rank quartiles),
/// sorting them in place.
///
/// # Panics
/// Panics on an empty slice.
pub fn iqr(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    samples[(3 * n) / 4] - samples[n / 4]
}

/// Formats a throughput in GPts/s to 3 significant digits.
pub fn gpts(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else if v >= 0.01 {
        format!("{v:.2}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_build_from_real_pipelines() {
        let p = heat_profile(2, 4, true, 1e6);
        assert_eq!(p.points, 1e6);
        assert!(p.flops_per_point > 4.0);
        let w = wave_profile(3, 2, false, 1e6);
        assert!(w.flops_per_point > p.flops_per_point * 0.2);
        let pw = pw_profile(1e6);
        assert_eq!(pw.regions, 1, "fused PW is one region");
        let ta = traadv_profile(1e6);
        assert_eq!(ta.regions, 18);
    }

    #[test]
    fn median_and_iqr_of_unsorted_samples() {
        let mut s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut s), 3.0);
        assert_eq!(iqr(&mut s), 2.0);
        assert_eq!(median(&mut [2.0, 1.0]), 2.0);
        assert_eq!(iqr(&mut [7.0]), 0.0);
    }

    #[test]
    fn factorization_lowers_flop_counts() {
        let fac = heat_profile(3, 6, true, 1e6);
        let plain = heat_profile(3, 6, false, 1e6);
        assert!(fac.flops_per_point < plain.flops_per_point);
    }
}
