//! End-to-end tests of the `sten-opt` binary: textual IR in, pipeline,
//! textual IR out — plus the introspection and error paths.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn sten_opt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sten-opt"))
}

fn sample_ir() -> String {
    sten_ir::print_module(&sten_stencil::samples::jacobi_1d(64))
}

#[test]
fn lowers_ir_from_stdin_to_stdout() {
    let mut child = sten_opt()
        .args(["-p", "shape-inference,convert-stencil-to-loops,canonicalize", "--verify-each"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(sample_ir().as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("scf.parallel"), "{text}");
    assert!(!text.contains("stencil.apply"), "lowered:\n{text}");
    // The output is itself valid input: it reparses.
    sten_ir::parse_module(&text).unwrap();
}

#[test]
fn file_input_output_with_timing_report() {
    let dir = std::env::temp_dir().join(format!("sten-opt-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.ir");
    let output = dir.join("out.ir");
    std::fs::write(&input, sample_ir()).unwrap();
    let out = sten_opt()
        .arg(&input)
        .args(["--target", "shared-cpu", "--timing", "--no-cache"])
        .args(["-o".as_ref(), output.as_os_str()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("Pass execution timing report"), "{stderr}");
    assert!(stderr.contains("tile-parallel-loops"), "{stderr}");
    // The executor-tier report derives from the stencil-level input:
    // jacobi is a 3-tap chain, which the template-JIT tier monomorphizes.
    assert!(stderr.contains("executor tiers"), "{stderr}");
    assert!(stderr.contains("@jacobi apply#0: template-jit (3 taps, chain"), "{stderr}");
    let written = std::fs::read_to_string(&output).unwrap();
    assert!(written.contains("scf.for"), "tiled output written to -o");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tier_env_override_reaches_timing_report() {
    let mut child = sten_opt()
        .args(["-p", "shape-inference", "--timing", "--no-cache"])
        .env("STEN_EXEC_TIER", "eval")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(sample_ir().as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("@jacobi apply#0: eval ("), "pinned to the seed tier:\n{stderr}");
}

#[test]
fn overlap_pipeline_reports_the_interior_boundary_step_split() {
    let heat = sten_ir::print_module(&sten_stencil::samples::heat_2d(64, 0.1));
    let mut child = sten_opt()
        .args([
            "-p",
            "shape-inference,distribute-stencil{grid=2x2 overlap=true},shape-inference,\
             convert-stencil-to-loops,dmp-to-mpi,mpi-to-func",
            "--timing",
            "--no-cache",
            "--verify-each",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(heat.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The overlapped lowering split the waitall barrier into per-receive
    // waits and boundary shell loops.
    assert!(stdout.contains("mpi.wait") || stdout.contains("MPI_Wait"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("executor tiers"), "{stderr}");
    // The step report shows the full overlap structure: swap begin,
    // interior apply, swap wait, boundary shells.
    assert!(stderr.contains("@heat swap#0 begin"), "{stderr}");
    assert!(stderr.contains("interior"), "{stderr}");
    assert!(stderr.contains("@heat swap#0 wait"), "{stderr}");
    assert!(stderr.contains("boundary"), "{stderr}");
    // The distributed --timing report folds measured durations and the
    // aggregated comm/compute overlap report into the step structure.
    assert!(stderr.contains("µs/step"), "measured step durations:\n{stderr}");
    assert!(stderr.contains("overlap efficiency"), "{stderr}");
    assert!(stderr.contains("comm hidden"), "{stderr}");
}

#[test]
fn trace_out_writes_a_validating_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("sten-opt-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let heat = sten_ir::print_module(&sten_stencil::samples::heat_2d(48, 0.1));
    let mut child = sten_opt()
        .args([
            "-p",
            "shape-inference,distribute-stencil{grid=2x1 overlap=true},shape-inference,\
             convert-stencil-to-loops",
            "--timing",
            "--trace-out",
        ])
        .arg(&trace)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(heat.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let json = std::fs::read_to_string(&trace).unwrap();
    let stats = sten_trace::chrome::validate(&json).expect("trace validates");
    assert!(stats.spans > 0, "trace records spans");
    // Compiler pass spans live on their own process track; the traced
    // SPMD smoke execution contributes one track per rank.
    assert!(stats.pids.contains(&sten_trace::COMPILER_PID), "{:?}", stats.pids);
    assert!(stats.pids.contains(&0) && stats.pids.contains(&1), "{:?}", stats.pids);
    assert!(json.contains("pass distribute-stencil"), "pass spans are named:\n{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn print_ir_after_all_dumps_every_stage() {
    let mut child = sten_opt()
        .args(["-p", "shape-inference,convert-stencil-to-loops", "--print-ir-after-all"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(sample_ir().as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("IR Dump After stencil-shape-inference"), "{stderr}");
    assert!(stderr.contains("IR Dump After convert-stencil-to-loops"), "{stderr}");
}

#[test]
fn unknown_pass_fails_with_a_suggestion() {
    let mut child = sten_opt()
        .args(["-p", "shape-inference,canonicalise"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(sample_ir().as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "bad pass name must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown pass 'canonicalise'"), "{stderr}");
    assert!(stderr.contains("did you mean 'canonicalize'"), "{stderr}");
}

#[test]
fn list_passes_and_show_pipeline() {
    let out = sten_opt().arg("--list-passes").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for pass in ["stencil-shape-inference", "dmp-to-mpi", "tile-parallel-loops", "cse"] {
        assert!(text.contains(pass), "--list-passes missing {pass}:\n{text}");
    }
    assert!(text.contains("shared-cpu"), "{text}");

    let out = sten_opt().args(["--target", "distributed", "--show-pipeline"]).output().unwrap();
    assert!(out.status.success());
    let line = String::from_utf8(out.stdout).unwrap();
    assert!(line.contains("distribute-stencil{topology=2}"), "{line}");
    // The printed pipeline is valid input for -p: round-trip it.
    let mut child = sten_opt()
        .args(["-p", line.trim()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(sample_ir().as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8(out.stdout).unwrap().contains("MPI_Isend"));
}

#[test]
fn nested_pipelines_run_identically_with_and_without_parallelism() {
    let ir = sten_ir::print_module(&sten_stencil::samples::heat_2d_many(8, 24, 0.1));
    let run = |extra: &[&str]| {
        let mut args = vec![
            "-p",
            "shape-inference,convert-stencil-to-loops,func.func(canonicalize,licm,cse,dce)",
            "--verify-each",
            "--no-cache",
        ];
        args.extend(extra);
        let mut child = sten_opt()
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child.stdin.take().unwrap().write_all(ir.as_bytes()).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        (String::from_utf8(out.stdout).unwrap(), String::from_utf8(out.stderr).unwrap())
    };
    let (parallel, _) = run(&[]);
    let (serial, _) = run(&["--no-parallel"]);
    let (two, _) = run(&["--threads", "2"]);
    assert_eq!(serial, parallel, "--no-parallel must not change the IR");
    assert_eq!(two, parallel, "--threads 2 must not change the IR");
    assert!(parallel.contains("scf.parallel"));
    // --timing reports the per-function breakdown of the anchored group.
    let (_, stderr) = run(&["--timing"]);
    assert!(stderr.contains("per-function breakdown"), "{stderr}");
    assert!(stderr.contains("cse @heat_3"), "{stderr}");
}

#[test]
fn decomposition_strategy_options_end_to_end() {
    // A 127×127 core does not divide by 2 in either dimension: balanced
    // slabs distribute it anyway, and recursive-bisection keeps the 2x2
    // layout on the square domain.
    let ir = sten_ir::print_module(&sten_stencil::samples::heat_2d(127, 0.1));
    let run = |pipeline: &str| {
        let mut child = sten_opt()
            .args(["-p", pipeline, "--verify-each"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child.stdin.take().unwrap().write_all(ir.as_bytes()).unwrap();
        child.wait_with_output().unwrap()
    };
    let out = run("shape-inference,distribute-stencil{grid=2x2,strategy=recursive-bisection},\
                   shape-inference");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("#dmp.grid<2x2>"), "{text}");
    // Rank 0 of the uneven decomposition owns a 64x64 slab (127 = 64+63)
    // and records its coordinates.
    assert!(text.contains("dmp.coords"), "{text}");
    sten_ir::parse_module(&text).unwrap();

    // Rank 3 gets the 63x63 remainder slab.
    let out =
        run("shape-inference,distribute-stencil{grid=2x2,rank=3,strategy=recursive-bisection},\
         shape-inference");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let rank3 = String::from_utf8(out.stdout).unwrap();
    assert_ne!(text, rank3, "uneven slabs are rank-dependent");

    // A typo in the strategy fails before anything runs, with a hint.
    let out = run("shape-inference,distribute-stencil{grid=2x2,strategy=recursive-bisect}");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("did you mean 'recursive-bisection'"), "{stderr}");
}

#[test]
fn unknown_anchor_fails_with_a_suggestion() {
    let mut child = sten_opt()
        .args(["-p", "func.fnc(cse,dce)"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(sample_ir().as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "bad anchor must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown anchor 'func.fnc'"), "{stderr}");
    assert!(stderr.contains("did you mean 'func.func'"), "{stderr}");
}

#[test]
fn misanchored_pass_fails_cleanly() {
    let mut child = sten_opt()
        .args(["-p", "func.func(shape-inference)"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(sample_ir().as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("anchored to builtin.module"), "{stderr}");
}

#[test]
fn malformed_ir_and_missing_pipeline_fail_cleanly() {
    let mut child = sten_opt()
        .args(["-p", "cse"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(b"not ir at all").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));

    // A malformed result list (`%2 , =`) is a diagnostic, not a panic.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/heat_48.ir");
    let ir = std::fs::read_to_string(fixture).unwrap().replacen(
        "%2 = \"stencil.load\"",
        "%2 , = \"stencil.load\"",
        1,
    );
    assert!(ir.contains("%2 , ="), "fixture edit applied");
    let mut child = sten_opt()
        .args(["-p", "canonicalize"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(ir.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("parse error") && stderr.contains("found Equal"), "{stderr}");

    let out = sten_opt().output().unwrap();
    assert!(!out.status.success(), "no pipeline given must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no pipeline"));
}
