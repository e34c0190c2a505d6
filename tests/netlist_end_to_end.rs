//! End-to-end test of the paper's input-file flow: parse the Example
//! Input File 1 text, compile, execute the declared sweep, and check
//! the resulting physics.

use semsim::netlist::CircuitFile;

const PAPER_FILE: &str = "\
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
charge 4 0.0
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1
num j 2
num ext 3
num nodes 4
temp 5
record 1 2 2
jumps 15000 1
sweep 2 0.02 0.005
";

#[test]
fn paper_example_file_runs_end_to_end() {
    let file = CircuitFile::parse(PAPER_FILE).unwrap();
    let pts = file.execute().unwrap();
    // −20 mV → +20 mV in 5 mV steps = 9 points.
    assert_eq!(pts.len(), 9);
    // Ends conduct (40 mV total bias > 32 mV threshold), middle is
    // blockaded at 5 K (soft, but strongly suppressed).
    let ends = pts[0].current.abs().min(pts[8].current.abs());
    let mid = pts[4].current.abs();
    assert!(ends > 1e-10, "{ends}");
    assert!(mid < 0.05 * ends, "mid {mid} vs ends {ends}");
    // Odd symmetry.
    assert!(
        (pts[0].current + pts[8].current).abs() < 0.2 * pts[8].current.abs(),
        "{} vs {}",
        pts[0].current,
        pts[8].current
    );
}

#[test]
fn adaptive_directive_matches_nonadaptive_result() {
    let adaptive_file = format!("{PAPER_FILE}adaptive 0.05 1000\nseed 2\n");
    let reference = CircuitFile::parse(PAPER_FILE).unwrap().execute().unwrap();
    let adaptive = CircuitFile::parse(&adaptive_file)
        .unwrap()
        .execute()
        .unwrap();
    for (a, b) in reference.iter().zip(&adaptive) {
        let scale = a.current.abs().max(1e-12);
        assert!(
            (a.current - b.current).abs() / scale < 0.15,
            "at {}: {} vs {}",
            a.control,
            a.current,
            b.current
        );
    }
}

#[test]
fn superconducting_file_suppresses_more_current() {
    // 32.8 mV total bias: just above the normal-state threshold
    // (e/CΣ = 32 mV) but inside the superconducting suppressed region,
    // which the gap widens by ≈ 4Δ/e per junction (compare Fig. 1b/1c).
    let normal = "\
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.0164
vdc 2 -0.0164
vdc 3 0.0
temp 0.05
jumps 8000 1
";
    let sc = format!("{normal}super\ngap 0.2e-3\ntc 1.2\n");
    let i_normal = CircuitFile::parse(normal).unwrap().execute().unwrap()[0].current;
    let i_sc = CircuitFile::parse(&sc).unwrap().execute().unwrap()[0].current;
    assert!(i_normal.abs() > 1e-11, "{i_normal}");
    assert!(i_sc.abs() < 0.05 * i_normal.abs(), "{i_sc} vs {i_normal}");
}

#[test]
fn logic_netlist_through_full_stack() {
    // Parse a gate-level netlist, elaborate, simulate, check the levels.
    use semsim::core::engine::SimConfig;
    use semsim::logic::{elaborate, settle_outputs, SetLogicParams};
    use semsim::netlist::LogicFile;

    let logic = LogicFile::parse("input a\noutput y z\ninv y a\ninv z y\n").unwrap();
    let params = SetLogicParams::default();
    let elab = elaborate(&logic, &params).unwrap();
    let cfg = SimConfig::new(params.temperature).with_seed(8);
    let settle = 60.0 * params.switching_time();
    let outs = settle_outputs(&elab, &logic, &cfg, &[true], settle).unwrap();
    assert!(outs["y"] < 0.3 * params.vdd, "y = {}", outs["y"]);
    assert!(outs["z"] > 0.6 * params.vdd, "z = {}", outs["z"]);
}

/// Runs the `semsim` binary on a netlist holding `text`; returns its
/// exit status and stderr.
fn semsim_on(command: &str, name: &str, text: &str) -> (std::process::ExitStatus, String) {
    let path = std::env::temp_dir().join(format!("semsim_e2e_{name}_{}.cir", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_semsim"))
        .args([command, &path.display().to_string(), "--events", "300"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    (out.status, String::from_utf8(out.stderr).unwrap())
}

#[test]
fn cli_batches_print_each_lint_warning_once() {
    const SET: &str = "\
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
temp 5
";
    // A 3-replica ensemble warns SC011 (it fits in one worker's chunk).
    let (status, stderr) = semsim_on("run", "ensemble", &format!("{SET}jumps 1000 3\n"));
    assert!(status.success(), "{stderr}");
    assert_eq!(stderr.matches("warning[SC011]").count(), 1, "{stderr}");
    // A sweep whose step does not divide its range warns SC013.
    let (status, stderr) = semsim_on("sweep", "sweep", &format!("{SET}sweep 2 0.02 0.003\n"));
    assert!(status.success(), "{stderr}");
    assert_eq!(stderr.matches("warning[SC013]").count(), 1, "{stderr}");
    assert_eq!(stderr.matches("warning[").count(), 1, "{stderr}");
}
