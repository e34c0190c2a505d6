//! Golden-file tests for the static netlist checks: one malformed
//! netlist per diagnostic code under `tests/fixtures/lint/`, each
//! asserting the expected code, severity, and line span.

use semsim::check::{check_logic, DiagCode, Diagnostics, LogicModel, Severity};
use semsim::logic::Benchmark;
use semsim::netlist::{lint_circuit, lint_logic, CircuitFile, RawLogicFile};

fn fixture(name: &str) -> (String, Diagnostics) {
    let path = format!("{}/tests/fixtures/lint/{name}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let diags = if name.ends_with(".logic") {
        lint_logic(&RawLogicFile::parse(&source).expect("fixture must parse"))
    } else {
        lint_circuit(&CircuitFile::parse(&source).expect("fixture must parse"))
    };
    (source, diags)
}

/// Asserts that the fixture reports `code` at `line` with `severity`,
/// and that the rendered output carries the `SCnnn` tag and the line.
fn assert_diag(name: &str, code: DiagCode, severity: Severity, line: usize) {
    let (source, diags) = fixture(name);
    let d = diags
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("{name}: no {} finding in {diags:?}", code.code()));
    assert_eq!(d.severity, severity, "{name}: severity of {}", code.code());
    assert_eq!(d.span.line, line, "{name}: line of {}", code.code());
    let rendered = diags.render(name, Some(&source));
    let tag = match severity {
        Severity::Error => format!("error[{}]", code.code()),
        Severity::Warning => format!("warning[{}]", code.code()),
    };
    assert!(
        rendered.contains(&tag),
        "{name}: rendered output lacks {tag}:\n{rendered}"
    );
    assert!(
        rendered.contains(&format!("{name}:{line}")),
        "{name}: rendered output lacks the {line} span:\n{rendered}"
    );
}

#[test]
fn sc001_floating_island() {
    assert_diag(
        "sc001_floating_island.cir",
        DiagCode::FloatingIsland,
        Severity::Error,
        3,
    );
}

#[test]
fn sc002_singular_cmatrix() {
    assert_diag(
        "sc002_singular_cmatrix.cir",
        DiagCode::SingularCapacitanceMatrix,
        Severity::Error,
        2,
    );
}

#[test]
fn sc003_ill_conditioned() {
    assert_diag(
        "sc003_ill_conditioned.cir",
        DiagCode::IllConditionedCMatrix,
        Severity::Warning,
        2,
    );
}

#[test]
fn sc004_overflowed_parameter() {
    assert_diag(
        "sc004_overflowed_parameter.cir",
        DiagCode::NonPositiveParameter,
        Severity::Error,
        1,
    );
}

#[test]
fn sc005_unreachable_island() {
    assert_diag(
        "sc005_unreachable_island.cir",
        DiagCode::UnreachableNode,
        Severity::Warning,
        3,
    );
}

#[test]
fn sc006_combinational_loop() {
    assert_diag(
        "sc006_combinational_loop.logic",
        DiagCode::CombinationalLoop,
        Severity::Error,
        3,
    );
}

#[test]
fn sc007_undriven_input() {
    assert_diag(
        "sc007_undriven_input.logic",
        DiagCode::UndrivenInput,
        Severity::Error,
        3,
    );
}

#[test]
fn sc007_unused_output() {
    assert_diag(
        "sc007_unused_output.logic",
        DiagCode::UnusedOutput,
        Severity::Warning,
        5,
    );
}

#[test]
fn sc008_symm_without_source() {
    assert_diag(
        "sc008_symm_without_source.cir",
        DiagCode::AsymmetricSymmJunction,
        Severity::Error,
        4,
    );
}

#[test]
fn sc009_temp_above_tc() {
    assert_diag(
        "sc009_temp_above_tc.cir",
        DiagCode::SuperconductingGapMismatch,
        Severity::Error,
        7,
    );
}

#[test]
fn sc010_runaway_sweep() {
    assert_diag(
        "sc010_runaway_sweep.cir",
        DiagCode::RunawaySweep,
        Severity::Error,
        8,
    );
}

#[test]
fn sc010_wrong_sign_sweep() {
    assert_diag(
        "sc010_wrong_sign_sweep.cir",
        DiagCode::RunawaySweep,
        Severity::Warning,
        8,
    );
}

#[test]
fn sc011_degenerate_ensemble() {
    assert_diag(
        "sc011_degenerate_ensemble.cir",
        DiagCode::DegenerateEnsemble,
        Severity::Warning,
        8,
    );
}

#[test]
fn sc012_unjournaled_long_sweep() {
    assert_diag(
        "sc012_unjournaled_long_sweep.cir",
        DiagCode::UnjournaledLongSweep,
        Severity::Warning,
        8,
    );
}

#[test]
fn sc013_non_uniform_grid() {
    assert_diag(
        "sc013_non_uniform_grid.cir",
        DiagCode::NonUniformSweepGrid,
        Severity::Warning,
        8,
    );
}

#[test]
fn sc014_dead_sweep() {
    assert_diag(
        "sc014_dead_sweep.cir",
        DiagCode::DeadSweep,
        Severity::Warning,
        8,
    );
}

#[test]
fn sc014_dead_input() {
    assert_diag(
        "sc014_dead_input.logic",
        DiagCode::DeadSweep,
        Severity::Warning,
        1,
    );
}

#[test]
fn sc015_constant_sweep() {
    assert_diag(
        "sc015_constant_sweep.cir",
        DiagCode::ConstantFoldableSweep,
        Severity::Warning,
        8,
    );
}

#[test]
fn sc015_shadowed_jump() {
    assert_diag(
        "sc015_shadowed_jump.cir",
        DiagCode::ConstantFoldableSweep,
        Severity::Warning,
        6,
    );
}

#[test]
fn sc016_constant_probe() {
    assert_diag(
        "sc016_constant_probe.cir",
        DiagCode::ConstantProbe,
        Severity::Warning,
        5,
    );
}

#[test]
fn sc017_theta_regime() {
    assert_diag(
        "sc017_theta_regime.cir",
        DiagCode::AdaptiveThresholdRegime,
        Severity::Warning,
        5,
    );
}

#[test]
fn sc018_conflicting_jumps() {
    assert_diag(
        "sc018_conflicting_jumps.cir",
        DiagCode::ConflictingStimuli,
        Severity::Error,
        6,
    );
}

/// The `clean_*` fixtures exercise the dataflow directives (`jump`,
/// `probe`, `adaptive`) in configurations the checks must accept.
#[test]
fn clean_fixtures_are_clean() {
    for name in ["clean_jump_probe.cir", "clean_adaptive_ok.cir"] {
        let (_, diags) = fixture(name);
        assert!(diags.is_empty(), "{name} is not clean: {diags:?}");
    }
}

/// A netlist with several findings on scattered lines: the diagnostics
/// come out sorted by (line, code) regardless of check-pass order, and
/// re-linting renders byte-identical output (the golden ordering
/// contract CI and editors rely on).
#[test]
fn diagnostics_are_ordered_and_byte_stable() {
    let source = "\
junc 1 1 3 1e-6 1e-18
junc 2 3 0 1e-6 1e-18
junc 3 2 3 1e-6 1e-18
vdc 1 0.1
vdc 2 0.0
temp 0.1
adaptive 0.3 1000
probe 2 100
jump 1 1e-9 0.05
jump 1 1e-9 0.05
";
    let lint = || lint_circuit(&CircuitFile::parse(source).expect("parses"));
    let diags = lint();
    let found: Vec<(usize, &str)> = diags.iter().map(|d| (d.span.line, d.code.code())).collect();
    assert_eq!(
        found,
        vec![(7, "SC017"), (8, "SC016"), (10, "SC015")],
        "diagnostics must be sorted by (line, code)"
    );
    assert_eq!(
        diags.render("ordered.cir", Some(source)),
        lint().render("ordered.cir", Some(source)),
        "re-linting must render byte-identical output"
    );
}

/// In-source allow pragmas silence findings at the golden level too: a
/// file-wide `*` pragma and a line-scoped trailing pragma.
#[test]
fn allow_pragmas_silence_fixture_findings() {
    let base = std::fs::read_to_string(format!(
        "{}/tests/fixtures/lint/sc015_constant_sweep.cir",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture readable");
    let file_wide = format!("* lint: allow SC015\n{base}");
    let diags = lint_circuit(&CircuitFile::parse(&file_wide).expect("parses"));
    assert!(diags.is_empty(), "file-wide pragma failed: {diags:?}");
    let line_scoped = base.replace(
        "sweep 2 -0.02 0.002",
        "sweep 2 -0.02 0.002 # lint: allow SC015",
    );
    let diags = lint_circuit(&CircuitFile::parse(&line_scoped).expect("parses"));
    assert!(diags.is_empty(), "line-scoped pragma failed: {diags:?}");
}

/// The example netlists shipped with the crate must lint clean — they
/// are what `semsim lint` is demonstrated on in the README.
#[test]
fn shipped_examples_are_clean() {
    let dir = format!("{}/examples/netlists", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/netlists exists") {
        let path = entry.expect("readable dir entry").path();
        let name = path.display().to_string();
        let source = std::fs::read_to_string(&path).expect("readable example");
        let diags = if name.ends_with(".logic") {
            lint_logic(&RawLogicFile::parse(&source).expect("example parses"))
        } else {
            lint_circuit(&CircuitFile::parse(&source).expect("example parses"))
        };
        assert!(diags.is_empty(), "{name} is not clean: {diags:?}");
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected at least 3 example netlists, found {checked}"
    );
}

#[test]
fn paper_benchmarks_pass_the_logic_checks() {
    // `LogicFile` parse validation already rejects the structural
    // errors (cycles, undriven signals), so no validated benchmark
    // netlist may carry a `check_logic` error.
    for bench in Benchmark::all() {
        let logic = bench.logic();
        let mut model = LogicModel::new();
        for name in &logic.inputs {
            model.add_input(name.clone());
        }
        for name in &logic.outputs {
            model.add_output(name.clone());
        }
        for g in &logic.gates {
            model.add_gate(g.output.clone(), g.inputs.iter().cloned());
        }
        let diags = check_logic(&model);
        assert!(!diags.has_errors(), "{}: {diags:?}", bench.name());
    }
}
