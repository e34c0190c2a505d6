//! Parser for the paper's SPICE-like circuit input format.
//!
//! Directive reference (one per line, `#` starts a comment):
//!
//! | directive | meaning |
//! |---|---|
//! | `junc <id> <n1> <n2> <G> <C>` | tunnel junction, conductance `G` (S) and capacitance `C` (F) — `1e-6 1e-18` is the paper's 1 MΩ / 1 aF junction |
//! | `cap <n1> <n2> <C>` | ordinary capacitor (F) |
//! | `charge <node> <q>` | island background charge in units of `e` |
//! | `vdc <node> <V>` | DC voltage source: marks `<node>` as a lead |
//! | `symm <node>` | symmetric bias: during a sweep, hold this source at minus the swept value |
//! | `num j\|ext\|nodes <n>` | declared counts, cross-checked after parsing |
//! | `temp <K>` | temperature |
//! | `cotunnel` | enable second-order cotunneling |
//! | `super` | superconducting circuit |
//! | `gap <eV>` | zero-temperature gap Δ(0) in eV |
//! | `tc <K>` | critical temperature |
//! | `record <from> <to> <every>` | record junctions `from..=to` every `every` events |
//! | `jumps <events> <runs>` | Monte Carlo length and repetitions |
//! | `time <s>` | simulated-time horizon (alternative to `jumps`) |
//! | `sweep <node> <end> <step>` | sweep the source on `<node>` from its `vdc` value to `end` |
//! | `adaptive <theta> <refresh>` | use the adaptive solver |
//! | `seed <n>` | RNG seed |
//! | `journal <path>` | default journal file for crash-safe batch execution |
//! | `jump <node> <t> <V>` | step the source on `<node>` to `V` volts at time `t` (s) |
//! | `probe <node> <every>` | print the potential of `<node>` every `every` events |
//!
//! Lines starting with `*` are comments too (SPICE idiom). A comment —
//! either form — containing `lint: allow SCxxx` suppresses that
//! diagnostic: file-wide when the comment stands alone on its line,
//! line-scoped when it trails a directive.

use crate::ParseError;

/// A `junc` declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JunctionDecl {
    /// User-assigned junction id (1-based in the paper's files).
    pub id: usize,
    /// First node number.
    pub node_a: usize,
    /// Second node number.
    pub node_b: usize,
    /// Tunnel conductance (S); resistance is `1/G`.
    pub conductance: f64,
    /// Capacitance (F).
    pub capacitance: f64,
}

impl JunctionDecl {
    /// Tunnel resistance (Ω).
    pub fn resistance(&self) -> f64 {
        1.0 / self.conductance
    }
}

/// A `cap` declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitorDecl {
    /// First node number.
    pub node_a: usize,
    /// Second node number.
    pub node_b: usize,
    /// Capacitance (F).
    pub capacitance: f64,
}

/// A `record` specification: junctions `from..=to`, sampled every
/// `every` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpec {
    /// First recorded junction id.
    pub from: usize,
    /// Last recorded junction id.
    pub to: usize,
    /// Sampling period in events.
    pub every: u64,
}

/// A `sweep` specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpec {
    /// Node whose source is swept.
    pub node: usize,
    /// Final voltage (V); the start is the node's `vdc` value.
    pub end: f64,
    /// Step (V).
    pub step: f64,
}

/// A `jump` declaration: a voltage step applied mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JumpDecl {
    /// Node whose source is stepped (must carry a `vdc`).
    pub node: usize,
    /// Time of the step (s, ≥ 0).
    pub time: f64,
    /// Voltage after the step (V).
    pub voltage: f64,
}

/// A `probe` declaration: periodic potential readout of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeDecl {
    /// Probed node number.
    pub node: usize,
    /// Sampling period in events (> 0).
    pub every: u64,
}

/// One `lint: allow SCxxx` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintAllow {
    /// The suppressed code, upper-cased (e.g. `"SC014"`).
    pub code: String,
    /// Line the pragma applies to; 0 = whole file (the pragma stood
    /// alone on its line).
    pub line: usize,
}

/// Superconducting declarations (`super`, `gap`, `tc`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperDecl {
    /// Zero-temperature gap Δ(0) (eV).
    pub gap_ev: f64,
    /// Critical temperature (K).
    pub tc: f64,
}

/// Source line numbers (1-based; 0 = synthesized) for the declarations
/// of a [`CircuitFile`]. The vectors run parallel to the corresponding
/// declaration vectors. Spans are excluded from [`CircuitFile`]
/// equality so that round-tripping through
/// [`CircuitFile::to_input_format`] compares equal.
#[derive(Debug, Clone, Default)]
pub struct CircuitSpans {
    /// Line of each `junc` directive.
    pub junctions: Vec<usize>,
    /// Line of each `cap` directive.
    pub capacitors: Vec<usize>,
    /// Line of each `charge` directive.
    pub charges: Vec<usize>,
    /// Line of each `vdc` directive.
    pub sources: Vec<usize>,
    /// Line of the `symm` directive.
    pub symm: usize,
    /// Line of the `temp` directive.
    pub temp: usize,
    /// Line of the `gap` directive.
    pub gap: usize,
    /// Line of the `tc` directive.
    pub tc: usize,
    /// Line of the `super` directive.
    pub superconducting: usize,
    /// Line of the `sweep` directive.
    pub sweep: usize,
    /// Line of the `jumps` directive.
    pub jumps: usize,
    /// Line of the `journal` directive.
    pub journal: usize,
    /// Line of the `adaptive` directive.
    pub adaptive: usize,
    /// Line of the `record` directive.
    pub record: usize,
    /// Line of each `jump` directive.
    pub stimuli: Vec<usize>,
    /// Line of each `probe` directive.
    pub probes: Vec<usize>,
}

/// A parsed circuit input file.
#[derive(Debug, Clone)]
pub struct CircuitFile {
    /// Tunnel junctions in file order.
    pub junctions: Vec<JunctionDecl>,
    /// Ordinary capacitors in file order.
    pub capacitors: Vec<CapacitorDecl>,
    /// `(node, background charge in e)` pairs.
    pub charges: Vec<(usize, f64)>,
    /// `(node, volts)` DC sources.
    pub sources: Vec<(usize, f64)>,
    /// Node held at minus the swept voltage, if any.
    pub symmetric_with: Option<usize>,
    /// Declared junction count (`num j`).
    pub declared_junctions: Option<usize>,
    /// Declared external-node count (`num ext`).
    pub declared_ext: Option<usize>,
    /// Declared total node count (`num nodes`).
    pub declared_nodes: Option<usize>,
    /// Temperature (K); defaults to 0.
    pub temperature: f64,
    /// Cotunneling enabled.
    pub cotunnel: bool,
    /// Superconducting parameters, if `super` was given.
    pub superconducting: Option<SuperDecl>,
    /// Recording request.
    pub record: Option<RecordSpec>,
    /// `(events, runs)` from `jumps`.
    pub jumps: Option<(u64, u32)>,
    /// Simulated-time horizon (s) from `time`.
    pub sim_time: Option<f64>,
    /// Sweep request.
    pub sweep: Option<SweepSpec>,
    /// `(threshold, refresh_interval)` from `adaptive`.
    pub adaptive: Option<(f64, u64)>,
    /// RNG seed.
    pub seed: Option<u64>,
    /// Default journal path for batch execution (`journal` directive).
    pub journal: Option<String>,
    /// Mid-run voltage steps (`jump` directives) in file order.
    pub stimuli: Vec<JumpDecl>,
    /// Potential probes (`probe` directives) in file order.
    pub probes: Vec<ProbeDecl>,
    /// `lint: allow` pragmas (not part of equality).
    pub allows: Vec<LintAllow>,
    /// Source locations of the declarations (not part of equality).
    pub spans: CircuitSpans,
}

impl PartialEq for CircuitFile {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `spans` (layout): two files that parse to
        // the same circuit are equal regardless of layout.
        self.junctions == other.junctions
            && self.capacitors == other.capacitors
            && self.charges == other.charges
            && self.sources == other.sources
            && self.symmetric_with == other.symmetric_with
            && self.declared_junctions == other.declared_junctions
            && self.declared_ext == other.declared_ext
            && self.declared_nodes == other.declared_nodes
            && self.temperature == other.temperature
            && self.cotunnel == other.cotunnel
            && self.superconducting == other.superconducting
            && self.record == other.record
            && self.jumps == other.jumps
            && self.sim_time == other.sim_time
            && self.sweep == other.sweep
            && self.adaptive == other.adaptive
            && self.seed == other.seed
            && self.journal == other.journal
            && self.stimuli == other.stimuli
            && self.probes == other.probes
    }
}

impl Default for CircuitFile {
    fn default() -> Self {
        CircuitFile {
            junctions: Vec::new(),
            capacitors: Vec::new(),
            charges: Vec::new(),
            sources: Vec::new(),
            symmetric_with: None,
            declared_junctions: None,
            declared_ext: None,
            declared_nodes: None,
            temperature: 0.0,
            cotunnel: false,
            superconducting: None,
            record: None,
            jumps: None,
            sim_time: None,
            sweep: None,
            adaptive: None,
            seed: None,
            journal: None,
            stimuli: Vec::new(),
            probes: Vec::new(),
            allows: Vec::new(),
            spans: CircuitSpans::default(),
        }
    }
}

/// Scans a comment body for `lint: allow SCxxx [SCyyy ...]` and
/// records one [`LintAllow`] per code. `scope_line` is 0 when the
/// comment stands alone (file-wide suppression).
pub(crate) fn collect_lint_allows(comment: &str, scope_line: usize, allows: &mut Vec<LintAllow>) {
    let Some(idx) = comment.find("lint:") else {
        return;
    };
    let rest = comment[idx + "lint:".len()..].trim_start();
    let Some(codes) = rest.strip_prefix("allow") else {
        return;
    };
    for tok in codes.split_whitespace() {
        let code = tok.trim_matches(',').to_ascii_uppercase();
        if code.starts_with("SC")
            && code.len() == 5
            && code[2..].chars().all(|c| c.is_ascii_digit())
        {
            allows.push(LintAllow {
                code,
                line: scope_line,
            });
        }
    }
}

fn parse_num<T: std::str::FromStr>(tok: &str, line: usize, what: &str) -> Result<T, ParseError> {
    tok.parse()
        .map_err(|_| ParseError::new(line, format!("invalid {what}: `{tok}`")))
}

fn expect_args(parts: &[&str], n: usize, line: usize, directive: &str) -> Result<(), ParseError> {
    if parts.len() != n + 1 {
        return Err(ParseError::new(
            line,
            format!(
                "`{directive}` expects {n} argument(s), got {}",
                parts.len() - 1
            ),
        ));
    }
    Ok(())
}

impl CircuitFile {
    /// Parses the circuit format.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with line information on any malformed
    /// directive, and on post-parse consistency violations (mismatched
    /// `num` declarations, `gap`/`tc` without `super`, duplicate
    /// junction ids).
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut file = CircuitFile::default();
        let mut gap_ev: Option<f64> = None;
        let mut tc: Option<f64> = None;
        let mut is_super = false;

        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            if raw.trim_start().starts_with('*') {
                // SPICE-style full-line comment; may carry a pragma.
                collect_lint_allows(raw.trim_start(), 0, &mut file.allows);
                continue;
            }
            let mut split = raw.splitn(2, '#');
            let content = split.next().unwrap_or("").trim();
            if let Some(comment) = split.next() {
                // A pragma trailing a directive is line-scoped; a
                // pragma on its own line suppresses file-wide.
                let scope = if content.is_empty() { 0 } else { line };
                collect_lint_allows(comment, scope, &mut file.allows);
            }
            if content.is_empty() {
                continue;
            }
            let parts: Vec<&str> = content.split_whitespace().collect();
            match parts[0] {
                "junc" => {
                    expect_args(&parts, 5, line, "junc")?;
                    let decl = JunctionDecl {
                        id: parse_num(parts[1], line, "junction id")?,
                        node_a: parse_num(parts[2], line, "node")?,
                        node_b: parse_num(parts[3], line, "node")?,
                        conductance: parse_num(parts[4], line, "conductance")?,
                        capacitance: parse_num(parts[5], line, "capacitance")?,
                    };
                    if !(decl.conductance > 0.0) || !(decl.capacitance > 0.0) {
                        return Err(ParseError::new(
                            line,
                            "junction conductance and capacitance must be positive",
                        ));
                    }
                    if file.junctions.iter().any(|j| j.id == decl.id) {
                        return Err(ParseError::new(
                            line,
                            format!("duplicate junction id {}", decl.id),
                        ));
                    }
                    file.junctions.push(decl);
                    file.spans.junctions.push(line);
                }
                "cap" => {
                    expect_args(&parts, 3, line, "cap")?;
                    let decl = CapacitorDecl {
                        node_a: parse_num(parts[1], line, "node")?,
                        node_b: parse_num(parts[2], line, "node")?,
                        capacitance: parse_num(parts[3], line, "capacitance")?,
                    };
                    if !(decl.capacitance > 0.0) {
                        return Err(ParseError::new(line, "capacitance must be positive"));
                    }
                    file.capacitors.push(decl);
                    file.spans.capacitors.push(line);
                }
                "charge" => {
                    expect_args(&parts, 2, line, "charge")?;
                    file.charges.push((
                        parse_num(parts[1], line, "node")?,
                        parse_num(parts[2], line, "charge")?,
                    ));
                    file.spans.charges.push(line);
                }
                "vdc" => {
                    expect_args(&parts, 2, line, "vdc")?;
                    file.sources.push((
                        parse_num(parts[1], line, "node")?,
                        parse_num(parts[2], line, "voltage")?,
                    ));
                    file.spans.sources.push(line);
                }
                "symm" => {
                    expect_args(&parts, 1, line, "symm")?;
                    file.symmetric_with = Some(parse_num(parts[1], line, "node")?);
                    file.spans.symm = line;
                }
                "num" => {
                    expect_args(&parts, 2, line, "num")?;
                    let n: usize = parse_num(parts[2], line, "count")?;
                    match parts[1] {
                        "j" => file.declared_junctions = Some(n),
                        "ext" => file.declared_ext = Some(n),
                        "nodes" => file.declared_nodes = Some(n),
                        other => {
                            return Err(ParseError::new(
                                line,
                                format!("unknown `num` kind `{other}` (expected j/ext/nodes)"),
                            ))
                        }
                    }
                }
                "temp" => {
                    expect_args(&parts, 1, line, "temp")?;
                    file.temperature = parse_num(parts[1], line, "temperature")?;
                    file.spans.temp = line;
                    if file.temperature < 0.0 {
                        return Err(ParseError::new(line, "temperature must be ≥ 0"));
                    }
                }
                "cotunnel" => {
                    expect_args(&parts, 0, line, "cotunnel")?;
                    file.cotunnel = true;
                }
                "super" => {
                    expect_args(&parts, 0, line, "super")?;
                    is_super = true;
                    file.spans.superconducting = line;
                }
                "gap" => {
                    expect_args(&parts, 1, line, "gap")?;
                    gap_ev = Some(parse_num(parts[1], line, "gap")?);
                    file.spans.gap = line;
                }
                "tc" => {
                    expect_args(&parts, 1, line, "tc")?;
                    tc = Some(parse_num(parts[1], line, "critical temperature")?);
                    file.spans.tc = line;
                }
                "record" => {
                    expect_args(&parts, 3, line, "record")?;
                    file.record = Some(RecordSpec {
                        from: parse_num(parts[1], line, "junction id")?,
                        to: parse_num(parts[2], line, "junction id")?,
                        every: parse_num(parts[3], line, "period")?,
                    });
                    file.spans.record = line;
                }
                "jumps" => {
                    expect_args(&parts, 2, line, "jumps")?;
                    let events: u64 = parse_num(parts[1], line, "event count")?;
                    let runs: u32 = parse_num(parts[2], line, "run count")?;
                    // A zero here used to be silently clamped to one at
                    // execution time, turning `jumps E 0` into a run
                    // the author asked to skip. Reject it at the
                    // declaration instead.
                    if events == 0 {
                        return Err(ParseError::new(line, "`jumps` event count must be nonzero"));
                    }
                    if runs == 0 {
                        return Err(ParseError::new(line, "`jumps` run count must be nonzero"));
                    }
                    file.jumps = Some((events, runs));
                    file.spans.jumps = line;
                }
                "time" => {
                    expect_args(&parts, 1, line, "time")?;
                    file.sim_time = Some(parse_num(parts[1], line, "time")?);
                }
                "sweep" => {
                    expect_args(&parts, 3, line, "sweep")?;
                    let spec = SweepSpec {
                        node: parse_num(parts[1], line, "node")?,
                        end: parse_num(parts[2], line, "end voltage")?,
                        step: parse_num(parts[3], line, "step")?,
                    };
                    // Sign errors are a lint (SC010), not a parse
                    // failure: the compiled sweep auto-corrects the
                    // direction. Zero/non-finite steps can never form a
                    // voltage grid, so they stay hard errors.
                    if spec.step == 0.0 || !spec.step.is_finite() {
                        return Err(ParseError::new(
                            line,
                            "sweep step must be finite and nonzero",
                        ));
                    }
                    file.sweep = Some(spec);
                    file.spans.sweep = line;
                }
                "adaptive" => {
                    expect_args(&parts, 2, line, "adaptive")?;
                    file.adaptive = Some((
                        parse_num(parts[1], line, "threshold")?,
                        parse_num(parts[2], line, "refresh interval")?,
                    ));
                    file.spans.adaptive = line;
                }
                "jump" => {
                    expect_args(&parts, 3, line, "jump")?;
                    let decl = JumpDecl {
                        node: parse_num(parts[1], line, "node")?,
                        time: parse_num(parts[2], line, "time")?,
                        voltage: parse_num(parts[3], line, "voltage")?,
                    };
                    if !decl.time.is_finite() || decl.time < 0.0 {
                        return Err(ParseError::new(line, "jump time must be finite and ≥ 0"));
                    }
                    if !decl.voltage.is_finite() {
                        return Err(ParseError::new(line, "jump voltage must be finite"));
                    }
                    file.stimuli.push(decl);
                    file.spans.stimuli.push(line);
                }
                "probe" => {
                    expect_args(&parts, 2, line, "probe")?;
                    let decl = ProbeDecl {
                        node: parse_num(parts[1], line, "node")?,
                        every: parse_num(parts[2], line, "period")?,
                    };
                    if decl.every == 0 {
                        return Err(ParseError::new(line, "probe period must be nonzero"));
                    }
                    file.probes.push(decl);
                    file.spans.probes.push(line);
                }
                "seed" => {
                    expect_args(&parts, 1, line, "seed")?;
                    file.seed = Some(parse_num(parts[1], line, "seed")?);
                }
                "journal" => {
                    expect_args(&parts, 1, line, "journal")?;
                    file.journal = Some(parts[1].to_string());
                    file.spans.journal = line;
                }
                other => {
                    return Err(ParseError::new(
                        line,
                        format!("unknown directive `{other}`"),
                    ));
                }
            }
        }

        // Post-parse consistency.
        if is_super {
            let gap =
                gap_ev.ok_or_else(|| ParseError::new(0, "`super` requires a `gap` declaration"))?;
            let tc = tc.ok_or_else(|| ParseError::new(0, "`super` requires a `tc` declaration"))?;
            file.superconducting = Some(SuperDecl { gap_ev: gap, tc });
        } else if gap_ev.is_some() || tc.is_some() {
            return Err(ParseError::new(0, "`gap`/`tc` given without `super`"));
        }
        if let Some(n) = file.declared_junctions {
            if n != file.junctions.len() {
                return Err(ParseError::new(
                    0,
                    format!(
                        "`num j {n}` but {} junctions declared",
                        file.junctions.len()
                    ),
                ));
            }
        }
        if let Some(n) = file.declared_ext {
            if n != file.sources.len() {
                return Err(ParseError::new(
                    0,
                    format!("`num ext {n}` but {} sources declared", file.sources.len()),
                ));
            }
        }
        if let Some(n) = file.declared_nodes {
            let seen = file.node_numbers();
            if n != seen.len() {
                return Err(ParseError::new(
                    0,
                    format!(
                        "`num nodes {n}` but {} distinct nodes referenced",
                        seen.len()
                    ),
                ));
            }
        }
        if file.cotunnel && file.superconducting.is_some() {
            return Err(ParseError::new(
                0,
                "cotunnel and super are mutually exclusive (paper §III-B)",
            ));
        }
        Ok(file)
    }

    /// All distinct node numbers referenced by components and sources
    /// (excluding the implicit ground 0), sorted ascending.
    pub fn node_numbers(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self
            .junctions
            .iter()
            .flat_map(|j| [j.node_a, j.node_b])
            .chain(self.capacitors.iter().flat_map(|c| [c.node_a, c.node_b]))
            .chain(self.sources.iter().map(|&(n, _)| n))
            .chain(self.charges.iter().map(|&(n, _)| n))
            .filter(|&n| n != 0)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Node numbers that carry a `vdc` source (the external/lead nodes).
    pub fn source_nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self.sources.iter().map(|&(n, _)| n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Serializes back to the input format (stable round-trip for the
    /// fields that were set).
    pub fn to_input_format(&self) -> String {
        let mut out = String::new();
        for j in &self.junctions {
            out.push_str(&format!(
                "junc {} {} {} {:e} {:e}\n",
                j.id, j.node_a, j.node_b, j.conductance, j.capacitance
            ));
        }
        for c in &self.capacitors {
            out.push_str(&format!(
                "cap {} {} {:e}\n",
                c.node_a, c.node_b, c.capacitance
            ));
        }
        for &(n, q) in &self.charges {
            out.push_str(&format!("charge {n} {q}\n"));
        }
        for &(n, v) in &self.sources {
            out.push_str(&format!("vdc {n} {v}\n"));
        }
        if let Some(n) = self.symmetric_with {
            out.push_str(&format!("symm {n}\n"));
        }
        if let Some(n) = self.declared_junctions {
            out.push_str(&format!("num j {n}\n"));
        }
        if let Some(n) = self.declared_ext {
            out.push_str(&format!("num ext {n}\n"));
        }
        if let Some(n) = self.declared_nodes {
            out.push_str(&format!("num nodes {n}\n"));
        }
        out.push_str(&format!("temp {}\n", self.temperature));
        if self.cotunnel {
            out.push_str("cotunnel\n");
        }
        if let Some(s) = &self.superconducting {
            out.push_str(&format!("super\ngap {:e}\ntc {}\n", s.gap_ev, s.tc));
        }
        if let Some(r) = &self.record {
            out.push_str(&format!("record {} {} {}\n", r.from, r.to, r.every));
        }
        if let Some((e, r)) = self.jumps {
            out.push_str(&format!("jumps {e} {r}\n"));
        }
        if let Some(t) = self.sim_time {
            out.push_str(&format!("time {t:e}\n"));
        }
        if let Some(s) = &self.sweep {
            out.push_str(&format!("sweep {} {} {}\n", s.node, s.end, s.step));
        }
        if let Some((t, r)) = self.adaptive {
            out.push_str(&format!("adaptive {t} {r}\n"));
        }
        if let Some(s) = self.seed {
            out.push_str(&format!("seed {s}\n"));
        }
        if let Some(j) = &self.journal {
            out.push_str(&format!("journal {j}\n"));
        }
        for j in &self.stimuli {
            out.push_str(&format!("jump {} {:e} {}\n", j.node, j.time, j.voltage));
        }
        for p in &self.probes {
            out.push_str(&format!("probe {} {}\n", p.node, p.every));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example Input File 1, verbatim.
    const PAPER_EXAMPLE: &str = "\
#SET component definitions
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
charge 4 0.0

#Input source information
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1

#Overall node information
num j 2
num ext 3
num nodes 4

#Simulation specific information
temp 5
cotunnel
record 1 2 2
jumps 100000 1
sweep 2 0.02 0.00005
";

    #[test]
    fn parses_the_paper_example() {
        let f = CircuitFile::parse(PAPER_EXAMPLE).unwrap();
        assert_eq!(f.junctions.len(), 2);
        assert_eq!(f.junctions[0].resistance(), 1e6);
        assert_eq!(f.junctions[0].capacitance, 1e-18);
        assert_eq!(f.capacitors.len(), 1);
        assert_eq!(f.charges, vec![(4, 0.0)]);
        assert_eq!(f.sources.len(), 3);
        assert_eq!(f.symmetric_with, Some(1));
        assert_eq!(f.temperature, 5.0);
        assert!(f.cotunnel);
        assert_eq!(
            f.record,
            Some(RecordSpec {
                from: 1,
                to: 2,
                every: 2
            })
        );
        assert_eq!(f.jumps, Some((100_000, 1)));
        let sweep = f.sweep.unwrap();
        assert_eq!(sweep.node, 2);
        assert_eq!(sweep.end, 0.02);
        assert_eq!(sweep.step, 5e-5);
        assert_eq!(f.node_numbers(), vec![1, 2, 3, 4]);
        assert_eq!(f.source_nodes(), vec![1, 2, 3]);
    }

    #[test]
    fn roundtrip_through_writer() {
        let f = CircuitFile::parse(PAPER_EXAMPLE).unwrap();
        let f2 = CircuitFile::parse(&f.to_input_format()).unwrap();
        assert_eq!(f, f2);
    }

    #[test]
    fn superconducting_declarations() {
        let f = CircuitFile::parse(
            "junc 1 1 2 1e-6 110e-18\nvdc 1 0.001\nsuper\ngap 0.2e-3\ntc 1.2\ntemp 0.05\n",
        )
        .unwrap();
        let s = f.superconducting.unwrap();
        assert_eq!(s.gap_ev, 0.2e-3);
        assert_eq!(s.tc, 1.2);
    }

    #[test]
    fn gap_without_super_rejected() {
        assert!(CircuitFile::parse("junc 1 1 2 1e-6 1e-18\ngap 1e-3\n").is_err());
    }

    #[test]
    fn super_requires_gap_and_tc() {
        assert!(CircuitFile::parse("super\ngap 1e-3\n").is_err());
        assert!(CircuitFile::parse("super\ntc 1.0\n").is_err());
    }

    #[test]
    fn cotunnel_and_super_conflict() {
        let e = CircuitFile::parse("cotunnel\nsuper\ngap 1e-3\ntc 1.2\n").unwrap_err();
        assert!(e.message().contains("mutually exclusive"));
    }

    #[test]
    fn num_mismatch_detected() {
        assert!(CircuitFile::parse("junc 1 1 2 1e-6 1e-18\nnum j 3\n").is_err());
        assert!(CircuitFile::parse("vdc 1 0.0\nnum ext 2\n").is_err());
        assert!(CircuitFile::parse("junc 1 1 2 1e-6 1e-18\nnum nodes 5\n").is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = CircuitFile::parse("junc 1 1 2 1e-6 1e-18\nbogus 1\n").unwrap_err();
        assert_eq!(e.line(), 2);
        let e = CircuitFile::parse("junc 1 1\n").unwrap_err();
        assert_eq!(e.line(), 1);
    }

    #[test]
    fn zero_jumps_rejected_with_line() {
        // Regression: both zeros used to be silently clamped to 1 at
        // execution time instead of failing at the declaration.
        let e = CircuitFile::parse("junc 1 1 2 1e-6 1e-18\njumps 0 1\n").unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.message().contains("event count"), "{e}");
        let e = CircuitFile::parse("junc 1 1 2 1e-6 1e-18\njumps 1000 0\n").unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.message().contains("run count"), "{e}");
    }

    #[test]
    fn duplicate_junction_id_rejected() {
        let e = CircuitFile::parse("junc 1 1 2 1e-6 1e-18\njunc 1 2 3 1e-6 1e-18\n").unwrap_err();
        assert!(e.message().contains("duplicate"));
    }

    #[test]
    fn negative_components_rejected() {
        assert!(CircuitFile::parse("junc 1 1 2 -1e-6 1e-18\n").is_err());
        assert!(CircuitFile::parse("cap 1 2 0\n").is_err());
        assert!(CircuitFile::parse("temp -4\n").is_err());
        assert!(CircuitFile::parse("sweep 1 0.1 0\n").is_err());
        assert!(CircuitFile::parse("sweep 1 0.1 1e999\n").is_err());
    }

    #[test]
    fn negative_sweep_step_parses() {
        // Direction errors are SC010 lint findings, not parse errors.
        let f = CircuitFile::parse("sweep 1 -0.1 -0.001\n").unwrap();
        assert_eq!(f.sweep.unwrap().step, -0.001);
        assert_eq!(f.spans.sweep, 1);
    }

    #[test]
    fn journal_directive_roundtrips() {
        let f = CircuitFile::parse("junc 1 1 2 1e-6 1e-18\nsweep 1 0.1 0.001\njournal out.jl\n")
            .unwrap();
        assert_eq!(f.journal.as_deref(), Some("out.jl"));
        assert_eq!(f.spans.journal, 3);
        let f2 = CircuitFile::parse(&f.to_input_format()).unwrap();
        assert_eq!(f, f2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let f = CircuitFile::parse("# header\n\n  junc 1 1 2 1e-6 1e-18 # inline\n").unwrap();
        assert_eq!(f.junctions.len(), 1);
    }

    #[test]
    fn ground_is_not_a_counted_node() {
        let f = CircuitFile::parse("junc 1 0 2 1e-6 1e-18\n").unwrap();
        assert_eq!(f.node_numbers(), vec![2]);
    }

    #[test]
    fn jump_and_probe_directives_roundtrip() {
        let f =
            CircuitFile::parse("junc 1 1 2 1e-6 1e-18\nvdc 1 0.0\njump 1 1e-9 0.05\nprobe 2 100\n")
                .unwrap();
        assert_eq!(
            f.stimuli,
            vec![JumpDecl {
                node: 1,
                time: 1e-9,
                voltage: 0.05
            }]
        );
        assert_eq!(
            f.probes,
            vec![ProbeDecl {
                node: 2,
                every: 100
            }]
        );
        assert_eq!(f.spans.stimuli, vec![3]);
        assert_eq!(f.spans.probes, vec![4]);
        let f2 = CircuitFile::parse(&f.to_input_format()).unwrap();
        assert_eq!(f, f2);
    }

    #[test]
    fn malformed_jump_and_probe_rejected() {
        assert!(CircuitFile::parse("jump 1 -1e-9 0.05\n").is_err());
        assert!(CircuitFile::parse("jump 1 1e999 0.05\n").is_err());
        assert!(CircuitFile::parse("jump 1 0 1e999\n").is_err());
        assert!(CircuitFile::parse("probe 1 0\n").is_err());
    }

    #[test]
    fn star_lines_are_comments() {
        let f = CircuitFile::parse("* header comment\njunc 1 1 2 1e-6 1e-18\n").unwrap();
        assert_eq!(f.junctions.len(), 1);
        assert!(f.allows.is_empty());
    }

    #[test]
    fn lint_allow_pragmas_collected_with_scope() {
        let f = CircuitFile::parse(
            "* lint: allow SC012\n\
             junc 1 1 2 1e-6 1e-18\n\
             sweep 1 0.1 0.001 # lint: allow sc010, SC013\n\
             # lint: allow SC015\n",
        )
        .unwrap();
        assert_eq!(
            f.allows,
            vec![
                LintAllow {
                    code: "SC012".into(),
                    line: 0
                },
                LintAllow {
                    code: "SC010".into(),
                    line: 3
                },
                LintAllow {
                    code: "SC013".into(),
                    line: 3
                },
                LintAllow {
                    code: "SC015".into(),
                    line: 0
                },
            ]
        );
    }

    #[test]
    fn adaptive_span_recorded() {
        let f = CircuitFile::parse("junc 1 1 2 1e-6 1e-18\nadaptive 0.1 1000\n").unwrap();
        assert_eq!(f.adaptive, Some((0.1, 1000)));
        assert_eq!(f.spans.adaptive, 2);
    }
}
