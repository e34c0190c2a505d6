//! Golden adaptive trajectories, pinned to recorded bits.
//!
//! The other bit-identity suites compare two runs of the current code:
//! the optimized solver against `SolverSpec::AdaptiveDense`, or a
//! straight run against a resumed one. A change that moves both sides
//! the same way passes them. This test pins the trajectory itself, with
//! expected values recorded from the eager-potential solver over the
//! truncated `C⁻¹` of the minimum-degree `L·D·Lᵀ` build: each event
//! updates the islands its `C⁻¹` columns store, and every full refresh
//! recomputes all potentials with the sparse `C⁻¹·q̃` product. Any change to a
//! single bit of an adaptive trajectory fails here and has to re-record
//! the values on purpose.
//!
//! The workload is 74LS153 (168 islands) under the adaptive solver at
//! θ = 0.05, with every input high, input `i0` pulled low mid-run, the
//! delay output probed on every event, and every island's potential
//! read back through `Simulation::node_potential` at the end. Two
//! refresh intervals are pinned: 1000 events, above the island count,
//! and 100 events, below it. Both run the same refresh path; they
//! differ in how long the accumulated per-event deltas carry each
//! potential's rounding between recomputes.
//!
//! Only public results and `node_potential` reads are digested, never
//! the raw cached potentials of `CircuitState`.

use semsim::core::engine::{RunLength, SimConfig, Simulation, SolverSpec};
use semsim::core::solver::AdaptiveStats;
use semsim::logic::{elaborate, Benchmark, Elaborated, SetLogicParams};

/// Events before and after the input toggle.
const EVENTS_PER_PHASE: u64 = 5_000;

/// What one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Events of both phases.
    events: u64,
    /// `Simulation::time()` at the end.
    time_bits: u64,
    /// Digest of both records' durations and electron counts.
    counts: u64,
    /// Digest of every probe sample's time and potential.
    probe: u64,
    /// Digest of every island's `node_potential` at the end.
    potentials: u64,
    /// Cumulative adaptive work counters.
    stats: AdaptiveStats,
}

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn run(elab: &Elaborated, inputs: &[String], spec: SolverSpec) -> Golden {
    let params = SetLogicParams::default();
    let cfg = SimConfig::new(params.temperature)
        .with_seed(1)
        .with_solver(spec);
    let mut sim = Simulation::new(&elab.circuit, cfg).expect("simulation");
    for name in inputs {
        let lead = elab.input_lead(name).expect("input");
        sim.set_lead_voltage(lead, params.vdd).expect("input high");
    }
    let out = elab
        .signal(Benchmark::Ls153.delay_output())
        .expect("delay output");
    sim.add_probe(out, 1);
    let first = sim.run(RunLength::Events(EVENTS_PER_PHASE)).expect("run");
    let toggled = elab.input_lead("i0").expect("input i0");
    sim.set_lead_voltage(toggled, 0.0).expect("input low");
    let second = sim.run(RunLength::Events(EVENTS_PER_PHASE)).expect("run");

    let counts = digest([&first, &second].into_iter().flat_map(|r| {
        std::iter::once(r.duration.to_bits()).chain(r.electron_counts.iter().map(|c| c.to_bits()))
    }));
    let probe = digest(
        second.probes[0]
            .samples()
            .iter()
            .flat_map(|&(t, v)| [t.to_bits(), v.to_bits()]),
    );
    let islands: Vec<_> = (0..elab.circuit.num_islands())
        .map(|i| elab.circuit.island_node(i))
        .collect();
    let potentials = digest(islands.into_iter().map(|node| {
        sim.node_potential(node)
            .expect("finite potential")
            .to_bits()
    }));
    Golden {
        events: first.events + second.events,
        time_bits: sim.time().to_bits(),
        counts,
        probe,
        potentials,
        stats: second.adaptive_stats.expect("adaptive solver"),
    }
}

#[test]
fn ls153_adaptive_trajectories_match_recorded_bits() {
    let logic = Benchmark::Ls153.logic();
    let elab = elaborate(&logic, &SetLogicParams::default()).expect("elaborate");
    assert_eq!(elab.circuit.num_islands(), 168);
    let expected = [
        (
            1_000,
            Golden {
                events: 10_000,
                time_bits: 0x3e90_2421_b7bc_174e,
                counts: 0xe376_6740_c5d2_51f1,
                probe: 0xbf5d_bf96_c079_ab93,
                potentials: 0xb6ef_a555_3d5e_7b53,
                stats: AdaptiveStats {
                    events: 10_011,
                    junctions_tested: 564_218,
                    rate_recalcs: 58_785,
                    full_refreshes: 10,
                    potential_updates: 416_694,
                },
            },
        ),
        (
            100,
            Golden {
                events: 10_000,
                time_bits: 0x3e8f_9933_b090_c8d3,
                counts: 0x3cb2_ec1b_a64a_bc9e,
                probe: 0x8d95_9abe_61fa_1526,
                potentials: 0xac50_e406_7afe_3840,
                stats: AdaptiveStats {
                    events: 10_011,
                    junctions_tested: 561_570,
                    rate_recalcs: 78_804,
                    full_refreshes: 100,
                    potential_updates: 418_530,
                },
            },
        ),
    ];
    for (refresh_interval, want) in expected {
        let threshold = 0.05;
        for spec in [
            SolverSpec::Adaptive {
                threshold,
                refresh_interval,
            },
            SolverSpec::AdaptiveDense {
                threshold,
                refresh_interval,
            },
        ] {
            let got = run(&elab, &logic.inputs, spec);
            assert_eq!(got, want, "{spec:?}: got {got:#x?}");
        }
    }
}
