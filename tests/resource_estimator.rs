//! The resource estimator's accuracy contract: on every shipped example
//! netlist, the count-based admission-time prediction stays within
//! ±20 % of the measured allocation footprint of the built circuit, and
//! on the paper's logic benchmarks up to c432 it is never below it.
//! Allocation bytes are the deterministic proxy for RSS — every byte
//! the estimator accounts is resident by construction, while the
//! process-level number is page-granular and allocator-noisy at these
//! circuit sizes. `tests/build_memory.rs` checks the whole estimate
//! against the peak a build really allocates.

use semsim::core::resource::ResourceEstimate;
use semsim::logic::{elaborate, Benchmark, SetLogicParams};
use semsim::netlist::{CircuitFile, LogicFile};

fn assert_within_20pct(name: &str, predicted: &ResourceEstimate, measured: &ResourceEstimate) {
    let (p, m) = (
        predicted.total_bytes() as f64,
        measured.total_bytes() as f64,
    );
    assert!(
        (p - m).abs() <= 0.2 * m,
        "{name}: predicted {p} vs measured {m} drifts more than 20%"
    );
}

#[test]
fn predict_within_20pct_on_circuit_examples() {
    for name in ["set_sweep.cir", "sset.cir"] {
        let source = std::fs::read_to_string(format!("examples/netlists/{name}"))
            .expect("example netlist must exist");
        let file = CircuitFile::parse(&source).expect("example must parse");
        let predicted = file.resource_estimate();
        let circuit = file.compile().expect("example must compile").circuit;
        let measured = ResourceEstimate::measured(&circuit);
        assert_eq!(predicted.islands, measured.islands, "{name}");
        assert_eq!(predicted.leads, measured.leads, "{name}");
        assert_eq!(predicted.junctions, measured.junctions, "{name}");
        // One island: its `C⁻¹` is one stored entry, priced exactly.
        assert_eq!(predicted.inverse_bytes, measured.inverse_bytes, "{name}");
        assert_within_20pct(name, &predicted, &measured);
    }
}

#[test]
fn predict_within_20pct_on_logic_example() {
    let source = std::fs::read_to_string("examples/netlists/half_adder.logic")
        .expect("example netlist must exist");
    let logic = LogicFile::parse(&source).expect("example must parse");
    let elab = elaborate(&logic, &SetLogicParams::default()).expect("example must elaborate");
    let c = &elab.circuit;
    let predicted = ResourceEstimate::predict(c.num_islands(), c.num_leads(), c.num_junctions());
    let measured = ResourceEstimate::measured(c);
    assert_within_20pct("half_adder.logic", &predicted, &measured);
}

#[test]
fn predict_covers_measured_on_logic_benchmarks() {
    // The admission guard must not admit a circuit below its real
    // footprint: each term the locality constants price — the kept
    // `C⁻¹` entries and the island neighbourhoods — and the total are
    // at least what the built benchmark holds.
    let params = SetLogicParams::default();
    for b in Benchmark::all()
        .into_iter()
        .filter(|&b| b <= Benchmark::C432)
    {
        let c = elaborate(&b.logic(), &params).expect("elaborate").circuit;
        let predicted =
            ResourceEstimate::predict(c.num_islands(), c.num_leads(), c.num_junctions());
        let measured = ResourceEstimate::measured(&c);
        let name = b.name();
        assert!(
            predicted.inverse_bytes >= measured.inverse_bytes,
            "{name}: C⁻¹ {predicted:?} < {measured:?}"
        );
        assert!(
            predicted.neighborhood_bytes >= measured.neighborhood_bytes,
            "{name}: neighbourhoods {predicted:?} < {measured:?}"
        );
        assert!(
            predicted.total_bytes() >= measured.total_bytes(),
            "{name}: {predicted:?} < {measured:?}"
        );
    }
}
