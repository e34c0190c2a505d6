//! The circuit build's fast products are bitwise the plain ones: on the
//! paper benchmarks a debug build can afford, every column of `C⁻¹` is
//! the LU factor's `solve(e_c)`, the lead response is the plain
//! triple-loop product `C⁻¹ · C_ext`, and each island's precomputed
//! dependency neighbourhood is the set the per-event membership
//! predicate accepts.

use semsim::core::circuit::{Circuit, JunctionId};
use semsim::linalg::Matrix;
use semsim::logic::{elaborate, Benchmark, SetLogicParams};

fn assert_bitwise_eq(got: f64, want: f64, what: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} != {want}");
}

/// The benchmarks up to 74LS280, built.
fn small_benchmarks() -> impl Iterator<Item = (Benchmark, Circuit)> {
    let params = SetLogicParams::default();
    Benchmark::all()
        .into_iter()
        .filter(|&b| b <= Benchmark::Ls280)
        .map(move |b| (b, elaborate(&b.logic(), &params).unwrap().circuit))
}

#[test]
fn benchmark_builds_match_dense_solves_and_products_bitwise() {
    for (b, circuit) in small_benchmarks() {
        let (n, leads) = (circuit.num_islands(), circuit.num_leads());

        let lu = circuit.capacitance_matrix().lu().unwrap();
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let x = lu.solve(&e).unwrap();
            e[c] = 0.0;
            for (r, &v) in x.iter().enumerate() {
                assert_bitwise_eq(
                    circuit.cinv(r, c),
                    v,
                    &format!("{} C⁻¹ ({r},{c})", b.name()),
                );
            }
        }

        let cext = circuit.lead_coupling();
        let mut product = Matrix::zeros(n, leads);
        for i in 0..n {
            for k in 0..n {
                for l in 0..leads {
                    product.add_to(i, l, circuit.cinv(i, k) * cext.get(k, l));
                }
            }
        }
        for l in 0..leads {
            for (i, &response) in circuit.lead_response(l).iter().enumerate() {
                let what = format!("{} lead response ({i},{l})", b.name());
                assert_bitwise_eq(response, product.get(i, l), &what);
            }
        }
    }
}

#[test]
fn island_dependents_are_the_membership_predicate() {
    for (b, circuit) in small_benchmarks() {
        for island in 0..circuit.num_islands() {
            let from_predicate: Vec<JunctionId> = circuit
                .junction_ids()
                .filter(|&j| circuit.junction_depends_on_island(island, j))
                .collect();
            assert_eq!(
                circuit.island_dependents(island),
                from_predicate.as_slice(),
                "{} island {island}",
                b.name()
            );
        }
    }
}
