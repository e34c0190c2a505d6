//! The circuit build's fast products are bitwise the plain ones: on the
//! paper benchmarks a debug build can afford, every column of `C⁻¹` is
//! the LU factor's `solve(e_c)` and the lead response is the plain
//! triple-loop product `C⁻¹ · C_ext`.

use semsim::linalg::Matrix;
use semsim::logic::{elaborate, Benchmark, SetLogicParams};

fn assert_bitwise_eq(got: f64, want: f64, what: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} != {want}");
}

#[test]
fn benchmark_builds_match_dense_solves_and_products_bitwise() {
    let params = SetLogicParams::default();
    for b in Benchmark::all()
        .into_iter()
        .filter(|&b| b <= Benchmark::Ls280)
    {
        let circuit = elaborate(&b.logic(), &params).unwrap().circuit;
        let (n, leads) = (circuit.num_islands(), circuit.num_leads());
        let cinv = circuit.inverse_capacitance();

        let lu = circuit.capacitance_matrix().lu().unwrap();
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let x = lu.solve(&e).unwrap();
            e[c] = 0.0;
            for (r, &v) in x.iter().enumerate() {
                assert_bitwise_eq(cinv.get(r, c), v, &format!("{} C⁻¹ ({r},{c})", b.name()));
            }
        }

        let cext = circuit.lead_coupling();
        let mut product = Matrix::zeros(n, leads);
        for i in 0..n {
            for k in 0..n {
                for l in 0..leads {
                    product.add_to(i, l, cinv.get(i, k) * cext.get(k, l));
                }
            }
        }
        let response = circuit.lead_response();
        for i in 0..n {
            for l in 0..leads {
                let what = format!("{} lead response ({i},{l})", b.name());
                assert_bitwise_eq(response.get(i, l), product.get(i, l), &what);
            }
        }
    }
}
