//! Property-style tests of the linear-algebra substrate: plain seeded
//! loops over randomly generated inputs (no external test framework).

use semsim_linalg::Matrix;

/// Minimal SplitMix64 generator for test-input generation.
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + u * (hi - lo)
    }
}

/// Random strictly diagonally dominant symmetric matrix — the class
/// capacitance matrices live in.
fn random_spd(rng: &mut TestRng, n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        for c in (r + 1)..n {
            let v = rng.uniform(-1.0, 1.0);
            m.set(r, c, v);
            m.set(c, r, v);
        }
    }
    for r in 0..n {
        let dominance: f64 = (0..n).filter(|&c| c != r).map(|c| m.get(r, c).abs()).sum();
        m.set(r, r, dominance + 1.0);
    }
    m
}

const CASES: usize = 128;

#[test]
fn inverse_roundtrips() {
    let mut rng = TestRng(1);
    for case in 0..CASES {
        let m = random_spd(&mut rng, 6);
        let inv = m.inverse().unwrap();
        let id = m.mul(&inv).unwrap();
        for r in 0..6 {
            for c in 0..6 {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!((id.get(r, c) - want).abs() < 1e-9, "case {case} ({r},{c})");
            }
        }
    }
}

#[test]
fn solve_agrees_with_inverse() {
    let mut rng = TestRng(2);
    for case in 0..CASES {
        let m = random_spd(&mut rng, 5);
        let b: Vec<f64> = (0..5).map(|_| rng.uniform(-10.0, 10.0)).collect();
        let x1 = m.solve(&b).unwrap();
        let x2 = m.inverse().unwrap().mul_vec(&b).unwrap();
        for (a, c) in x1.iter().zip(&x2) {
            assert!((a - c).abs() < 1e-8 * c.abs().max(1.0), "case {case}");
        }
    }
}

#[test]
fn determinant_of_product() {
    let mut rng = TestRng(3);
    for case in 0..CASES {
        let m1 = random_spd(&mut rng, 4);
        let m2 = random_spd(&mut rng, 4);
        let d1 = m1.lu().unwrap().determinant();
        let d2 = m2.lu().unwrap().determinant();
        let dp = m1.mul(&m2).unwrap().lu().unwrap().determinant();
        assert!(
            (dp - d1 * d2).abs() < 1e-6 * (d1 * d2).abs().max(1.0),
            "case {case}: {dp} vs {}",
            d1 * d2
        );
    }
}

#[test]
fn transpose_preserves_determinant() {
    let mut rng = TestRng(5);
    for case in 0..CASES {
        let m = random_spd(&mut rng, 4);
        let d = m.lu().unwrap().determinant();
        let dt = m.transposed().lu().unwrap().determinant();
        assert!((d - dt).abs() < 1e-8 * d.abs().max(1.0), "case {case}");
    }
}

#[test]
fn condition_estimate_brackets_true_condition() {
    // For well-conditioned SPD matrices the 1-norm condition estimate
    // must be ≥ 1 and never exceed ‖A‖₁·‖A⁻¹‖₁ computed exactly from
    // the dense inverse (Hager's estimator is a lower bound).
    let mut rng = TestRng(6);
    for case in 0..CASES {
        let m = random_spd(&mut rng, 5);
        let est = m.condition_estimate().unwrap();
        let inv = m.inverse().unwrap();
        let exact = m.norm_one() * inv.norm_one();
        assert!(est >= 1.0, "case {case}: estimate {est} < 1");
        assert!(
            est <= exact * (1.0 + 1e-9),
            "case {case}: estimate {est} above exact {exact}"
        );
        assert!(
            est >= 0.3 * exact,
            "case {case}: estimate {est} far below exact {exact}"
        );
    }
}

/// Asserts that every column of `m`'s inverse is bitwise `solve(e_c)`.
fn assert_inverse_columns_are_solves(m: &Matrix, what: &str) {
    let lu = m.lu().expect("test matrices are nonsingular");
    let columns = lu.inverse_columns().expect("a factor inverts");
    let n = m.rows();
    let mut e = vec![0.0; n];
    for c in 0..n {
        e[c] = 1.0;
        let x = lu.solve(&e).expect("e_c has the factor's dimension");
        e[c] = 0.0;
        for (r, v) in x.iter().enumerate() {
            assert_eq!(
                columns.get(c, r).to_bits(),
                v.to_bits(),
                "{what}: inverse ({r},{c}) = {} but solve gives {v}",
                columns.get(c, r)
            );
        }
    }
}

/// Random sparse capacitance-like matrix: a chain of `n` islands with
/// random extra couplings, where island 0 and some others couple to a
/// lead. With `chain_only`, only the two end islands do, so every
/// interior row is weakly diagonally dominant (diagonal = sum of
/// couplings).
fn random_capacitance(rng: &mut TestRng, n: usize, chain_only: bool) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let couple = |m: &mut Matrix, i: usize, j: usize, c: f64| {
        m.add_to(i, i, c);
        m.add_to(j, j, c);
        m.add_to(i, j, -c);
        m.add_to(j, i, -c);
    };
    for i in 1..n {
        couple(&mut m, i - 1, i, rng.uniform(0.2, 5.0) * 1e-18);
    }
    if !chain_only {
        for _ in 0..n / 3 {
            let i = (rng.next_u64() % n as u64) as usize;
            let j = (rng.next_u64() % n as u64) as usize;
            if i != j {
                couple(&mut m, i, j, rng.uniform(0.01, 1.0) * 1e-18);
            }
        }
    }
    for i in 0..n {
        let to_lead = if chain_only {
            i == n - 1
        } else {
            rng.uniform(0.0, 1.0) < 0.3
        };
        if to_lead || i == 0 {
            m.add_to(i, i, rng.uniform(0.1, 2.0) * 1e-18);
        }
    }
    m
}

/// Random sparse nonsymmetric matrix with small diagonals: a dominant
/// entry per row on a random permutation, so partial pivoting swaps
/// rows, plus sparse off-diagonal noise.
fn random_pivoting(rng: &mut TestRng, n: usize) -> Matrix {
    let mut sigma: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        sigma.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut m = Matrix::zeros(n, n);
    for (r, &target) in sigma.iter().enumerate() {
        for c in 0..n {
            if rng.uniform(0.0, 1.0) < 0.15 {
                m.set(r, c, rng.uniform(-0.5, 0.5));
            }
        }
        m.set(r, r, rng.uniform(-0.05, 0.05));
        let big = rng.uniform(2.0, 4.0).copysign(rng.uniform(-1.0, 1.0));
        m.set(r, target, big);
    }
    m
}

#[test]
fn inverse_columns_are_bitwise_solves_on_dense_spd() {
    let mut rng = TestRng(7);
    for case in 0..CASES {
        let n = 1 + case % 12;
        assert_inverse_columns_are_solves(&random_spd(&mut rng, n), &format!("spd case {case}"));
    }
}

#[test]
fn inverse_columns_are_bitwise_solves_on_sparse_capacitance_matrices() {
    let mut rng = TestRng(8);
    for case in 0..CASES {
        let n = 1 + case % 40;
        let chain_only = case % 2 == 0;
        let m = random_capacitance(&mut rng, n, chain_only);
        assert_inverse_columns_are_solves(&m, &format!("capacitance case {case}"));
    }
}

#[test]
fn inverse_columns_are_bitwise_solves_when_pivoting_swaps_rows() {
    let mut rng = TestRng(9);
    let (mut factored, mut swapped) = (0, 0);
    for case in 0..CASES {
        let n = 2 + case % 30;
        let m = random_pivoting(&mut rng, n);
        if m.lu().is_err() {
            continue;
        }
        factored += 1;
        // The first pivot search alone swaps when a lower entry of
        // column 0 outweighs the diagonal.
        if (1..n).any(|r| m.get(r, 0).abs() > m.get(0, 0).abs()) {
            swapped += 1;
        }
        assert_inverse_columns_are_solves(&m, &format!("pivoting case {case}"));
    }
    assert!(
        factored >= CASES * 9 / 10,
        "only {factored} matrices factored"
    );
    assert!(swapped >= CASES / 2, "only {swapped} matrices swapped rows");

    // Zero diagonal entries force row swaps at the first and third pivots.
    let m = Matrix::from_rows(&[
        &[0.0, 2.0, 0.0, 1.0],
        &[3.0, 0.0, -1.0, 0.0],
        &[0.0, 1.0, 0.0, 4.0],
        &[1.0, 0.0, 5.0, 0.0],
    ])
    .unwrap();
    assert_inverse_columns_are_solves(&m, "zero diagonal");
}

#[test]
fn inverse_columns_are_bitwise_solves_when_the_inverse_overflows() {
    // Upper triangular, so no row swaps: column 3 of the inverse has
    // x₂ = −1e200, x₁ = +∞, and x₀ = 0·∞ = NaN in `solve`. A sum over
    // the factor's nonzeros alone would give x₀ = +0, so only the
    // non-finite fallback keeps the column equal to `solve(e_3)`.
    let m = Matrix::from_rows(&[
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 1.0, 1e200, 0.0],
        &[0.0, 0.0, 1.0, 1e200],
        &[0.0, 0.0, 0.0, 1.0],
    ])
    .unwrap();
    let inv = m.inverse().unwrap();
    assert_eq!(inv.get(1, 3), f64::INFINITY);
    assert!(inv.get(0, 3).is_nan());
    assert_inverse_columns_are_solves(&m, "overflowing inverse");
}
