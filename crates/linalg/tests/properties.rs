//! Property-style tests of the linear-algebra substrate: plain seeded
//! loops over randomly generated inputs (no external test framework).

use semsim_linalg::{LinalgError, Matrix, SymmetricMatrix};

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
        let inv = inverse(&m);
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
        let x2 = inverse(&m).mul_vec(&b).unwrap();
        for (a, c) in x1.iter().zip(&x2) {
            assert!((a - c).abs() < 1e-8 * c.abs().max(1.0), "case {case}");
        }
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
        let est = symmetric(&m).condition_estimate().unwrap();
        let inv = inverse(&m);
        let exact = norm_one(&m) * norm_one(&inv);
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

/// The symmetric matrix `m` as a [`SymmetricMatrix`].
fn symmetric(m: &Matrix) -> SymmetricMatrix {
    let n = m.rows();
    let diagonal = (0..n).map(|i| m.get(i, i)).collect();
    let entries: Vec<_> = (0..n)
        .flat_map(|c| (0..c).map(move |r| (r, c)))
        .map(|(r, c)| (r, c, m.get(r, c)))
        .collect();
    SymmetricMatrix::from_entries(diagonal, &entries)
}

/// Column-sum norm `‖m‖₁ = maxⱼ Σᵢ |mᵢⱼ|`.
fn norm_one(m: &Matrix) -> f64 {
    (0..m.cols())
        .map(|c| (0..m.rows()).map(|r| m.get(r, c).abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// `m⁻¹`, one dense solve per column.
fn inverse(m: &Matrix) -> Matrix {
    let lu = m.lu().expect("test matrices are nonsingular");
    let n = m.rows();
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for c in 0..n {
        e[c] = 1.0;
        for (r, x) in lu
            .solve(&e)
            .expect("e_c has the factor's dimension")
            .into_iter()
            .enumerate()
        {
            inv.set(r, c, x);
        }
        e[c] = 0.0;
    }
    inv
}

/// Random sparse capacitance-like matrix: a chain of `n` islands with
/// random extra couplings, where island 0 and some others couple to a
/// lead. With `chain_only`, only the two end islands do, so every
/// interior row is weakly diagonally dominant (diagonal = sum of
/// couplings).
fn random_capacitance(rng: &mut TestRng, n: usize, chain_only: bool) -> SymmetricMatrix {
    let mut diagonal = vec![0.0; n];
    let mut entries = Vec::new();
    let mut couple = |diagonal: &mut [f64], i: usize, j: usize, c: f64| {
        diagonal[i] += c;
        diagonal[j] += c;
        entries.push((i, j, -c));
    };
    for i in 1..n {
        couple(&mut diagonal, i - 1, i, rng.uniform(0.2, 5.0) * 1e-18);
    }
    if !chain_only {
        for _ in 0..n / 3 {
            let i = (rng.next_u64() % n as u64) as usize;
            let j = (rng.next_u64() % n as u64) as usize;
            if i != j {
                couple(&mut diagonal, i, j, rng.uniform(0.01, 1.0) * 1e-18);
            }
        }
    }
    for (i, d) in diagonal.iter_mut().enumerate() {
        let to_lead = if chain_only {
            i == n - 1
        } else {
            rng.uniform(0.0, 1.0) < 0.3
        };
        if to_lead || i == 0 {
            *d += rng.uniform(0.1, 2.0) * 1e-18;
        }
    }
    SymmetricMatrix::from_entries(diagonal, &entries)
}

#[test]
fn ldl_solves_agree_with_dense_lu() {
    let mut rng = TestRng(7);
    for case in 0..CASES {
        let n = 1 + case % 40;
        let a = random_capacitance(&mut rng, n, case % 2 == 0);
        let dense = a.to_dense();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let x = a.ldl().unwrap().solve(&b).unwrap();
        let want = dense.solve(&b).unwrap();
        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (p, q) in x.iter().zip(&want) {
            assert!((p - q).abs() <= 1e-12 * scale, "case {case}: {p} vs {q}");
        }
    }
}

#[test]
fn truncated_inverse_matches_dense_inverse_within_the_rule() {
    // Kept entries agree with the dense inverse to rounding relative to
    // the larger diagonal; dropped ones are below the cut. Every island
    // also couples to a lead, as logic circuits' islands do, so the
    // inverse decays along the chain and the cut drops its far entries.
    let mut rng = TestRng(8);
    let eps = 1e-8;
    let mut dropped = 0;
    for case in 0..CASES {
        let n = 1 + case % 40;
        let chain = random_capacitance(&mut rng, n, case % 2 == 0);
        let mut diagonal = chain.diagonal().to_vec();
        for d in &mut diagonal {
            *d += rng.uniform(1.0, 5.0) * 1e-18;
        }
        let entries: Vec<_> = (0..n)
            .flat_map(|c| chain.off_diagonal(c).iter().map(move |(r, v)| (r, c, v)))
            .filter(|&(r, c, _)| r < c)
            .collect();
        let a = SymmetricMatrix::from_entries(diagonal, &entries);
        let f = a.ldl().unwrap();
        let inv = f.truncated_inverse(eps);
        let exact = inverse(&a.to_dense());
        let d: Vec<f64> = (0..n).map(|i| exact.get(i, i)).collect();
        for c in 0..n {
            for i in 0..n {
                let (x, kept) = (exact.get(i, c), inv.get(i, c));
                let scale = d[i].max(d[c]);
                if kept != 0.0 {
                    assert!((kept - x).abs() <= 1e-12 * scale, "case {case} ({i},{c})");
                } else {
                    dropped += 1;
                    let cut = eps * d[i].min(d[c]);
                    assert!(x.abs() <= cut * (1.0 + 1e-12), "case {case} ({i},{c})");
                }
            }
            // The diagonal is always kept.
            assert!(inv.get(c, c) > 0.0);
        }
    }
    assert!(dropped > 0, "no case truncated anything");
}

#[test]
fn ldl_refuses_a_floating_cluster() {
    // Islands 1 and 2 couple only to each other: C is singular.
    let a = SymmetricMatrix::from_entries(vec![2.0, 1.0, 1.0], &[(1, 2, -1.0)]);
    assert!(matches!(a.ldl(), Err(LinalgError::Singular { .. })));
}
