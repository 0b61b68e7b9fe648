//! Property-based tests for the clustering substrate.

use ekm_clustering::bicriteria::{bicriteria, BicriteriaConfig};
use ekm_clustering::cost::{assign, cost, weighted_cost};
use ekm_clustering::kmeans::KMeans;
use ekm_clustering::lloyd::{lloyd, LloydConfig};
use ekm_linalg::Matrix;
use proptest::prelude::*;

fn points_strategy(max_n: usize, max_d: usize) -> impl Strategy<Value = Matrix> {
    (2..=max_n, 1..=max_d).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-100.0f64..100.0, n * d)
            .prop_map(move |data| Matrix::from_vec(n, d, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Assignment distances are the true minimum over centers.
    #[test]
    fn assignment_is_argmin(p in points_strategy(20, 4), seed in 0u64..100) {
        let k = 3.min(p.rows());
        let c = ekm_linalg::random::gaussian_matrix(seed, k, p.cols(), 10.0);
        let a = assign(&p, &c).unwrap();
        // The blocked kernel's norm-expansion distances agree with the
        // scalar subtract-square form to relative precision (the
        // expansion rounds in the norms' magnitude, not the gap's).
        for i in 0..p.rows() {
            let x2 = ekm_linalg::ops::dot(p.row(i), p.row(i));
            for j in 0..k {
                let d = ekm_linalg::ops::sq_dist(p.row(i), c.row(j));
                let c2 = ekm_linalg::ops::dot(c.row(j), c.row(j));
                prop_assert!(a.distances_sq[i] <= d + 1e-11 * (1.0 + x2 + c2));
            }
            let chosen = ekm_linalg::ops::sq_dist(p.row(i), c.row(a.labels[i]));
            let c2 = ekm_linalg::ops::dot(c.row(a.labels[i]), c.row(a.labels[i]));
            prop_assert!((chosen - a.distances_sq[i]).abs() <= 1e-11 * (1.0 + x2 + c2));
        }
    }

    /// Fitting with k centers never costs more than fitting with k-1
    /// (monotonicity of the best found solution in k, up to solver noise,
    /// checked on the final inertia with generous restarts).
    #[test]
    fn more_clusters_never_hurt_much(p in points_strategy(16, 3)) {
        prop_assume!(p.rows() >= 3);
        let m1 = KMeans::new(1).with_seed(3).fit(&p).unwrap();
        let m2 = KMeans::new(2).with_n_init(5).with_seed(3).fit(&p).unwrap();
        prop_assert!(m2.inertia <= m1.inertia + 1e-9);
    }

    /// Lloyd never increases the weighted objective from its initialization.
    #[test]
    fn lloyd_does_not_increase_cost(p in points_strategy(20, 3), seed in 0u64..100) {
        let k = 2.min(p.rows());
        let init = ekm_linalg::random::gaussian_matrix(seed, k, p.cols(), 50.0);
        let w = vec![1.0; p.rows()];
        let initial_cost = cost(&p, &init).unwrap();
        let out = lloyd(&p, &w, &init, &LloydConfig::default()).unwrap();
        prop_assert!(out.inertia <= initial_cost + 1e-9);
    }

    /// k-means cost is translation invariant.
    #[test]
    fn cost_translation_invariant(p in points_strategy(12, 3), shift in -50.0f64..50.0) {
        let k = 2.min(p.rows());
        let c = ekm_linalg::random::gaussian_matrix(9, k, p.cols(), 10.0);
        let base = cost(&p, &c).unwrap();
        let p2 = p.map(|v| v + shift);
        let c2 = c.map(|v| v + shift);
        let shifted = cost(&p2, &c2).unwrap();
        prop_assert!((base - shifted).abs() < 1e-6 * (1.0 + base));
    }

    /// Scaling all points and centers by s scales the cost by s².
    #[test]
    fn cost_scales_quadratically(p in points_strategy(12, 3), s in 0.1f64..4.0) {
        let k = 2.min(p.rows());
        let c = ekm_linalg::random::gaussian_matrix(10, k, p.cols(), 10.0);
        let base = cost(&p, &c).unwrap();
        let scaled = cost(&p.scaled(s), &c.scaled(s)).unwrap();
        prop_assert!((scaled - s * s * base).abs() < 1e-6 * (1.0 + scaled.abs()));
    }

    /// Duplicating a point equals doubling its weight.
    #[test]
    fn duplication_equals_weight(p in points_strategy(10, 2), idx_seed in 0u64..1000) {
        let n = p.rows();
        let dup = (idx_seed as usize) % n;
        let k = 2.min(n);
        let c = ekm_linalg::random::gaussian_matrix(11, k, p.cols(), 10.0);
        let mut w = vec![1.0; n];
        w[dup] = 2.0;
        let weighted = weighted_cost(&p, &w, &c).unwrap();
        let mut indices: Vec<usize> = (0..n).collect();
        indices.push(dup);
        let unweighted = cost(&p.select_rows(&indices), &c).unwrap();
        prop_assert!((weighted - unweighted).abs() < 1e-9 * (1.0 + weighted));
    }

    /// Bicriteria cost is an upper bound on... nothing smaller than the
    /// k-means optimum; here: bicriteria with many centers costs at most
    /// the single-center optimum.
    #[test]
    fn bicriteria_beats_one_center(p in points_strategy(15, 3)) {
        let w = vec![1.0; p.rows()];
        let sol = bicriteria(&p, &w, 2, &BicriteriaConfig::default()).unwrap();
        let one = KMeans::new(1).with_seed(1).fit(&p).unwrap();
        prop_assert!(sol.cost <= one.inertia + 1e-9);
    }
}
