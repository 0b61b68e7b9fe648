//! Seeded random sampling helpers.
//!
//! JL projections must be *data-oblivious* and reproducible from a shared
//! seed (paper §3.2 remark: the projection matrix "can be … generated
//! independently by different nodes using a shared random number generation
//! seed"). Everything here is therefore driven by explicit `u64` seeds and a
//! deterministic [`derive_seed`] splitter, so a data source and the server
//! regenerate identical matrices without communicating them.
//!
//! Gaussian variates use the Box–Muller transform (the `rand_distr` crate is
//! not on the dependency allow-list).
//!
//! [`fill_standard_normal`] runs in two phases. The first, on the calling
//! thread, draws the uniforms in stream order and parks each pair's `u1`
//! and `u2` in that pair's two output slots. The second turns every pair
//! in place into `r·cos θ` and `r·sin θ`; it is nearly all of the work
//! (`ln`, `sqrt`, `cos`, `sin`), and from
//! [`PAR_ENTRIES_THRESHOLD`](crate::parallel::PAR_ENTRIES_THRESHOLD)
//! entries up it runs on the workers over pair-aligned chunks. Each output
//! depends only on its own pair, so the result is bitwise the one-pass
//! serial loop at any worker count, with no buffer besides the output.

use crate::parallel;
use crate::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent child seed from a parent seed and a stream label.
///
/// Uses the SplitMix64 finalizer, which decorrelates consecutive labels.
///
/// # Example
///
/// ```
/// use ekm_linalg::random::derive_seed;
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, 0));
/// ```
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates a seeded standard RNG.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draws one standard-normal variate via Box–Muller.
///
/// Consumes two uniforms per pair of normals; this helper regenerates the
/// pair every call for simplicity (callers needing bulk normals should use
/// [`fill_standard_normal`]).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = log_safe_uniform(rng);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws a Box–Muller `u1`: a uniform, redrawn until it exceeds
/// `f64::MIN_POSITIVE` (guards against `ln(0)`).
fn log_safe_uniform<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    }
}

/// Fills a slice with i.i.d. standard-normal variates (Box–Muller pairs),
/// in the two phases of the module docs: bitwise the same variates, and
/// the same draws from `rng`, at any worker count.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let parallel = out.len() >= parallel::PAR_ENTRIES_THRESHOLD;
    fill_standard_normal_with(rng, out, parallel);
}

/// [`fill_standard_normal`], its second phase on the workers when
/// `parallel` is set.
fn fill_standard_normal_with<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64], parallel: bool) {
    let mut pairs = out.chunks_exact_mut(2);
    for pair in &mut pairs {
        pair[0] = log_safe_uniform(rng);
        pair[1] = rng.gen();
    }
    if let [last] = pairs.into_remainder() {
        *last = standard_normal(rng);
    }
    let even = out.len() & !1;
    parallel::for_each_row_chunk(&mut out[..even], 2, parallel, |_, chunk| {
        for pair in chunk.chunks_exact_mut(2) {
            let r = (-2.0 * pair[0].ln()).sqrt();
            let theta = std::f64::consts::TAU * pair[1];
            pair[0] = r * theta.cos();
            pair[1] = r * theta.sin();
        }
    });
}

/// Samples a `rows × cols` matrix with i.i.d. `N(0, sigma²)` entries.
pub fn gaussian_matrix(seed: u64, rows: usize, cols: usize, sigma: f64) -> Matrix {
    let mut rng = rng_from_seed(seed);
    let mut m = Matrix::zeros(rows, cols);
    fill_standard_normal(&mut rng, m.as_mut_slice());
    if sigma != 1.0 {
        m.scale_mut(sigma);
    }
    m
}

/// Samples a sparse Achlioptas matrix with entries
/// `+s` w.p. 1/6, `0` w.p. 2/3, `-s` w.p. 1/6 where `s = scale·√3`.
///
/// This is the "database-friendly" sub-Gaussian JL family of Achlioptas
/// (paper reference \[33\]).
pub fn achlioptas_matrix(seed: u64, rows: usize, cols: usize, scale: f64) -> Matrix {
    let mut rng = rng_from_seed(seed);
    let s = scale * 3.0f64.sqrt();
    Matrix::from_fn(rows, cols, |_, _| {
        let u: f64 = rng.gen();
        if u < 1.0 / 6.0 {
            s
        } else if u < 1.0 / 3.0 {
            -s
        } else {
            0.0
        }
    })
}

/// Draws `count` indices in `0..n` i.i.d. from the distribution given by
/// nonnegative `weights` (need not be normalized).
///
/// # Panics
///
/// Panics if `weights.len() != n`, if all weights are zero/non-finite, or if
/// any weight is negative.
pub fn sample_weighted_indices<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[f64],
    count: usize,
) -> Vec<usize> {
    let cumulative = cumulative_weights(weights);
    let total = *cumulative.last().expect("non-empty weights");
    (0..count)
        .map(|_| {
            let target: f64 = rng.gen::<f64>() * total;
            // First index whose cumulative weight exceeds target.
            match cumulative
                .binary_search_by(|c| c.partial_cmp(&target).expect("finite cumulative weight"))
            {
                Ok(i) | Err(i) => i.min(weights.len() - 1),
            }
        })
        .collect()
}

fn cumulative_weights(weights: &[f64]) -> Vec<f64> {
    assert!(
        !weights.is_empty(),
        "sample_weighted_indices: empty weights"
    );
    let mut acc = 0.0;
    let cumulative: Vec<f64> = weights
        .iter()
        .map(|&w| {
            assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
            acc += w;
            acc
        })
        .collect();
    assert!(acc > 0.0, "sample_weighted_indices: all weights are zero");
    cumulative
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    /// The one-pass loop [`fill_standard_normal`] ran before its two
    /// phases, kept as the reference it must match bit for bit.
    fn reference_fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
        let mut i = 0;
        while i + 1 < out.len() {
            let u1: f64 = loop {
                let u: f64 = rng.gen();
                if u > f64::MIN_POSITIVE {
                    break u;
                }
            };
            let u2: f64 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            out[i] = r * theta.cos();
            out[i + 1] = r * theta.sin();
            i += 2;
        }
        if i < out.len() {
            out[i] = standard_normal(rng);
        }
    }

    /// A seeded stream whose draw `i < 8` reads 0 where bit `i` of
    /// `zeros` is set: the uniform 0.0, which the rejection loop
    /// discards as a pair's first draw and keeps as its second (θ = 0).
    struct Scripted {
        zeros: u8,
        drawn: u32,
        rest: StdRng,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let v = self.rest.next_u64();
            let zero = self.drawn < 8 && (self.zeros >> self.drawn) & 1 == 1;
            self.drawn += 1;
            if zero {
                0
            } else {
                v
            }
        }
    }

    /// `len` entries drawn by `fill` from the scripted stream, as bits,
    /// and the stream's next draw: two fills agree on both only if they
    /// made the same variates from the same draws.
    fn drawn(
        len: usize,
        zeros: u8,
        seed: u64,
        fill: fn(&mut Scripted, &mut [f64]),
    ) -> (Vec<u64>, u64) {
        let mut rng = Scripted {
            zeros,
            drawn: 0,
            rest: rng_from_seed(seed),
        };
        let mut out = vec![0.0; len];
        fill(&mut rng, &mut out);
        (out.iter().map(|v| v.to_bits()).collect(), rng.next_u64())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn fill_is_bitwise_the_one_pass_loop(
            len in prop_oneof![0usize..10, 10usize..600],
            zeros in 0u8..32,
            seed in 0u64..10_000,
        ) {
            let want = drawn(len, zeros, seed, reference_fill_standard_normal);
            prop_assert!(
                drawn(len, zeros, seed, fill_standard_normal) == want,
                "len {} zeros {:#b} seed {}", len, zeros, seed
            );
            // The second phase split over pair-aligned chunks, as above
            // the threshold.
            for workers in [1, 2, 4] {
                parallel::set_worker_count(workers);
                let got = drawn(len, zeros, seed, |rng, out| {
                    fill_standard_normal_with(rng, out, true)
                });
                prop_assert!(got == want, "len {} zeros {:#b} seed {} at {} workers",
                    len, zeros, seed, workers);
            }
            parallel::set_worker_count(0);
        }
    }

    #[test]
    fn fill_is_bitwise_the_one_pass_loop_on_both_sides_of_the_threshold() {
        let t = parallel::PAR_ENTRIES_THRESHOLD;
        for len in [t - 1, t, t + 1, t + 7] {
            let want = drawn(len, 0b1, 5, reference_fill_standard_normal);
            for workers in [1, 2, 4] {
                parallel::set_worker_count(workers);
                assert!(
                    drawn(len, 0b1, 5, fill_standard_normal) == want,
                    "len {len} at {workers} workers"
                );
            }
            parallel::set_worker_count(0);
        }
    }

    #[test]
    fn derive_seed_deterministic_and_distinct() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        let seeds: Vec<u64> = (0..100).map(|s| derive_seed(7, s)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100, "child seeds must be distinct");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng_from_seed(1);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn fill_standard_normal_handles_odd_lengths() {
        let mut rng = rng_from_seed(2);
        let mut buf = vec![0.0; 7];
        fill_standard_normal(&mut rng, &mut buf);
        assert!(buf.iter().all(|v| v.is_finite()));
        assert!(buf.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gaussian_matrix_reproducible() {
        let a = gaussian_matrix(9, 10, 5, 1.0);
        let b = gaussian_matrix(9, 10, 5, 1.0);
        assert!(a.approx_eq(&b, 0.0));
        let c = gaussian_matrix(10, 10, 5, 1.0);
        assert!(!a.approx_eq(&c, 1e-12));
    }

    #[test]
    fn gaussian_matrix_scaling() {
        let a = gaussian_matrix(3, 50, 50, 1.0);
        let b = gaussian_matrix(3, 50, 50, 2.0);
        assert!(b.approx_eq(&a.scaled(2.0), 1e-12));
    }

    #[test]
    fn achlioptas_entry_distribution() {
        let m = achlioptas_matrix(5, 100, 100, 1.0);
        let s = 3.0f64.sqrt();
        let mut zero = 0usize;
        for &v in m.as_slice() {
            assert!(v == 0.0 || (v.abs() - s).abs() < 1e-12);
            if v == 0.0 {
                zero += 1;
            }
        }
        let frac = zero as f64 / 10_000.0;
        assert!((frac - 2.0 / 3.0).abs() < 0.03, "zero fraction {frac}");
    }

    #[test]
    fn weighted_sampling_respects_distribution() {
        let mut rng = rng_from_seed(6);
        let weights = [1.0, 0.0, 3.0];
        let draws = sample_weighted_indices(&mut rng, &weights, 40_000);
        assert!(draws.iter().all(|&i| i != 1), "zero-weight index drawn");
        let ones = draws.iter().filter(|&&i| i == 0).count() as f64 / 40_000.0;
        assert!((ones - 0.25).abs() < 0.02, "index-0 frequency {ones}");
    }

    #[test]
    #[should_panic(expected = "all weights are zero")]
    fn weighted_sampling_zero_weights_panics() {
        let mut rng = rng_from_seed(6);
        let _ = sample_weighted_indices(&mut rng, &[0.0, 0.0], 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn weighted_sampling_negative_weights_panics() {
        let mut rng = rng_from_seed(6);
        let _ = sample_weighted_indices(&mut rng, &[1.0, -1.0], 1);
    }
}
