//! Blocked pairwise squared-distance kernels.
//!
//! Every assignment loop in the workspace — Lloyd iterations, k-means++
//! D² seeding, sensitivity sampling, streaming reduces — bottoms out in
//! "squared distance from each point to each center". The scalar
//! per-pair loop (`ops::sq_dist`) carries a serial dependency chain the
//! compiler cannot vectorize under strict IEEE semantics; this module
//! replaces it with a blocked kernel built on the norm-expansion form
//!
//! ```text
//! ‖x − c‖² = ‖x‖² + ‖c‖² − 2·⟨x, c⟩
//! ```
//!
//! with row norms precomputed once and cache-blocked tiles over
//! (points × centers).
//!
//! # Lane accumulators
//!
//! The inner loop is shaped for the autovectorizer: centers are packed
//! into *lane groups* of [`LANES`] columns, stored contiguously per
//! dimension, and each group is reduced with a fixed `[T; LANES]`
//! accumulator array that lives in registers for the whole dimension
//! walk. Every accumulator receives its products strictly left to right
//! over the dimensions — the same association as `serial_dot` — and a
//! lane is one center, so no horizontal sum ever mixes accumulation
//! orders. The compiler turns the 8-wide lane loop into plain vector
//! FMA-free SIMD in both `f64` and `f32`; the `f32` path doubles the
//! effective vector width and halves memory traffic.
//!
//! The kernel is generic over the [`Element`] scalar trait so one tiled
//! implementation serves both precisions. [`DistanceEngine`] is the one
//! way in: it owns the points prepared in the [`Compute`] precision it
//! was built for, so per-call conversion cost is paid once per dataset,
//! not per iteration.
//!
//! # Determinism
//!
//! Results are **bit-identical at every worker count** (the same
//! invariance discipline as the sharded Lloyd fold): each point's result
//! is computed by an identical sequence of floating-point operations —
//! the lane-group walk is fixed by the center count alone, and the
//! parallel split only partitions *which thread* computes which point,
//! never the per-point operation order. The engine's `*_in` methods take
//! an explicit worker count so tests can assert the invariance without
//! touching the process-wide override. Tile sizes (`CENTER_TILE`,
//! `POINT_BLOCK`) only reorder *independent* per-point work and never
//! change any accumulation order, so retuning them is results-neutral.
//!
//! # Accuracy domain
//!
//! The expansion form rounds differently from the subtract-square form:
//! its absolute error scales with `ulp(‖x‖² + ‖c‖²)`, not with the gap
//! itself, so the *relative* error of a distance grows as
//! `(‖x‖² + ‖c‖²) / ‖x − c‖²` — catastrophic cancellation when the data
//! sit far from the origin relative to their spread (e.g. two points
//! near 1e8 separated by 1, where the expansion returns 0). This is the
//! standard trade-off of norm-expansion distance kernels; every
//! pipeline in this workspace operates on `normalize_paper`-scaled data
//! (unit max norm), where the forms agree to a relative `1e-12`
//! tolerance (proptested). Callers with un-centered, large-offset data
//! should translate it toward the origin first (k-means distances are
//! translation invariant) or use the scalar `ops::sq_dist` path.
//!
//! Exact self-distance is preserved at any magnitude
//! (`‖x‖² + ‖x‖² − 2⟨x,x⟩ = 0` exactly because norms and inner products
//! share one accumulation order — see `serial_dot`), and tiny negative
//! rounding residues are clamped to zero so D² sampling weights stay
//! valid.
//!
//! The `f32` compute path is *not* a bit-identity contract against
//! `f64`: inputs are rounded once on entry and every kernel operation
//! rounds at 24 bits. It is covered by the same center-perturbation /
//! cost-ratio accuracy contract as the `f32` wire precision, and it is
//! still fully deterministic — bit-identical across reruns and worker
//! counts at its own precision.

use crate::parallel;
use crate::{LinalgError, Matrix, MatrixF32, Result};

/// Centers per lane group: the width of the register-resident
/// accumulator array in the inner loop. 8 doubles fill four SSE2
/// vectors (two AVX); 8 floats fill two (one).
pub const LANES: usize = 8;

/// Center columns per cache tile (a multiple of [`LANES`]): the packed
/// strips of one tile (`CENTER_TILE × d` scalars) stay resident in L1
/// while a block of points streams against them. Retuned for the
/// lane-accumulator kernel by the `tile_sweep` micro-bench (see
/// `BENCH_micro.json`): with strips streamed once per point block, the
/// whole-`k` tile wins for the paper's k ≤ 64 range.
const CENTER_TILE: usize = 64;

/// Point rows per inner block (bounds the working set of point rows that
/// revisit a center tile; has no effect on results).
const POINT_BLOCK: usize = 256;

/// Minimum number of point×center pairs before the kernels spawn threads.
const PAR_PAIRS: usize = 1 << 13;

/// Compute precision of the distance kernels — which scalar the points,
/// centers, and norms are held in while distances are formed.
///
/// Orthogonal to the *wire* precision (`ekm_net::wire::Precision`),
/// which rounds payloads in transit: `F64` is the default and the
/// bit-reproducibility reference, `F32` is an opt-in speed/accuracy
/// trade covered by the center-perturbation / cost-ratio contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Compute {
    /// IEEE double precision — the default; all `f64` results are
    /// bit-identical across worker counts and transports.
    #[default]
    F64,
    /// IEEE single precision: inputs rounded once on entry, every
    /// kernel operation rounds at 24 bits. Deterministic, but held to
    /// an accuracy contract rather than bit-identity against `F64`.
    F32,
}

impl Compute {
    /// Canonical lowercase name (`"f64"` / `"f32"`), as spelled on the
    /// CLI and in the run-config fingerprint.
    pub fn as_str(self) -> &'static str {
        match self {
            Compute::F64 => "f64",
            Compute::F32 => "f32",
        }
    }

    /// Parses the canonical names accepted by `--compute`.
    pub fn parse(s: &str) -> Option<Compute> {
        match s {
            "f64" => Some(Compute::F64),
            "f32" => Some(Compute::F32),
            _ => None,
        }
    }
}

impl std::fmt::Display for Compute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Scalar the tiled kernel is generic over — exactly the operations the
/// norm-expansion distance needs, so `f64` and `f32` share one
/// implementation.
///
/// Implementations must be plain IEEE floats: the determinism argument
/// (left-to-right accumulation, order fixed by layout alone) relies on
/// `+`/`*` being deterministic pure functions of their operands.
pub trait Element:
    Copy
    + PartialOrd
    + Send
    + Sync
    + 'static
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
{
    /// Additive identity.
    const ZERO: Self;
    /// Positive infinity — the argmin carrier and the padded-lane
    /// center norm (so padding can never win an assignment).
    const INFINITY: Self;
    /// The exact constant 2, for the `−2⟨x,c⟩` term (exact in any
    /// binary float, so it introduces no extra rounding).
    const TWO: Self;

    /// Rounds an `f64` into this precision (identity for `f64`).
    fn from_f64(v: f64) -> Self;
    /// Widens back to `f64` (exact for both implementations).
    fn to_f64(self) -> f64;
    /// `max(self, 0)` — clamps the tiny negative residues of the
    /// expansion form so D² weights stay valid.
    fn max_zero(self) -> Self;
    /// Widens a whole vector to `f64`: moves an `f64` vector, converts an
    /// `f32` one element by element (exactly, as [`Element::to_f64`]).
    fn widen(v: Vec<Self>) -> Vec<f64>;
}

impl Element for f64 {
    const ZERO: f64 = 0.0;
    const INFINITY: f64 = f64::INFINITY;
    const TWO: f64 = 2.0;

    #[inline]
    fn from_f64(v: f64) -> f64 {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn max_zero(self) -> f64 {
        self.max(0.0)
    }
    fn widen(v: Vec<f64>) -> Vec<f64> {
        v
    }
}

impl Element for f32 {
    const ZERO: f32 = 0.0;
    const INFINITY: f32 = f32::INFINITY;
    const TWO: f32 = 2.0;

    #[inline]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline]
    fn max_zero(self) -> f32 {
        self.max(0.0)
    }
    fn widen(v: Vec<f32>) -> Vec<f64> {
        v.into_iter().map(f64::from).collect()
    }
}

/// Plain left-to-right dot product — the exact accumulation order of
/// every per-center lane accumulator in [`lane_dots`], so norms computed
/// here are bitwise consistent with the kernel's inner products (which
/// is what makes `‖x − x‖²` collapse to exactly zero after expansion).
#[inline]
fn serial_dot<T: Element>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len(), "serial_dot: length mismatch");
    let mut acc = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc = acc + x * y;
    }
    acc
}

/// `‖row‖²` for every row, in the kernel's accumulation order (see
/// [`serial_dot`]). Four rows are processed at a time so their chains
/// interleave for instruction-level parallelism — each row's own
/// accumulation stays strictly left-to-right, so every value is
/// bit-identical to `serial_dot(r, r)`.
fn row_norms_sq(m: &Matrix) -> Vec<f64> {
    let (n, d) = m.shape();
    let data = m.as_slice();
    let mut out = Vec::with_capacity(n);
    let mut i = 0;
    while i + 4 <= n {
        let (r0, rest) = data[i * d..(i + 4) * d].split_at(d);
        let (r1, rest) = rest.split_at(d);
        let (r2, r3) = rest.split_at(d);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
        for j in 0..d {
            a0 += r0[j] * r0[j];
            a1 += r1[j] * r1[j];
            a2 += r2[j] * r2[j];
            a3 += r3[j] * r3[j];
        }
        out.extend_from_slice(&[a0, a1, a2, a3]);
        i += 4;
    }
    for r in (i..n).map(|i| m.row(i)) {
        out.push(serial_dot(r, r));
    }
    out
}

/// Validates that `points` and `centers` are non-empty and agree on
/// dimensionality.
fn check_shapes(op: &'static str, points: (usize, usize), centers: &Matrix) -> Result<()> {
    if points.1 != centers.cols() {
        return Err(LinalgError::DimensionMismatch {
            op,
            lhs: points,
            rhs: centers.shape(),
        });
    }
    Ok(())
}

/// Worker count the auto-parallel entry points use for an `n × k` pair
/// grid: the process default above the pair threshold, else 1.
fn auto_workers(n: usize, k: usize) -> usize {
    if n.saturating_mul(k) >= PAR_PAIRS {
        parallel::worker_count()
    } else {
        1
    }
}

/// The centers packed for the lane-accumulator kernel, precomputed once
/// per call and shared read-only by all workers.
///
/// The `k` centers are padded to a multiple of [`LANES`] columns and
/// stored as one contiguous *strip* per lane group: strip `g` holds
/// `d` rows of `LANES` scalars, row `kk` being coordinate `kk` of
/// centers `g·LANES .. g·LANES+LANES`. The dimension walk of a group
/// therefore reads perfectly sequential memory. Padded lanes carry zero
/// coordinates and an **infinite** norm, so their expanded distance is
/// `+∞`: they can never win an argmin or a min-update.
struct PackedCenters<T> {
    /// Lane strips, `groups × d × LANES` scalars.
    strips: Vec<T>,
    /// `‖c_j‖²` per padded column (`+∞` on padding).
    c2: Vec<T>,
    /// Dimensionality.
    d: usize,
}

impl<T: Element> PackedCenters<T> {
    fn new(centers: &Matrix) -> PackedCenters<T> {
        let (k, d) = centers.shape();
        let groups = k.div_ceil(LANES);
        let mut strips = vec![T::ZERO; groups * d * LANES];
        let mut c2 = vec![T::INFINITY; groups * LANES];
        let mut row_t = vec![T::ZERO; d];
        for (j, row) in centers.iter_rows().enumerate() {
            for (t, &v) in row_t.iter_mut().zip(row) {
                *t = T::from_f64(v);
            }
            c2[j] = serial_dot(&row_t, &row_t);
            let strip = &mut strips[(j / LANES) * d * LANES..];
            for (kk, &v) in row_t.iter().enumerate() {
                strip[kk * LANES + j % LANES] = v;
            }
        }
        PackedCenters { strips, c2, d }
    }

    #[inline]
    fn groups(&self) -> usize {
        self.c2.len() / LANES
    }

    /// The contiguous `d × LANES` strip of lane group `g`.
    #[inline]
    fn strip(&self, g: usize) -> &[T] {
        &self.strips[g * self.d * LANES..(g + 1) * self.d * LANES]
    }
}

/// Point rows the micro-kernel advances per step: [`lane_dots4`] keeps
/// `UNROLL × LANES` accumulators live, giving the FP units `UNROLL`
/// independent add chains per lane vector (a single chain is bound by
/// add latency, not throughput) and amortizing each strip-row load over
/// `UNROLL` points.
const UNROLL: usize = 8;

/// `⟨x, c_j⟩` for the [`LANES`] centers of one packed strip.
///
/// The accumulators live in one fixed-size array the compiler keeps in
/// registers for the whole dimension walk; the lane loop has no
/// reduction chain (one independent accumulator per center) and
/// vectorizes cleanly. Each accumulator still receives its products
/// strictly left to right over the dimensions — the [`serial_dot`]
/// association — and the order is fixed by the layout alone, so results
/// are identical no matter how points are partitioned or tiled.
#[inline]
fn lane_dots<T: Element>(x: &[T], strip: &[T]) -> [T; LANES] {
    let mut acc = [T::ZERO; LANES];
    for (&xk, row) in x.iter().zip(strip.chunks_exact(LANES)) {
        for (a, &cv) in acc.iter_mut().zip(row) {
            *a = *a + xk * cv;
        }
    }
    acc
}

/// [`lane_dots`] for [`UNROLL`] points at once against one strip. Each
/// (point, center) accumulator receives exactly the same left-to-right
/// product sequence as the one-point form — the unroll only interleaves
/// *independent* chains, so results are bitwise unchanged while the
/// chains hide FP-add latency from one another.
#[inline]
fn lane_dots4<T: Element>(xs: &[&[T]; UNROLL], strip: &[T]) -> [[T; LANES]; UNROLL] {
    let mut acc = [[T::ZERO; LANES]; UNROLL];
    for (kk, row) in strip.chunks_exact(LANES).enumerate() {
        for (accp, x) in acc.iter_mut().zip(xs) {
            let xk = x[kk];
            for (a, &cv) in accp.iter_mut().zip(row) {
                *a = *a + xk * cv;
            }
        }
    }
    acc
}

/// Shared tile walk of the range kernels: yields `(point_range,
/// group_range)` tiles in a deterministic order — point blocks outer,
/// center tiles (runs of whole lane groups) inner. Tiles only reorder
/// independent per-point work, so the walk never affects results.
#[inline]
fn for_each_tile(
    len: usize,
    groups: usize,
    center_tile: usize,
    point_block: usize,
    mut f: impl FnMut(std::ops::Range<usize>, std::ops::Range<usize>),
) {
    let tile_groups = center_tile.div_ceil(LANES).max(1);
    let mut block_start = 0;
    while block_start < len {
        let block_end = (block_start + point_block).min(len);
        let mut g0 = 0;
        loop {
            let g1 = (g0 + tile_groups).min(groups);
            f(block_start..block_end, g0..g1);
            g0 = g1;
            if g0 >= groups {
                break;
            }
        }
        block_start = block_end;
    }
}

/// Borrows [`UNROLL`] consecutive point rows starting at `i`.
#[inline]
fn quad_rows<T>(points: &[T], d: usize, i: usize) -> [&[T]; UNROLL] {
    std::array::from_fn(|p| &points[(i + p) * d..(i + p + 1) * d])
}

/// Fused argmin over the [`for_each_tile`] walk: fills the
/// `labels`/`dists` ranges for points `row_start..row_start + len`.
///
/// Lane groups are visited in increasing index order and the best
/// distance is carried across groups with a strict `<`, so ties break to
/// the lowest center index exactly like the scalar `nearest_center`.
/// Padded lanes carry an infinite center norm and can never win.
#[allow(clippy::too_many_arguments)]
fn assign_range<T: Element>(
    points: &[T],
    norms: &[T],
    packed: &PackedCenters<T>,
    row_start: usize,
    labels: &mut [usize],
    dists: &mut [T],
    center_tile: usize,
    point_block: usize,
) {
    let d = packed.d;
    for dv in dists.iter_mut() {
        *dv = T::INFINITY;
    }
    // Folds one group's distances into a point's running argmin: lane
    // groups arrive in increasing index order and the carried compare is
    // a strict `<`, so ties break to the lowest center index.
    let fold = |g: usize, x2: T, dots: &[T; LANES], best: &mut usize, best_d: &mut T| {
        for (off, (&dot_j, &c2j)) in dots
            .iter()
            .zip(&packed.c2[g * LANES..(g + 1) * LANES])
            .enumerate()
        {
            let dist = (x2 + c2j - T::TWO * dot_j).max_zero();
            if dist < *best_d {
                *best_d = dist;
                *best = g * LANES + off;
            }
        }
    };
    for_each_tile(
        labels.len(),
        packed.groups(),
        center_tile,
        point_block,
        |pr, gr| {
            let mut local = pr.start;
            while local + UNROLL <= pr.end {
                let xs = quad_rows(points, d, row_start + local);
                let mut best = [0usize; UNROLL];
                let mut best_d = [T::ZERO; UNROLL];
                best.copy_from_slice(&labels[local..local + UNROLL]);
                best_d.copy_from_slice(&dists[local..local + UNROLL]);
                for g in gr.clone() {
                    let dots = lane_dots4(&xs, packed.strip(g));
                    for p in 0..UNROLL {
                        let x2 = norms[row_start + local + p];
                        fold(g, x2, &dots[p], &mut best[p], &mut best_d[p]);
                    }
                }
                labels[local..local + UNROLL].copy_from_slice(&best);
                dists[local..local + UNROLL].copy_from_slice(&best_d);
                local += UNROLL;
            }
            for local in local..pr.end {
                let x = &points[(row_start + local) * d..(row_start + local + 1) * d];
                let x2 = norms[row_start + local];
                let mut best = labels[local];
                let mut best_d = dists[local];
                for g in gr.clone() {
                    let dots = lane_dots(x, packed.strip(g));
                    fold(g, x2, &dots, &mut best, &mut best_d);
                }
                labels[local] = best;
                dists[local] = best_d;
            }
        },
    );
}

/// Folds the minimum distance to any packed center into `best`
/// (an `f64` buffer regardless of compute precision): for each point,
/// `best[i] ← min(best[i], min_j ‖x_i − c_j‖²)`, updating only on a
/// strict improvement — the batched multi-center D² refresh behind
/// k-means++ seeding and bicriteria rounds.
fn min_update_range<T: Element>(
    points: &[T],
    norms: &[T],
    packed: &PackedCenters<T>,
    row_start: usize,
    best: &mut [f64],
    center_tile: usize,
    point_block: usize,
) {
    let d = packed.d;
    let mut round: Vec<T> = vec![T::INFINITY; best.len()];
    let fold = |g: usize, x2: T, dots: &[T; LANES], m: &mut T| {
        for (&dot_j, &c2j) in dots.iter().zip(&packed.c2[g * LANES..(g + 1) * LANES]) {
            let dist = (x2 + c2j - T::TWO * dot_j).max_zero();
            if dist < *m {
                *m = dist;
            }
        }
    };
    for_each_tile(
        best.len(),
        packed.groups(),
        center_tile,
        point_block,
        |pr, gr| {
            let mut local = pr.start;
            while local + UNROLL <= pr.end {
                let xs = quad_rows(points, d, row_start + local);
                let mut m = [T::ZERO; UNROLL];
                m.copy_from_slice(&round[local..local + UNROLL]);
                for g in gr.clone() {
                    let dots = lane_dots4(&xs, packed.strip(g));
                    for p in 0..UNROLL {
                        fold(g, norms[row_start + local + p], &dots[p], &mut m[p]);
                    }
                }
                round[local..local + UNROLL].copy_from_slice(&m);
                local += UNROLL;
            }
            for local in local..pr.end {
                let x = &points[(row_start + local) * d..(row_start + local + 1) * d];
                let x2 = norms[row_start + local];
                let mut m = round[local];
                for g in gr.clone() {
                    let dots = lane_dots(x, packed.strip(g));
                    fold(g, x2, &dots, &mut m);
                }
                round[local] = m;
            }
        },
    );
    for (b, m) in best.iter_mut().zip(round) {
        let nd = m.to_f64();
        if nd < *b {
            *b = nd;
        }
    }
}

/// Nearest-center assignment of prepared points against `centers`: the
/// kernel body shared by both compute precisions. Distances cross back
/// into `f64` once, at the end.
fn assign_prepared<T: Element>(
    points: &[T],
    norms: &[T],
    centers: &Matrix,
    workers: usize,
    (center_tile, point_block): (usize, usize),
) -> (Vec<usize>, Vec<f64>) {
    let packed = PackedCenters::<T>::new(centers);
    let mut labels = vec![0usize; norms.len()];
    let mut dists = vec![T::ZERO; norms.len()];
    // Both output vectors are split at the same fixed boundaries so each
    // worker owns a contiguous (labels, dists) range of the same points.
    parallel::for_each_pair_chunk_in(&mut labels, &mut dists, workers, |start, lchunk, dchunk| {
        assign_range(
            points,
            norms,
            &packed,
            start,
            lchunk,
            dchunk,
            center_tile,
            point_block,
        );
    });
    (labels, T::widen(dists))
}

/// Min-update of `best` against `centers` over prepared points: the
/// kernel body shared by both compute precisions.
fn min_update_prepared<T: Element>(
    points: &[T],
    norms: &[T],
    centers: &Matrix,
    best: &mut [f64],
    workers: usize,
) {
    let packed = PackedCenters::<T>::new(centers);
    parallel::for_each_row_chunk_in(best, 1, workers, |start, chunk| {
        min_update_range(
            points,
            norms,
            &packed,
            start,
            chunk,
            CENTER_TILE,
            POINT_BLOCK,
        );
    });
}

/// The one way into the distance kernels: owns the dataset in the
/// chosen [`Compute`] precision (one `f64→f32` conversion for the whole
/// dataset when `F32`) plus the precomputed row norms, so iteration
/// loops — Lloyd, k-means++ rounds, bicriteria rounds — pay preparation
/// once and every call is pure kernel time. Centers are converted per
/// call (they are `k × d`, negligible next to `n × d`).
///
/// All results cross back into `f64` exactly once, at the distance
/// level; labels are precision-independent indices.
pub struct DistanceEngine<'a> {
    points: &'a Matrix,
    norms: Vec<f64>,
    f32_data: Option<(MatrixF32, Vec<f32>)>,
}

impl<'a> DistanceEngine<'a> {
    /// Prepares `points` for repeated kernel calls under `compute`.
    pub fn new(points: &'a Matrix, compute: Compute) -> DistanceEngine<'a> {
        let f32_data = match compute {
            Compute::F64 => None,
            Compute::F32 => {
                let m = MatrixF32::from_f64(points);
                let norms: Vec<f32> = m.iter_rows().map(|r| serial_dot(r, r)).collect();
                Some((m, norms))
            }
        };
        DistanceEngine {
            points,
            norms: row_norms_sq(points),
            f32_data,
        }
    }

    /// The compute precision this engine was prepared for.
    pub fn compute(&self) -> Compute {
        if self.f32_data.is_some() {
            Compute::F32
        } else {
            Compute::F64
        }
    }

    /// The borrowed dataset (always the original `f64` rows).
    pub fn points(&self) -> &'a Matrix {
        self.points
    }

    /// The precomputed `f64` row norms (`‖x_i‖²` in kernel order).
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Nearest-center assignment of every point: `(labels, squared
    /// distances)`, ties broken toward the lower center index. The
    /// `n × k` distance matrix is never materialized; each point's
    /// distances are reduced to their argmin on the fly.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] unless the points and
    ///   `centers` agree on dimensionality.
    /// * [`LinalgError::EmptyMatrix`] if `centers` has no rows (there is
    ///   no nearest center to assign).
    pub fn assign(&self, centers: &Matrix) -> Result<(Vec<usize>, Vec<f64>)> {
        self.assign_in(centers, auto_workers(self.points.rows(), centers.rows()))
    }

    /// [`DistanceEngine::assign`] with an explicit worker count (results
    /// are bit-identical at every count).
    ///
    /// # Errors
    ///
    /// See [`DistanceEngine::assign`].
    pub fn assign_in(&self, centers: &Matrix, workers: usize) -> Result<(Vec<usize>, Vec<f64>)> {
        self.assign_with_tiles(centers, workers, CENTER_TILE, POINT_BLOCK)
    }

    /// [`DistanceEngine::assign_in`] with explicit tile sizes — the
    /// bench-sweep entry point behind the `CENTER_TILE`/`POINT_BLOCK`
    /// tuning numbers. Tiles only reorder independent per-point work, so
    /// every setting is bit-identical; not part of the supported API
    /// surface.
    ///
    /// # Errors
    ///
    /// See [`DistanceEngine::assign`].
    #[doc(hidden)]
    pub fn assign_with_tiles(
        &self,
        centers: &Matrix,
        workers: usize,
        center_tile: usize,
        point_block: usize,
    ) -> Result<(Vec<usize>, Vec<f64>)> {
        check_shapes("assign", self.points.shape(), centers)?;
        if centers.rows() == 0 {
            return Err(LinalgError::EmptyMatrix { op: "assign" });
        }
        if self.points.rows() == 0 {
            return Ok((Vec::new(), Vec::new()));
        }
        let tiles = (center_tile, point_block);
        Ok(match &self.f32_data {
            None => assign_prepared(self.points.as_slice(), &self.norms, centers, workers, tiles),
            Some((m, norms)) => assign_prepared(m.as_slice(), norms, centers, workers, tiles),
        })
    }

    /// Batched multi-center D² refresh: folds `min_j ‖x_i − c_j‖²` over
    /// the rows of `centers` into `best[i]`, updating only on a strict
    /// improvement — one k-means++ or bicriteria round. `best` stays in
    /// `f64` at every compute precision (distances are widened before
    /// the strict-improvement compare, so the fold is deterministic). An
    /// empty `centers` is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless the points and
    /// `centers` agree on dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `best.len()` differs from the number of points (callers
    /// hold this invariant).
    pub fn min_update(&self, centers: &Matrix, best: &mut [f64]) -> Result<()> {
        self.min_update_in(
            centers,
            best,
            auto_workers(self.points.rows(), centers.rows().max(1)),
        )
    }

    /// [`DistanceEngine::min_update`] with an explicit worker count
    /// (results are bit-identical at every count).
    ///
    /// # Errors
    ///
    /// See [`DistanceEngine::min_update`].
    pub fn min_update_in(&self, centers: &Matrix, best: &mut [f64], workers: usize) -> Result<()> {
        check_shapes("min_update", self.points.shape(), centers)?;
        assert_eq!(best.len(), self.points.rows(), "min_update: best len");
        if centers.rows() == 0 || self.points.rows() == 0 {
            return Ok(());
        }
        match &self.f32_data {
            None => {
                min_update_prepared(self.points.as_slice(), &self.norms, centers, best, workers)
            }
            Some((m, norms)) => min_update_prepared(m.as_slice(), norms, centers, best, workers),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn workload(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |i, j| {
            (((i * 31 + j * 17) % 101) as f64 - 50.0) * 0.125
        })
    }

    /// Reference: the scalar subtract-square loop.
    fn naive(points: &Matrix, centers: &Matrix) -> Matrix {
        Matrix::from_fn(points.rows(), centers.rows(), |i, j| {
            ops::sq_dist(points.row(i), centers.row(j))
        })
    }

    /// Reference: the norm-expansion form evaluated pairwise with plain
    /// serial dot products — the exact arithmetic the lane kernel must
    /// reproduce bit for bit (and the shape of the pre-lane kernel).
    fn expansion_reference(points: &Matrix, centers: &Matrix) -> Matrix {
        Matrix::from_fn(points.rows(), centers.rows(), |i, j| {
            let (x, c) = (points.row(i), centers.row(j));
            (serial_dot(x, x) + serial_dot(c, c) - 2.0 * serial_dot(x, c)).max(0.0)
        })
    }

    /// Each row's argmin under a strict `<` in increasing center order, so
    /// ties break to the lowest center index.
    fn row_argmin(m: &Matrix) -> (Vec<usize>, Vec<f64>) {
        m.iter_rows()
            .map(|row| {
                let (mut best, mut best_d) = (0usize, f64::INFINITY);
                for (j, &d) in row.iter().enumerate() {
                    if d < best_d {
                        best_d = d;
                        best = j;
                    }
                }
                (best, best_d)
            })
            .unzip()
    }

    #[test]
    fn row_norms_are_bitwise_serial_dots() {
        // The 4-row interleave only reorders *across* rows; each row's
        // chain must stay exactly serial_dot(r, r). Sizes cover full
        // quads, remainders of 1–3, and degenerate shapes.
        for (n, d) in [(16, 9), (17, 9), (18, 1), (19, 13), (3, 7), (0, 5)] {
            let m = workload(n, d);
            let fast = row_norms_sq(&m);
            assert_eq!(fast.len(), n);
            for (i, &v) in fast.iter().enumerate() {
                let reference = serial_dot(m.row(i), m.row(i));
                assert!(v == reference, "row {i} of {n}x{d}: {v} vs {reference}");
            }
        }
    }

    #[test]
    fn matches_naive_within_tolerance() {
        let p = workload(137, 9);
        let c = workload(21, 9);
        let engine = DistanceEngine::new(&p, Compute::F64);
        let (_, dists) = engine.assign(&c).unwrap();
        let mut best = vec![f64::INFINITY; p.rows()];
        engine.min_update(&c, &mut best).unwrap();
        let (_, reference) = row_argmin(&naive(&p, &c));
        for (i, &b) in reference.iter().enumerate() {
            for a in [dists[i], best[i]] {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "row {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn lane_kernel_is_bitwise_the_expansion_form() {
        // Ragged shapes on purpose: k not a multiple of LANES (70 spans
        // two center tiles), d not a multiple of anything, n not a
        // multiple of POINT_BLOCK.
        for (n, d, k) in [
            (137, 9, 21),
            (300, 6, 70),
            (40, 1, 3),
            (5, 13, 1),
            (90, 11, 13),
        ] {
            let p = workload(n, d);
            let c = workload(k, d);
            let (ref_labels, ref_dists) = row_argmin(&expansion_reference(&p, &c));
            let engine = DistanceEngine::new(&p, Compute::F64);
            let (labels, dists) = engine.assign(&c).unwrap();
            assert_eq!(labels, ref_labels, "n={n} d={d} k={k}");
            assert!(dists == ref_dists, "n={n} d={d} k={k}");
            // All centers at once — the bicriteria round shape.
            let mut batched = vec![f64::INFINITY; n];
            engine.min_update_in(&c, &mut batched, 4).unwrap();
            assert!(batched == ref_dists, "batched n={n} d={d} k={k}");
            // One center at a time — the k-means++ round shape.
            let mut incremental = vec![f64::INFINITY; n];
            for j in 0..k {
                let one = c.select_rows(&[j]);
                engine.min_update(&one, &mut incremental).unwrap();
            }
            assert!(incremental == ref_dists, "incremental n={n} d={d} k={k}");
        }
    }

    #[test]
    fn min_update_keeps_better_entries_and_ignores_empty_batches() {
        let p = workload(90, 11);
        let c = workload(13, 11);
        for compute in [Compute::F64, Compute::F32] {
            let engine = DistanceEngine::new(&p, compute);
            let mut best = vec![0.0; p.rows()];
            engine.min_update(&c, &mut best).unwrap();
            assert!(best.iter().all(|&b| b == 0.0), "{compute}");
            let mut best = vec![f64::INFINITY; p.rows()];
            engine.min_update(&Matrix::zeros(0, 11), &mut best).unwrap();
            assert!(best.iter().all(|&b| b == f64::INFINITY), "{compute}");
        }
    }

    #[test]
    fn self_distance_is_exactly_zero() {
        // The rows are distinct, so each point's only zero is itself.
        let p = workload(40, 7);
        let (labels, dists) = DistanceEngine::new(&p, Compute::F64).assign(&p).unwrap();
        assert!(dists.iter().all(|&d| d == 0.0), "{dists:?}");
        assert_eq!(labels, (0..p.rows()).collect::<Vec<_>>());
    }

    #[test]
    fn bit_identical_across_worker_counts() {
        let p = workload(700, 13);
        let c = workload(67, 13);
        let engine = DistanceEngine::new(&p, Compute::F64);
        let (rl, rd) = engine.assign_in(&c, 1).unwrap();
        let mut rb = vec![f64::INFINITY; p.rows()];
        engine.min_update_in(&c, &mut rb, 1).unwrap();
        for workers in [2, 3, 4, 8, 300] {
            let (l, d) = engine.assign_in(&c, workers).unwrap();
            assert_eq!(l, rl, "{workers} workers");
            assert_eq!(d, rd, "{workers} workers");
            let mut b = vec![f64::INFINITY; p.rows()];
            engine.min_update_in(&c, &mut b, workers).unwrap();
            assert_eq!(b, rb, "{workers} workers");
        }
    }

    #[test]
    fn tile_sizes_are_results_neutral() {
        let p = workload(500, 11);
        let c = workload(53, 11);
        let engine = DistanceEngine::new(&p, Compute::F64);
        let (rl, rd) = engine.assign_in(&c, 1).unwrap();
        for (ct, pb) in [(8, 32), (16, 1), (64, 4096), (256, 100)] {
            let (l, d) = engine.assign_with_tiles(&c, 3, ct, pb).unwrap();
            assert_eq!(l, rl, "tile {ct}/{pb}");
            assert_eq!(d, rd, "tile {ct}/{pb}");
        }
    }

    #[test]
    fn ties_break_to_first_center() {
        let p = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let c = Matrix::from_rows(&[vec![1.0, 0.0], vec![-1.0, 0.0], vec![0.0, 1.0]]);
        let (labels, dists) = DistanceEngine::new(&p, Compute::F64).assign(&c).unwrap();
        assert_eq!(labels, vec![0]);
        assert!((dists[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn engine_reports_its_compute_and_norms() {
        let p = workload(210, 10);
        for compute in [Compute::F64, Compute::F32] {
            let engine = DistanceEngine::new(&p, compute);
            assert_eq!(engine.compute(), compute);
            assert_eq!(engine.norms(), &row_norms_sq(&p)[..], "{compute}");
        }
    }

    #[test]
    fn engine_f32_is_close_deterministic_and_worker_invariant() {
        let p = workload(400, 12);
        let c = workload(19, 12);
        let engine = DistanceEngine::new(&p, Compute::F32);
        let (labels64, dists64) = DistanceEngine::new(&p, Compute::F64).assign(&c).unwrap();
        let (labels32, dists32) = engine.assign(&c).unwrap();
        // f32 is an accuracy contract, not bit identity: distances agree
        // to single-precision relative tolerance and labels almost
        // everywhere (ties may flip on equal-to-f32 distances).
        let mut label_diffs = 0;
        for i in 0..p.rows() {
            assert!(
                (dists32[i] - dists64[i]).abs() <= 1e-5 * (1.0 + dists64[i].abs()),
                "row {i}: {} vs {}",
                dists32[i],
                dists64[i]
            );
            label_diffs += usize::from(labels32[i] != labels64[i]);
        }
        assert!(label_diffs * 50 <= p.rows(), "{label_diffs} label flips");
        // Deterministic and worker-invariant at its own precision.
        for workers in [1, 2, 4, 8] {
            let (l, d) = engine.assign_in(&c, workers).unwrap();
            assert_eq!(l, labels32, "{workers} workers");
            assert_eq!(d, dists32, "{workers} workers");
        }
        let mut b1 = vec![f64::INFINITY; p.rows()];
        let mut b4 = vec![f64::INFINITY; p.rows()];
        engine.min_update_in(&c, &mut b1, 1).unwrap();
        engine.min_update_in(&c, &mut b4, 4).unwrap();
        assert_eq!(b1, b4);
        // min_update agrees with the assign distances (same kernel).
        assert_eq!(b1, dists32);
    }

    #[test]
    fn compute_descriptor_roundtrip() {
        assert_eq!(Compute::default(), Compute::F64);
        for c in [Compute::F64, Compute::F32] {
            assert_eq!(Compute::parse(c.as_str()), Some(c));
            assert_eq!(format!("{c}"), c.as_str());
        }
        assert_eq!(Compute::parse("f16"), None);
    }

    #[test]
    fn dimension_mismatch_errors() {
        let p = Matrix::zeros(3, 4);
        let c = Matrix::zeros(2, 5);
        let mut best = vec![f64::INFINITY; 3];
        for compute in [Compute::F64, Compute::F32] {
            let engine = DistanceEngine::new(&p, compute);
            assert!(engine.assign(&c).is_err(), "{compute}");
            assert!(engine.min_update(&c, &mut best).is_err(), "{compute}");
        }
    }

    #[test]
    fn empty_points_ok() {
        let p = Matrix::zeros(0, 3);
        let c = Matrix::from_rows(&[vec![0.0, 0.0, 0.0]]);
        for compute in [Compute::F64, Compute::F32] {
            let engine = DistanceEngine::new(&p, compute);
            let (l, d) = engine.assign(&c).unwrap();
            assert!(l.is_empty() && d.is_empty(), "{compute}");
            engine.min_update(&c, &mut []).unwrap();
        }
    }

    #[test]
    fn empty_centers_error_not_panic() {
        let p = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let none = Matrix::zeros(0, 2);
        for compute in [Compute::F64, Compute::F32] {
            assert!(matches!(
                DistanceEngine::new(&p, compute).assign(&none),
                Err(LinalgError::EmptyMatrix { .. })
            ));
        }
    }
}
