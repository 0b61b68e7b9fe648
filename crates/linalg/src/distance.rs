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
//! over the dimensions, each step one fused multiply-add
//! ([`Element::mul_add`], rounded once) — the same chain as
//! `serial_dot` — and a lane is one center, so no horizontal sum ever
//! mixes accumulation orders. The compiler turns the 8-wide lane loop
//! into vector FMAs in both `f64` and `f32`; the `f32` path doubles the
//! effective vector width and halves memory traffic. The fused step is
//! correctly rounded, so a build for a CPU without FMA units (libm's
//! `fma`) gets the same bits, only slower.
//!
//! The kernel is generic over the [`Element`] scalar trait so one tiled
//! implementation serves both precisions. [`DistanceEngine`] is the one
//! way in: it owns the points prepared in the [`Compute`] precision it
//! was built for, so per-call conversion cost is paid once per dataset,
//! not per iteration.
//!
//! # Grouped passes
//!
//! There is one assignment kernel, and it is grouped:
//! [`DistanceEngine::assign_groups`] takes `G` stacked groups of `k`
//! centers — say the `k` centers of each of `G` k-means restarts — and
//! finds every point's nearest center in each group in one read of the
//! points. The groups share the lane groups (a group may straddle two),
//! and each group's argmin walks its own columns in index order with a
//! strict `<`, so its labels and distances are bitwise what
//! [`DistanceEngine::assign`] — the one-group call — returns against
//! that group alone. The pass walks fixed-size row chunks, whole chunks
//! per worker, and hands each block of rows to a caller's fold right
//! after assigning it, while the rows are still in cache: the Lloyd
//! update accumulates its centroid sums there. [`DistanceEngine::min_update`]
//! is a one-group pass folded into a running minimum.
//!
//! # Determinism
//!
//! Results are **bit-identical at every worker count** (the same
//! invariance discipline as the chunked Lloyd fold): each point's result
//! is computed by an identical sequence of floating-point operations —
//! the lane-group walk is fixed by the center count alone, and the
//! parallel split only partitions *which thread* computes which point,
//! never the per-point operation order. The engine's `*_in` methods and
//! `assign_groups` take an explicit worker count so tests can assert the
//! invariance without touching the process-wide override. Tile sizes
//! (`CENTER_TILE`, `POINT_BLOCK`) only reorder *independent* per-point
//! work and never change any accumulation order, so retuning them is
//! results-neutral.
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
//! Exact self-distance is preserved at any magnitude: norms and inner
//! products run one chain of fused steps in one order (see
//! `serial_dot`), and a fused step adds the exact product, in which
//! `x_k·c_k` and `c_k·x_k` are the same number. So `⟨x, x⟩` is bitwise
//! `‖x‖²` and `‖x‖² + ‖x‖² − 2⟨x,x⟩` is exactly 0. Tiny negative
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
use std::ops::Range;

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
/// `+`, `*` and [`Element::mul_add`] being deterministic pure functions
/// of their operands.
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
    /// Positive infinity — the distance every argmin starts from.
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
    /// `self·a + b` with one rounding (IEEE 754 `fusedMultiplyAdd`): the
    /// accumulation step of every dot product in this module.
    fn mul_add(self, a: Self, b: Self) -> Self;
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
    #[inline]
    fn mul_add(self, a: f64, b: f64) -> f64 {
        f64::mul_add(self, a, b)
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
    #[inline]
    fn mul_add(self, a: f32, b: f32) -> f32 {
        f32::mul_add(self, a, b)
    }
}

/// Plain left-to-right dot product, one fused multiply-add per step —
/// the exact chain of every per-center lane accumulator in
/// [`lane_dots`], so norms computed here are bitwise consistent with the
/// kernel's inner products (which is what makes `‖x − x‖²` collapse to
/// exactly zero after expansion).
#[inline]
fn serial_dot<T: Element>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len(), "serial_dot: length mismatch");
    let mut acc = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc = x.mul_add(y, acc);
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
            a0 = r0[j].mul_add(r0[j], a0);
            a1 = r1[j].mul_add(r1[j], a1);
            a2 = r2[j].mul_add(r2[j], a2);
            a3 = r3[j].mul_add(r3[j], a3);
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
/// The centers are `G` stacked groups of `k` rows (`G = 1` for a plain
/// assignment). All `G·k` columns are packed together, so a group may
/// straddle two lane groups, padded to a multiple of [`LANES`] and
/// stored as one contiguous *strip* per lane group: strip `g` holds `d`
/// rows of `LANES` scalars, row `kk` being coordinate `kk` of columns
/// `g·LANES .. g·LANES+LANES`. The dimension walk of a lane group
/// therefore reads perfectly sequential memory. Padded lanes carry zero
/// coordinates, and the fold never reads them.
struct PackedCenters<T> {
    /// Lane strips, `lane groups × d × LANES` scalars.
    strips: Vec<T>,
    /// `‖c_j‖²` per column, padded to whole lane groups.
    c2: Vec<T>,
    /// `(group, index within the group)` of each lane group's first column.
    starts: Vec<(usize, usize)>,
    /// Columns, without the padding.
    cols: usize,
    /// Dimensionality.
    d: usize,
    /// Columns per group.
    k: usize,
}

impl<T: Element> PackedCenters<T> {
    fn new(centers: &Matrix, k: usize) -> PackedCenters<T> {
        let (cols, d) = centers.shape();
        let lane_groups = cols.div_ceil(LANES);
        let mut strips = vec![T::ZERO; lane_groups * d * LANES];
        let mut c2 = vec![T::ZERO; lane_groups * LANES];
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
        let starts = (0..lane_groups)
            .map(|g| (g * LANES / k, g * LANES % k))
            .collect();
        PackedCenters {
            strips,
            c2,
            starts,
            cols,
            d,
            k,
        }
    }

    #[inline]
    fn lane_groups(&self) -> usize {
        self.starts.len()
    }

    /// The contiguous `d × LANES` strip of lane group `g`.
    #[inline]
    fn strip(&self, g: usize) -> &[T] {
        &self.strips[g * self.d * LANES..(g + 1) * self.d * LANES]
    }

    /// Folds lane group `g`'s inner products with a block of points
    /// (`x2[p] = ‖x_p‖²`) into each group's running best (`labels` and
    /// `dists`, group-major: slot `q·UNROLL + p`). Columns arrive in
    /// increasing order and the compare is a strict `<`, so ties break
    /// to the lowest index within each group, like the scalar
    /// `nearest_center`.
    ///
    /// The lane group is walked one group's run of columns at a time, for
    /// every point of the block, with that group's bests in fixed-size
    /// local arrays the compiler keeps in registers; a run that fills
    /// the lane group walks all [`LANES`] lanes with a fixed trip count.
    #[inline(always)]
    fn fold(&self, g: usize, x2: &[T], dots: &[[T; LANES]], labels: &mut [usize], dists: &mut [T]) {
        let first = g * LANES;
        let real = LANES.min(self.cols - first);
        let c2 = &self.c2[first..first + LANES];
        let (mut q, mut c) = self.starts[g];
        let mut lane = 0;
        while lane < real {
            let run = (self.k - c).min(real - lane);
            let slots = q * UNROLL..(q + 1) * UNROLL;
            let mut l = [0usize; UNROLL];
            let mut b = [T::ZERO; UNROLL];
            l.copy_from_slice(&labels[slots.clone()]);
            b.copy_from_slice(&dists[slots.clone()]);
            let mut walk = |width: usize| {
                for (p, (dots, &x2)) in dots.iter().zip(x2).enumerate() {
                    for off in 0..width {
                        let j = lane + off;
                        let dist = (x2 + c2[j] - T::TWO * dots[j]).max_zero();
                        if dist < b[p] {
                            b[p] = dist;
                            l[p] = c + off;
                        }
                    }
                }
            };
            if run == LANES {
                walk(LANES);
            } else {
                walk(run);
            }
            labels[slots.clone()].copy_from_slice(&l);
            dists[slots].copy_from_slice(&b);
            (q, c, lane) = (q + 1, 0, lane + run);
        }
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
            *a = xk.mul_add(cv, *a);
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
                *a = xk.mul_add(cv, *a);
            }
        }
    }
    acc
}

/// Borrows [`UNROLL`] consecutive point rows starting at `i`.
#[inline]
fn quad_rows<T>(points: &[T], d: usize, i: usize) -> [&[T]; UNROLL] {
    std::array::from_fn(|p| &points[(i + p) * d..(i + p + 1) * d])
}

/// One group's outputs for the rows a worker owns: labels (indices
/// within the group) and squared distances, in `f64` at every compute
/// precision.
struct GroupOut<'a> {
    labels: &'a mut [usize],
    dists: &'a mut [f64],
}

/// The running best of one block of up to [`UNROLL`] points in every
/// group, group-major: slot `q·UNROLL + p` is point `p` in group `q`.
struct Best<T> {
    labels: Vec<usize>,
    dists: Vec<T>,
}

impl<T: Element> Best<T> {
    fn new(groups: usize) -> Best<T> {
        Best {
            labels: vec![0; groups * UNROLL],
            dists: vec![T::ZERO; groups * UNROLL],
        }
    }

    /// Reads the running best of `count` points from row `at` of
    /// `outs`: `(0, +∞)` when `fresh`, i.e. before the first center tile.
    #[inline]
    fn load(&mut self, outs: &[GroupOut<'_>], at: usize, count: usize, fresh: bool) {
        if fresh {
            self.labels.fill(0);
            self.dists.fill(T::INFINITY);
            return;
        }
        for (q, o) in outs.iter().enumerate() {
            let slots = q * UNROLL..q * UNROLL + count;
            self.labels[slots.clone()].copy_from_slice(&o.labels[at..at + count]);
            for (b, &d) in self.dists[slots].iter_mut().zip(&o.dists[at..at + count]) {
                *b = T::from_f64(d);
            }
        }
    }

    /// Writes the running best of `count` points back to row `at` of
    /// `outs` (a distance crosses into `f64` exactly, so reloading it is
    /// exact too).
    #[inline]
    fn store(&self, outs: &mut [GroupOut<'_>], at: usize, count: usize) {
        for (q, o) in outs.iter_mut().enumerate() {
            let slots = q * UNROLL..q * UNROLL + count;
            o.labels[at..at + count].copy_from_slice(&self.labels[slots.clone()]);
            for (d, &b) in o.dists[at..at + count].iter_mut().zip(&self.dists[slots]) {
                *d = b.to_f64();
            }
        }
    }
}

/// The grouped argmin kernel: every group's nearest center for the
/// points `rows`, written to `outs` (whose first row is `base`).
///
/// Center tiles (runs of whole lane groups) are visited in increasing
/// order and each group's best is carried from tile to tile through
/// `outs`, so every group walks its own columns in index order with a
/// strict `<`: its labels and distances are bitwise what the kernel
/// returns against that group alone.
#[allow(clippy::too_many_arguments)]
fn assign_block<T: Element>(
    points: &[T],
    norms: &[T],
    packed: &PackedCenters<T>,
    rows: Range<usize>,
    base: usize,
    outs: &mut [GroupOut<'_>],
    center_tile: usize,
    best: &mut Best<T>,
) {
    let d = packed.d;
    let tile_groups = center_tile.div_ceil(LANES).max(1);
    let mut g0 = 0;
    while g0 < packed.lane_groups() {
        let tile = g0..(g0 + tile_groups).min(packed.lane_groups());
        let fresh = g0 == 0;
        let mut i = rows.start;
        while i + UNROLL <= rows.end {
            let xs = quad_rows(points, d, i);
            best.load(outs, i - base, UNROLL, fresh);
            for g in tile.clone() {
                let dots = lane_dots4(&xs, packed.strip(g));
                let x2 = &norms[i..i + UNROLL];
                packed.fold(g, x2, &dots, &mut best.labels, &mut best.dists);
            }
            best.store(outs, i - base, UNROLL);
            i += UNROLL;
        }
        for i in i..rows.end {
            let x = &points[i * d..(i + 1) * d];
            best.load(outs, i - base, 1, fresh);
            for g in tile.clone() {
                let dots = [lane_dots(x, packed.strip(g))];
                let x2 = &norms[i..i + 1];
                packed.fold(g, x2, &dots, &mut best.labels, &mut best.dists);
            }
            best.store(outs, i - base, 1);
        }
        g0 = tile.end;
    }
}

/// Each group's `(labels, squared distances)` and the fold states of a
/// grouped pass, one per chunk in chunk order.
type GroupPass<S> = (Vec<(Vec<usize>, Vec<f64>)>, Vec<S>);

/// A grouped pass over prepared points, shared by both compute
/// precisions (see [`DistanceEngine::assign_groups`]). Chunks of
/// `chunk_rows` rows are handed out whole, a run of them per worker;
/// within a chunk, each block of `point_block` rows is assigned against
/// every center tile and then folded, in row order.
#[allow(clippy::too_many_arguments)]
fn assign_prepared<T: Element, S: Send>(
    points: &[T],
    norms: &[T],
    centers: &Matrix,
    k: usize,
    workers: usize,
    chunk_rows: usize,
    (center_tile, point_block): (usize, usize),
    init: &(impl Fn() -> S + Sync),
    fold: &(impl Fn(&mut S, Range<usize>, &[&[usize]]) + Sync),
) -> GroupPass<S> {
    let packed = PackedCenters::<T>::new(centers, k);
    let (n, groups) = (norms.len(), centers.rows() / k);
    let (chunk_rows, point_block) = (chunk_rows.max(1), point_block.max(1));
    let mut labels: Vec<Vec<usize>> = (0..groups).map(|_| vec![0; n]).collect();
    let mut dists: Vec<Vec<f64>> = (0..groups).map(|_| vec![0.0; n]).collect();
    let n_chunks = n.div_ceil(chunk_rows);
    let per_job = (n_chunks.div_ceil(workers.clamp(1, n_chunks.max(1))) * chunk_rows).max(1);
    // Job `j` owns rows `j·per_job ..` of every group's outputs.
    let mut jobs: Vec<(usize, Vec<GroupOut<'_>>)> = Vec::new();
    for (l, dv) in labels.iter_mut().zip(&mut dists) {
        let cuts = l.chunks_mut(per_job).zip(dv.chunks_mut(per_job));
        for (j, (labels, dists)) in cuts.enumerate() {
            if j == jobs.len() {
                jobs.push((j * per_job, Vec::with_capacity(groups)));
            }
            jobs[j].1.push(GroupOut { labels, dists });
        }
    }
    let states = parallel::map_jobs(jobs, |(start, mut outs)| {
        let end = start + outs[0].labels.len();
        let mut best = Best::new(groups);
        let mut states = Vec::new();
        for c0 in (start..end).step_by(chunk_rows) {
            let c1 = (c0 + chunk_rows).min(end);
            let mut state = init();
            for b0 in (c0..c1).step_by(point_block) {
                let block = b0..(b0 + point_block).min(c1);
                assign_block(
                    points,
                    norms,
                    &packed,
                    block.clone(),
                    start,
                    &mut outs,
                    center_tile,
                    &mut best,
                );
                let local = block.start - start..block.end - start;
                let block_labels: Vec<&[usize]> =
                    outs.iter().map(|o| &o.labels[local.clone()]).collect();
                fold(&mut state, block, &block_labels);
            }
            states.push(state);
        }
        states
    });
    (
        labels.into_iter().zip(dists).collect(),
        states.into_iter().flatten().collect(),
    )
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

    /// Whether every row norm the engine computes with is finite: the
    /// `f64` norms and, under [`Compute::F32`], the `f32` ones. A row
    /// holding a NaN or infinite entry, or one whose squared norm
    /// overflows in either precision (an `f64` entry above about 1.8e19
    /// already does in `f32`), fails it. Such a row's expanded distances
    /// are NaN, which the clamp to zero would read as 0.
    pub fn norms_are_finite(&self) -> bool {
        let finite32 = |(_, norms): &(MatrixF32, Vec<f32>)| norms.iter().all(|v| v.is_finite());
        self.norms.iter().all(|v| v.is_finite()) && self.f32_data.as_ref().is_none_or(finite32)
    }

    /// Runs a grouped pass in the engine's precision.
    #[allow(clippy::too_many_arguments)]
    fn pass<S: Send>(
        &self,
        centers: &Matrix,
        k: usize,
        workers: usize,
        chunk_rows: usize,
        tiles: (usize, usize),
        init: &(impl Fn() -> S + Sync),
        fold: &(impl Fn(&mut S, Range<usize>, &[&[usize]]) + Sync),
    ) -> GroupPass<S> {
        match &self.f32_data {
            None => assign_prepared(
                self.points.as_slice(),
                &self.norms,
                centers,
                k,
                workers,
                chunk_rows,
                tiles,
                init,
                fold,
            ),
            Some((m, norms)) => assign_prepared(
                m.as_slice(),
                norms,
                centers,
                k,
                workers,
                chunk_rows,
                tiles,
                init,
                fold,
            ),
        }
    }

    /// The one-group pass behind [`DistanceEngine::assign`] and
    /// [`DistanceEngine::min_update`]: one chunk per worker, no fold.
    fn assign_one(
        &self,
        centers: &Matrix,
        workers: usize,
        tiles: (usize, usize),
    ) -> (Vec<usize>, Vec<f64>) {
        let chunk_rows = self.points.rows().div_ceil(workers.max(1));
        let no_fold = |_: &mut (), _: Range<usize>, _: &[&[usize]]| {};
        let (mut groups, _) = self.pass(
            centers,
            centers.rows(),
            workers,
            chunk_rows,
            tiles,
            &|| (),
            &no_fold,
        );
        groups.pop().expect("a one-group pass returns one group")
    }

    /// Nearest-center assignment of every point: `(labels, squared
    /// distances)`, ties broken toward the lower center index. The
    /// `n × k` distance matrix is never materialized; each point's
    /// distances are reduced to their argmin on the fly. This is the
    /// one-group call of [`DistanceEngine::assign_groups`].
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
        Ok(self.assign_one(centers, workers, (center_tile, point_block)))
    }

    /// Grouped nearest-center assignment: `centers` stacks `G` groups of
    /// `k` rows, and one pass over the points finds every point's nearest
    /// center in each group. Returns each group's `(labels, squared
    /// distances)` — labels index within the group, and both are bitwise
    /// what [`DistanceEngine::assign`] returns against that group alone —
    /// and one fold state per chunk, in chunk order.
    ///
    /// The points are cut into chunks of `chunk_rows` rows, and each of up
    /// to `workers` threads takes a run of whole chunks. A chunk's state
    /// starts as `init()`; right after each block of the chunk's rows is
    /// assigned, while those rows are still in cache,
    /// `fold(state, rows, labels)` receives the block's row range and
    /// each group's labels for it. A chunk's state therefore sees its
    /// rows in row order at every worker count.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] unless the points and
    ///   `centers` agree on dimensionality and `k ≥ 1` divides the
    ///   number of centers.
    /// * [`LinalgError::EmptyMatrix`] if `centers` has no rows.
    pub fn assign_groups<S, I, F>(
        &self,
        centers: &Matrix,
        k: usize,
        workers: usize,
        chunk_rows: usize,
        init: I,
        fold: F,
    ) -> Result<GroupPass<S>>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Range<usize>, &[&[usize]]) + Sync,
    {
        check_shapes("assign_groups", self.points.shape(), centers)?;
        if centers.rows() == 0 {
            return Err(LinalgError::EmptyMatrix {
                op: "assign_groups",
            });
        }
        if k == 0 || !centers.rows().is_multiple_of(k) {
            return Err(LinalgError::DimensionMismatch {
                op: "assign_groups",
                lhs: centers.shape(),
                rhs: (k, centers.cols()),
            });
        }
        let tiles = (CENTER_TILE, POINT_BLOCK);
        Ok(self.pass(centers, k, workers, chunk_rows, tiles, &init, &fold))
    }

    /// Batched multi-center D² refresh: folds `min_j ‖x_i − c_j‖²` over
    /// the rows of `centers` into `best[i]`, updating only on a strict
    /// improvement — one bicriteria round. The minimum is the distance
    /// [`DistanceEngine::assign`] finds. `best` stays in `f64` at every
    /// compute precision (distances are widened before the
    /// strict-improvement compare, so the fold is deterministic). An
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
        let (_, dists) = self.assign_one(centers, workers, (CENTER_TILE, POINT_BLOCK));
        for (b, nd) in best.iter_mut().zip(dists) {
            if nd < *b {
                *b = nd;
            }
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Rows `q·k .. (q+1)·k` of `centers`: group `q` of a grouped pass.
    fn group(centers: &Matrix, k: usize, q: usize) -> Matrix {
        centers.select_rows(&(q * k..(q + 1) * k).collect::<Vec<_>>())
    }

    /// What one chunk's fold saw: each block's rows and every group's
    /// labels for them.
    type Blocks = Vec<(Range<usize>, Vec<Vec<usize>>)>;

    /// A grouped pass of `centers` (groups of `k` rows) with explicit
    /// workers, chunk size and tiles, whose fold records every block.
    /// Asserts that each chunk saw exactly its rows, in order, with the
    /// labels the pass returned, and returns each group's result.
    fn grouped(
        engine: &DistanceEngine<'_>,
        centers: &Matrix,
        k: usize,
        workers: usize,
        chunk_rows: usize,
        tiles: (usize, usize),
    ) -> Vec<(Vec<usize>, Vec<f64>)> {
        let record = |blocks: &mut Blocks, rows: Range<usize>, labels: &[&[usize]]| {
            blocks.push((rows, labels.iter().map(|l| l.to_vec()).collect()));
        };
        let (groups, chunks) =
            engine.pass(centers, k, workers, chunk_rows, tiles, &Vec::new, &record);
        let n = engine.points().rows();
        assert_eq!(groups.len(), centers.rows() / k);
        assert_eq!(chunks.len(), n.div_ceil(chunk_rows));
        for (c, blocks) in chunks.iter().enumerate() {
            let mut next = c * chunk_rows;
            for (rows, labels) in blocks {
                assert_eq!(rows.start, next, "chunk {c}");
                next = rows.end;
                for (l, (all, _)) in labels.iter().zip(&groups) {
                    assert_eq!(l[..], all[rows.clone()], "chunk {c}");
                }
            }
            assert_eq!(next, ((c + 1) * chunk_rows).min(n), "chunk {c}");
        }
        groups
    }

    /// Asserts every group of a grouped pass is bitwise
    /// `assign` against that group alone.
    fn assert_groups_alone(
        engine: &DistanceEngine<'_>,
        centers: &Matrix,
        k: usize,
        groups: &[(Vec<usize>, Vec<f64>)],
        context: &str,
    ) {
        for (q, (labels, dists)) in groups.iter().enumerate() {
            let (rl, rd) = engine.assign_in(&group(centers, k, q), 1).unwrap();
            assert_eq!(labels, &rl, "{context} group {q}");
            assert_eq!(bits(dists), bits(&rd), "{context} group {q}");
        }
    }

    #[test]
    fn row_norms_are_bitwise_serial_dots() {
        // The 4-row interleave only reorders *across* rows; each row's
        // chain must stay exactly serial_dot(r, r). Sizes cover full
        // quads, remainders of 1–3, and degenerate shapes. `workload`'s
        // eighths square and add exactly, so Gaussian rows, whose steps
        // round, check that every chain is fused too.
        for (n, d) in [(16, 9), (17, 9), (18, 1), (19, 13), (3, 7), (0, 5)] {
            let gaussian = crate::random::gaussian_matrix(n as u64, n, d, 1.0);
            for m in [workload(n, d), gaussian] {
                let fast = row_norms_sq(&m);
                assert_eq!(fast.len(), n);
                for (i, &v) in fast.iter().enumerate() {
                    let reference = serial_dot(m.row(i), m.row(i));
                    assert!(v == reference, "row {i} of {n}x{d}: {v} vs {reference}");
                }
            }
        }
    }

    #[test]
    fn dot_steps_are_fused_in_both_precisions() {
        // −1, then (1 + e)·(1 − e) = 1 − e²: fused, exactly −e²; the
        // product rounded first is 1 and the sum 0. e² sits below half
        // an ulp of 1 in each precision.
        let e = 2f64.powi(-30);
        let want = -(e * e);
        let x = [-1.0, 1.0 + e];
        assert_eq!(serial_dot(&x, &[1.0, 1.0 - e]), want);
        let strip: Vec<f64> = [1.0, 1.0 - e]
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v, LANES))
            .collect();
        assert_eq!(lane_dots(&x, &strip), [want; LANES]);
        let dots = lane_dots4(&[&x[..]; UNROLL], &strip);
        assert_eq!(dots, [[want; LANES]; UNROLL]);
        let e = 2f32.powi(-13);
        assert_eq!(serial_dot(&[-1.0f32, 1.0 + e], &[1.0, 1.0 - e]), -(e * e));
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
            (70, 5, 3),
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
            // Groups of k: 3 groups of 3 straddle two lane groups, and
            // 4 groups of 21 span two center tiles.
            for groups in [2, 3, 4] {
                let stacked = Matrix::from_fn(groups * k, d, |i, j| {
                    (((i * 7 + j * 13) % 37) as f64 - 18.0) * 0.25
                });
                let context = format!("n={n} d={d} k={k} groups={groups}");
                let out = grouped(&engine, &stacked, k, 2, 64, (CENTER_TILE, POINT_BLOCK));
                for (q, (labels, dists)) in out.iter().enumerate() {
                    let (rl, rd) = row_argmin(&expansion_reference(&p, &group(&stacked, k, q)));
                    assert_eq!(labels, &rl, "{context} group {q}");
                    assert_eq!(bits(dists), bits(&rd), "{context} group {q}");
                }
            }
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
        // Grouped passes: every worker count and chunk size gives each
        // group what `assign` gives it alone.
        for (groups, k) in [(3, 3), (5, 2), (4, 9), (2, 67)] {
            let stacked = workload(groups * k, 13);
            for workers in [1, 2, 3, 4, 8, 300] {
                for chunk_rows in [1, 64, 1024] {
                    let tiles = (CENTER_TILE, POINT_BLOCK);
                    let out = grouped(&engine, &stacked, k, workers, chunk_rows, tiles);
                    let context = format!("{groups}x{k}, {workers} workers, chunk {chunk_rows}");
                    assert_groups_alone(&engine, &stacked, k, &out, &context);
                }
            }
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
            // Grouped: a group may straddle a center tile as well as a
            // lane group.
            for (groups, k) in [(3, 7), (5, 13), (9, 1)] {
                let stacked = workload(groups * k, 11);
                let out = grouped(&engine, &stacked, k, 3, 128, (ct, pb));
                let context = format!("{groups}x{k}, tile {ct}/{pb}");
                assert_groups_alone(&engine, &stacked, k, &out, &context);
            }
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
        let no_fold = |_: &mut (), _: Range<usize>, _: &[&[usize]]| {};
        for compute in [Compute::F64, Compute::F32] {
            let engine = DistanceEngine::new(&p, compute);
            assert!(engine.assign(&c).is_err(), "{compute}");
            assert!(engine.min_update(&c, &mut best).is_err(), "{compute}");
            assert!(engine.assign_groups(&c, 1, 1, 64, || (), no_fold).is_err());
            // The group size must divide the stacked centers.
            let four = Matrix::zeros(4, 4);
            for k in [0, 3, 5] {
                assert!(
                    matches!(
                        engine.assign_groups(&four, k, 1, 64, || (), no_fold),
                        Err(LinalgError::DimensionMismatch { .. })
                    ),
                    "{compute} k={k}"
                );
            }
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
            let engine = DistanceEngine::new(&p, compute);
            assert!(matches!(
                engine.assign(&none),
                Err(LinalgError::EmptyMatrix { .. })
            ));
            assert!(matches!(
                engine.assign_groups(&none, 1, 1, 64, || (), |_: &mut (), _, _| {}),
                Err(LinalgError::EmptyMatrix { .. })
            ));
        }
    }
}
