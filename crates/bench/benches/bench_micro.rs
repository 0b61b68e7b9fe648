//! Criterion micro-benchmarks for the performance-critical substrates:
//! dense kernels (matmul/Gram/eigen/SVD), clustering (Lloyd,
//! k-means++, and the `upload-qt` server solve), DR (JL apply), CR
//! (sensitivity sampling / FSS), the
//! blocked distance engine vs the scalar assignment path it replaced,
//! the serve-path upload (the quantized coreset codec, the source's
//! whole transmit and the reassembly of its frame), the stage cache's
//! hit path, and the dataset build (mixture draw and normalization).
//!
//! Besides the printed lines, the run emits the machine-readable
//! `BENCH_micro.json` at the workspace root (see
//! [`ekm_bench::report::bench_json_path`]): kernel timings and op
//! counts, blocked-vs-scalar assignment speedups, end-to-end pipeline
//! timings with the stage cache off and on, and the cache hit rates.
//! `scripts/bench_perf.sh [smoke|full]` is the entry point; the
//! `EKM_PERF_SCALE` env var picks the workload sizes (`smoke` for CI,
//! `full` for the assignment-dominated paper-scale shapes).
//!
//! These track the performance of the building blocks; the paper's
//! figures/tables are regenerated by the `exp_*` harnesses.

use criterion::{BenchResult, BenchmarkId, Criterion};
use ekm_bench::report::{self, Json};
use ekm_clustering::cost;
use ekm_clustering::kmeans::KMeans;
use ekm_core::cache::StageCache;
use ekm_core::engine::StagePipeline;
use ekm_core::params::SummaryParams;
use ekm_coreset::{FssBuilder, SensitivitySampler};
use ekm_data::normalize::normalize_paper;
use ekm_data::synth::GaussianMixture;
use ekm_linalg::distance::{Compute, DistanceEngine};
use ekm_linalg::random::gaussian_matrix;
use ekm_linalg::{eig, ops, parallel, pinv, svd, Matrix};
use ekm_net::event::{EventServerBinding, EventTcpSource};
use ekm_net::frame::{FrameAssembler, FRAME_RESP};
use ekm_net::messages::Message;
use ekm_net::protocol::{Command, Payload, Response, SourceEndpoint};
use ekm_net::wire::Precision;
use ekm_net::FrameBuf;
use ekm_net::{CommandTransport, Network};
use ekm_quant::RoundingQuantizer;
use ekm_sketch::{JlKind, JlProjection};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Workload sizes, keyed by `EKM_PERF_SCALE`.
struct PerfScale {
    name: &'static str,
    /// `(n, d, k)` shapes of the assignment benchmarks.
    assign_sizes: &'static [(usize, usize, usize)],
    /// Dataset shape of the end-to-end pipeline section.
    pipeline_n: usize,
    pipeline_d: usize,
    /// Measured loopback command rounds of the reactor section.
    reactor_rounds: usize,
}

const SMOKE: PerfScale = PerfScale {
    name: "smoke",
    assign_sizes: &[(10_000, 32, 16)],
    pipeline_n: 1_500,
    pipeline_d: 32,
    reactor_rounds: 300,
};

/// The assignment-dominated shapes the perf trajectory tracks (the
/// 100k × 64 × 64 point is the acceptance size for the blocked kernel).
const FULL: PerfScale = PerfScale {
    name: "full",
    assign_sizes: &[(20_000, 32, 16), (100_000, 64, 64)],
    pipeline_n: 6_000,
    pipeline_d: 64,
    reactor_rounds: 2_000,
};

fn perf_scale() -> &'static PerfScale {
    match std::env::var("EKM_PERF_SCALE").as_deref() {
        Ok("full") => &FULL,
        _ => &SMOKE,
    }
}

fn bench_linalg(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg");
    for &n in &[64usize, 128] {
        let a = gaussian_matrix(1, n, n, 1.0);
        let b = gaussian_matrix(2, n, n, 1.0);
        g.bench_with_input(BenchmarkId::new("matmul", n), &n, |bench, _| {
            bench.iter(|| ops::matmul(black_box(&a), black_box(&b)).unwrap())
        });
    }
    let wide = gaussian_matrix(8, 4_000, 48, 1.0);
    g.bench_function("gram_4000x48", |bench| {
        bench.iter(|| ops::gram(black_box(&wide)))
    });
    let data = gaussian_matrix(4, 400, 64, 1.0);
    g.bench_function("thin_svd_400x64", |bench| {
        bench.iter(|| svd::thin_svd(black_box(&data)).unwrap())
    });
    // The paper's MNIST shapes (d = 784, d' = 392): Π alone is 2.4 MB,
    // more than a core's L2, as in the central JL product, its Gram, the
    // eigenpairs FSS keeps and the pseudo-inverse behind the center
    // lift. Few samples, so the smoke run stays short.
    g.sample_size(5);
    let points = gaussian_matrix(9, 2_000, 784, 1.0);
    let pi = gaussian_matrix(10, 784, 392, 1.0);
    g.bench_function("matmul_2000x784x392", |bench| {
        bench.iter(|| ops::matmul(black_box(&points), black_box(&pi)).unwrap())
    });
    let projected = gaussian_matrix(11, 2_000, 392, 1.0);
    g.bench_function("gram_2000x392", |bench| {
        bench.iter(|| ops::gram(black_box(&projected)))
    });
    // FSS's SVD at that shape: the top t = 33 eigenpairs of the Gram.
    let projected_gram = ops::gram(&projected);
    g.bench_function("top_eigen_392_t33", |bench| {
        bench.iter(|| eig::symmetric_top(black_box(&projected_gram), 33).unwrap())
    });
    g.bench_function("pinv_784x392", |bench| {
        bench.iter(|| pinv::pinv(black_box(&pi)).unwrap())
    });
    g.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut g = c.benchmark_group("clustering");
    g.sample_size(20);
    let data = gaussian_matrix(5, 2_000, 32, 1.0);
    g.bench_function("kmeans_k2_n2000_d32", |bench| {
        bench.iter(|| {
            KMeans::new(2)
                .with_n_init(1)
                .with_seed(7)
                .fit(black_box(&data))
                .unwrap()
        })
    });
    // The server solve of a one-source `upload-qt` run: three restarts
    // at k = 2 over a 10000 × 784 summary (62.7 MB; every pass spreads
    // over the workers). Few samples, so the smoke run stays short.
    g.sample_size(5);
    let summary = gaussian_matrix(24, 10_000, 784, 1.0);
    g.bench_function("kmeans_k2_10000x784_r3", |bench| {
        bench.iter(|| {
            KMeans::new(2)
                .with_n_init(3)
                .with_seed(7)
                .fit(black_box(&summary))
                .unwrap()
        })
    });
    g.finish();
}

fn bench_sketch(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch");
    let data = gaussian_matrix(6, 2_000, 256, 1.0);
    let pi = JlProjection::generate(JlKind::Gaussian, 256, 32, 9);
    g.bench_function("jl_project_2000x256_to_32", |bench| {
        bench.iter(|| pi.project(black_box(&data)).unwrap())
    });
    g.finish();
}

fn bench_coreset(c: &mut Criterion) {
    let mut g = c.benchmark_group("coreset");
    g.sample_size(20);
    let data = gaussian_matrix(7, 3_000, 24, 1.0);
    g.bench_function("sensitivity_sample_3000x24_m200", |bench| {
        bench.iter(|| {
            SensitivitySampler::new(2, 200)
                .with_seed(1)
                .sample(black_box(&data), None)
                .unwrap()
        })
    });
    g.bench_function("fss_3000x24_t8_m200", |bench| {
        bench.iter(|| {
            FssBuilder::new(2)
                .with_pca_dim(8)
                .with_sample_size(200)
                .with_seed(1)
                .build(black_box(&data))
                .unwrap()
        })
    });
    g.finish();
}

/// The serve-path upload of a 10000 × 784 source quantized at s = 8:
/// its coreset message encoded and decoded, the source's whole transmit
/// (quantize in place, encode, write the response frame), and the
/// server's reassembly of that frame from 64 KiB socket reads.
fn bench_wire(c: &mut Criterion) {
    let (n, d, s) = (10_000, 784, 8);
    let q = RoundingQuantizer::new(s).expect("s in range");
    let raw = gaussian_matrix(23, n, d, 1.0);
    let coreset = |points| Message::Coreset {
        points,
        weights: vec![1.0; n],
        delta: 0.0,
        precision: Precision::Quantized { s },
        weights_precision: Precision::Full,
    };
    let msg = coreset(q.quantize_matrix(&raw));
    let mut g = c.benchmark_group("wire");
    g.sample_size(5);
    g.bench_function("encode_q8_10000x784", |bench| {
        bench.iter(|| black_box(&msg).encode())
    });
    let (buf, bits) = msg.encode();
    g.bench_function("decode_q8_10000x784", |bench| {
        bench.iter(|| Message::decode(black_box(&buf), bits).unwrap())
    });
    // The source owns its summary and moves it into the message; the
    // bench takes it back after each write (quantizing is idempotent, so
    // every pass does the same work). The frame lands in a buffer the
    // size of the frame, as a socket write copies it out.
    let mut summary = Some(raw);
    let mut sink = Vec::with_capacity(buf.len() + 64);
    g.bench_function("transmit_q8_10000x784", |bench| {
        bench.iter(|| {
            let mut points = summary.take().expect("the summary");
            q.quantize_in_place(points.as_mut_slice());
            let msg = coreset(points);
            let up = Response::Up {
                round: 1,
                payload: Payload::of(&msg),
                ops: 0,
                seconds: 0.0,
            };
            sink.clear();
            up.write_frame(&mut sink).expect("frame write");
            let Message::Coreset { points, .. } = msg else {
                unreachable!("a coreset")
            };
            summary = Some(points);
            sink.len()
        })
    });
    g.finish();

    let body = Response::Up {
        round: 1,
        payload: Payload::of(&msg),
        ops: 0,
        seconds: 0.0,
    }
    .encode();
    let frame = FrameBuf::new(FRAME_RESP, &body, body.len() * 8).expect("frame");
    let mut g = c.benchmark_group("frame");
    g.sample_size(5);
    g.bench_function("reassemble_upload_qt", |bench| {
        bench.iter(|| {
            let mut asm = FrameAssembler::new();
            let mut wire = black_box(frame.bytes());
            loop {
                let spare = asm.spare();
                let n = spare.len().min(64 << 10).min(wire.len());
                spare[..n].copy_from_slice(&wire[..n]);
                asm.commit(n);
                wire = &wire[n..];
                if let Some(whole) = asm.next_frame().unwrap() {
                    break whole;
                }
            }
        })
    });
    g.finish();
}

/// The stage cache's hit path on the `sweep` workload's shard (a
/// separated mixture, 10000 × 196): one `run_cached` of `jl,fss` whose
/// two stages both hit, so the row is the two stage keys, the two
/// restores, and the rounds, transmit and small solve around them.
fn bench_cache(c: &mut Criterion) {
    let (n, d) = (10_000, 196);
    let raw = GaussianMixture::new(n, d, 2)
        .with_separation(4.0)
        .with_seed(42)
        .generate()
        .expect("synthetic workload")
        .points;
    let data = normalize_paper(&raw).0;
    let params = SummaryParams::practical(2, n, d).with_seed(42);
    let pipe = StagePipeline::from_names("jl,fss", params).expect("stage list");
    let mut cache = StageCache::new();
    pipe.run_cached(&data, &mut Network::new(1), &mut cache)
        .expect("cold run");
    let mut g = c.benchmark_group("cache");
    g.sample_size(10);
    g.bench_function("hit_jl_fss_10000x196", |bench| {
        bench.iter(|| {
            pipe.run_cached(black_box(&data), &mut Network::new(1), &mut cache)
                .expect("cached run")
        })
    });
    g.finish();
    assert_eq!(cache.misses(), 2, "a timed run missed the cache");
}

/// The dataset build of the MNIST-shaped end-to-end workloads: the
/// separated 10000 × 784 mixture drawn (the Box–Muller phase on the
/// workers), then normalized as the paper's §7.1 does (two passes).
fn bench_data(c: &mut Criterion) {
    let mixture = GaussianMixture::new(10_000, 784, 2)
        .with_separation(4.0)
        .with_seed(42);
    let mut g = c.benchmark_group("data");
    g.sample_size(5);
    g.bench_function("mixture_10000x784", |bench| {
        bench.iter(|| black_box(&mixture).generate().expect("mixture"))
    });
    let raw = mixture.generate().expect("mixture").points;
    g.bench_function("normalize_10000x784", |bench| {
        bench.iter(|| normalize_paper(black_box(&raw)))
    });
    g.finish();
}

/// The scalar per-point assignment loop the blocked engine replaced:
/// `nearest_center` over every row, parallelized over points exactly
/// like the pre-blocked `cost::assign` (same threshold semantics).
fn assign_scalar_par(points: &Matrix, centers: &Matrix) -> (Vec<usize>, Vec<f64>) {
    let pairs = parallel::par_map_indices(points.rows(), 4096, |i| {
        cost::nearest_center(points.row(i), centers)
    });
    pairs.into_iter().unzip()
}

/// Sequential scalar baseline (single-thread kernel comparison).
fn assign_scalar_seq(points: &Matrix, centers: &Matrix) -> (Vec<usize>, Vec<f64>) {
    (0..points.rows())
        .map(|i| cost::nearest_center(points.row(i), centers))
        .unzip()
}

/// The reduction-form `A·Bᵀ` the blocked kernel replaced: one serial dot
/// per output element, parallelized over rows of `A`.
fn matmul_transb_reduction(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, m) = (a.rows(), b.rows());
    let rows = parallel::par_map_indices(n, 4096, |i| {
        let arow = a.row(i);
        (0..m).map(|j| ops::dot(arow, b.row(j))).collect::<Vec<_>>()
    });
    let mut c = Matrix::zeros(n, m);
    for (i, row) in rows.into_iter().enumerate() {
        c.row_mut(i).copy_from_slice(&row);
    }
    c
}

/// Lift-product shapes: `(n, k, m)` for `A: n×k` times `Bᵀ: k×m` — the
/// `lift_out_of_basis` re-expansion (coordinates × basisᵀ) and the
/// outer-Gram shape the SVD route hits.
const TRANSB_SIZES: &[(usize, usize, usize)] = &[(4_000, 16, 196), (1_000, 48, 1_000)];

/// `matmul_transb` (the `tiled` rows, now the register-blocked kernel)
/// vs the reduction-form dot kernel.
fn bench_transb(c: &mut Criterion) {
    let mut g = c.benchmark_group("transb");
    g.sample_size(10);
    for &(n, k, m) in TRANSB_SIZES {
        let a = gaussian_matrix(21, n, k, 1.0);
        let b = gaussian_matrix(22, m, k, 1.0);
        let id = format!("n{n}_k{k}_m{m}");
        g.bench_function(format!("matmul_transb_tiled/{id}"), |bench| {
            bench.iter(|| ops::matmul_transb(black_box(&a), black_box(&b)).unwrap())
        });
        g.bench_function(format!("matmul_transb_reduction/{id}"), |bench| {
            bench.iter(|| matmul_transb_reduction(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

/// Blocked engine vs the scalar path, at each configured `(n, d, k)`, in
/// both compute precisions. The `assign_scalar_par` variant is skipped on
/// single-worker hosts: the split still pays thread spawn cost there, so
/// its "slower than sequential" reading was an artifact, not a signal.
fn bench_distance(c: &mut Criterion, scale: &PerfScale) {
    let mut g = c.benchmark_group("distance");
    g.sample_size(5);
    for &(n, d, k) in scale.assign_sizes {
        let points = gaussian_matrix(11, n, d, 1.0);
        let centers = gaussian_matrix(12, k, d, 1.0);
        let id = format!("n{n}_d{d}_k{k}");
        g.bench_function(format!("assign_scalar_seq/{id}"), |bench| {
            bench.iter(|| assign_scalar_seq(black_box(&points), black_box(&centers)))
        });
        if parallel::worker_count() > 1 {
            g.bench_function(format!("assign_scalar_par/{id}"), |bench| {
                bench.iter(|| assign_scalar_par(black_box(&points), black_box(&centers)))
            });
        }
        // A one-shot f64 assignment, row norms included, as `cost::assign`
        // runs it.
        g.bench_function(format!("assign_blocked/{id}"), |bench| {
            bench.iter(|| {
                DistanceEngine::new(black_box(&points), Compute::F64)
                    .assign(black_box(&centers))
                    .unwrap()
            })
        });
        // The f32 compute path amortizes the precision conversion in the
        // engine (one per solve in production), so only the kernel is timed.
        let engine32 = DistanceEngine::new(&points, Compute::F32);
        g.bench_function(format!("assign_blocked_f32/{id}"), |bench| {
            bench.iter(|| engine32.assign(black_box(&centers)).unwrap())
        });
    }
    g.finish();
}

/// `CENTER_TILE` / `POINT_BLOCK` sweep on the largest assignment shape,
/// recorded per worker count (min-of-3 wall clock; criterion's sampling
/// is overkill for a tuning table). The committed defaults should sit at
/// or near the minimum of this table on the recording host.
fn tile_sweep_json(scale: &PerfScale) -> Json {
    const TILES: &[(usize, usize)] = &[(32, 128), (64, 256), (128, 512)];
    let &(n, d, k) = scale.assign_sizes.last().expect("at least one size");
    let points = gaussian_matrix(11, n, d, 1.0);
    let centers = gaussian_matrix(12, k, d, 1.0);
    let id = format!("n{n}_d{d}_k{k}");
    let hw = parallel::worker_count();
    let mut rows = Vec::new();
    println!("group tile_sweep ({id}, workers x CENTER_TILE x POINT_BLOCK)");
    for &workers in &[1usize, 2, 4] {
        if workers > hw {
            // Oversubscribing a smaller host only measures scheduler noise.
            continue;
        }
        for &(center_tile, point_block) in TILES {
            let mut best = f64::INFINITY;
            for _ in 0..4 {
                let t0 = Instant::now();
                black_box(
                    DistanceEngine::new(&points, Compute::F64)
                        .assign_with_tiles(&centers, workers, center_tile, point_block)
                        .unwrap(),
                );
                best = best.min(t0.elapsed().as_secs_f64() * 1e9);
            }
            println!(
                "  workers={workers} tile={center_tile}x{point_block} {:>10.3} ms",
                best / 1e6
            );
            rows.push(Json::Obj(vec![
                ("size".into(), Json::Str(id.clone())),
                ("workers".into(), Json::Int(workers as u64)),
                ("center_tile".into(), Json::Int(center_tile as u64)),
                ("point_block".into(), Json::Int(point_block as u64)),
                ("min_ns".into(), Json::Num(best)),
            ]));
        }
    }
    Json::Arr(rows)
}

/// Looks up one recorded benchmark by exact name.
fn median_of(results: &[BenchResult], name: &str) -> Option<f64> {
    results.iter().find(|r| r.name == name).map(|r| r.median_ns)
}

/// Kernel timings + op counts as JSON rows (v2: each entry carries its
/// compute precision and the worker count it ran under; the `_seq`
/// variants and the `wire/` and `frame/` rows are single-threaded by
/// construction).
fn kernels_json(results: &[BenchResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| {
                let compute = if r.name.contains("_f32") {
                    "f32"
                } else {
                    "f64"
                };
                let workers = if r.name.contains("scalar_seq")
                    || r.name.starts_with("wire/")
                    || r.name.starts_with("frame/")
                {
                    1
                } else {
                    parallel::worker_count()
                };
                Json::Obj(vec![
                    ("name".into(), Json::Str(r.name.clone())),
                    ("median_ns".into(), Json::Num(r.median_ns)),
                    ("compute".into(), Json::Str(compute.into())),
                    ("workers".into(), Json::Int(workers as u64)),
                ])
            })
            .collect(),
    )
}

/// Blocked-vs-scalar speedups per assignment size (f64 compute). The
/// `scalar_par` comparison only appears when it actually ran; on a
/// single-worker host the row says so instead of reporting spawn cost.
fn speedups_json(results: &[BenchResult], scale: &PerfScale) -> Json {
    let mut rows = Vec::new();
    for &(n, d, k) in scale.assign_sizes {
        let id = format!("n{n}_d{d}_k{k}");
        let blocked = median_of(results, &format!("distance/assign_blocked/{id}"));
        let seq = median_of(results, &format!("distance/assign_scalar_seq/{id}"));
        let par = median_of(results, &format!("distance/assign_scalar_par/{id}"));
        if let (Some(blocked), Some(seq)) = (blocked, seq) {
            let mut row = vec![
                ("size".into(), Json::Str(id)),
                ("ops".into(), Json::Int((n * d * k) as u64)),
                ("compute".into(), Json::Str("f64".into())),
                ("workers".into(), Json::Int(parallel::worker_count() as u64)),
                ("blocked_ns".into(), Json::Num(blocked)),
                ("scalar_seq_ns".into(), Json::Num(seq)),
            ];
            match par {
                Some(par) => {
                    row.push(("scalar_par_ns".into(), Json::Num(par)));
                    row.push(("speedup_vs_scalar_par".into(), Json::Num(par / blocked)));
                }
                None => row.push((
                    "scalar_par".into(),
                    Json::Str("skipped: workers == 1".into()),
                )),
            }
            row.push(("speedup_vs_scalar_seq".into(), Json::Num(seq / blocked)));
            rows.push(Json::Obj(row));
        }
    }
    Json::Arr(rows)
}

/// f32-compute speedups per assignment size, mirroring
/// [`speedups_json`]: the f32 engine kernel against both the f64 blocked
/// kernel and the sequential scalar baseline.
fn f32_speedups_json(results: &[BenchResult], scale: &PerfScale) -> Json {
    let mut rows = Vec::new();
    for &(n, d, k) in scale.assign_sizes {
        let id = format!("n{n}_d{d}_k{k}");
        let f32_ns = median_of(results, &format!("distance/assign_blocked_f32/{id}"));
        let f64_ns = median_of(results, &format!("distance/assign_blocked/{id}"));
        let seq = median_of(results, &format!("distance/assign_scalar_seq/{id}"));
        if let (Some(f32_ns), Some(f64_ns), Some(seq)) = (f32_ns, f64_ns, seq) {
            rows.push(Json::Obj(vec![
                ("size".into(), Json::Str(id)),
                ("ops".into(), Json::Int((n * d * k) as u64)),
                ("compute".into(), Json::Str("f32".into())),
                ("workers".into(), Json::Int(parallel::worker_count() as u64)),
                ("blocked_f32_ns".into(), Json::Num(f32_ns)),
                ("blocked_f64_ns".into(), Json::Num(f64_ns)),
                ("scalar_seq_ns".into(), Json::Num(seq)),
                ("speedup_vs_blocked_f64".into(), Json::Num(f64_ns / f32_ns)),
                ("speedup_vs_scalar_seq".into(), Json::Num(seq / f32_ns)),
            ]));
        }
    }
    Json::Arr(rows)
}

/// Tiled-vs-reduction `matmul_transb` speedups per lift shape.
fn transb_speedups_json(results: &[BenchResult]) -> Json {
    let mut rows = Vec::new();
    for &(n, k, m) in TRANSB_SIZES {
        let id = format!("n{n}_k{k}_m{m}");
        let tiled = median_of(results, &format!("transb/matmul_transb_tiled/{id}"));
        let reduction = median_of(results, &format!("transb/matmul_transb_reduction/{id}"));
        if let (Some(tiled), Some(reduction)) = (tiled, reduction) {
            rows.push(Json::Obj(vec![
                ("size".into(), Json::Str(id)),
                ("ops".into(), Json::Int((n * k * m) as u64)),
                ("tiled_ns".into(), Json::Num(tiled)),
                ("reduction_ns".into(), Json::Num(reduction)),
                ("speedup".into(), Json::Num(reduction / tiled)),
            ]));
        }
    }
    Json::Arr(rows)
}

/// Median per-round command latency of the event backend: a loopback
/// `EventTcpServer`/`EventTcpSource` pair plays `rounds` tiny command
/// rounds (9-byte payloads, so the wire cost is noise and the wakeup
/// path dominates).
fn reactor_round_median(rounds: usize) -> f64 {
    const FP: u64 = 0x5EED_BE2C;
    const WARMUP: usize = 32;
    let total = rounds + WARMUP;
    let binding = EventServerBinding::bind("127.0.0.1:0").expect("bind loopback");
    let addr = binding.local_addr().expect("local addr");
    let executor = std::thread::spawn(move || {
        let mut src =
            EventTcpSource::connect(addr, 0, 1, FP, Duration::from_secs(5)).expect("connect");
        for _ in 0..total {
            match src.recv_command().expect("command") {
                Command::Stage { .. } => src
                    .send_response(Response::Done {
                        round: 0,
                        rows: 0,
                        cols: 0,
                        ops: 0,
                        seconds: 0.0,
                    })
                    .expect("respond"),
                other => panic!("unexpected command {other:?}"),
            }
        }
    });
    let mut server = binding.accept(1, FP).expect("accept");
    let mut samples = Vec::with_capacity(rounds);
    for r in 0..total {
        let t0 = Instant::now();
        server.send(0, &Command::Stage { index: 1 }).expect("send");
        let resp = server.recv(0).expect("recv");
        let ns = t0.elapsed().as_secs_f64() * 1e9;
        assert!(matches!(resp, Response::Done { .. }), "bad response");
        if r >= WARMUP {
            samples.push(ns);
        }
    }
    executor.join().expect("executor thread");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Reactor section: per-round command latency of the event backend over
/// real loopback TCP, plus the single-write frame counter (each counted
/// frame saved one header syscall against the old two-write wire path).
/// The validator holds the median to 40 µs per round.
fn reactor_json(scale: &PerfScale) -> Json {
    let rounds = scale.reactor_rounds;
    let writes_before = ekm_net::frame::single_write_frames();
    let median = reactor_round_median(rounds);
    let syscalls_avoided = ekm_net::frame::single_write_frames() - writes_before;
    println!("group reactor ({rounds} loopback command rounds)");
    println!("  median {:>10.3} us/round", median / 1e3);
    Json::Obj(vec![
        ("median_round_ns".into(), Json::Num(median)),
        ("rounds".into(), Json::Int(rounds as u64)),
        ("syscalls_avoided".into(), Json::Int(syscalls_avoided)),
    ])
}

/// End-to-end pipeline timings: the sweep shape that exercises the
/// stage cache (one `jl,fss` prefix under several QT widths), run cold
/// (no cache) and cached (one shared [`StageCache`]).
fn pipelines_json(scale: &PerfScale) -> (Json, Json) {
    let lists = ["jl,fss,qt:4", "jl,fss,qt:8", "jl,fss,qt:12"];
    let raw = GaussianMixture::new(scale.pipeline_n, scale.pipeline_d, 4)
        .with_separation(4.0)
        .with_seed(31)
        .generate()
        .expect("synthetic workload")
        .points;
    let data = normalize_paper(&raw).0;
    let params = SummaryParams::practical(4, scale.pipeline_n, scale.pipeline_d).with_seed(13);
    let mut cache = StageCache::new();
    let mut rows = Vec::new();
    println!("group pipeline (stage cache off vs on)");
    for list in lists {
        let pipe = StagePipeline::from_names(list, params.clone()).expect("stage list");
        let mut net = Network::new(1);
        let t0 = Instant::now();
        let cold = pipe.run(&data, &mut net).expect("cold run");
        let cold_s = t0.elapsed().as_secs_f64();
        let mut net = Network::new(1);
        let t1 = Instant::now();
        let cached = pipe
            .run_cached(&data, &mut net, &mut cache)
            .expect("cached run");
        let cached_s = t1.elapsed().as_secs_f64();
        assert!(
            cold.centers.approx_eq(&cached.centers, 0.0) && cold.uplink_bits == cached.uplink_bits,
            "cache hit diverged from cold run"
        );
        println!(
            "  {:<40} {cold_s:>9.4}s cold {cached_s:>9.4}s cached",
            pipe.name()
        );
        rows.push(Json::Obj(vec![
            ("stages".into(), Json::Str(list.into())),
            ("cold_s".into(), Json::Num(cold_s)),
            ("cached_s".into(), Json::Num(cached_s)),
            ("uplink_bits".into(), Json::Int(cold.uplink_bits)),
            ("source_ops".into(), Json::Int(cold.source_ops)),
            (
                "summary_points".into(),
                Json::Int(cold.summary_points as u64),
            ),
        ]));
    }
    let cache_stats = Json::Obj(vec![
        ("hits".into(), Json::Int(cache.hits())),
        ("misses".into(), Json::Int(cache.misses())),
        ("entries".into(), Json::Int(cache.len() as u64)),
        ("hit_rate".into(), Json::Num(cache.hit_rate())),
    ]);
    (Json::Arr(rows), cache_stats)
}

fn main() {
    let scale = perf_scale();
    let mut c = Criterion::default();
    bench_linalg(&mut c);
    bench_clustering(&mut c);
    bench_sketch(&mut c);
    bench_coreset(&mut c);
    bench_transb(&mut c);
    bench_distance(&mut c, scale);
    bench_wire(&mut c);
    bench_cache(&mut c);
    bench_data(&mut c);
    let results = criterion::take_results();

    let tile_sweep = tile_sweep_json(scale);
    let (pipelines, cache_stats) = pipelines_json(scale);
    let reactor = reactor_json(scale);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("ekm-bench-micro/v4".into())),
        ("scale".into(), Json::Str(scale.name.into())),
        ("workers".into(), Json::Int(parallel::worker_count() as u64)),
        ("kernels".into(), kernels_json(&results)),
        ("assign_speedups".into(), speedups_json(&results, scale)),
        ("f32_speedups".into(), f32_speedups_json(&results, scale)),
        ("transb_speedups".into(), transb_speedups_json(&results)),
        ("tile_sweep".into(), tile_sweep),
        ("pipelines".into(), pipelines),
        ("reactor".into(), reactor),
        ("stage_cache".into(), cache_stats),
    ]);
    let path = report::bench_json_path();
    report::write_json(&path, &doc).expect("write BENCH_micro.json");
    println!("wrote {}", path.display());
}
