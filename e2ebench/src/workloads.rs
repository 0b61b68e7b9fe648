//! The four workloads: their inputs, and one unit of work on each of the
//! three ways users run a pipeline — the run path (`ekm run`), the serve
//! path (`ekm serve` plus one `ekm source` per shard, here threads over
//! loopback TCP) and the sweep path (`ekm sweep`).

use crate::trace::{Recorder, SharedRecorder, Tier, TimedEndpoint, TimedTransport};
use ekm_core::distributed::{Bklw, JlBklw};
use ekm_core::journal::JournalingTransport;
use ekm_core::pipelines::{Fss, FssJl, JlFss, JlFssJl, NoReduction};
use ekm_core::stage::with_default_qt;
use ekm_core::{
    evaluation, RunOutput, SourceExecutor, SourceRunReport, Stage, StageCache, StagePipeline,
    SummaryParams,
};
use ekm_data::normalize::normalize_paper;
use ekm_data::partition::partition_uniform;
use ekm_data::synth::GaussianMixture;
use ekm_linalg::Matrix;
use ekm_net::event::{EventServerBinding, EventTcpServer, EventTcpSource};
use ekm_net::protocol::{channel_pairs, CommandTransport};
use ekm_net::{Network, RoutingTransport};
use ekm_quant::RoundingQuantizer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// Clusters in every workload.
pub const K: usize = 2;
/// Rows and dimensions of the MNIST-shaped datasets (28 × 28 pixels).
const MNIST_N: usize = 10_000;
const MNIST_D: usize = 784;
/// Dimensions of the sweep's dataset (MNIST downsampled to 14 × 14).
const SWEEP_D: usize = 196;
/// Rows and dimensions of the NeurIPS-shaped dataset.
const NEURIPS_N: usize = 6000;
const NEURIPS_D: usize = 500;
/// Sources of the disPCA/disSS runs. One: on a 2-vCPU host two sources
/// computing at once serialize whenever the hypervisor takes a vCPU away,
/// which spread bklw-journal's and sweep's run times 20–40% from run to
/// run at steady CPU time.
const SOURCES: usize = 1;
/// Significant bits of the quantizing workloads.
const QT_BITS: u32 = 8;
/// The reference solve, as `ekm run` does it.
const REFERENCE_RESTARTS: usize = 5;
const REFERENCE_SEED: u64 = 1;
/// Handshake fingerprint shared by the server and its sources.
const FINGERPRINT: u64 = 0xE2E_BE4C;
/// How long a source keeps retrying to reach its server.
const CONNECT_WINDOW: Duration = Duration::from_secs(20);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// JL+FSS+JL on one source through the run path.
    CentralJlFssJl,
    /// The QT-only baseline on one source through the serve path.
    UploadQt,
    /// JL+BKLW+QT through the serve path, journaled.
    BklwJournal,
    /// The seven default pipelines through one stage cache.
    Sweep,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::CentralJlFssJl,
        Kind::UploadQt,
        Kind::BklwJournal,
        Kind::Sweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CentralJlFssJl => "central-jlfssjl",
            Kind::UploadQt => "upload-qt",
            Kind::BklwJournal => "bklw-journal",
            Kind::Sweep => "sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the serve-path result is checked against `run_channel`.
    pub fn checks_backends(self) -> bool {
        matches!(self, Kind::UploadQt | Kind::BklwJournal)
    }

    /// Whether the workload writes a journal.
    pub fn journals(self) -> bool {
        self == Kind::BklwJournal
    }
}

/// Everything a workload builds before any unit runs.
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// The full normalized dataset.
    pub data: Matrix,
    /// The per-source shards (the whole dataset for one source).
    pub shards: Vec<Matrix>,
    /// The pipelines one unit runs, with their short names.
    pub pipes: Vec<(&'static str, StagePipeline)>,
    /// Reference k-means cost on the full dataset.
    pub reference_cost: f64,
    /// Seconds spent generating and normalizing the dataset.
    pub build_s: f64,
    /// Seconds spent building the per-source shards.
    pub partition_s: f64,
    /// Seconds spent in the reference solve.
    pub reference_s: f64,
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The seven pipelines `ekm sweep` runs by default.
fn sweep_pipes(params: &SummaryParams) -> Vec<(&'static str, StagePipeline)> {
    let p = || params.clone();
    vec![
        ("nr", NoReduction::new(p()).into_stage_pipeline()),
        ("fss", Fss::new(p()).into_stage_pipeline()),
        ("jl-fss", JlFss::new(p()).into_stage_pipeline()),
        ("fss-jl", FssJl::new(p()).into_stage_pipeline()),
        ("jl-fss-jl", JlFssJl::new(p()).into_stage_pipeline()),
        ("bklw", Bklw::new(p()).into_stage_pipeline()),
        ("jl-bklw", JlBklw::new(p()).into_stage_pipeline()),
    ]
}

/// Builds the workload's inputs from `seed`: dataset, shards, pipelines
/// and the reference cost.
///
/// # Errors
///
/// Any generation, partition or solver failure.
pub fn setup(kind: Kind, seed: u64) -> Result<Inputs, String> {
    let t = Instant::now();
    // Separated Gaussian mixtures in the shapes of the paper's datasets.
    // On MNIST- or NeurIPS-like content the server's and the reference's
    // Lloyd iterations vary with the seed (upload-qt's run time swung
    // 0.75–1.8 s, bklw-journal's set-up 0.2–0.56 s), while a mixture
    // converges in steady work, so medians over seeds compare.
    let (n, d) = match kind {
        Kind::CentralJlFssJl | Kind::UploadQt => (MNIST_N, MNIST_D),
        Kind::BklwJournal => (NEURIPS_N, NEURIPS_D),
        Kind::Sweep => (MNIST_N, SWEEP_D),
    };
    let raw = GaussianMixture::new(n, d, K)
        .with_separation(4.0)
        .with_seed(seed)
        .generate()
        .map_err(text)?
        .points;
    let data = normalize_paper(&raw).0;
    drop(raw);
    let build_s = t.elapsed().as_secs_f64();

    let params = SummaryParams::practical(K, n, d).with_seed(seed);
    let pipes = match kind {
        Kind::CentralJlFssJl => vec![("jl-fss-jl", JlFssJl::new(params).into_stage_pipeline())],
        Kind::UploadQt => {
            let stages = with_default_qt(
                Stage::parse_list(&format!("qt:{QT_BITS}")).map_err(text)?,
                &params,
            );
            vec![("qt", StagePipeline::new(stages, params))]
        }
        Kind::BklwJournal => {
            let q = RoundingQuantizer::new(QT_BITS).map_err(text)?;
            let pipe = JlBklw::new(params.with_quantizer(q)).into_stage_pipeline();
            vec![("jl-bklw-qt", pipe)]
        }
        Kind::Sweep => sweep_pipes(&params),
    };

    let t = Instant::now();
    let shards = match kind {
        Kind::CentralJlFssJl | Kind::UploadQt => vec![data.clone()],
        Kind::BklwJournal | Kind::Sweep => partition_uniform(&data, SOURCES, seed).map_err(text)?,
    };
    let partition_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let reference =
        evaluation::reference(&data, K, REFERENCE_RESTARTS, REFERENCE_SEED).map_err(text)?;
    let reference_s = t.elapsed().as_secs_f64();

    Ok(Inputs {
        kind,
        data,
        shards,
        pipes,
        reference_cost: reference.cost,
        build_s,
        partition_s,
        reference_s,
    })
}

/// One unit's inputs, copied before the clock starts: the shards the
/// run hands its sources, which the executors own and consume. The sweep
/// reads the shared inputs and needs no copy.
pub fn prepare(inputs: &Inputs) -> Vec<Matrix> {
    match inputs.kind {
        Kind::Sweep => Vec::new(),
        _ => inputs.shards.clone(),
    }
}

/// What a traced unit collects besides the driver's own spans.
pub struct Tracer {
    /// Time zero of every span.
    pub epoch: Instant,
    /// Stamped on every span as its run id.
    pub run: u64,
    /// The driver thread's spans and captured payloads.
    pub driver: SharedRecorder,
    /// Every source thread's spans.
    pub sources: Vec<Recorder>,
    /// Counters read from the stage cache after the unit.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty trace of run `run`, starting now.
    pub fn new(run: u64) -> Tracer {
        let epoch = Instant::now();
        Tracer {
            epoch,
            run,
            driver: SharedRecorder::new(Recorder::new(epoch, None, run).into()),
            sources: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

/// Each pipeline run of a unit: the index of its pipeline in
/// `Inputs::pipes`, and its output.
pub type Runs = Vec<(usize, Result<RunOutput, String>)>;

/// The journal bklw-journal writes (truncated by every run).
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(format!("journal-{}.wal", std::process::id()))
}

/// Runs one unit of work — one pipeline run, or one seven-pipeline
/// sweep — on `shards` from [`prepare`]. With a `tracer`, the same
/// stacks are assembled from their public pieces with timing wrappers
/// at the trait boundaries.
pub fn run_unit(
    inputs: &Inputs,
    shards: Vec<Matrix>,
    journal_dir: &Path,
    tracer: Option<&mut Tracer>,
) -> Runs {
    let pipe = &inputs.pipes[0].1;
    let out = match inputs.kind {
        Kind::Sweep => return sweep(inputs, tracer),
        Kind::CentralJlFssJl => run_path(pipe, shards, tracer),
        Kind::UploadQt => serve_path(pipe, shards, None, tracer),
        Kind::BklwJournal => serve_path(pipe, shards, Some(&journal_path(journal_dir)), tracer),
    };
    vec![(0, out)]
}

/// The run path: `StagePipeline::run_channel`, or — traced — the stack
/// it builds (channel pairs, `RoutingTransport`, `run_driver`, one
/// `SourceExecutor::serve` thread per shard) with timing wrappers.
fn run_path(
    pipe: &StagePipeline,
    shards: Vec<Matrix>,
    tracer: Option<&mut Tracer>,
) -> Result<RunOutput, String> {
    let Some(tracer) = tracer else {
        return pipe.run_channel(shards).map_err(text);
    };
    let m = shards.len();
    let rec = tracer.driver.clone();
    let (epoch, run) = (tracer.epoch, tracer.run);
    let connect = rec.borrow_mut().enter("transport.connect", "channel");
    let (hub, endpoints) = channel_pairs(m);
    let mut net = TimedTransport::new(RoutingTransport::new(hub), Tier::Wire, rec.clone());
    thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(shards)
            .enumerate()
            .map(|(i, (endpoint, shard))| {
                let source_rec = Recorder::new(epoch, Some(i), run);
                scope.spawn(move || {
                    let mut timed = TimedEndpoint::new(endpoint, pipe.stages(), source_rec);
                    let served = SourceExecutor::new(pipe.stages(), pipe.params(), i, m, shard)
                        .serve(&mut timed)
                        .map_err(text);
                    (served, Some(timed.into_recorder()))
                })
            })
            .collect();
        rec.borrow_mut().exit(connect);
        let out = Recorder::time(&rec, "driver", "", || pipe.run_driver(&mut net)).map_err(text);
        finish(out, handles, Some(tracer))
    })
}

/// The serve path: `EventServerBinding` on a fresh loopback port, one
/// `EventTcpSource` thread per shard, then `RoutingTransport`, an
/// optional `JournalingTransport` and `run_driver`. Bind, connect and
/// handshake are part of the job.
fn serve_path(
    pipe: &StagePipeline,
    shards: Vec<Matrix>,
    journal: Option<&Path>,
    tracer: Option<&mut Tracer>,
) -> Result<RunOutput, String> {
    let m = shards.len();
    let rec = tracer.as_ref().map(|t| t.driver.clone());
    let epoch = tracer.as_ref().map(|t| (t.epoch, t.run));
    let connect = rec
        .as_ref()
        .map(|r| r.borrow_mut().enter("transport.connect", "tcp"));
    let binding = EventServerBinding::bind("127.0.0.1:0").map_err(text)?;
    let addr = binding.local_addr().map_err(text)?;
    thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let source_rec = epoch.map(|(e, run)| Recorder::new(e, Some(i), run));
                scope.spawn(move || {
                    let endpoint =
                        match EventTcpSource::connect(addr, i, m, FINGERPRINT, CONNECT_WINDOW) {
                            Ok(endpoint) => endpoint,
                            Err(e) => return (Err(e.to_string()), source_rec),
                        };
                    let mut executor =
                        SourceExecutor::new(pipe.stages(), pipe.params(), i, m, shard);
                    match source_rec {
                        None => (executor.serve(&mut { endpoint }).map_err(text), None),
                        Some(source_rec) => {
                            let mut timed = TimedEndpoint::new(endpoint, pipe.stages(), source_rec);
                            let served = executor.serve(&mut timed).map_err(text);
                            (served, Some(timed.into_recorder()))
                        }
                    }
                })
            })
            .collect();
        let accepted = binding.accept(m, FINGERPRINT).map_err(text);
        if let (Some(r), Some(id)) = (&rec, connect) {
            r.borrow_mut().exit(id);
        }
        let out = accepted.and_then(|net| drive(pipe, net, journal, rec.as_ref()));
        finish(out, handles, tracer)
    })
}

/// Drives the accepted sources as `ekm serve` does: routing always,
/// the journal when asked. Traced, one timing wrapper sits directly
/// above routing and, with a journal, a second one above the journal.
fn drive(
    pipe: &StagePipeline,
    net: EventTcpServer,
    journal: Option<&Path>,
    rec: Option<&SharedRecorder>,
) -> Result<RunOutput, String> {
    let routed = RoutingTransport::new(net);
    let Some(rec) = rec else {
        let out = match journal {
            None => pipe.run_driver(&mut { routed }),
            Some(path) => JournalingTransport::record(routed, path, FINGERPRINT)
                .and_then(|mut journaled| pipe.run_driver(&mut journaled)),
        };
        return out.map_err(text);
    };
    let wire = TimedTransport::new(routed, Tier::Wire, rec.clone());
    match journal {
        None => timed_driver(pipe, wire, rec),
        Some(path) => {
            let journaled = Recorder::time(rec, "journal.open", "", || {
                JournalingTransport::record(wire, path, FINGERPRINT)
            })
            .map_err(text)?;
            timed_driver(
                pipe,
                TimedTransport::new(journaled, Tier::Journal, rec.clone()),
                rec,
            )
        }
    }
}

fn timed_driver<T: CommandTransport>(
    pipe: &StagePipeline,
    mut net: T,
    rec: &SharedRecorder,
) -> Result<RunOutput, String> {
    Recorder::time(rec, "driver", "", || pipe.run_driver(&mut net)).map_err(text)
}

type SourceOutcome = (Result<SourceRunReport, String>, Option<Recorder>);

/// Joins the source threads, keeps their spans, and fails the job if
/// the driver or any source failed.
fn finish(
    out: Result<RunOutput, String>,
    handles: Vec<thread::ScopedJoinHandle<'_, SourceOutcome>>,
    tracer: Option<&mut Tracer>,
) -> Result<RunOutput, String> {
    let mut recorders = Vec::new();
    let mut failure = None;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok((served, rec)) => {
                recorders.extend(rec);
                if let Err(e) = served {
                    failure.get_or_insert(format!("source {i}: {e}"));
                }
            }
            Err(_) => {
                failure.get_or_insert(format!("source {i} panicked"));
            }
        }
    }
    if let Some(t) = tracer {
        t.sources.extend(recorders);
    }
    let out = out?;
    match failure {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// The sweep path: the seven default pipelines through one fresh
/// `StageCache`, single-source pipelines on the whole dataset and
/// distributed ones on the shards, as `ekm sweep` runs them.
fn sweep(inputs: &Inputs, tracer: Option<&mut Tracer>) -> Runs {
    let mut cache = StageCache::new();
    let mut runs = Vec::with_capacity(inputs.pipes.len());
    for (idx, (name, pipe)) in inputs.pipes.iter().enumerate() {
        let mut run = || {
            if pipe.is_distributed() {
                let mut net = Network::new(inputs.shards.len());
                pipe.run_shards_cached(&inputs.shards, &mut net, &mut cache)
            } else {
                pipe.run_cached(&inputs.data, &mut Network::new(1), &mut cache)
            }
        };
        let out = match &tracer {
            Some(t) => Recorder::time(&t.driver, "engine", name, run),
            None => run(),
        };
        runs.push((idx, out.map_err(text)));
    }
    if let Some(t) = tracer {
        t.counters.insert("cache.hits", cache.hits() as f64);
        t.counters.insert("cache.misses", cache.misses() as f64);
        t.counters.insert("cache.hit_rate", cache.hit_rate());
        t.counters
            .insert("cache.held_mb", cache.held_bytes() as f64 / 1e6);
    }
    runs
}
