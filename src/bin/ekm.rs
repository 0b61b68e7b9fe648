//! `ekm` — command-line driver for the edge-kmeans pipelines.
//!
//! ```text
//! ekm run    --pipeline jl-fss-jl --dataset mnist-like --n 2000 --k 2
//! ekm run    --stages jl,fss,qt,jl --quantize 8
//! ekm sweep  --dataset neurips-like --n 1500 --d 500
//! ekm sweep  --stages "jl,fss,qt;dispca,jl,disss"
//! ekm qtopt  --dataset mnist-like --y0 2.0
//! ekm serve  --listen 127.0.0.1:7000 --pipeline jl-bklw --sources 3
//! ekm source --connect 127.0.0.1:7000 --source-id 0 --pipeline jl-bklw --sources 3
//! ekm --help
//! ```
//!
//! Argument parsing is hand-rolled (the workspace deliberately carries no
//! CLI dependency); every flag has a sensible default so `ekm run` alone
//! does something useful.

use edge_kmeans::clustering::lower_bound::cost_lower_bound;
use edge_kmeans::core::executor::SourceExecutor;
use edge_kmeans::core::journal::JournalingTransport;
use edge_kmeans::core::pipelines;
use edge_kmeans::core::CoreError;
use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::neurips_like::NeurIpsLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::net::event::{self, EventServerBinding, EventTcpServer, EventTcpSource};
use edge_kmeans::net::protocol::{Command, DeadlinePolicy, Response, SourceEndpoint};
use edge_kmeans::net::wire::{Compute, Precision};
use edge_kmeans::net::{CommandTransport, NetError, NetworkStats, RoutingTransport, RunDigest};
use edge_kmeans::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// `println!` for the command output. A reader that stops early (`ekm
/// help | head -1`) closes stdout; the command then ends quietly with
/// success, as a process ended by SIGPIPE would, instead of panicking
/// on the failed write.
macro_rules! say {
    ($($arg:tt)*) => {
        say(format_args!($($arg)*))
    };
}

fn say(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
}

const HELP: &str = "\
ekm — communication-efficient k-means for edge-based machine learning

USAGE:
    ekm <COMMAND> [FLAGS]

COMMANDS:
    run      run one pipeline end to end and print the three paper metrics
    sweep    run every pipeline on one dataset (the Figure 1 comparison);
             stage outputs are memoized across pipelines, so compositions
             sharing a prefix (e.g. jl,fss under several QT widths)
             compute it once — outputs are bit-identical to lone runs
    qtopt    run the Section 6.3 quantizer-configuration optimizer
    serve    run the server of a distributed deployment over real TCP:
             drives the server-side protocol over every connected source
             process (event-driven, one thread) — the sources hold the
             data, the server holds the plan
    source   run one data-source process of a distributed deployment
             (launch with the same dataset/pipeline flags as the server);
             in the default protocol mode the process keeps only its own
             shard and answers the server's commands
    eval     compute the absolute k-means cost of saved centers
             (--centers <file>) on the dataset the flags describe
    help     show this message

FLAGS (with defaults):
    --listen <addr>     serve: listen address, e.g. 127.0.0.1:7000
    --connect <addr>    source: the server's address
    --source-id <int>   source: which source this process plays
    --pipeline <name>   nr | fss | jl-fss | fss-jl | jl-fss-jl |
                        bklw | jl-bklw | bklw-jl    [jl-fss-jl]
    --stages <list>     run an arbitrary DR/CR/QT composition instead of
                        a named pipeline: comma-separated stages from
                        jl, fss, stream, qt, qt:<bits>, dispca, disss
                        (e.g. --stages jl,stream,qt); for sweep,
                        several compositions joined with ';'
    --dataset <name>    mnist-like | neurips-like | mixture   [mnist-like]
    --n <int>           dataset cardinality                    [2000]
    --d <int>           dataset dimensionality (mixture/neurips) [196]
    --k <int>           clusters                               [2]
    --sources <int>     data sources (distributed pipelines)   [10]
    --seed <int>        RNG seed                               [42]
    --quantize <bits>   add the +QT variant with s significant bits
    --precision <p>     f64 | f32: wire precision of the auxiliary
                        payloads (bases, coreset weights, SVD
                        summaries); f32 halves them             [f64]
    --compute <p>       f64 | f32: distance-kernel precision on the
                        sources and the server; f64 is the
                        bit-reproducibility reference, f32 trades
                        ~1e-2 relative accuracy for speed       [f64]
    --leaf-size <int>   stream stage leaf-buffer size [2x coreset size]
    --threads <int>     worker threads of the kernels, the sharded
                        solve and the per-source fan-out, capped
                        at the hardware's; 0 follows it        [0]
    --y0 <float>        qtopt error budget                     [2.0]

FAULT TOLERANCE (serve/source, protocol mode):
    --deadline-ms <ms>  per-command deadline: a source that misses it is
                        reissued the round once, then dropped — the run
                        completes degraded on the survivors and reports
                        the documented cost-ratio bound
    --replication <r>   serve/source/run: hold every shard on r sources
                        (its owner plus r-1 ring replicas, kept cold);
                        a lost owner is re-homed onto a live replica
                        and its finished rounds replayed, so the run
                        recovers bit-identical instead of degrading [1]
    --journal <path>    serve: write-ahead journal of every command
                        round, for deterministic crash recovery
    --resume            serve: replay the journal to the pre-crash state
                        (bit-identical), reconcile the round in flight
                        from the executors' fingerprints, finish live
    --centers-out <f>   run/serve: save the centers losslessly (hex-
                        encoded f64 bits), for `ekm eval` comparisons
    --centers <file>    eval: the saved centers to score
    --reconnect <secs>  source: keep reconnecting for this long when the
                        server vanishes mid-run (crash recovery window)
    --crash-after-commands <n>  serve: exit(42) after n journaled
                        commands (fault-injection testing)
    --fail-after-commands <n>   source: exit(43) after n served
                        commands (fault-injection testing)

EXAMPLES:
    ekm run --pipeline jl-bklw --sources 10
    ekm run --stages jl,fss,qt,jl --quantize 8
    ekm run --stages jl,stream,qt --sources 8 --leaf-size 256
    ekm run --stages dispca,jl,disss --sources 5
    ekm run --pipeline jl-fss --precision f32
    ekm sweep --dataset mnist-like --quantize 10
    ekm sweep --stages \"jl,fss;fss,jl,qt:6;jl,stream,qt\"
    ekm serve --listen 127.0.0.1:7000 --pipeline bklw --sources 2 &
    ekm source --connect 127.0.0.1:7000 --source-id 0 --pipeline bklw --sources 2 &
    ekm source --connect 127.0.0.1:7000 --source-id 1 --pipeline bklw --sources 2
    ekm serve --listen 127.0.0.1:7000 --stages dispca,disss --sources 3 \\
              --journal run.journal --deadline-ms 30000 --centers-out centers.txt
    ekm serve --listen 127.0.0.1:7000 --stages dispca,disss --sources 3 \\
              --journal run.journal --resume --centers-out resumed.txt
    ekm eval --dataset mixture --n 600 --d 40 --k 2 --centers centers.txt
";

/// Every flag that takes a value, one list for all commands (so `serve`
/// and `source` accept the one flag set a deployment hands both). A flag
/// in neither list is a usage error, never silently ignored.
const VALUE_FLAGS: &str = "listen connect source-id pipeline stages dataset n d k sources seed \
     quantize precision compute leaf-size threads y0 deadline-ms \
     replication journal centers-out centers reconnect crash-after-commands fail-after-commands";

/// Flags that take no value.
const BOOLEAN_FLAGS: &str = "resume";

fn listed(list: &str, name: &str) -> bool {
    list.split_whitespace().any(|flag| flag == name)
}

#[derive(Debug)]
struct Args {
    command: String,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut command = String::from("help");
        let mut flags = HashMap::new();
        let mut i = 0;
        let mut saw_command = false;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if name == "help" {
                    return Ok(Args {
                        command: "help".into(),
                        flags,
                    });
                }
                if listed(BOOLEAN_FLAGS, name) {
                    flags.insert(name.to_string(), "true".into());
                    i += 1;
                    continue;
                }
                if !listed(VALUE_FLAGS, name) {
                    let valid: Vec<&str> = VALUE_FLAGS
                        .split_whitespace()
                        .chain(BOOLEAN_FLAGS.split_whitespace())
                        .collect();
                    return Err(format!(
                        "unknown flag --{name} (valid flags: --{})",
                        valid.join(", --")
                    ));
                }
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
                i += 2;
            } else {
                if saw_command {
                    return Err(format!("unexpected argument '{a}'"));
                }
                command = a.clone();
                saw_command = true;
                i += 1;
            }
        }
        Ok(Args { command, flags })
    }

    fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| format!("--{name} expects an integer, got '{v}'")),
        }
    }

    fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("--{name} expects an integer, got '{v}'")),
        }
    }

    fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| format!("--{name} expects a number, got '{v}'")),
        }
    }

    fn get_str(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

/// The mnist-like pixel-grid side for a requested dimensionality — one
/// derivation shared by `build_dataset` (sources) and `dataset_shape`
/// (the data-less protocol server), so the two ends can never disagree
/// on the effective `d`.
fn mnist_side(d: usize) -> usize {
    ((d as f64).sqrt().round() as usize).max(4)
}

fn build_dataset(args: &Args) -> Result<Matrix, String> {
    let n = args.get_usize("n", 2000)?;
    let d = args.get_usize("d", 196)?;
    let seed = args.get_u64("seed", 42)?;
    let raw = match args.get_str("dataset", "mnist-like").as_str() {
        "mnist-like" => {
            MnistLike::new(n, mnist_side(d))
                .with_seed(seed)
                .generate()
                .map_err(|e| e.to_string())?
                .points
        }
        "neurips-like" => {
            NeurIpsLike::new(n, d)
                .with_seed(seed)
                .generate()
                .map_err(|e| e.to_string())?
                .points
        }
        "mixture" => {
            let k = args.get_usize("k", 2)?;
            GaussianMixture::new(n, d, k)
                .with_separation(4.0)
                .with_seed(seed)
                .generate()
                .map_err(|e| e.to_string())?
                .points
        }
        other => return Err(format!("unknown dataset '{other}'")),
    };
    Ok(normalize_paper(&raw).0)
}

/// The worker count `--threads <requested>` installs: at most the
/// hardware's `available` threads, since a kernel starts up to that many
/// threads per call and more than the cores run no faster.
fn thread_cap(requested: usize, available: usize) -> usize {
    requested.min(available)
}

fn build_params(args: &Args, n: usize, d: usize) -> Result<SummaryParams, String> {
    let k = args.get_usize("k", 2)?;
    let seed = args.get_u64("seed", 42)?;
    let mut params = SummaryParams::practical(k, n, d).with_seed(seed);
    if let Some(bits) = args.flags.get("quantize") {
        let s: u32 = bits
            .parse()
            .map_err(|_| format!("--quantize expects bits, got '{bits}'"))?;
        params = params.with_quantizer(RoundingQuantizer::new(s).map_err(|e| e.to_string())?);
    }
    match args.get_str("precision", "f64").as_str() {
        "f64" => {}
        "f32" => params = params.with_precision(Precision::F32),
        other => return Err(format!("--precision expects f64|f32, got '{other}'")),
    }
    let compute_flag = args.get_str("compute", "f64");
    match Compute::parse(&compute_flag) {
        Some(c) => params = params.with_compute(c),
        None => return Err(format!("--compute expects f64|f32, got '{compute_flag}'")),
    }
    if args.flags.contains_key("leaf-size") {
        let leaf = args.get_usize("leaf-size", 0)?;
        if leaf == 0 {
            return Err("--leaf-size expects a positive integer".into());
        }
        params = params.with_stream_leaf_size(leaf);
    }
    let threads = args.get_usize("threads", 0)?;
    if threads > 0 {
        // Caps the sharded server solve and every per-source fan-out;
        // results are bit-identical at any setting.
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        edge_kmeans::linalg::parallel::set_worker_count(thread_cap(threads, hardware));
    }
    let replication = args.get_usize("replication", 1)?;
    if replication == 0 {
        return Err("--replication expects a positive replica count".into());
    }
    params = params.with_replication(replication);
    if args.flags.contains_key("deadline-ms") {
        let ms = args.get_u64("deadline-ms", 0)?;
        if ms == 0 {
            return Err("--deadline-ms expects a positive millisecond count".into());
        }
        // One knob for every transport: the driver announces it to the
        // sources at the start of the run. Deliberately excluded from
        // the stage keys and the handshake fingerprint — deadlines
        // never shape the bits.
        params = params.with_deadline(DeadlinePolicy::uniform(Duration::from_millis(ms)));
    }
    Ok(params)
}

/// Saves centers losslessly: a `rows cols` header line, then one line
/// per center of space-separated hex-encoded `f64` bit patterns — so an
/// `ekm eval` of a `--centers-out` file scores *exactly* the centers
/// the run produced.
fn write_centers(path: &str, centers: &Matrix) -> Result<(), String> {
    let (rows, cols) = centers.shape();
    let mut text = format!("{rows} {cols}\n");
    for i in 0..rows {
        let row: Vec<String> = (0..cols)
            .map(|j| format!("{:016x}", centers[(i, j)].to_bits()))
            .collect();
        text.push_str(&row.join(" "));
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Reads a `write_centers` file back, bit-exactly.
fn read_centers(path: &str) -> Result<Matrix, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| format!("{path} is empty"))?;
    let dims: Vec<usize> = header
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| format!("bad header in {path}: '{header}'"))
        })
        .collect::<Result<_, _>>()?;
    let [rows, cols] = dims[..] else {
        return Err(format!("bad header in {path}: '{header}'"));
    };
    // The buffer grows only with values actually read: the header's
    // product may overflow or dwarf the file.
    let mut data = Vec::new();
    for (i, line) in lines.enumerate() {
        for tok in line.split_whitespace() {
            let bits = u64::from_str_radix(tok, 16)
                .map_err(|_| format!("bad f64 bits '{tok}' on line {} of {path}", i + 2))?;
            data.push(f64::from_bits(bits));
        }
    }
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(format!(
            "{path} holds {} values, expected {rows}x{cols}",
            data.len()
        ));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Resolves a `--pipeline` name to its stage list.
fn resolve_named(name: &str, params: &SummaryParams) -> Result<StagePipeline, String> {
    pipelines::named(name, params.clone()).ok_or_else(|| {
        format!(
            "unknown pipeline '{name}' (valid pipelines: {}; or use --stages with: {})",
            pipelines::NAMES.join(", "),
            Stage::vocabulary()
        )
    })
}

/// The pipelines `ekm run`/`ekm sweep` will execute: either one named
/// pipeline / `--stages` composition (run) or the default seven plus any
/// `--stages` extras (sweep).
fn select_pipelines(
    args: &Args,
    params: &SummaryParams,
    sweep: bool,
) -> Result<Vec<StagePipeline>, String> {
    let stages_flag = args.flags.get("stages");
    if args.flags.contains_key("pipeline") && stages_flag.is_some() {
        return Err("--pipeline and --stages are mutually exclusive".into());
    }
    let mut pipes = Vec::new();
    if sweep {
        // Every paper pipeline but the §5.2 variant the paper dismisses.
        for name in pipelines::NAMES.iter().filter(|&&name| name != "bklw-jl") {
            pipes.push(resolve_named(name, params)?);
        }
        if let Some(lists) = stages_flag {
            for list in lists.split(';').filter(|l| !l.trim().is_empty()) {
                pipes.push(composition_from(list, params)?);
            }
        }
    } else if let Some(list) = stages_flag {
        pipes.push(composition_from(list, params)?);
    } else {
        pipes.push(resolve_named(
            &args.get_str("pipeline", "jl-fss-jl"),
            params,
        )?);
    }
    Ok(pipes)
}

/// Builds a `--stages` composition, honoring `--quantize` the way the
/// named `+QT` variants do: if the list has no explicit `qt` stage, one
/// is armed before the summary is transmitted (before `disss` in
/// distributed lists, since quantization applies to the wire).
fn composition_from(list: &str, params: &SummaryParams) -> Result<StagePipeline, String> {
    let stages = Stage::parse_list(list).map_err(|e| e.to_string())?;
    let stages = edge_kmeans::core::stage::with_default_qt(stages, params);
    Ok(StagePipeline::new(stages, params.clone()))
}

fn report_line(
    pipe: &StagePipeline,
    data: &Matrix,
    out: &RunOutput,
    reference_cost: f64,
) -> Result<(), String> {
    let (n, d) = data.shape();
    let display = pipe.name();
    let nc = evaluation::normalized_cost(data, &out.centers, reference_cost)
        .map_err(|e| e.to_string())?;
    say!(
        "{display:<14} cost {nc:>8.4}   comm {:>10.3e}   source {:>8.4}s ({:>9.3e} ops)   summary {:>6} pts",
        out.normalized_comm(n, d),
        out.source_seconds,
        out.source_ops as f64,
        out.summary_points
    );
    Ok(())
}

/// Runs one pipeline in process: one executor thread per source, each
/// holding only its shard (borrowed, never copied), the driver folding
/// their responses on this thread. A centralized pipeline's one source
/// holds the whole dataset.
fn run_pipe(
    pipe: &StagePipeline,
    data: &Matrix,
    sources: usize,
    cache: Option<&mut StageCache>,
) -> Result<RunOutput, String> {
    let parts;
    let shards = if pipe.is_distributed() {
        parts = partition_uniform(data, sources, pipe.params().seed).map_err(|e| e.to_string())?;
        &parts[..]
    } else {
        std::slice::from_ref(data)
    };
    let mut net = Network::new(shards.len());
    match cache {
        Some(cache) => pipe.run_shards_cached(shards, &mut net, cache),
        None => pipe.run_shards(shards, &mut net),
    }
    .map_err(|e| e.to_string())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let plan = plan(args, false)?;
    let pipe = &plan.pipes[0];
    let k = pipe.params().k;
    let data = build_dataset(args)?;
    let (n, d) = data.shape();
    say!("dataset {n} x {d}, k = {k}");
    let reference = evaluation::reference(&data, k, 5, 1).map_err(|e| e.to_string())?;
    say!("reference cost: {:.4}\n", reference.cost);
    let out = run_pipe(pipe, &data, plan.sources, None)?;
    report_line(pipe, &data, &out, reference.cost)?;
    say!("total uplink-bits {}", out.uplink_bits);
    if let Some(path) = args.flags.get("centers-out") {
        write_centers(path, &out.centers)?;
        say!("centers saved to {path}");
    }
    Ok(())
}

/// Scores saved centers against the dataset the flags describe: the
/// fault-injection CI suite uses this to compare a degraded run's cost
/// against its clean twin's without either serve process holding data.
fn cmd_eval(args: &Args) -> Result<(), String> {
    let path = args
        .flags
        .get("centers")
        .ok_or("eval needs --centers <path>")?;
    let centers = read_centers(path)?;
    if centers.rows() == 0 {
        return Err(format!("{path} holds no centers"));
    }
    let data = build_dataset(args)?;
    let (n, d) = data.shape();
    if centers.cols() != d {
        return Err(format!(
            "centers have {} columns but the dataset has {d}",
            centers.cols()
        ));
    }
    let cost = edge_kmeans::clustering::cost::cost(&data, &centers).map_err(|e| e.to_string())?;
    say!("dataset {n} x {d}, centers {}", centers.rows());
    say!("cost {cost:.17e}");
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let Plan { pipes, sources, .. } = plan(args, true)?;
    let k = pipes[0].params().k;
    let data = build_dataset(args)?;
    let (n, d) = data.shape();
    say!("dataset {n} x {d}, k = {k}");
    let reference = evaluation::reference(&data, k, 5, 1).map_err(|e| e.to_string())?;
    say!("reference cost: {:.4}\n", reference.cost);
    // Stage outputs are memoized across the sweep's pipelines (shared
    // prefixes like `jl,fss` under several QT widths run once, with
    // bit-identical outputs and accounting).
    let mut cache = StageCache::new();
    // Keep sweeping after a failure so the table stays comparable, but
    // report every failure and exit nonzero if any pipeline failed.
    let mut failures = Vec::new();
    for pipe in &pipes {
        let run = run_pipe(pipe, &data, sources, Some(&mut cache))
            .and_then(|out| report_line(pipe, &data, &out, reference.cost));
        if let Err(e) = run {
            eprintln!("{:<14} error: {e}", pipe.name());
            failures.push(pipe.name());
        }
    }
    say!(
        "\nstage cache: {} hits, {} misses over {} entries (~{} bytes held, hit rate {:.2})",
        cache.hits(),
        cache.misses(),
        cache.len(),
        cache.held_bytes(),
        cache.hit_rate()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} pipelines failed: {}",
            failures.len(),
            pipes.len(),
            failures.join(", ")
        ))
    }
}

/// What `run`, `sweep`, `serve` and `source` derive from the flags
/// before any data is built or any socket bound: the dataset shape the
/// flags describe, the pipelines (one, or a sweep's table) and
/// `--sources`. A bad flag is refused here, not after the dataset build
/// or the reference solve.
struct Plan {
    n: usize,
    d: usize,
    pipes: Vec<StagePipeline>,
    sources: usize,
}

fn plan(args: &Args, sweep: bool) -> Result<Plan, String> {
    let (n, d) = dataset_shape(args)?;
    let sources = args.get_usize("sources", 10)?;
    if sources == 0 {
        return Err("--sources expects a positive integer".into());
    }
    // An absent flag reads 1 here: only a given zero is refused.
    for flag in ["n", "d", "k"] {
        if args.get_usize(flag, 1)? == 0 {
            return Err(format!("--{flag} expects a positive integer"));
        }
    }
    let params = build_params(args, n, d)?;
    if params.k > n {
        return Err(format!(
            "--k {} exceeds --n {n}: k-means needs at least k points",
            params.k
        ));
    }
    let pipes = select_pipelines(args, &params, sweep)?;
    Ok(Plan {
        n,
        d,
        pipes,
        sources,
    })
}

impl Plan {
    /// The deployment of `serve` and `source`: its one pipeline, the
    /// sources it runs on (`--sources` for a distributed pipeline, one
    /// for a centralized one) and the handshake fingerprint.
    fn deployment(&self, args: &Args) -> Result<(&StagePipeline, usize, u64), String> {
        let pipe = &self.pipes[0];
        let m = if pipe.is_distributed() {
            self.sources
        } else {
            1
        };
        Ok((pipe, m, event::fingerprint(&canonical_config(args, m)?)))
    }
}

/// The canonical configuration string hashed into the handshake
/// fingerprint. Covers every flag that affects the run's bits, and the
/// kernels' arithmetic (`arith=fused`: every product and distance step
/// is one fused multiply-add), so a server, source or journal whose
/// kernels round differently is refused instead of mixed in.
fn canonical_config(args: &Args, m: usize) -> Result<String, String> {
    Ok(format!(
        "arith=fused;dataset={};n={};d={};k={};seed={};pipeline={};stages={};quantize={};\
         precision={};compute={};leaf-size={};sources={m};replication={}",
        args.get_str("dataset", "mnist-like"),
        args.get_usize("n", 2000)?,
        args.get_usize("d", 196)?,
        args.get_usize("k", 2)?,
        args.get_u64("seed", 42)?,
        args.get_str("pipeline", "jl-fss-jl"),
        args.get_str("stages", "-"),
        args.get_str("quantize", "-"),
        args.get_str("precision", "f64"),
        args.get_str("compute", "f64"),
        args.get_str("leaf-size", "-"),
        args.get_usize("replication", 1)?,
    ))
}

/// The shards of a deployment's `m` sources: a distributed pipeline's
/// uniform parts, or the whole dataset, uncopied, for a centralized
/// pipeline's one source.
fn deployment_shards(data: Matrix, pipe: &StagePipeline, m: usize) -> Result<Vec<Matrix>, String> {
    if pipe.is_distributed() {
        partition_uniform(&data, m, pipe.params().seed).map_err(|e| e.to_string())
    } else {
        Ok(vec![data])
    }
}

/// The dataset shape the flags describe, without generating the data
/// (the protocol server holds no shard; it only needs `n × d` for the
/// normalized-communication metric and the parameter derivations).
fn dataset_shape(args: &Args) -> Result<(usize, usize), String> {
    let n = args.get_usize("n", 2000)?;
    let d = args.get_usize("d", 196)?;
    match args.get_str("dataset", "mnist-like").as_str() {
        "mnist-like" => {
            let side = mnist_side(d);
            Ok((n, side * side))
        }
        "neurips-like" | "mixture" => Ok((n, d)),
        other => Err(format!("unknown dataset '{other}'")),
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args
        .flags
        .get("listen")
        .ok_or("serve needs --listen <addr>")?
        .clone();
    // Fail fast on inconsistent fault-tolerance flags before binding
    // the listener.
    if !args.flags.contains_key("journal") {
        if args.flags.contains_key("resume") {
            return Err("--resume needs --journal <path>".into());
        }
        if args.get_u64("crash-after-commands", 0)? > 0 {
            return Err("--crash-after-commands needs --journal <path>".into());
        }
    }
    // This process never builds the dataset — it owns the plan, the
    // sources own their shards.
    let plan = plan(args, false)?;
    let (pipe, m, fingerprint) = plan.deployment(args)?;
    let binding = EventServerBinding::bind(addr.as_str()).map_err(|e| e.to_string())?;
    say!(
        "listening on {} for {m} source(s), pipeline {} [config {fingerprint:#018x}, server-driven protocol]",
        binding.local_addr().map_err(|e| e.to_string())?,
        pipe.name(),
    );
    // A resumed run's journal may record replica promotions: those
    // origins' owners are dead and their rounds run through a host's
    // connection, so the accept loop must not wait for them.
    let absent = if args.flags.contains_key("resume") {
        let journal = args.flags.get("journal").expect("validated above");
        edge_kmeans::core::journal::absorbed_origins(Path::new(journal))
            .map_err(|e| e.to_string())?
    } else {
        Vec::new()
    };
    if !absent.is_empty() {
        say!(
            "resume: {} absorbed source(s) will not rejoin: {absent:?}",
            absent.len()
        );
    }
    let net = binding
        .accept_absent(m, fingerprint, &absent)
        .map_err(|e| e.to_string())?;
    say!(
        "all {} source(s) connected; driving the protocol",
        m - absent.len()
    );
    let (out, stats) = drive_accepted(args, pipe, fingerprint, net)?;
    let digest = RunDigest::new(&stats, &out.centers);
    say!(
        "{} complete: centers {}x{}, comm {:.3e}, summary {} pts",
        pipe.name(),
        out.centers.rows(),
        out.centers.cols(),
        out.normalized_comm(plan.n, plan.d),
        out.summary_points
    );
    if let Some(rec) = &out.recovered {
        for (origin, host) in &rec.promoted {
            say!("recovered: source {origin} re-homed onto replica host {host}");
        }
        say!(
            "recovered: {} completed round(s) replayed onto replicas",
            stats.replayed_rounds()
        );
    }
    if let Some(deg) = &out.degraded {
        for (i, reason) in &deg.lost_sources {
            say!("degraded: source {i} lost ({reason})");
        }
        say!(
            "degraded: {} of {} rows dropped, cost-ratio bound {:.6}",
            deg.rows_lost,
            deg.rows_total,
            deg.cost_ratio_bound
        );
    }
    if pipe.params().replication > 1 {
        // The replica control-plane counters, one per line for scripted
        // assertions (scripts/distributed_e2e.sh `replica` suite); they
        // stay out of the classic ledgers and the digest.
        say!("replica promotions {}", stats.replica_promotions());
        say!("replica replayed-rounds {}", stats.replayed_rounds());
        say!("replica-bits {}", stats.replica_bits());
    }
    for i in 0..m {
        say!("source {i} uplink-bits {}", stats.uplink_bits(i));
    }
    say!("total uplink-bits {}", out.uplink_bits);
    say!(
        "digest {:#018x}: per-source counters verified across {m} source(s)",
        digest.centers_hash,
    );
    if let Some(path) = args.flags.get("centers-out") {
        write_centers(path, &out.centers)?;
        say!("centers saved to {path}");
    }
    Ok(())
}

/// Runs the driver over the accepted transport, optionally through the
/// write-ahead journal (`--journal`, `--resume`) and the crash injector
/// (`--crash-after-commands`). Returns the run plus the transport's
/// per-source statistics (the journal owns its own accounting so a
/// resumed run's counters cover the replayed rounds too).
fn drive_accepted(
    args: &Args,
    pipe: &StagePipeline,
    fingerprint: u64,
    net: EventTcpServer,
) -> Result<(RunOutput, NetworkStats), String> {
    let resume = args.flags.contains_key("resume");
    let crash_after = args.get_u64("crash-after-commands", 0)?;
    // The routing layer re-homes a promoted origin's traffic onto its
    // replica host; with no promotions it is a pure pass-through, so
    // every protocol serve runs behind it. The journal sits *above*
    // routing: entries stay keyed by origin, and a resumed driver
    // rediscovers the routes by re-firing the journaled promotions.
    let mut routed = RoutingTransport::new(net);
    let Some(journal) = args.flags.get("journal") else {
        // cmd_serve rejected --resume / --crash-after-commands without
        // --journal before any socket was bound.
        let out = pipe.run_driver(&mut routed).map_err(|e| e.to_string())?;
        let stats = routed.stats().clone();
        return Ok((out, stats));
    };
    let path = Path::new(journal);
    let mut jnet = if resume {
        JournalingTransport::resume(routed, path, fingerprint)
    } else {
        JournalingTransport::record(routed, path, fingerprint)
    }
    .map_err(|e| e.to_string())?;
    if resume {
        say!(
            "resume: replayed {} journal record(s) from {journal}",
            jnet.replayed_entries()
        );
    }
    if crash_after > 0 {
        jnet = jnet.with_entry_hook(Box::new(move |n| {
            if n >= crash_after {
                eprintln!("injected crash after {n} journaled command(s)");
                std::process::exit(42);
            }
        }));
    }
    let out = pipe.run_driver(&mut jnet).map_err(|e| e.to_string())?;
    let stats = jnet.stats().clone();
    Ok((out, stats))
}

fn cmd_source(args: &Args) -> Result<(), String> {
    let addr = args
        .flags
        .get("connect")
        .ok_or("source needs --connect <addr>")?
        .clone();
    args.flags
        .get("source-id")
        .ok_or("source needs --source-id <int>")?;
    let id = args.get_usize("source-id", 0)?;
    let plan = plan(args, false)?;
    let (pipe, m, fingerprint) = plan.deployment(args)?;
    if id >= m {
        return Err(format!("--source-id {id} out of range for {m} source(s)"));
    }
    // Keep this source's shard (plus the cold replica shards its ring
    // position assigns it) and answer the server's commands.
    let mut parts = deployment_shards(build_dataset(args)?, pipe, m)?;
    let replicas: std::collections::BTreeMap<usize, Matrix> =
        edge_kmeans::core::params::replica_origins(id, m, pipe.params().replication)
            .into_iter()
            .map(|origin| (origin, parts[origin].clone()))
            .collect();
    let shard = parts.swap_remove(id);
    drop(parts);
    let reconnect = args.get_u64("reconnect", 0)?;
    let mut fail_after = args.get_u64("fail-after-commands", 0)?;
    let connect_window = Duration::from_secs(if reconnect > 0 { reconnect } else { 30 });
    // One executor for the process lifetime: across reconnects it keeps
    // its round counter and response cache, so a restarted driver's
    // replayed rounds are answered from the cache without recomputation.
    let mut executor =
        SourceExecutor::new(pipe.stages(), pipe.params(), id, m, shard).with_replicas(replicas);
    let report = loop {
        // The connect retry backoff follows the run's deadline policy:
        // a tight --deadline-ms run probes faster than the default.
        let mut endpoint = EventTcpSource::connect_with_policy(
            addr.as_str(),
            id,
            m,
            fingerprint,
            connect_window,
            pipe.params().deadline,
        )
        .map_err(|e| e.to_string())?;
        let served = if fail_after > 0 {
            let mut failing = FailingEndpoint {
                inner: endpoint,
                countdown: &mut fail_after,
                source_id: id,
            };
            executor.serve(&mut failing)
        } else {
            executor.serve(&mut endpoint)
        };
        match served {
            Ok(report) => break report,
            Err(CoreError::Net(NetError::Transport { .. })) if reconnect > 0 => {
                eprintln!("source {id}: connection lost; reconnecting");
                continue;
            }
            Err(e) => return Err(e.to_string()),
        }
    };
    say!(
        "source {id}: {} done — sent {} uplink-bits, received {} downlink-bits \
         (digest {:#018x}, counters verified by the server)",
        pipe.name(),
        report.uplink_bits,
        report.downlink_bits,
        report.centers_hash
    );
    Ok(())
}

/// Fault injection for the CI suite: a source endpoint that serves a
/// fixed number of commands and then exits the whole process with code
/// 43 — the scripted stand-in for an edge device dying mid-stage. The
/// countdown lives outside the endpoint so it spans reconnects.
struct FailingEndpoint<'a, E: SourceEndpoint> {
    inner: E,
    countdown: &'a mut u64,
    source_id: usize,
}

impl<E: SourceEndpoint> SourceEndpoint for FailingEndpoint<'_, E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        if *self.countdown == 0 {
            eprintln!(
                "source {}: injected fault — exiting mid-stage",
                self.source_id
            );
            std::process::exit(43);
        }
        *self.countdown -= 1;
        self.inner.recv_command()
    }

    fn send_response(&mut self, resp: Response) -> Result<(), NetError> {
        self.inner.send_response(resp)
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.inner.set_deadline(policy);
    }
}

fn cmd_qtopt(args: &Args) -> Result<(), String> {
    let data = build_dataset(args)?;
    let (n, d) = data.shape();
    let k = args.get_usize("k", 2)?;
    let y0 = args.get_f64("y0", 2.0)?;
    let weights = vec![1.0; n];
    let e = cost_lower_bound(&data, &weights, k, 0.1, args.get_u64("seed", 42)?)
        .map_err(|e| e.to_string())?;
    let optimizer = QtOptimizer {
        n,
        d,
        k,
        y0,
        delta0: 0.1,
        lower_bound_e: e.lower_bound.max(1e-12),
        diameter: 2.0 * (d as f64).sqrt(),
        max_norm: data.max_row_norm(),
    };
    let report = optimizer.optimize().map_err(|e| e.to_string())?;
    let best = report.best();
    say!("dataset {n} x {d}, k = {k}, Y0 = {y0}");
    say!("lower bound E = {:.6}", e.lower_bound);
    say!(
        "optimal configuration: s* = {} significant bits (epsilon = {:.4})",
        best.s,
        best.epsilon.unwrap_or(f64::NAN)
    );
    let feasible = report
        .candidates
        .iter()
        .filter(|c| c.epsilon.is_some())
        .count();
    say!("{feasible}/52 bit-widths feasible under the bound");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "run" => cmd_run(&args),
        "eval" => cmd_eval(&args),
        "sweep" => cmd_sweep(&args),
        "qtopt" => cmd_qtopt(&args),
        "serve" => cmd_serve(&args),
        "source" => cmd_source(&args),
        "help" => {
            say!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{HELP}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_flags() {
        let a = args(&["run", "--pipeline", "fss", "--n", "500"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get_str("pipeline", "x"), "fss");
        assert_eq!(a.get_usize("n", 0).unwrap(), 500);
        assert_eq!(a.get_usize("d", 7).unwrap(), 7); // default
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(args(&["run", "--n"]).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = args(&["serve", "--resume", "--n", "500"]).unwrap();
        assert_eq!(a.get_str("resume", "false"), "true");
        assert_eq!(a.get_usize("n", 0).unwrap(), 500);
        // Trailing boolean flag is fine too.
        let a = args(&["serve", "--resume"]).unwrap();
        assert!(a.flags.contains_key("resume"));
    }

    #[test]
    fn unknown_flags_are_refused_with_the_valid_list() {
        // A misspelled flag used to be ignored: `run --quantise 8` ran
        // the unquantized pipeline and exited 0.
        let err = args(&["run", "--quantise", "8"]).unwrap_err();
        assert!(err.contains("unknown flag --quantise"), "{err}");
        assert!(err.contains("--quantize"), "{err}");
        assert!(err.contains("--resume"), "{err}");
        // A removed flag is refused like a misspelled one.
        for removed in [
            &["run", "--topology", "tree"][..],
            &["sweep", "--no-cache"],
            &["sweep", "--cache-budget", "1000"],
        ] {
            let err = args(removed).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag {}", removed[1])),
                "{err}"
            );
            assert!(err.contains("--replication"), "{err}");
        }
    }

    #[test]
    fn the_accepted_flags_are_the_documented_ones() {
        let documented: std::collections::BTreeSet<&str> = HELP
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        let accepted = VALUE_FLAGS
            .split_whitespace()
            .chain(BOOLEAN_FLAGS.split_whitespace())
            .collect();
        assert_eq!(documented, accepted);
    }

    #[test]
    fn double_command_is_an_error() {
        assert!(args(&["run", "sweep"]).is_err());
    }

    #[test]
    fn help_flag_short_circuits() {
        let a = args(&["run", "--help"]).unwrap();
        assert_eq!(a.command, "help");
    }

    #[test]
    fn bad_numbers_error() {
        let a = args(&["run", "--n", "abc"]).unwrap();
        assert!(a.get_usize("n", 0).is_err());
        let a = args(&["qtopt", "--y0", "x"]).unwrap();
        assert!(a.get_f64("y0", 1.0).is_err());
    }

    #[test]
    fn default_command_is_help() {
        let a = args(&[]).unwrap();
        assert_eq!(a.command, "help");
    }

    fn test_params() -> SummaryParams {
        SummaryParams::practical(2, 100, 10)
    }

    #[test]
    fn every_named_pipeline_resolves() {
        for name in pipelines::NAMES {
            let pipe = resolve_named(name, &test_params()).unwrap();
            assert!(!pipe.name().is_empty(), "{name}");
        }
    }

    #[test]
    fn unknown_pipeline_lists_valid_names() {
        let err = resolve_named("jlfss", &test_params()).unwrap_err();
        assert!(err.contains("jlfss"));
        assert!(err.contains("jl-fss-jl"), "{err}");
        assert!(err.contains("--stages"), "{err}");
    }

    #[test]
    fn stages_flag_builds_composition() {
        let a = args(&["run", "--stages", "jl,fss,qt,jl"]).unwrap();
        let pipes = select_pipelines(&a, &test_params(), false).unwrap();
        assert_eq!(pipes.len(), 1);
        assert_eq!(pipes[0].name(), "JL+FSS+QT+JL");
        assert!(!pipes[0].is_distributed());
        let a = args(&["run", "--stages", "dispca,jl,disss"]).unwrap();
        let pipes = select_pipelines(&a, &test_params(), false).unwrap();
        assert!(pipes[0].is_distributed());
    }

    #[test]
    fn bad_stage_lists_are_rejected_with_vocabulary() {
        let a = args(&["run", "--stages", "jl,warp"]).unwrap();
        let err = select_pipelines(&a, &test_params(), false).unwrap_err();
        assert!(err.contains("warp"), "{err}");
        assert!(err.contains("dispca"), "{err}");
        // A stage carries no size: the leaf size is --leaf-size's.
        let a = args(&["run", "--stages", "stream:128,jl"]).unwrap();
        let err = select_pipelines(&a, &test_params(), false).unwrap_err();
        assert!(err.contains("unknown stage 'stream:128'"), "{err}");
        assert!(err.contains(Stage::vocabulary()), "{err}");
    }

    #[test]
    fn pipeline_and_stages_are_exclusive() {
        let a = args(&["run", "--pipeline", "fss", "--stages", "jl"]).unwrap();
        assert!(select_pipelines(&a, &test_params(), false)
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn sweep_appends_extra_compositions() {
        let a = args(&["sweep", "--stages", "jl,fss;fss,jl,qt:6"]).unwrap();
        let pipes = select_pipelines(&a, &test_params(), true).unwrap();
        assert_eq!(pipes.len(), 9, "seven defaults + two extras");
        assert_eq!(pipes[7].name(), "JL+FSS");
        assert_eq!(pipes[8].name(), "FSS+JL+QT");
    }

    #[test]
    fn quantize_flag_reaches_stage_compositions() {
        // --quantize with --stages must arm a QT stage (before disss in
        // distributed lists), exactly like the named +QT variants.
        let q = RoundingQuantizer::new(8).unwrap();
        let p = test_params().with_quantizer(q);
        let pipe = composition_from("jl,fss", &p).unwrap();
        assert_eq!(pipe.name(), "JL+FSS+QT");
        let pipe = composition_from("dispca,disss", &p).unwrap();
        assert_eq!(pipe.name(), "disPCA+QT+disSS");
        // An explicit qt stage is not duplicated.
        let pipe = composition_from("jl,fss,qt:4", &p).unwrap();
        assert_eq!(pipe.name(), "JL+FSS+QT");
        assert_eq!(pipe.stages().len(), 3);
        // Without a quantizer nothing is inserted.
        let pipe = composition_from("jl,fss", &test_params()).unwrap();
        assert_eq!(pipe.stages().len(), 2);
    }

    #[test]
    fn stream_stages_flag_builds_sharded_composition() {
        let a = args(&["run", "--stages", "jl,stream,qt"]).unwrap();
        let pipes = select_pipelines(&a, &test_params(), false).unwrap();
        assert_eq!(pipes[0].name(), "JL+STREAM+QT");
        assert!(
            pipes[0].is_distributed(),
            "stream pipelines shard over --sources"
        );
        let a = args(&["run", "--stages", "stream,jl"]).unwrap();
        let pipes = select_pipelines(&a, &test_params(), false).unwrap();
        assert_eq!(pipes[0].name(), "STREAM+JL");
    }

    #[test]
    fn precision_leaf_and_thread_flags_reach_params() {
        let a = args(&[
            "run",
            "--precision",
            "f32",
            "--leaf-size",
            "300",
            "--n",
            "100",
            "--d",
            "10",
        ])
        .unwrap();
        let p = build_params(&a, 100, 10).unwrap();
        assert_eq!(p.precision, Precision::F32);
        assert_eq!(p.stream_leaf_size, 300);
        let a = args(&["run", "--precision", "f16"]).unwrap();
        assert!(build_params(&a, 100, 10).unwrap_err().contains("f16"));
        // 'full' is not an alias — it would fingerprint differently from
        // 'f64' while producing identical bits.
        let a = args(&["run", "--precision", "full"]).unwrap();
        assert!(build_params(&a, 100, 10).is_err());
        // --leaf-size must be positive.
        let a = args(&["run", "--leaf-size", "0"]).unwrap();
        assert!(build_params(&a, 100, 10)
            .unwrap_err()
            .contains("--leaf-size"));
        // Default: full precision, derived leaf size.
        let a = args(&["run"]).unwrap();
        let p = build_params(&a, 100, 10).unwrap();
        assert_eq!(p.precision, Precision::Full);
        assert!(p.stream_leaf_size > 0);
    }

    #[test]
    fn compute_flag_reaches_params() {
        let a = args(&["run", "--compute", "f32"]).unwrap();
        let p = build_params(&a, 100, 10).unwrap();
        assert_eq!(p.compute, Compute::F32);
        // f64 is both the default and an explicit spelling.
        let a = args(&["run"]).unwrap();
        assert_eq!(build_params(&a, 100, 10).unwrap().compute, Compute::F64);
        let a = args(&["run", "--compute", "f64"]).unwrap();
        assert_eq!(build_params(&a, 100, 10).unwrap().compute, Compute::F64);
        let a = args(&["run", "--compute", "f16"]).unwrap();
        assert!(build_params(&a, 100, 10).unwrap_err().contains("f16"));
    }

    #[test]
    fn fingerprint_covers_precision_and_leaf_size() {
        let base = args(&["serve", "--n", "500"]).unwrap();
        let fp = |a: &Args| event::fingerprint(&canonical_config(a, 2).unwrap());
        let f32p = args(&["serve", "--n", "500", "--precision", "f32"]).unwrap();
        assert_ne!(fp(&base), fp(&f32p));
        let leaf = args(&["serve", "--n", "500", "--leaf-size", "64"]).unwrap();
        assert_ne!(fp(&base), fp(&leaf));
        // --compute shapes every distance result, so both ends must agree.
        let f32c = args(&["serve", "--n", "500", "--compute", "f32"]).unwrap();
        assert_ne!(fp(&base), fp(&f32c));
        assert_ne!(fp(&f32p), fp(&f32c));
        // --threads does not shape the bits, so it stays out.
        let threads = args(&["serve", "--n", "500", "--threads", "2"]).unwrap();
        assert_eq!(fp(&base), fp(&threads));
    }

    #[test]
    fn serve_and_source_require_their_flags() {
        assert!(cmd_serve(&args(&["serve"]).unwrap())
            .unwrap_err()
            .contains("--listen"));
        assert!(cmd_source(&args(&["source"]).unwrap())
            .unwrap_err()
            .contains("--connect"));
        let a = args(&["source", "--connect", "127.0.0.1:1"]).unwrap();
        assert!(cmd_source(&a).unwrap_err().contains("--source-id"));
    }

    #[test]
    fn fingerprint_names_the_fused_kernel_arithmetic() {
        // Builds whose kernels rounded each product separately hashed
        // the same flags without the arithmetic token; their journals
        // and processes must not match this build's.
        let a = args(&["serve", "--n", "500"]).unwrap();
        let config = canonical_config(&a, 2).unwrap();
        assert!(config.starts_with("arith=fused;"), "{config}");
        let unfused = config.strip_prefix("arith=fused;").unwrap();
        assert_ne!(event::fingerprint(&config), event::fingerprint(unfused));
    }

    #[test]
    fn threads_are_capped_at_the_hardware() {
        assert_eq!(thread_cap(10_000, 2), 2);
        assert_eq!(thread_cap(2, 2), 2);
        assert_eq!(thread_cap(4, 8), 4);
    }

    #[test]
    fn fingerprint_covers_run_shaping_flags_only() {
        let base = args(&["serve", "--n", "500", "--seed", "7"]).unwrap();
        let fp = |a: &Args| event::fingerprint(&canonical_config(a, 3).unwrap());
        // A different seed changes the fingerprint…
        let other = args(&["serve", "--n", "500", "--seed", "8"]).unwrap();
        assert_ne!(fp(&base), fp(&other));
        // …but where the centers are saved does not.
        let saved = args(&["serve", "--n", "500", "--seed", "7", "--centers-out", "c"]).unwrap();
        assert_eq!(fp(&base), fp(&saved));
    }

    #[test]
    fn dist_run_shards_follow_pipeline_kind() {
        let a = args(&[
            "serve",
            "--pipeline",
            "bklw",
            "--sources",
            "3",
            "--n",
            "90",
            "--d",
            "16",
        ])
        .unwrap();
        let deploy = |a: &Args| {
            let plan = plan(a, false).unwrap();
            let (pipe, m, _) = plan.deployment(a).unwrap();
            let parts = deployment_shards(build_dataset(a).unwrap(), pipe, m).unwrap();
            (m, parts)
        };
        let (m, parts) = deploy(&a);
        assert_eq!((m, parts.len()), (3, 3));
        let a = args(&[
            "serve",
            "--pipeline",
            "fss",
            "--sources",
            "3",
            "--n",
            "90",
            "--d",
            "16",
        ])
        .unwrap();
        let (m, parts) = deploy(&a);
        assert_eq!((m, parts.len()), (1, 1));
        assert_eq!(parts[0].rows(), 90);
    }

    #[test]
    fn resume_is_boolean_and_keeps_the_next_flag() {
        // --resume must not swallow the flag that follows it.
        let a = args(&["serve", "--resume", "--journal", "run.journal"]).unwrap();
        assert!(a.flags.contains_key("resume"));
        assert_eq!(a.flags.get("journal").unwrap(), "run.journal");
    }

    #[test]
    fn deadline_flag_reaches_params_and_rejects_zero() {
        let a = args(&["serve", "--deadline-ms", "250"]).unwrap();
        let p = build_params(&a, 100, 10).unwrap();
        assert_eq!(p.deadline.command, Duration::from_millis(250));
        assert_eq!(p.deadline.io, Duration::from_millis(250));
        let a = args(&["serve", "--deadline-ms", "0"]).unwrap();
        assert!(build_params(&a, 100, 10)
            .unwrap_err()
            .contains("--deadline-ms"));
    }

    #[test]
    fn fault_tolerance_flags_stay_out_of_the_fingerprint() {
        // The journal, deadlines, and output paths shape recovery, not
        // the run's bits — a resumed driver must present the same
        // handshake fingerprint as the one that crashed.
        let base = args(&["serve", "--n", "500"]).unwrap();
        let fp = |a: &Args| event::fingerprint(&canonical_config(a, 3).unwrap());
        let faulty = args(&[
            "serve",
            "--n",
            "500",
            "--deadline-ms",
            "2000",
            "--journal",
            "run.journal",
            "--resume",
            "--centers-out",
            "c.txt",
        ])
        .unwrap();
        assert_eq!(fp(&base), fp(&faulty));
    }

    #[test]
    fn centers_roundtrip_is_bit_exact() {
        let m = Matrix::from_vec(
            2,
            3,
            vec![1.5, -0.25, 1.0e-300, f64::MIN_POSITIVE, -0.0, 3.25],
        );
        let path = std::env::temp_dir().join(format!("ekm-centers-{}.txt", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        write_centers(&path, &m).unwrap();
        let back = read_centers(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.shape(), (2, 3));
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn eval_requires_a_centers_file() {
        assert!(cmd_eval(&args(&["eval"]).unwrap())
            .unwrap_err()
            .contains("--centers"));
    }

    #[test]
    fn resume_and_crash_injection_require_a_journal() {
        let a = args(&["serve", "--listen", "127.0.0.1:0", "--resume"]).unwrap();
        assert!(cmd_serve(&a).unwrap_err().contains("--journal"));
        let a = args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--crash-after-commands",
            "3",
        ])
        .unwrap();
        assert!(cmd_serve(&a).unwrap_err().contains("--journal"));
    }

    #[test]
    fn replication_flag_reaches_params_and_rejects_zero() {
        let a = args(&["serve", "--replication", "2"]).unwrap();
        assert_eq!(build_params(&a, 100, 10).unwrap().replication, 2);
        // Default: no replicas beyond the owner.
        let a = args(&["serve"]).unwrap();
        assert_eq!(build_params(&a, 100, 10).unwrap().replication, 1);
        let a = args(&["serve", "--replication", "0"]).unwrap();
        assert!(build_params(&a, 100, 10)
            .unwrap_err()
            .contains("--replication"));
    }

    #[test]
    fn replication_is_part_of_the_fingerprint() {
        // The replica ring shapes which process must hold which cold
        // shard, so both ends have to agree on r before any data moves.
        let fp = |a: &Args| event::fingerprint(&canonical_config(a, 3).unwrap());
        let base = args(&["serve", "--n", "500"]).unwrap();
        let replicated = args(&["serve", "--n", "500", "--replication", "2"]).unwrap();
        assert_ne!(fp(&base), fp(&replicated));
        let explicit = args(&["serve", "--n", "500", "--replication", "1"]).unwrap();
        assert_eq!(fp(&base), fp(&explicit));
    }
}
