//! End-to-end benchmark of edge-kmeans over the three ways users run a
//! pipeline: the run path (`StagePipeline::run_channel`, as `ekm run`),
//! the serve path (event-driven loopback TCP, routing, optional journal
//! and `run_driver`, as `ekm serve` plus `ekm source`) and the sweep path
//! (`run_cached`/`run_shards_cached` through one `StageCache`, as
//! `ekm sweep`).
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <central-jlfssjl|upload-qt|bklw-journal|sweep> \
//!     [--seed 42] [--seconds 20] [--trace 0|1]
//! ```
//!
//! One invocation builds the workload's inputs from the seed three times
//! (`setup_s` is the median), runs one untimed warm-up unit (which gives
//! `peak_rss_mb`), then times units of work until `--seconds` is spent
//! and reports medians. A unit is one pipeline run, or one sweep of seven
//! pipelines. Every run is checked: it must succeed, return finite k × d
//! centers, and repeat the warm-up's centers hash and uplink/downlink
//! bits. With `--trace 1` it then runs one more unit with timing wrappers
//! at the `CommandTransport`/`SourceEndpoint` boundaries and prints the
//! per-layer metrics of that unit instead of the end-to-end ones; the
//! spans go to `e2ebench/out/`. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod sys;
mod trace;
mod workloads;

use ekm_core::journal::read_journal;
use ekm_core::{evaluation, RunOutput};
use ekm_net::protocol::Payload;
use ekm_net::{NetworkStats, RunDigest};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Inputs, Kind, Runs, Tracer};

/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes of the codec replay; each codec time is their median.
const CODEC_PASSES: usize = 3;

struct Options {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: e2ebench --workload <{}> [--seed <n>] [--seconds <n>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (42u64, 20.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::parse(value)
                        .ok_or_else(|| format!("unknown workload '{value}'\n{}", usage()))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expects 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let kind = kind.ok_or_else(|| format!("--workload is required\n{}", usage()))?;
    Ok(Options {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// What a run must repeat: its centers hash and its data-plane bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    centers_hash: u64,
    uplink_bits: u64,
    downlink_bits: u64,
}

impl Digest {
    fn of(out: &RunOutput) -> Digest {
        Digest {
            centers_hash: RunDigest::new(&NetworkStats::new(1), &out.centers).centers_hash,
            uplink_bits: out.uplink_bits,
            downlink_bits: out.downlink_bits,
        }
    }
}

/// Checks one run: it succeeded, its centers are finite and k × d, and
/// (once a reference exists) it repeats the reference digest.
fn check_run(
    inputs: &Inputs,
    out: &Result<RunOutput, String>,
    reference: Option<Digest>,
) -> Result<Digest, String> {
    let out = out.as_ref().map_err(Clone::clone)?;
    let d = inputs.data.cols();
    if out.centers.shape() != (workloads::K, d) {
        return Err(format!(
            "centers are {:?}, expected {}x{d}",
            out.centers.shape(),
            workloads::K
        ));
    }
    if !out.centers.as_slice().iter().all(|x| x.is_finite()) {
        return Err("centers are not finite".into());
    }
    let digest = Digest::of(out);
    match reference {
        Some(r) if r != digest => Err(format!("run diverged: {digest:?}, first run {r:?}")),
        _ => Ok(digest),
    }
}

/// Attempted and failed runs over the timed (and traced) units.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, inputs: &Inputs, runs: &Runs, refs: &[Digest]) {
        for (idx, out) in runs {
            self.attempted += 1;
            if let Err(e) = check_run(inputs, out, Some(refs[*idx])) {
                self.failed += 1;
                eprintln!("{} run failed: {e}", inputs.pipes[*idx].0);
            }
        }
    }
}

/// The warm-up unit: its digests are every later run's reference, its
/// centers give the (exact) cost ratio, and its peak resident set is
/// `peak_rss_mb`. As the first unit after set-up, on an allocator
/// trimmed of the set-up's garbage, it sees memory as a fresh
/// `ekm run` process does — later units reuse pages the allocator kept,
/// so their peaks depend on how many units ran before.
struct Warmup {
    refs: Vec<Digest>,
    cost_ratio: f64,
    peak_rss_mb: f64,
}

fn warm_up(inputs: &Inputs, journal_dir: &Path) -> Result<Warmup, String> {
    let shards = workloads::prepare(inputs);
    sys::reset_peak_rss()?;
    let runs = workloads::run_unit(inputs, shards, journal_dir, None);
    let peak_rss_mb = sys::peak_rss_mb()?;
    let mut refs: Vec<Option<Digest>> = vec![None; inputs.pipes.len()];
    let mut cost_ratio = 0.0f64;
    for (idx, out) in &runs {
        let name = inputs.pipes[*idx].0;
        let digest = check_run(inputs, out, None).map_err(|e| format!("warm-up {name}: {e}"))?;
        let centers = &out.as_ref().expect("checked above").centers;
        let ratio = evaluation::normalized_cost(&inputs.data, centers, inputs.reference_cost)
            .map_err(|e| e.to_string())?;
        cost_ratio = cost_ratio.max(ratio);
        refs[*idx] = Some(digest);
    }
    let refs = refs
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or("warm-up skipped a pipeline")?;
    if !cost_ratio.is_finite() {
        return Err(format!("cost ratio {cost_ratio} is not finite"));
    }
    Ok(Warmup {
        refs,
        cost_ratio,
        peak_rss_mb,
    })
}

/// The backend equivalence check: the same pipeline over `run_channel`
/// must give the centers hash and bits the TCP runs gave.
fn backends_agree(inputs: &Inputs, refs: &[Digest]) -> bool {
    let pipe = &inputs.pipes[0].1;
    match pipe.run_channel(inputs.shards.clone()) {
        Ok(out) if Digest::of(&out) == refs[0] => true,
        Ok(out) => {
            eprintln!(
                "run_channel gave {:?}, TCP gave {:?}",
                Digest::of(&out),
                refs[0]
            );
            false
        }
        Err(e) => {
            eprintln!("run_channel failed: {e}");
            false
        }
    }
}

/// One timed unit of work.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
}

/// Times units of work until `seconds` are spent (at least one unit; a
/// unit is not started when the last one says it would overrun).
fn measure(
    inputs: &Inputs,
    seconds: f64,
    journal_dir: &Path,
    refs: &[Digest],
    tally: &mut Tally,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let shards = workloads::prepare(inputs);
        let cpu0 = sys::process_cpu();
        let t0 = Instant::now();
        let runs = workloads::run_unit(inputs, shards, journal_dir, None);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = sys::process_cpu() - cpu0;
        tally.check(inputs, &runs, refs);
        samples.push(Sample { wall_s, cpu_s });
        if start.elapsed().as_secs_f64() + wall_s > seconds {
            return samples;
        }
    }
}

/// Medians of the codec replay: decode every captured payload, encode
/// the decoded message again, and require the identical payload back.
struct CodecReplay {
    encode_s: f64,
    decode_s: f64,
    payload_bits: f64,
    roundtrip_ok: bool,
}

fn replay_codec(payloads: &[Payload]) -> CodecReplay {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut roundtrip_ok = true;
    for _ in 0..CODEC_PASSES {
        let (mut e, mut d) = (Duration::ZERO, Duration::ZERO);
        for p in payloads {
            let t = Instant::now();
            let msg = std::hint::black_box(p).decode();
            d += t.elapsed();
            let Ok(msg) = msg else {
                roundtrip_ok = false;
                continue;
            };
            let t = Instant::now();
            let again = Payload::of(std::hint::black_box(&msg));
            e += t.elapsed();
            roundtrip_ok &= &again == p;
        }
        enc.push(e.as_secs_f64());
        dec.push(d.as_secs_f64());
    }
    CodecReplay {
        encode_s: median(&enc),
        decode_s: median(&dec),
        payload_bits: payloads.iter().fold(0.0, |sum, p| sum + p.bits() as f64),
        roundtrip_ok,
    }
}

/// A metric as printed and as written to the JSON line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Set-up times, one entry per set-up.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    build_s: Vec<f64>,
    partition_s: Vec<f64>,
    reference_s: Vec<f64>,
}

/// Data-plane bits of one unit of work (summed over the sweep's seven
/// pipelines), exact.
fn bits(warm: &Warmup, of: impl Fn(&Digest) -> u64) -> f64 {
    warm.refs.iter().fold(0.0, |sum, r| sum + of(r) as f64)
}

/// Everything the per-layer metrics are folded from.
struct Context<'a> {
    opts: &'a Options,
    inputs: &'a Inputs,
    setup: &'a SetupTimes,
    warm: &'a Warmup,
    out_dir: &'a Path,
    /// Median wall time of the untraced units.
    run_s: f64,
}

/// Runs the traced unit and folds it into the per-layer metrics.
fn traced_unit(cx: &Context, tally: &mut Tally, correct: &mut bool) -> Result<Vec<Metric>, String> {
    let inputs = cx.inputs;
    let shards = workloads::prepare(inputs);
    let mut tracer = Tracer::new(cx.opts.seed);
    let rec = tracer.driver.clone();
    let (cpu0, driver_cpu0) = (sys::process_cpu(), sys::thread_cpu());
    let t0 = Instant::now();
    let span = rec.borrow_mut().enter("unit", "");
    let runs = workloads::run_unit(inputs, shards, cx.out_dir, Some(&mut tracer));
    rec.borrow_mut().exit(span);
    let unit_s = t0.elapsed().as_secs_f64();
    // Every thread but the driver's: the sources and the kernels' workers.
    let executor_cpu_s = (sys::process_cpu() - cpu0) - (sys::thread_cpu() - driver_cpu0);
    tally.check(inputs, &runs, &cx.warm.refs);

    let (mut journal_entries, mut journal_bytes) = (0.0, 0.0);
    if inputs.kind.journals() {
        let path = workloads::journal_path(cx.out_dir);
        let (_, records) = read_journal(&path).map_err(|e| e.to_string())?;
        journal_entries = records.len() as f64;
        journal_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    }
    let codec = replay_codec(&rec.borrow().payloads);
    if !codec.roundtrip_ok {
        eprintln!("codec replay: a payload did not re-encode to the same bytes");
        *correct = false;
    }
    let layers = layers::fold(&rec.borrow(), &tracer.sources);
    write_spans(cx.opts, cx.out_dir, &rec.borrow(), &tracer.sources)?;

    let outs: Vec<&RunOutput> = runs.iter().filter_map(|(_, r)| r.as_ref().ok()).collect();
    let server_s = outs.iter().fold(0.0, |sum, o| sum + o.server_seconds);
    let summary_points = outs
        .iter()
        .fold(0.0, |sum, o| sum + o.summary_points as f64);
    let counter = |name: &str| tracer.counters.get(name).copied().unwrap_or(0.0);
    let seconds = |name: &str| metric(name, "s", layers.s(name));
    let count = |name: &str| metric(name, "count", layers.n(name));

    let mut m = vec![
        metric("data.build_s", "s", median(&cx.setup.build_s)),
        metric("data.partition_s", "s", median(&cx.setup.partition_s)),
        metric("reference.solve_s", "s", median(&cx.setup.reference_s)),
        seconds("executor.busy_s"),
        seconds("executor.critical_s"),
        metric("executor.cpu_s", "s", executor_cpu_s),
    ];
    for kind in layers::EXECUTOR_KINDS {
        m.push(seconds(&format!("executor.{kind}_s")));
    }
    m.extend([
        seconds("executor.idle_s"),
        count("executor.commands"),
        count("executor.ops"),
        seconds("transport.connect_s"),
        seconds("transport.send_s"),
        seconds("transport.recv_s"),
        seconds("transport.round_overhead_s"),
        count("transport.rounds"),
        count("transport.reissues"),
        metric(
            "transport.frame_bytes",
            "byte",
            layers.n("transport.frame_bytes"),
        ),
        metric("downlink_bits", "bit", bits(cx.warm, |r| r.downlink_bits)),
        metric("codec.encode_s", "s", codec.encode_s),
        metric("codec.decode_s", "s", codec.decode_s),
        metric("codec.payload_bits", "bit", codec.payload_bits),
        seconds("driver.self_s"),
        metric("driver.server_s", "s", server_s),
        metric("driver.summary_points", "count", summary_points),
        seconds("journal.self_s"),
        metric("journal.entries", "count", journal_entries),
        metric("journal.bytes", "byte", journal_bytes),
    ]);
    for pipe in layers::ENGINE_PIPES {
        m.push(seconds(&format!("engine.{pipe}_s")));
    }
    m.extend([
        metric("cache.hits", "count", counter("cache.hits")),
        metric("cache.misses", "count", counter("cache.misses")),
        metric("cache.hit_rate", "ratio", counter("cache.hit_rate")),
        metric("cache.held_mb", "MB", counter("cache.held_mb")),
        metric("trace.unit_s", "s", unit_s),
        seconds("trace.bookkeeping_s"),
        metric("trace.overhead_s", "s", unit_s - cx.run_s),
        metric("unattributed_s", "s", unit_s - layers.attributed_s),
    ]);
    Ok(m)
}

/// Writes every span as one JSON line.
fn write_spans(
    opts: &Options,
    out_dir: &Path,
    driver: &trace::Recorder,
    sources: &[trace::Recorder],
) -> Result<(), String> {
    let mut text = String::new();
    let mut next_id = 0;
    for rec in std::iter::once(driver).chain(sources) {
        rec.write_jsonl(&mut text, next_id);
        next_id += rec.spans.len();
    }
    let path = out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        opts.kind.name(),
        opts.seed
    ));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

/// Builds the inputs `SETUPS` times, keeping the last.
fn set_up(kind: Kind, seed: u64) -> Result<(Inputs, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t0 = Instant::now();
        let built = workloads::setup(kind, seed)?;
        times.total_s.push(t0.elapsed().as_secs_f64());
        times.build_s.push(built.build_s);
        times.partition_s.push(built.partition_s);
        times.reference_s.push(built.reference_s);
        inputs = Some(built);
    }
    Ok((inputs.expect("at least one set-up"), times))
}

fn run(opts: &Options) -> Result<(), String> {
    sys::single_malloc_arena()?;
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let (inputs, setup) = set_up(opts.kind, opts.seed)?;
    let warm = warm_up(&inputs, &out_dir)?;
    let mut correct = !inputs.kind.checks_backends() || backends_agree(&inputs, &warm.refs);
    let mut tally = Tally::default();
    let samples = measure(&inputs, opts.seconds, &out_dir, &warm.refs, &mut tally);
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let run_s = median(&walls);

    let metrics = if opts.trace {
        let cx = Context {
            opts,
            inputs: &inputs,
            setup: &setup,
            warm: &warm,
            out_dir: &out_dir,
            run_s,
        };
        traced_unit(&cx, &mut tally, &mut correct)
    } else {
        let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
        Ok(vec![
            metric("run_s", "s", run_s),
            metric("setup_s", "s", median(&setup.total_s)),
            metric("cpu_s", "s", median(&cpus)),
            metric("peak_rss_mb", "MB", warm.peak_rss_mb),
            metric("uplink_bits", "bit", bits(&warm, |r| r.uplink_bits)),
            metric("cost_ratio", "ratio", warm.cost_ratio),
            metric(
                "success_frac",
                "ratio",
                (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
            ),
        ])
    };
    if inputs.kind.journals() {
        let _ = std::fs::remove_file(workloads::journal_path(&out_dir));
    }
    let metrics = metrics?;
    correct &= tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());

    println!(
        "workload {} seed {}: {} timed unit(s); {} run(s), {} failed; downlink_bits {}",
        opts.kind.name(),
        opts.seed,
        samples.len(),
        tally.attempted,
        tally.failed,
        bits(&warm, |r| r.downlink_bits)
    );
    for m in &metrics {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
