//! `trilock-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Four workloads (`attack`, `checkpoint`,
//! `lock`, `service`) are described in `perfbench/README.md`. With
//! `--trace 0` the last stdout line carries the end-to-end metrics of the
//! named workload; with `--trace 1` it carries every per-layer metric from a
//! traced run. End-to-end times are in reference seconds: wall time scaled
//! by a host-speed calibration taken around every unit (see `calibrate`).
//! The line before the result is a report with the sample counts,
//! quartiles, calibration times, git revision, core count and compiler
//! version. `--held-out` swaps in the held-out instances; `--smoke` runs
//! every workload at a small size and checks that every metric named in
//! `BENCHMARK.json` is emitted.

mod calibrate;
mod cell;
mod layers;
mod lock;
mod service;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use calibrate::Calibrator;
use stats::{median, quartiles};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["attack", "checkpoint", "lock", "service"];
/// Where runs keep checkpoints, daemon state, traces and result history.
const OUT_DIR: &str = ".bench_out";
/// Before every unit, set-up is timed at least `SETUP_REPEATS` times and
/// for at least `SETUP_BURST_S`; `setup_s` is the median of all those
/// times. The speed of set-up's small, allocation-heavy work swings by up
/// to 2x from one tenth of a second to the next on a shared host, so
/// set-ups are spread over the whole run rather than timed all at once.
/// The first sub-millisecond set-ups after a unit run on cold caches and
/// are about twice as slow; a burst of a few milliseconds keeps the median
/// among the warm ones.
const SETUP_REPEATS: usize = 8;
const SETUP_BURST_S: f64 = 0.004;

/// Generator seeds of the benchmark instances. The `--seed` argument varies
/// the attack, lock and sampling randomness and the job order, never the
/// instance, so every run of a workload does the same work.
#[derive(Debug, Clone, Copy)]
struct Instances {
    /// benchgen (and encrypt) seed of the satbench cell.
    cell: u64,
    /// benchgen seed of the 20k-gate design.
    design: u64,
}

const PRIMARY: Instances = Instances {
    cell: 70,
    design: 7,
};
/// Held-out instances that keep each workload's defining property: the
/// cell still needs b* = 2 > `initial_unroll` (one depth bump).
const HELD_OUT: Instances = Instances {
    cell: 71,
    design: 8,
};

struct Sizes {
    lock_gates: usize,
    fc_samples: usize,
    service_seeds: Vec<u64>,
    /// Repetitions of each single-call replay in the traced run.
    repeats: usize,
    /// Units each run measures at least, whatever `--seconds` says.
    min_units: usize,
}

impl Sizes {
    fn full() -> Sizes {
        Sizes {
            lock_gates: 20_000,
            fc_samples: 1024,
            service_seeds: (1..=8).collect(),
            repeats: 5,
            min_units: 3,
        }
    }

    fn smoke() -> Sizes {
        Sizes {
            lock_gates: 2_000,
            fc_samples: 256,
            service_seeds: vec![1, 2],
            repeats: 1,
            min_units: 1,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    held_out: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        held_out: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--held-out" => args.held_out = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.smoke && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.smoke {
        std::process::exit(smoke());
    }
    let instances = if args.held_out { HELD_OUT } else { PRIMARY };
    let result = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        instances,
        &Sizes::full(),
    );
    print_result(&args, instances, &result);
}

/// Operations attempted and failed, and why.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: failed: {e}");
            self.failures.push(e);
        }
    }
}

/// A reported metric with the samples behind it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// Everything one run produced.
struct RunResult {
    tally: Tally,
    metrics: Vec<Metric>,
    units: usize,
    gate_s: f64,
    /// Every calibration kernel time of the run.
    calibration: Calibrator,
}

/// Per-run scratch directory, removed at the end of the run.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The set-up product of each workload.
enum Fixture {
    Cell(Box<cell::Cell>),
    Design(lock::Design),
    Service(service::Service, Vec<Result<service::Reference, String>>),
}

/// Builds the fixture of `workload`. Set-up covers what a user pays before
/// the first operation: generating (and for the attack cells, encrypting)
/// the instance, rendering the design text, or writing the circuit file and
/// bringing the daemon up with both connections.
fn setup(
    workload: &str,
    instances: Instances,
    sizes: &Sizes,
    dir: &Path,
) -> Result<Fixture, String> {
    match workload {
        "attack" | "checkpoint" => {
            cell::Cell::new(instances.cell).map(|c| Fixture::Cell(Box::new(c)))
        }
        "lock" => lock::design(sizes.lock_gates, instances.design).map(Fixture::Design),
        _ => {
            let circuit =
                benchgen::generate(&cell::SATBENCH, instances.cell).map_err(|e| e.to_string())?;
            let service = service::Service::start(dir, &netlist::bench::write(&circuit))?;
            Ok(Fixture::Service(service, Vec::new()))
        }
    }
}

/// Times a burst of fresh set-ups into `ctx.setups` and drops their
/// fixtures untimed. The times are scaled to reference seconds by the
/// allocation kernel, run before each set-up of the burst. The table kernel
/// does not track the swings of set-up's allocation-heavy work, and scaling
/// by it made set-up noisier.
fn time_setups(ctx: &mut UnitCtx<'_>) -> Result<(), String> {
    let began = Instant::now();
    let mut times = Vec::new();
    let mut kernels = Vec::new();
    while times.len() < SETUP_REPEATS || began.elapsed().as_secs_f64() < SETUP_BURST_S {
        kernels.push(ctx.cal.measure_allocation());
        let dir = ctx
            .scratch
            .join(format!("setup{}", ctx.setups.len() + times.len()));
        let start = Instant::now();
        let fixture = setup(ctx.workload, ctx.instances, ctx.sizes, &dir)?;
        times.push(start.elapsed().as_secs_f64());
        drop(fixture);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let factor = calibrate::ALLOC_REFERENCE_S / median(&kernels);
    ctx.setups.extend(times.iter().map(|t| t * factor));
    Ok(())
}

/// Samples one workload unit contributes to the end-to-end metrics; wall
/// seconds from `unit`, reference seconds once `measure` scales them.
#[derive(Default)]
struct UnitSamples {
    /// Latency of each result the unit delivered (a key, a locked design, a
    /// finished job).
    results: Vec<f64>,
    /// The workload's inner operation: DIP intervals, or the FC estimate
    /// that follows a lock.
    inner: Vec<f64>,
    /// Wall time the unit kept the caller busy.
    busy: f64,
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Context of one unit.
struct UnitCtx<'a> {
    workload: &'a str,
    instances: Instances,
    seed: u64,
    index: usize,
    sizes: &'a Sizes,
    scratch: &'a Path,
    /// Exact effort counts of the first cell, which every later cell of the
    /// same instance must reproduce.
    counts: &'a mut Option<(u64, u64, usize)>,
    cal: &'a mut Calibrator,
    /// Every set-up time of the run, in reference seconds.
    setups: Vec<f64>,
}

/// Runs one unit of `fixture` and its correctness gate; the gate's time is
/// added to `gate_s`, never to the samples. With tracing on, the traced
/// run's replays for this unit's layers run too.
fn unit(
    fixture: &mut Fixture,
    ctx: &mut UnitCtx<'_>,
    tr: &mut Tracer,
    tally: &mut Tally,
    gate_s: &mut f64,
) -> UnitSamples {
    let group = format!("{}-{}", ctx.workload, ctx.index);
    let validation_seed = mix(ctx.seed ^ 0x7a11_da7e, ctx.index as u64);
    let mut samples = UnitSamples::default();
    match fixture {
        Fixture::Cell(cell) => {
            let path = ctx.scratch.join("cell.ckpt");
            let run = if ctx.workload == "checkpoint" {
                cell::run_checkpointed(cell, ctx.seed, &path, tr, &group)
            } else {
                cell::run_bare(cell, ctx.seed, tr, &group)
            };
            let gate = Instant::now();
            match run {
                Ok(run) => {
                    samples.results.push(run.time_to_key);
                    samples.inner = run.dip_intervals();
                    samples.busy = run.time_to_key;
                    let o = &run.outcome;
                    let counts = (o.dips, o.solver_stats.conflicts, o.solver_clauses);
                    let repeat = match ctx.counts {
                        Some(first) if *first != counts => Err(format!(
                            "effort counts {counts:?} differ from the first cell's {first:?}"
                        )),
                        _ => Ok(()),
                    };
                    *ctx.counts = Some(counts);
                    tally.op(cell::check(cell, &run, validation_seed).and(repeat));
                    if tr.enabled() {
                        if ctx.workload == "checkpoint" {
                            tally.op(layers::replay_checkpoint(
                                tr,
                                cell,
                                &run,
                                &path,
                                ctx.sizes.repeats,
                            ));
                        } else {
                            layers::count_attack(tr, &run);
                            tally.op(layers::replay_attack(
                                tr,
                                cell,
                                &run,
                                ctx.sizes.repeats,
                                validation_seed,
                            ));
                        }
                    }
                }
                Err(e) => tally.op(Err(e)),
            }
            *gate_s += gate.elapsed().as_secs_f64();
        }
        Fixture::Design(design) => {
            let run = lock::run(
                design,
                ctx.seed.wrapping_add(ctx.index as u64),
                ctx.sizes.fc_samples,
                tr,
                &group,
            );
            let gate = Instant::now();
            match run {
                Ok(run) => {
                    samples.results.push(run.lock_s);
                    samples.inner.push(run.fc_s);
                    samples.busy = run.lock_s;
                    tally.op(lock::check(&run, validation_seed));
                    if tr.enabled() {
                        tally.op(layers::replay_lock(
                            tr,
                            &run,
                            ctx.sizes.repeats,
                            ctx.sizes.fc_samples,
                            validation_seed,
                        ));
                    }
                }
                Err(e) => tally.op(Err(e)),
            }
            *gate_s += gate.elapsed().as_secs_f64();
        }
        Fixture::Service(svc, references) => {
            let mut seeds = ctx.sizes.service_seeds.clone();
            let mut rng = StdRng::seed_from_u64(mix(ctx.seed, ctx.index as u64));
            for i in (1..seeds.len()).rev() {
                seeds.swap(i, rng.gen_range(0..=i));
            }
            if references.is_empty() {
                let gate = Instant::now();
                let sorted = ctx.sizes.service_seeds.clone();
                *references = service::references(&svc.circuit, &sorted);
                *gate_s += gate.elapsed().as_secs_f64();
            }
            match svc.batch(&seeds, tr, &group) {
                Ok(batch) => {
                    let gate = Instant::now();
                    samples.busy = batch.wall_s;
                    for job in &batch.jobs {
                        samples.results.push(job.latency_s);
                        samples.inner.extend(&job.progress_intervals);
                        let slot = ctx.sizes.service_seeds.iter().position(|&s| s == job.seed);
                        let reference = slot
                            .and_then(|i| references.get(i))
                            .ok_or_else(|| format!("no reference for cell {}", job.seed));
                        tally.op(reference
                            .and_then(|r| service::check(job, r, mix(validation_seed, job.seed))));
                    }
                    if tr.enabled() {
                        layers::count_service(tr, &batch);
                    }
                    *gate_s += gate.elapsed().as_secs_f64();
                }
                Err(e) => {
                    for _ in &seeds {
                        tally.op(Err(e.clone()));
                    }
                }
            }
        }
    }
    samples
}

/// Weight of the compute kernel in the calibration of a workload's units.
/// Chosen by the lowest run-to-run spread while tuning: the lock flow slows
/// down with both kernels, the attack cells with the table kernel alone.
/// Over ten 30 s `lock` runs, the median lock time spread by 12 % of its
/// median with the table kernel alone and by 5 % with an even mix; over
/// five `attack` runs, by 6 % with the table kernel and 10 % with the mix.
fn compute_weight(workload: &str) -> f64 {
    if workload == "lock" {
        0.5
    } else {
        0.0
    }
}

/// Runs units until `seconds` of unit wall time have passed (and at least
/// `min_units` units ran), timing set-ups before each unit, calibrating
/// around each unit and scaling its samples to reference seconds.
fn measure(
    fixture: &mut Fixture,
    ctx: &mut UnitCtx<'_>,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
    gate_s: &mut f64,
) -> Vec<UnitSamples> {
    let mut units = Vec::new();
    let mut busy = 0.0;
    while busy < seconds || units.len() < ctx.sizes.min_units {
        if let Err(e) = time_setups(ctx) {
            tally.op(Err(format!("set-up: {e}")));
            break;
        }
        let before = ctx.cal.measure();
        let mut samples = unit(fixture, ctx, tr, tally, gate_s);
        let factor = Calibrator::factor(before, ctx.cal.measure(), compute_weight(ctx.workload));
        for t in samples.results.iter_mut().chain(samples.inner.iter_mut()) {
            *t *= factor;
        }
        ctx.index += 1;
        if samples.results.is_empty() {
            // A failed unit delivers nothing; do not spin on it.
            break;
        }
        busy += samples.busy;
        units.push(samples);
    }
    units
}

/// One run of `workload`.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    instances: Instances,
    sizes: &Sizes,
) -> RunResult {
    let scratch = Scratch::new(&format!("{workload}-s{seed}"));
    let mut tally = Tally::default();
    let mut gate_s = 0.0;
    let mut metrics = Vec::new();
    let mut counts = None;
    let mut cal = Calibrator::new();
    let mut fixture = match setup(workload, instances, sizes, &scratch.0.join("fixture")) {
        Ok(fixture) => fixture,
        Err(e) => {
            tally.op(Err(format!("set-up: {e}")));
            return RunResult {
                tally,
                metrics,
                units: 0,
                gate_s,
                calibration: cal,
            };
        }
    };
    let mut ctx = UnitCtx {
        workload,
        instances,
        seed,
        index: 0,
        sizes,
        scratch: &scratch.0,
        counts: &mut counts,
        cal: &mut cal,
        setups: Vec::new(),
    };

    if !traced {
        let mut tr = Tracer::new(false);
        let units = measure(
            &mut fixture,
            &mut ctx,
            seconds,
            &mut tr,
            &mut tally,
            &mut gate_s,
        );
        let results = results_of(&units);
        let inner_ms: Vec<f64> = units
            .iter()
            .flat_map(|u| &u.inner)
            .map(|s| s * 1e3)
            .collect();
        metrics.push(metric(
            "result_p50_s",
            "s",
            median(&results),
            results.clone(),
        ));
        metrics.push(metric("inner_p50_ms", "ms", median(&inner_ms), inner_ms));
        let setups = std::mem::take(&mut ctx.setups);
        metrics.push(metric("setup_s", "s", median(&setups), setups));
        metrics.push(metric("peak_rss_mb", "MB", peak_rss_mb(), Vec::new()));
        drop(fixture);
        return RunResult {
            tally,
            metrics,
            units: units.len(),
            gate_s,
            calibration: cal,
        };
    }

    // Traced run: the named workload untraced and then traced for half the
    // time each (their difference is the tracing overhead), then one traced
    // unit of every other workload so every layer is covered.
    let mut off = Tracer::new(false);
    let half = seconds / 2.0;
    let untraced = measure(
        &mut fixture,
        &mut ctx,
        half,
        &mut off,
        &mut tally,
        &mut gate_s,
    );
    let mut tr = Tracer::new(true);
    let traced = measure(
        &mut fixture,
        &mut ctx,
        half,
        &mut tr,
        &mut tally,
        &mut gate_s,
    );
    let traced_p50 = median(&results_of(&traced));
    tr.count(
        "trace.overhead",
        traced_p50 / median(&results_of(&untraced)) - 1.0,
    );
    drop(fixture);
    let mut total_units = untraced.len() + traced.len();
    for other in WORKLOADS.iter().copied().filter(|w| *w != workload) {
        let dir = scratch.0.join(other);
        match setup(other, instances, sizes, &dir) {
            Ok(mut fixture) => {
                let _ = std::fs::create_dir_all(&dir);
                let mut other_counts = None;
                let mut ctx = UnitCtx {
                    workload: other,
                    instances,
                    seed,
                    index: 0,
                    sizes,
                    scratch: &dir,
                    counts: &mut other_counts,
                    cal: &mut cal,
                    setups: Vec::new(),
                };
                unit(&mut fixture, &mut ctx, &mut tr, &mut tally, &mut gate_s);
                total_units += 1;
            }
            Err(e) => tally.op(Err(format!("{other} set-up: {e}"))),
        }
    }
    // Share of the checkpointed cell's time to key that the checkpoint layer
    // takes, from the traced cells' wall times.
    let bare = median(&tr.durations("attacks.run"));
    let checkpointed = median(&tr.durations("attacks.checkpointed_cell"));
    tr.count("attacks.ckpt_share", 1.0 - bare / checkpointed);

    for (name, unit, value) in layers::metrics(&tr) {
        match value {
            Some(value) if value.is_finite() => metrics.push(metric(name, unit, value, Vec::new())),
            _ => tally.op(Err(format!("per-layer metric {name} was not measured"))),
        }
    }
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{workload}-s{seed}.jsonl"));
    if let Err(e) = tr.write_jsonl(&trace_path) {
        eprintln!("perfbench: could not write {}: {e}", trace_path.display());
    }
    RunResult {
        tally,
        metrics,
        units: total_units,
        gate_s,
        calibration: cal,
    }
}

fn results_of(units: &[UnitSamples]) -> Vec<f64> {
    units
        .iter()
        .flat_map(|u| u.results.iter().copied())
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The git revision when run from the root of a clone, otherwise an FNV-1a
/// fingerprint of the library sources the benchmark was built from.
fn revision() -> String {
    if Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        for byte in file
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(file).unwrap_or_default())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-fnv-{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Reference time and the distribution of one calibration kernel's times.
fn kernel_json(reference: f64, samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples);
    format!(
        "{{\"reference\":{reference},\"samples\":{},\"median\":{},\"q1\":{},\"q3\":{}}}",
        samples.len(),
        json_number(median(samples)),
        json_number(q1),
        json_number(q3),
    )
}

fn print_result(args: &Args, instances: Instances, result: &RunResult) {
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"report\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\
         \"instances\":{{\"cell\":{},\"design\":{}}},\"revision\":\"{}\",\"nproc\":{},\
         \"rustc\":\"{}\",\"units\":{},\"gate_s\":{},\"failures\":{},\
         \"calibration_s\":{},\"compute_calibration_s\":{},\"setup_calibration_s\":{},\
         \"metrics\":{{",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        instances.cell,
        instances.design,
        revision(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC_VERSION"),
        result.units,
        json_number(result.gate_s),
        result.tally.failures.len(),
        kernel_json(calibrate::REFERENCE_S, &result.calibration.table_samples),
        kernel_json(
            calibrate::COMPUTE_REFERENCE_S,
            &result.calibration.compute_samples
        ),
        kernel_json(
            calibrate::ALLOC_REFERENCE_S,
            &result.calibration.setup_samples
        ),
    );
    for (i, m) in result.metrics.iter().enumerate() {
        let (q1, q3) = quartiles(&m.samples);
        let _ = write!(
            report,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{},\"median\":{},\
             \"q1\":{},\"q3\":{}}}",
            if i == 0 { "" } else { "," },
            m.name,
            json_number(m.value),
            m.unit,
            m.samples.len(),
            json_number(median(&m.samples)),
            json_number(q1),
            json_number(q3),
        );
    }
    report.push_str("}}}");
    let _ = std::fs::create_dir_all(OUT_DIR);
    let history = Path::new(OUT_DIR).join("results.jsonl");
    let previous = std::fs::read_to_string(&history).unwrap_or_default();
    let _ = std::fs::write(&history, format!("{previous}{report}\n"));
    println!("{report}");

    let mut tally_failed = result.tally.failed;
    let mut line = String::new();
    for m in &result.metrics {
        if !m.value.is_finite() {
            tally_failed += 1;
            continue;
        }
        let _ = write!(
            line,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if line.is_empty() { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    let attempted = result.tally.attempted.max(1);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {tally_failed}, \"metrics\": {{{line}}}}}",
        tally_failed == 0
    );
}

/// Runs every workload at smoke size, untraced and once traced, and checks
/// that each emits every metric `BENCHMARK.json` names. Returns the exit
/// code.
fn smoke() -> i32 {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perfbench: smoke needs BENCHMARK.json in the working directory: {e}");
            return 1;
        }
    };
    let spec = match trilock_serve::Json::parse(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json: {e}");
            return 1;
        }
    };
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(trilock_serve::Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(trilock_serve::Json::as_str))
            .map(str::to_string)
            .collect()
    };
    let sizes = Sizes::smoke();
    let mut problems = Vec::new();
    let mut check = |label: &str, result: &RunResult, expected: &[String]| {
        if result.tally.failed > 0 {
            problems.push(format!("{label}: {:?}", result.tally.failures));
        }
        for name in expected {
            if !result
                .metrics
                .iter()
                .any(|m| m.name == name && m.value.is_finite())
            {
                problems.push(format!("{label}: metric {name} missing"));
            }
        }
        for m in &result.metrics {
            if !expected.iter().any(|n| n == m.name) {
                problems.push(format!(
                    "{label}: metric {} is not in BENCHMARK.json",
                    m.name
                ));
            }
        }
        eprintln!(
            "perfbench smoke: {label}: {} units, {} operations, {} failed",
            result.units, result.tally.attempted, result.tally.failed
        );
    };
    for workload in WORKLOADS {
        let result = run(workload, 1, 0.0, false, PRIMARY, &sizes);
        check(workload, &result, &names("end_to_end"));
    }
    let traced = run("attack", 1, 0.0, true, PRIMARY, &sizes);
    check("traced", &traced, &names("per_layer"));
    for p in &problems {
        eprintln!("perfbench smoke: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        problems.is_empty(),
        WORKLOADS.len() + 1,
        problems.len()
    );
    i32::from(!problems.is_empty())
}
