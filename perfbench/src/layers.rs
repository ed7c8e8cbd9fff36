//! Per-layer numbers for the traced run.
//!
//! Every number here comes from a span or a count the benchmark records
//! around its own call into a layer's public function: the traced units of
//! each workload, plus replays of single calls on the units' own data (the
//! unrolling and miter at the attack's final depth, the recorded DIPs of a
//! checkpoint, the locked 20k-gate design). Layers are named after the
//! crates.

use std::path::Path;
use std::time::Instant;

use attacks::checkpoint::DipRecord;
use attacks::AttackCheckpoint;
use netlist::unroll::{self, Unrolled};
use netlist::{GateId, NetId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sat::tseitin::{Bound, CircuitEncoder};
use sat::{miter, Lit, SatResult};

use crate::cell::{attack_config, Cell, CellRun, INITIAL_UNROLL};
use crate::lock::FlowRun;
use crate::service::Batch;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// How a per-layer metric is derived from the trace.
enum Source {
    /// Median duration of the named span, times a unit scale.
    Span(&'static str, f64),
    /// Median of the counter of the same name.
    Count,
}

/// Every per-layer metric: name, unit, source.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("netlist.parse_s", "s", Source::Span("netlist.parse", 1.0)),
    ("netlist.write_s", "s", Source::Span("netlist.write", 1.0)),
    (
        "netlist.unroll_ms",
        "ms",
        Source::Span("netlist.unroll", 1e3),
    ),
    (
        "stg.register_graph_s",
        "s",
        Source::Span("stg.register_graph", 1.0),
    ),
    (
        "stg.classify_sccs_ms",
        "ms",
        Source::Span("stg.classify_sccs", 1e3),
    ),
    ("stg.registers", "count", Source::Count),
    ("stg.edges", "count", Source::Count),
    (
        "trilock.encrypt_s",
        "s",
        Source::Span("trilock.encrypt", 1.0),
    ),
    (
        "trilock.reencode_s",
        "s",
        Source::Span("trilock.reencode", 1.0),
    ),
    ("trilock.locked_gates", "count", Source::Count),
    ("sim.gate_evals_per_s", "1/s", Source::Count),
    (
        "sim.oracle_query_us",
        "us",
        Source::Span("sim.oracle_query", 1e6),
    ),
    ("sim.validate_ms", "ms", Source::Span("sim.validate", 1e3)),
    (
        "sat.miter_encode_ms",
        "ms",
        Source::Span("sat.miter_encode", 1e3),
    ),
    (
        "sat.dip_encode_us",
        "us",
        Source::Span("sat.dip_encode", 1e6),
    ),
    ("sat.dip_clauses", "count", Source::Count),
    ("sat.solver_vars", "count", Source::Count),
    ("sat.solver_clauses", "count", Source::Count),
    ("sat.conflicts", "count", Source::Count),
    ("sat.propagations", "count", Source::Count),
    ("sat.decisions", "count", Source::Count),
    ("sat.propagations_per_s", "1/s", Source::Count),
    ("attacks.dips", "count", Source::Count),
    ("attacks.final_depth", "count", Source::Count),
    ("attacks.depth_bumps", "ratio", Source::Count),
    ("attacks.dip_conflicts_p95", "count", Source::Count),
    ("attacks.dip_p50_ms", "ms", Source::Count),
    ("attacks.dip_p95_ms", "ms", Source::Count),
    ("attacks.ckpt_dip_p95_ms", "ms", Source::Count),
    ("attacks.ckpt_bytes", "bytes", Source::Count),
    (
        "attacks.ckpt_save_ms",
        "ms",
        Source::Span("attacks.ckpt_save", 1e3),
    ),
    (
        "attacks.ckpt_load_ms",
        "ms",
        Source::Span("attacks.ckpt_load", 1e3),
    ),
    (
        "attacks.resume_restore_s",
        "s",
        Source::Span("attacks.resume_restore", 1.0),
    ),
    ("attacks.learnt_restored", "count", Source::Count),
    ("attacks.ckpt_share", "ratio", Source::Count),
    ("serve.submit_ms", "ms", Source::Span("serve.submit", 1e3)),
    (
        "serve.queue_wait_s",
        "s",
        Source::Span("serve.queue_wait", 1.0),
    ),
    ("serve.overhead_s", "s", Source::Count),
    ("serve.events_per_job", "count", Source::Count),
    ("trace.overhead", "ratio", Source::Count),
];

/// Per-layer metric values from the trace; `None` for a metric with no
/// observation.
pub fn metrics(tr: &Tracer) -> Vec<(&'static str, &'static str, Option<f64>)> {
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let value = match source {
                Source::Span(span, scale) => {
                    let d = tr.durations(span);
                    (!d.is_empty()).then(|| median(&d) * scale)
                }
                Source::Count => {
                    let c = tr.counts(name);
                    (!c.is_empty()).then(|| median(c))
                }
            };
            (*name, *unit, value)
        })
        .collect()
}

/// Counts of a bare attack cell: solver effort from `SatAttackOutcome`, the
/// DIP-loop shape, and the progress-callback intervals.
pub fn count_attack(tr: &mut Tracer, run: &CellRun) {
    let o = &run.outcome;
    let s = &o.solver_stats;
    tr.count("sat.solver_vars", o.solver_vars as f64);
    tr.count("sat.solver_clauses", o.solver_clauses as f64);
    tr.count("sat.conflicts", s.conflicts as f64);
    tr.count("sat.propagations", s.propagations as f64);
    tr.count("sat.decisions", s.decisions as f64);
    tr.count(
        "sat.propagations_per_s",
        s.propagations as f64 / run.time_to_key,
    );
    tr.count("attacks.dips", o.dips as f64);
    tr.count("attacks.final_depth", o.unroll_depth as f64);
    // Each depth ends in one candidate validation; every failed one bumps
    // the depth.
    let bumps = o.unroll_depth.saturating_sub(INITIAL_UNROLL) as f64;
    tr.count("attacks.depth_bumps", bumps / (bumps + 1.0));
    let conflict_deltas: Vec<f64> = run
        .progress
        .windows(2)
        .map(|w| w[1].1.saturating_sub(w[0].1) as f64)
        .collect();
    tr.count(
        "attacks.dip_conflicts_p95",
        percentile(&conflict_deltas, 0.95),
    );
    let intervals = run.dip_intervals();
    tr.count("attacks.dip_p50_ms", median(&intervals) * 1e3);
    tr.count("attacks.dip_p95_ms", percentile(&intervals, 0.95) * 1e3);
}

/// Single-call replays on a bare cell's result: the unrolling and the
/// two-copy miter at the final depth, and one candidate validation with the
/// attack's verify settings.
pub fn replay_attack(
    tr: &mut Tracer,
    cell: &Cell,
    run: &CellRun,
    repeats: usize,
    seed: u64,
) -> Result<(), String> {
    let kappa = cell.locked.kappa();
    let depth = run.outcome.unroll_depth;
    let config = attack_config(cell.locked.config.kappa_s, kappa);
    let key = run.key().ok_or("bare cell found no key")?;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..repeats {
        tr.time("netlist.unroll", "replay", None, || {
            unroll::unroll(&cell.locked.netlist, kappa + depth)
        })
        .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let miter = Miter::build(&cell.locked.netlist, kappa, depth)?;
        tr.record("sat.miter_encode", "replay", None, start, Instant::now());
        drop(miter);
        let cex = tr
            .time("sim.validate", "replay", None, || {
                sim::equiv::key_restores_function(
                    &cell.original,
                    &cell.locked.netlist,
                    key.cycles(),
                    config.verify_cycles,
                    config.verify_sequences,
                    &mut rng,
                )
            })
            .map_err(|e| e.to_string())?;
        if cex.is_some() {
            return Err("replayed validation rejects the recovered key".to_string());
        }
    }
    Ok(())
}

/// Replays on the checkpoint a `checkpoint` cell left behind: load and
/// save, the oracle query of every recorded DIP (each must reproduce its
/// recorded response), and the per-DIP encoding of every record into a
/// fresh miter, which must then admit no further DIP.
pub fn replay_checkpoint(
    tr: &mut Tracer,
    cell: &Cell,
    run: &CellRun,
    path: &Path,
    repeats: usize,
) -> Result<(), String> {
    let intervals = run.dip_intervals();
    tr.count(
        "attacks.ckpt_dip_p95_ms",
        percentile(&intervals, 0.95) * 1e3,
    );
    if let Some(clauses) = run.restored_clauses {
        tr.count("attacks.learnt_restored", clauses as f64);
    }
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    tr.count("attacks.ckpt_bytes", bytes as f64);
    let copy = path.with_extension("replay");
    let mut checkpoint = None;
    for _ in 0..repeats {
        let loaded = tr
            .time("attacks.ckpt_load", "replay", None, || {
                AttackCheckpoint::load(path)
            })
            .map_err(|e| e.to_string())?;
        tr.time("attacks.ckpt_save", "replay", None, || loaded.save(&copy))
            .map_err(|e| e.to_string())?;
        checkpoint = Some(loaded);
    }
    let _ = std::fs::remove_file(&copy);
    let checkpoint = checkpoint.ok_or("no checkpoint replay ran")?;
    if checkpoint.dips.is_empty() {
        return Err("checkpoint holds no DIP records".to_string());
    }

    let mut oracle = sim::Simulator::new(&cell.original).map_err(|e| e.to_string())?;
    for record in &checkpoint.dips {
        let response = tr
            .time("sim.oracle_query", "replay", None, || {
                oracle.run_from_reset(&record.inputs)
            })
            .map_err(|e| e.to_string())?;
        let flat: Vec<bool> = response.into_iter().flatten().collect();
        if flat != record.outputs {
            return Err("oracle replay disagrees with a recorded DIP response".to_string());
        }
    }

    let mut miter = Miter::build(&cell.locked.netlist, cell.locked.kappa(), checkpoint.depth)?;
    for record in &checkpoint.dips {
        let before = miter.solver.num_clauses();
        let start = Instant::now();
        miter.constrain(record)?;
        tr.record("sat.dip_encode", "replay", None, start, Instant::now());
        tr.count(
            "sat.dip_clauses",
            (miter.solver.num_clauses() - before) as f64,
        );
    }
    match miter.solver.solve_with_assumptions(&[miter.diff]) {
        SatResult::Unsat => Ok(()),
        other => Err(format!(
            "replayed DIPs leave the miter open ({}), so they do not pin the key",
            if other.is_sat() { "sat" } else { "interrupted" }
        )),
    }
}

/// Replays on a locked design: the register graph and its SCC
/// classification (the analysis re-encoding runs once per pair), and packed
/// simulation of the locked netlist at FC-estimation shape.
pub fn replay_lock(
    tr: &mut Tracer,
    flow: &FlowRun,
    repeats: usize,
    fc_samples: usize,
    seed: u64,
) -> Result<(), String> {
    tr.count("trilock.locked_gates", flow.locked.num_gates() as f64);
    for _ in 0..repeats {
        let graph = tr.time("stg.register_graph", "replay", None, || {
            stg::RegisterGraph::build(&flow.locked)
        });
        let report = tr.time("stg.classify_sccs", "replay", None, || {
            stg::classify_sccs(&graph)
        });
        if report.num_registers() != graph.num_nodes() {
            return Err("SCC report does not cover every register".to_string());
        }
        tr.count("stg.registers", graph.num_nodes() as f64);
        tr.count("stg.edges", graph.num_edges() as f64);
    }
    tr.count(
        "sim.gate_evals_per_s",
        packed_gate_evals_per_s(&flow.locked, fc_samples, seed)?,
    );
    Ok(())
}

/// Lane-gate evaluations per second of the packed simulator on `locked`,
/// over as many 64-lane passes of `κ + 8` cycles as an FC estimate of
/// `samples` samples makes.
fn packed_gate_evals_per_s(locked: &Netlist, samples: usize, seed: u64) -> Result<f64, String> {
    let cycles = crate::lock::config().kappa() + crate::lock::FC_CYCLES;
    let passes = samples.div_ceil(64).max(1);
    let width = locked.num_inputs();
    let mut rng = StdRng::seed_from_u64(seed);
    let words: Vec<Vec<Vec<u64>>> = (0..passes)
        .map(|_| {
            (0..cycles)
                .map(|_| (0..width).map(|_| rng.gen::<u64>()).collect())
                .collect()
        })
        .collect();
    let mut sim = sim::PackedSimulator::new(locked).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for sequence in &words {
        std::hint::black_box(sim.run_from_reset(sequence).map_err(|e| e.to_string())?);
    }
    let seconds = start.elapsed().as_secs_f64();
    Ok((passes * cycles * 64 * locked.num_gates()) as f64 / seconds)
}

/// Counts of one drained daemon batch.
pub fn count_service(tr: &mut Tracer, batch: &Batch) {
    for job in &batch.jobs {
        tr.count("serve.overhead_s", job.latency_s - job.daemon_elapsed_s);
        tr.count("serve.events_per_job", job.events as f64);
    }
}

/// The two-key-copy miter of the attack at one unrolling depth, built
/// through the public encoder the way the attack builds it.
struct Miter {
    solver: sat::Solver,
    unrolled: Unrolled,
    order: Vec<GateId>,
    observed: Vec<NetId>,
    kappa: usize,
    keys: [Vec<Vec<Lit>>; 2],
    diff: Lit,
}

fn fresh(solver: &mut sat::Solver, rows: usize, width: usize) -> Vec<Vec<Lit>> {
    (0..rows)
        .map(|_| {
            (0..width)
                .map(|_| Lit::positive(solver.new_var()))
                .collect()
        })
        .collect()
}

impl Miter {
    fn build(locked: &Netlist, kappa: usize, depth: usize) -> Result<Miter, String> {
        let unrolled = unroll::unroll(locked, kappa + depth).map_err(|e| e.to_string())?;
        let width = locked.num_inputs();
        let mut solver = sat::Solver::default();
        let functional = fresh(&mut solver, depth, width);
        let keys = [
            fresh(&mut solver, kappa, width),
            fresh(&mut solver, kappa, width),
        ];
        let order = netlist::topo::gate_order(&unrolled.netlist).map_err(|e| e.to_string())?;
        let observed: Vec<NetId> = (kappa..unrolled.cycles)
            .flat_map(|t| unrolled.outputs[t].iter().copied())
            .collect();
        let mut outputs: Vec<Vec<Bound>> = Vec::new();
        for key in &keys {
            let mut encoder = CircuitEncoder::new(&unrolled.netlist).map_err(|e| e.to_string())?;
            for (t, cycle) in key.iter().chain(&functional).enumerate() {
                for (i, &lit) in cycle.iter().enumerate() {
                    encoder.bind(unrolled.inputs[t][i], lit);
                }
            }
            encoder
                .encode_ordered(&mut solver, &order)
                .map_err(|e| e.to_string())?;
            outputs.push(
                observed
                    .iter()
                    .map(|&net| encoder.bound(net).ok_or("observed net left unencoded"))
                    .collect::<Result<_, _>>()?,
            );
        }
        let diff = miter::any_difference_bounds(&mut solver, &outputs[0], &outputs[1]);
        Ok(Miter {
            solver,
            unrolled,
            order,
            observed,
            kappa,
            keys,
            diff,
        })
    }

    /// Adds one oracle observation: both key copies, with the DIP's
    /// functional inputs bound as constants and only the observed-output
    /// cone encoded, must reproduce the recorded response.
    fn constrain(&mut self, record: &DipRecord) -> Result<(), String> {
        for key in &self.keys {
            let mut encoder =
                CircuitEncoder::new(&self.unrolled.netlist).map_err(|e| e.to_string())?;
            for (t, cycle) in key.iter().enumerate() {
                for (i, &lit) in cycle.iter().enumerate() {
                    encoder.bind(self.unrolled.inputs[t][i], lit);
                }
            }
            for (t, cycle) in record.inputs.iter().enumerate() {
                for (i, &value) in cycle.iter().enumerate() {
                    encoder.bind_const(self.unrolled.inputs[self.kappa + t][i], value);
                }
            }
            encoder
                .encode_cone_ordered(&mut self.solver, &self.observed, &self.order)
                .map_err(|e| e.to_string())?;
            let outputs: Vec<Bound> = self
                .observed
                .iter()
                .map(|&net| encoder.bound(net).ok_or("observed net left unencoded"))
                .collect::<Result<_, _>>()?;
            miter::assert_bound_values(&mut self.solver, &outputs, &record.outputs);
        }
        Ok(())
    }
}
