//! The `attack` and `checkpoint` workloads: one Table I cell, closed loop,
//! one in-process caller.
//!
//! The cell is the satbench profile (PI 4, PO 6, FF 12, 160 gates) locked by
//! `trilock::encrypt` with κs = 2, κf = 1, α = 0.6. The attack starts at
//! unroll depth 1 below b* = κs, so every cell goes through one depth bump.
//! `attack` runs `SatAttack::run`; `checkpoint` runs the same search through
//! `run_checkpointed` (a checkpoint per DIP), pauses it at 128 DIPs and
//! finishes it with `resume_from_path`.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use attacks::{
    AttackProgress, AttackStatus, LearntDbOutcome, RestoreReport, SatAttack, SatAttackConfig,
    SatAttackOutcome,
};
use benchgen::CircuitProfile;
use netlist::Netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trilock::{analytic, encrypt, KeySequence, LockedCircuit, TriLockConfig};

use crate::trace::Tracer;

pub const SATBENCH: CircuitProfile = CircuitProfile {
    name: "satbench",
    inputs: 4,
    outputs: 6,
    dffs: 12,
    gates: 160,
};
pub const KAPPA_S: usize = 2;
pub const KAPPA_F: usize = 1;
pub const ALPHA: f64 = 0.6;
/// Unroll depth the attack starts at, below b* = κs.
pub const INITIAL_UNROLL: usize = 1;
/// DIP budget at which the `checkpoint` workload pauses its cell.
pub const PAUSE_DIPS: u64 = 128;

/// The locked cell every attack unit works on.
pub struct Cell {
    pub original: Netlist,
    pub locked: LockedCircuit,
}

impl Cell {
    /// Generates the satbench circuit from `instance_seed` and encrypts it
    /// with the same seed.
    pub fn new(instance_seed: u64) -> Result<Cell, String> {
        let original = benchgen::generate(&SATBENCH, instance_seed).map_err(|e| e.to_string())?;
        let config = TriLockConfig::new(KAPPA_S, KAPPA_F).with_alpha(ALPHA);
        let mut rng = StdRng::seed_from_u64(instance_seed);
        let locked = encrypt(&original, &config, &mut rng).map_err(|e| e.to_string())?;
        Ok(Cell { original, locked })
    }

    pub fn attack(&self) -> Result<SatAttack<'_>, String> {
        SatAttack::new(&self.original, &self.locked.netlist, self.locked.kappa())
            .map_err(|e| e.to_string())
    }
}

/// Library defaults except the four settings the workload fixes.
pub fn attack_config(kappa_s: usize, kappa: usize) -> SatAttackConfig {
    SatAttackConfig {
        initial_unroll: INITIAL_UNROLL,
        max_unroll: kappa_s + 3,
        verify_sequences: 32,
        verify_cycles: kappa + 6,
        ..SatAttackConfig::default()
    }
}

/// Timestamp and cumulative conflicts of every progress callback.
pub type ProgressLog = Arc<Mutex<Vec<(Instant, u64)>>>;

fn with_progress(mut config: SatAttackConfig, log: &ProgressLog) -> SatAttackConfig {
    let log = Arc::clone(log);
    config.progress = Some(Arc::new(move |p: &AttackProgress| {
        log.lock()
            .expect("progress log poisoned")
            .push((Instant::now(), p.stats.conflicts));
    }));
    config
}

/// What one cell produced.
pub struct CellRun {
    pub time_to_key: f64,
    pub outcome: SatAttackOutcome,
    /// Progress callback timestamps and cumulative conflicts, in order.
    pub progress: Vec<(Instant, u64)>,
    /// Status of the paused first half (`checkpoint` only).
    pub paused: Option<AttackStatus>,
    /// Learnt clauses the resume restored (`checkpoint` only).
    pub restored_clauses: Option<usize>,
}

impl CellRun {
    /// Seconds between successive progress callbacks.
    pub fn dip_intervals(&self) -> Vec<f64> {
        self.progress
            .windows(2)
            .map(|w| w[1].0.duration_since(w[0].0).as_secs_f64())
            .collect()
    }

    pub fn key(&self) -> Option<&KeySequence> {
        match &self.outcome.status {
            AttackStatus::KeyFound(key) => Some(key),
            _ => None,
        }
    }
}

/// Runs one `attack` cell: `SatAttack::run` to a verified key.
pub fn run_bare(
    cell: &Cell,
    attack_seed: u64,
    tr: &mut Tracer,
    group: &str,
) -> Result<CellRun, String> {
    let log = ProgressLog::default();
    let config = with_progress(
        attack_config(cell.locked.config.kappa_s, cell.locked.kappa()),
        &log,
    );
    let mut rng = StdRng::seed_from_u64(attack_seed);
    let start = Instant::now();
    let outcome = cell
        .attack()?
        .run(&config, &mut rng)
        .map_err(|e| e.to_string())?;
    let end = Instant::now();
    let run_span = tr.record("attacks.run", group, None, start, end);
    let progress = log.lock().expect("progress log poisoned").clone();
    record_dips(tr, group, run_span, start, &progress);
    Ok(CellRun {
        time_to_key: end.duration_since(start).as_secs_f64(),
        outcome,
        progress,
        paused: None,
        restored_clauses: None,
    })
}

/// Runs one `checkpoint` cell: `run_checkpointed` with a checkpoint per DIP
/// until the pause budget, then `resume_from_path` to a verified key.
pub fn run_checkpointed(
    cell: &Cell,
    attack_seed: u64,
    path: &Path,
    tr: &mut Tracer,
    group: &str,
) -> Result<CellRun, String> {
    let _ = std::fs::remove_file(path);
    let log = ProgressLog::default();
    let base = with_progress(
        SatAttackConfig {
            checkpoint_every: 1,
            ..attack_config(cell.locked.config.kappa_s, cell.locked.kappa())
        },
        &log,
    );
    let paused_config = SatAttackConfig {
        max_dips: PAUSE_DIPS,
        ..base.clone()
    };
    let restored: Arc<Mutex<Option<(Instant, usize)>>> = Arc::default();
    let restored_slot = Arc::clone(&restored);
    let resume_config = SatAttackConfig {
        on_restore: Some(Arc::new(move |report: &RestoreReport| {
            let clauses = match report.learnt_db {
                LearntDbOutcome::Restored { clauses, .. } => clauses,
                _ => 0,
            };
            *restored_slot.lock().expect("restore slot poisoned") = Some((Instant::now(), clauses));
        })),
        ..base
    };

    let mut rng = StdRng::seed_from_u64(attack_seed);
    let start = Instant::now();
    let attack = cell.attack()?;
    let paused = attack
        .run_checkpointed(&paused_config, &mut rng, path)
        .map_err(|e| e.to_string())?;
    let resume_start = Instant::now();
    let outcome = attack
        .resume_from_path(&resume_config, path)
        .map_err(|e| e.to_string())?;
    let end = Instant::now();

    let cell_span = tr.record("attacks.checkpointed_cell", group, None, start, end);
    tr.record(
        "attacks.run_checkpointed",
        group,
        cell_span,
        start,
        resume_start,
    );
    let resume_span = tr.record(
        "attacks.resume_from_path",
        group,
        cell_span,
        resume_start,
        end,
    );
    let restored_clauses = restored
        .lock()
        .expect("restore slot poisoned")
        .map(|(at, clauses)| {
            tr.record(
                "attacks.resume_restore",
                group,
                resume_span,
                resume_start,
                at,
            );
            clauses
        });
    let progress = log.lock().expect("progress log poisoned").clone();
    record_dips(tr, group, cell_span, start, &progress);
    Ok(CellRun {
        time_to_key: end.duration_since(start).as_secs_f64(),
        outcome,
        progress,
        paused: Some(paused.status),
        restored_clauses,
    })
}

/// One `attacks.dip` span per interval between progress callbacks (the
/// first runs from the attack call to the first DIP).
fn record_dips(
    tr: &mut Tracer,
    group: &str,
    parent: Option<usize>,
    start: Instant,
    progress: &[(Instant, u64)],
) {
    if !tr.enabled() {
        return;
    }
    let mut prev = start;
    for &(at, _) in progress {
        tr.record("attacks.dip", group, parent, prev, at);
        prev = at;
    }
}

/// Correctness gate for one cell. The key must restore function on a
/// validation seed the attack never used, the DIP count must reach the
/// analytic `2^{κs·|I|}`, and the final depth must equal b* = κs.
pub fn check(cell: &Cell, run: &CellRun, validation_seed: u64) -> Result<(), String> {
    let key = run
        .key()
        .ok_or_else(|| format!("attack ended with {:?}", run.outcome.status))?;
    if let Some(paused) = &run.paused {
        if *paused != AttackStatus::DipBudgetExhausted {
            return Err(format!(
                "paused half ended with {paused:?}, not at its DIP budget"
            ));
        }
    }
    let kappa_s = cell.locked.config.kappa_s;
    let ndip = analytic::ndip(cell.original.num_inputs(), kappa_s);
    if (run.outcome.dips as f64) < ndip {
        return Err(format!(
            "{} DIPs, fewer than the analytic {ndip}",
            run.outcome.dips
        ));
    }
    let depth = analytic::min_unroll_depth(kappa_s);
    if run.outcome.unroll_depth != depth {
        return Err(format!(
            "final depth {} differs from b* = {depth}",
            run.outcome.unroll_depth
        ));
    }
    let mut rng = StdRng::seed_from_u64(validation_seed);
    let cex = sim::equiv::key_restores_function(
        &cell.original,
        &cell.locked.netlist,
        key.cycles(),
        cell.locked.kappa() + 16,
        256,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    match cex {
        Some(cex) => Err(format!(
            "recovered key fails re-validation at cycle {}",
            cex.cycle
        )),
        None => Ok(()),
    }
}
