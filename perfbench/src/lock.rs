//! The `lock` workload: the designer flow on a generated 20k-gate design.
//!
//! Set-up generates `CircuitProfile::large(20_000)` and renders it as
//! `.bench` text. The timed section is `netlist::bench::parse` →
//! `trilock::lock` (κs = 2, κf = 1, S = 10) → `netlist::bench::write`; after
//! it, a separately timed `sim::fc::estimate_fc` draws 1024 samples over 8
//! functional cycles. The traced run splits `trilock::lock` into its two
//! public steps, `trilock::encrypt` and `trilock::reencode`, which is
//! exactly what `lock` calls.

use std::time::Instant;

use benchgen::CircuitProfile;
use netlist::Netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trilock::{analytic, KeySequence, TriLockConfig};

use crate::trace::Tracer;

pub const KAPPA_S: usize = 2;
pub const KAPPA_F: usize = 1;
pub const FC_CYCLES: usize = 8;
/// Tolerance of the measured FC around the paper's Eq. 15 prediction: the
/// 0.07 the repository's FC tests use, plus three standard errors of a
/// 1024-sample estimate.
pub const FC_TOLERANCE: f64 = 0.07 + 0.046;

/// The design the flow locks, as the `.bench` text a designer hands in.
pub struct Design {
    pub text: String,
}

pub fn design(gates: usize, instance_seed: u64) -> Result<Design, String> {
    let netlist = benchgen::generate(&CircuitProfile::large(gates), instance_seed)
        .map_err(|e| e.to_string())?;
    Ok(Design {
        text: netlist::bench::write(&netlist),
    })
}

pub fn config() -> TriLockConfig {
    TriLockConfig::new(KAPPA_S, KAPPA_F)
}

/// What one flow produced.
pub struct FlowRun {
    pub lock_s: f64,
    pub fc_s: f64,
    pub fc: f64,
    pub original: Netlist,
    pub locked: Netlist,
    pub key: KeySequence,
    pub written: String,
}

/// Runs one designer flow. With tracing on, `trilock::lock` is called as
/// its two steps so each gets a span.
pub fn run(
    design: &Design,
    lock_seed: u64,
    fc_samples: usize,
    tr: &mut Tracer,
    group: &str,
) -> Result<FlowRun, String> {
    let config = config();
    let mut rng = StdRng::seed_from_u64(lock_seed);
    let start = Instant::now();
    let flow = tr.open("lock.flow", group, None);
    let original = tr
        .time("netlist.parse", group, flow, || {
            netlist::bench::parse(&design.text)
        })
        .map_err(|e| e.to_string())?;
    let locked = if tr.enabled() {
        let mut locked = tr
            .time("trilock.encrypt", group, flow, || {
                trilock::encrypt(&original, &config, &mut rng)
            })
            .map_err(|e| e.to_string())?;
        tr.time("trilock.reencode", group, flow, || {
            trilock::reencode(&mut locked.netlist, config.reencode_pairs)
        })
        .map_err(|e| e.to_string())?;
        locked
    } else {
        trilock::lock(&original, &config, &mut rng)
            .map_err(|e| e.to_string())?
            .locked
    };
    let written = tr.time("netlist.write", group, flow, || {
        netlist::bench::write(&locked.netlist)
    });
    let end = Instant::now();
    tr.close(flow);

    let mut fc_rng = StdRng::seed_from_u64(lock_seed ^ 0xfc);
    let fc_start = Instant::now();
    let estimate = sim::fc::estimate_fc(
        &original,
        &locked.netlist,
        locked.kappa(),
        FC_CYCLES,
        fc_samples,
        &mut fc_rng,
    )
    .map_err(|e| e.to_string())?;
    let fc_end = Instant::now();
    tr.record("sim.estimate_fc", group, None, fc_start, fc_end);

    Ok(FlowRun {
        lock_s: end.duration_since(start).as_secs_f64(),
        fc_s: fc_end.duration_since(fc_start).as_secs_f64(),
        fc: estimate.fc,
        original,
        key: locked.key.clone(),
        locked: locked.netlist,
        written,
    })
}

/// Correctness gate: the true key restores function, the FC estimate falls
/// in the Eq. 15 band, and the written netlist parses back to the same
/// circuit size.
pub fn check(run: &FlowRun, validation_seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(validation_seed);
    let cex = sim::equiv::key_restores_function(
        &run.original,
        &run.locked,
        run.key.cycles(),
        config().kappa() + 8,
        128,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    if let Some(cex) = cex {
        return Err(format!("true key fails at cycle {}", cex.cycle));
    }
    let expected = analytic::fc_expected(run.original.num_inputs(), KAPPA_F, config().alpha);
    if (run.fc - expected).abs() > FC_TOLERANCE {
        return Err(format!("FC {} outside {expected} ± {FC_TOLERANCE}", run.fc));
    }
    let reread = netlist::bench::parse(&run.written).map_err(|e| e.to_string())?;
    if reread.num_gates() != run.locked.num_gates() || reread.num_dffs() != run.locked.num_dffs() {
        return Err("written netlist does not parse back to the locked circuit".to_string());
    }
    Ok(())
}
