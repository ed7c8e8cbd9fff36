//! Golden pins of the Monte-Carlo FC estimate on a 20k-gate lock.
//!
//! The packed-vs-scalar suites pin the simulator on small circuits. These
//! tests pin `sim::fc::estimate_fc` at the size the designer flow runs it:
//! a 20k-gate design locked with κs = 2, κf = 1, then 1024 samples over
//! 8 functional cycles. A change to the order in which stimuli are drawn,
//! or to how the engine evaluates the inserted key logic, shows up as a
//! different mismatch count. The counts were measured with the interpreting
//! packed simulator that the compiled tape replaced. Run them with
//! optimized codegen (`cargo test --release`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use benchgen::CircuitProfile;
use trilock::TriLockConfig;

/// Generates the 20k-gate design, round-trips it through `.bench` as a
/// designer would hand it in, locks it with κs = 2, κf = 1, and returns the
/// mismatch count of a 1024-sample, 8-cycle FC estimate.
fn fc_mismatches(design_seed: u64) -> usize {
    let design =
        benchgen::generate(&CircuitProfile::large(20_000), design_seed).expect("generates");
    let original = netlist::bench::parse(&netlist::bench::write(&design)).expect("re-parses");
    let mut rng = StdRng::seed_from_u64(3);
    let flow = trilock::lock(&original, &TriLockConfig::new(2, 1), &mut rng).expect("locks");
    let estimate = sim::fc::estimate_fc(
        &original,
        &flow.locked.netlist,
        flow.locked.kappa(),
        8,
        1024,
        &mut StdRng::seed_from_u64(0),
    )
    .expect("estimates");
    assert_eq!(estimate.samples, 1024);
    estimate.mismatches
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode pin: run with --release")]
fn fc_of_a_20k_gate_lock_is_unchanged() {
    // 594 of 1024 (FC 0.580078125) on both designs: the two share an
    // interface and the same lock seed, and a sample's verdict turns on its
    // key and input draws through the inserted key logic, not on the
    // design's own gates.
    assert_eq!(fc_mismatches(7), 594);
    assert_eq!(fc_mismatches(8), 594);
}
