//! Differential test harness: the 64-lane packed simulator must agree with
//! the scalar reference simulator bit-for-bit, lane by lane.
//!
//! Circuits come from the `benchgen` generator (every Table I profile shape,
//! scaled down), stimuli are random multi-cycle sequences, and the checked
//! protocol mirrors the repository's real workloads: an optional broadcast
//! key-loading phase followed by per-lane functional inputs, with register
//! reset values (including non-zero inits) and final register state compared
//! as well. Any divergence between the packed engine and the reference
//! semantics fails here before it can skew an experiment.

use proptest::prelude::*;

use benchgen::{generate_scaled, TABLE1_PROFILES};
use netlist::{GateKind, Netlist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::stimulus::{self, Sequence};
use sim::{packed, PackedSimulator, Simulator};

/// A scaled-down circuit of the given Table I profile; `flip_inits` sets the
/// reset value of every other register to 1 so non-zero reset state is
/// exercised too (benchgen itself initializes every register to 0).
fn profile_circuit(profile_index: usize, flip_inits: bool, seed: u64) -> Netlist {
    let profile = &TABLE1_PROFILES[profile_index % TABLE1_PROFILES.len()];
    let mut nl = generate_scaled(profile, 64, seed).expect("benchgen circuit builds");
    if flip_inits {
        let ids: Vec<_> = nl.dff_ids().collect();
        for (i, id) in ids.into_iter().enumerate() {
            if i % 2 == 0 {
                nl.dff_mut(id).init = true;
            }
        }
    }
    nl
}

/// Runs the packed simulator once (broadcast key phase, then per-lane
/// functional sequences) and checks every lane and the final register state
/// against an independent scalar run of the same sequence.
fn assert_lanes_match_scalar(
    nl: &Netlist,
    key: &Sequence,
    sequences: &[Sequence],
) -> Result<(), TestCaseError> {
    let mut packed_sim = PackedSimulator::new(nl).expect("packed simulator builds");
    packed_sim.reset();
    let mut packed_outputs = Vec::new();
    for cycle in &packed::broadcast_sequence(key) {
        packed_outputs.push(packed_sim.step(cycle).expect("key cycle steps"));
    }
    for cycle in &packed::pack_sequences(sequences) {
        packed_outputs.push(packed_sim.step(cycle).expect("functional cycle steps"));
    }
    let packed_state = packed_sim.state().to_vec();

    let mut scalar = Simulator::new(nl).expect("scalar simulator builds");
    for (lane, sequence) in sequences.iter().enumerate() {
        scalar.reset();
        let full = stimulus::concat(key, sequence);
        let scalar_outputs = scalar.run(&full).expect("scalar run");
        prop_assert_eq!(scalar_outputs.len(), packed_outputs.len());
        for (t, cycle_outputs) in scalar_outputs.iter().enumerate() {
            for (o, &bit) in cycle_outputs.iter().enumerate() {
                prop_assert_eq!(
                    packed::lane(packed_outputs[t][o], lane),
                    bit,
                    "lane {} cycle {} output {} diverged",
                    lane,
                    t,
                    o
                );
            }
        }
        for (r, &word) in packed_state.iter().enumerate() {
            prop_assert_eq!(
                packed::lane(word, lane),
                scalar.state()[r],
                "lane {} register {} final state diverged",
                lane,
                r
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random profile shape × random stimulus: every packed lane reproduces
    /// the scalar simulation of its sequence, including the broadcast
    /// multi-cycle key phase, non-zero register resets and final state.
    #[test]
    fn every_lane_reproduces_a_scalar_run(
        profile_index in 0usize..TABLE1_PROFILES.len(),
        flip_inits in any::<bool>(),
        circuit_seed in 0u64..1024,
        stimulus_seed in any::<u64>(),
        lanes in 1usize..=64,
        kappa in 0usize..=2,
        cycles in 1usize..=6,
    ) {
        let nl = profile_circuit(profile_index, flip_inits, circuit_seed);
        let width = nl.num_inputs();
        let mut rng = StdRng::seed_from_u64(stimulus_seed);
        let key = stimulus::random_sequence(&mut rng, width, kappa);
        let sequences: Vec<Sequence> = (0..lanes)
            .map(|_| stimulus::random_sequence(&mut rng, width, cycles))
            .collect();
        assert_lanes_match_scalar(&nl, &key, &sequences)?;
    }

    /// The packed equivalence checker returns exactly the counterexample the
    /// scalar reference finds (first-drawn mismatching sequence, earliest
    /// cycle) — or agrees that none exists — on circuit pairs of the same
    /// interface.
    #[test]
    fn packed_equiv_check_matches_the_scalar_reference(
        profile_index in 0usize..TABLE1_PROFILES.len(),
        seed_a in 0u64..512,
        seed_delta in 0u64..2,
        check_seed in any::<u64>(),
        sequences in 1usize..100,
    ) {
        // seed_delta = 0 compares a circuit against itself (must be
        // equivalent); 1 compares different circuits of identical interface
        // (virtually always inequivalent).
        let a = profile_circuit(profile_index, false, seed_a);
        let b = profile_circuit(profile_index, false, seed_a + seed_delta);
        let packed_cex = sim::equiv::random_equiv_check(
            &a, &b, 4, sequences, &mut StdRng::seed_from_u64(check_seed),
        ).expect("packed check runs");
        let scalar_cex = sim::equiv::random_equiv_check_scalar(
            &a, &b, 4, sequences, &mut StdRng::seed_from_u64(check_seed),
        ).expect("scalar check runs");
        prop_assert_eq!(&packed_cex, &scalar_cex);
        if seed_delta == 0 {
            prop_assert!(packed_cex.is_none(), "a circuit differs from itself");
        }
    }
}

/// Deterministic sweep pinning the differential property on *every* Table I
/// profile (the proptest above samples profiles randomly).
#[test]
fn all_profiles_agree_packed_vs_scalar() {
    for (index, profile) in TABLE1_PROFILES.iter().enumerate() {
        let nl = profile_circuit(index, index % 2 == 1, 7);
        let width = nl.num_inputs();
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ index as u64);
        let key = stimulus::random_sequence(&mut rng, width, 2);
        let sequences: Vec<Sequence> = (0..64)
            .map(|_| stimulus::random_sequence(&mut rng, width, 5))
            .collect();
        assert_lanes_match_scalar(&nl, &key, &sequences)
            .unwrap_or_else(|e| panic!("profile {}: {e}", profile.name));
    }
}

/// `key_restores_function` (packed) and its scalar reference return the same
/// verdict and the same counterexample on locked-circuit-shaped comparisons.
#[test]
fn packed_key_validation_matches_the_scalar_reference() {
    for (index, profile) in TABLE1_PROFILES.iter().enumerate().take(4) {
        let original = profile_circuit(index, false, 3);
        let corrupted = profile_circuit(index, false, 4);
        let width = original.num_inputs();
        let mut key_rng = StdRng::seed_from_u64(21);
        let key = stimulus::random_sequence(&mut key_rng, width, 2);
        for (a, b) in [(&original, &original), (&original, &corrupted)] {
            let packed_cex = sim::equiv::key_restores_function(
                a,
                b,
                &key,
                6,
                80,
                &mut StdRng::seed_from_u64(33),
            )
            .expect("packed validation runs");
            let scalar_cex = sim::equiv::key_restores_function_scalar(
                a,
                b,
                &key,
                6,
                80,
                &mut StdRng::seed_from_u64(33),
            )
            .expect("scalar validation runs");
            assert_eq!(packed_cex, scalar_cex, "profile {}", profile.name);
        }
    }
}

/// Runs `sequences` (one per lane) through the packed simulator from reset
/// and checks, cycle by cycle and lane by lane, every primary output, the
/// word of *every* net through [`PackedSimulator::value`], and the register
/// state against a scalar run of each lane's sequence.
fn assert_every_net_matches_scalar(nl: &Netlist, sequences: &[Sequence]) {
    let mut packed_sim = PackedSimulator::new(nl).expect("packed simulator builds");
    let mut packed_outputs = Vec::new();
    let mut packed_nets = Vec::new();
    let mut packed_states = Vec::new();
    for cycle in &packed::pack_sequences(sequences) {
        packed_outputs.push(packed_sim.step(cycle).expect("packed step"));
        packed_nets.push(
            nl.net_ids()
                .map(|n| packed_sim.value(n))
                .collect::<Vec<_>>(),
        );
        packed_states.push(packed_sim.state().to_vec());
    }
    let mut scalar = Simulator::new(nl).expect("scalar simulator builds");
    for (lane, sequence) in sequences.iter().enumerate() {
        scalar.reset();
        for (t, inputs) in sequence.iter().enumerate() {
            let outputs = scalar.step(inputs).expect("scalar step");
            for (o, &bit) in outputs.iter().enumerate() {
                assert_eq!(
                    packed::lane(packed_outputs[t][o], lane),
                    bit,
                    "lane {lane} cycle {t} output {o}"
                );
            }
            for (net, &word) in nl.net_ids().zip(&packed_nets[t]) {
                assert_eq!(
                    packed::lane(word, lane),
                    scalar.value(net),
                    "lane {lane} cycle {t} net {}",
                    nl.net_label(net)
                );
            }
            for (r, &word) in packed_states[t].iter().enumerate() {
                assert_eq!(
                    packed::lane(word, lane),
                    scalar.state()[r],
                    "lane {lane} cycle {t} register {r}"
                );
            }
        }
    }
}

/// `lanes` random sequences of `cycles` cycles over `nl`'s inputs.
fn random_sequences(nl: &Netlist, lanes: usize, cycles: usize, seed: u64) -> Vec<Sequence> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..lanes)
        .map(|_| stimulus::random_sequence(&mut rng, nl.num_inputs(), cycles))
        .collect()
}

const WIDE_KINDS: [GateKind; 6] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

/// benchgen emits gates of at most three inputs; a 4–9-input gate of every
/// multi-input kind, swept exhaustively over its inputs, covers the chained
/// wide-gate code of the packed engine.
#[test]
fn wide_gates_match_the_scalar_simulator_exhaustively() {
    for width in 4..=9usize {
        let mut nl = Netlist::new("wide");
        let inputs: Vec<_> = (0..width).map(|i| nl.add_input(format!("i{i}"))).collect();
        for kind in WIDE_KINDS {
            let out = nl
                .add_gate(kind, &inputs, format!("{}{width}", kind.wire_prefix()))
                .expect("arity ok");
            nl.mark_output(out).expect("output");
        }
        let sequences: Vec<Sequence> = (0..1u64 << width)
            .map(|v| vec![stimulus::vector_from_value(v, width)])
            .collect();
        for batch in sequences.chunks(packed::LANES) {
            assert_every_net_matches_scalar(&nl, batch);
        }
    }
}

/// Shapes the compiler handles specially: a gate reading one net several
/// times, primary outputs that are a primary input or a register `Q`
/// directly, constants driving registers and gates, and a declared net that
/// nothing drives.
#[test]
fn special_shapes_match_the_scalar_simulator() {
    let mut nl = Netlist::new("shapes");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let q_one = nl.declare_dff("q_one", false).expect("unique");
    let q_zero = nl.declare_dff("q_zero", true).expect("unique");
    let q_loop = nl.declare_dff("q_loop", true).expect("unique");
    let c0 = nl.add_gate(GateKind::Const0, &[], "c0").expect("const");
    let c1 = nl.add_gate(GateKind::Const1, &[], "c1").expect("const");
    nl.bind_dff(q_one, c1).expect("bind");
    nl.bind_dff(q_zero, c0).expect("bind");
    let mut outputs = vec![a, q_one, q_zero];
    for (i, kind) in WIDE_KINDS.into_iter().enumerate() {
        let twice = nl
            .add_gate(kind, &[a, a], format!("twice{i}"))
            .expect("arity ok");
        let mixed = nl
            .add_gate(kind, &[b, a, q_loop, a, c1, b], format!("mixed{i}"))
            .expect("arity ok");
        outputs.extend([twice, mixed]);
    }
    let sel_twice = nl
        .add_gate(GateKind::Mux, &[a, a, b], "sel_twice")
        .expect("mux");
    let next = nl
        .add_gate(GateKind::Xnor, &[q_loop, sel_twice, q_one], "next")
        .expect("xnor");
    nl.bind_dff(q_loop, next).expect("bind");
    outputs.push(next);
    nl.declare_net("floating").expect("unique");
    for net in outputs {
        nl.mark_output(net).expect("output");
    }
    assert_every_net_matches_scalar(&nl, &random_sequences(&nl, 64, 6, 5));
}

/// Builds a random sequential netlist from recipe bytes: any gate kind with
/// its legal arity (2–9 inputs for the multi-input kinds), fan-ins drawn
/// with repetition from earlier nets, registers bound to any net (constants
/// included) and outputs on any net.
fn random_netlist(
    inputs: usize,
    inits: &[bool],
    recipes: &[(u8, u8, Vec<u8>)],
    bindings: &[u8],
) -> Netlist {
    let kinds = [
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::Mux,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    let mut nl = Netlist::new("random");
    let mut nets: Vec<_> = (0..inputs).map(|i| nl.add_input(format!("i{i}"))).collect();
    let qs: Vec<_> = inits
        .iter()
        .enumerate()
        .map(|(r, &init)| nl.declare_dff(format!("q{r}"), init).expect("unique"))
        .collect();
    nets.extend(&qs);
    for (g, (kind_pick, arity_pick, picks)) in recipes.iter().enumerate() {
        let kind = kinds[usize::from(*kind_pick) % kinds.len()];
        let arity = match kind {
            GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Mux => 3,
            _ => 2 + usize::from(*arity_pick) % 8,
        };
        let fanin: Vec<_> = (0..arity)
            .map(|k| nets[usize::from(picks[k % picks.len()]) % nets.len()])
            .collect();
        let out = nl
            .add_gate(kind, &fanin, format!("g{g}"))
            .expect("arity ok");
        nets.push(out);
    }
    for (r, &q) in qs.iter().enumerate() {
        let d = nets[usize::from(bindings[r % bindings.len()]) % nets.len()];
        nl.bind_dff(q, d).expect("first binding");
    }
    for &pick in bindings {
        let net = nets[usize::from(pick) % nets.len()];
        if !nl.outputs().contains(&net) {
            nl.mark_output(net).expect("output");
        }
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random netlists over every gate kind and arity: every net, output and
    /// register of every lane matches the scalar simulator in every cycle.
    #[test]
    fn random_netlists_match_the_scalar_simulator_on_every_net(
        inputs in 1usize..=4,
        inits in proptest::collection::vec(any::<bool>(), 0..=4),
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), proptest::collection::vec(any::<u8>(), 1..=9)),
            1..24,
        ),
        bindings in proptest::collection::vec(any::<u8>(), 1..=6),
        lanes in 1usize..=64,
        stimulus_seed in any::<u64>(),
    ) {
        let nl = random_netlist(inputs, &inits, &recipes, &bindings);
        assert_every_net_matches_scalar(&nl, &random_sequences(&nl, lanes, 5, stimulus_seed));
    }
}
