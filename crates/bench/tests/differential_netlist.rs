//! Differential tests for the struct-of-arrays netlist core.
//!
//! The arena refactor replaced per-gate heap objects, name-keyed maps and
//! per-call `Vec<Vec<u32>>` adjacency with interned names, CSR fanin/fanout
//! and an epoch-stamped cone scratch. These tests pin its observable
//! semantics against naive reference implementations (written the way the
//! pre-refactor code computed them) and against the downstream engines, on
//! every benchgen profile — the ten Table I circuits plus the new "large"
//! profile at reduced size:
//!
//! * `topo::gate_order` / `topo::levelize` vs. a reference Kahn ordering
//!   over a freshly-built `Vec<Vec<u32>>` fanout map (bit-identical order);
//! * `cone::fanin_cone` (shared epoch scratch) vs. a set-based DFS;
//! * `stg::RegisterGraph::build` (64-lane word propagation) vs. one cone
//!   walk per flip-flop, edge for edge, on plain, encrypted and fully locked
//!   designs, designs straddling the 64/128-register chunk boundaries, and
//!   randomly mutated (including combinationally cyclic) netlists;
//! * `unroll` determinism and stability across a `.bench` round-trip;
//! * packed simulation vs. the scalar engine, lane by lane;
//! * fixtures pinned via `sim::equiv` across all three circuit formats;
//! * SAT-attack key recovery (deterministic, and the key restores function).

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use attacks::{AttackStatus, SatAttack, SatAttackConfig};
use benchgen::{CircuitProfile, TABLE1_PROFILES};
use netlist::{cone, topo, unroll, Driver, GateId, GateKind, NetId, Netlist, RegClass};
use sim::{PackedSimulator, Simulator};
use stg::RegisterGraph;
use trilock::{encrypt, TriLockConfig};

/// Every benchgen profile at test scale: the ten Table I circuits scaled
/// down, plus the new large profile at reduced size.
fn test_profiles() -> Vec<CircuitProfile> {
    let mut profiles: Vec<CircuitProfile> =
        TABLE1_PROFILES.iter().map(|p| p.scaled_down(128)).collect();
    profiles.push(CircuitProfile::large(1200));
    profiles
}

/// Fanout adjacency built the pre-refactor way: one `Vec` per net, reading
/// gates pushed in ascending gate order, one entry per fanin occurrence.
fn naive_fanout(nl: &Netlist) -> Vec<Vec<u32>> {
    let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); nl.num_nets()];
    for gid in nl.gate_ids() {
        for &input in nl.gate_fanins(gid) {
            fanout[input.index()].push(gid.index() as u32);
        }
    }
    fanout
}

/// Reference Kahn ordering over [`naive_fanout`], mirroring the pre-refactor
/// `topo::gate_order` step for step so the comparison is bit-identical.
fn naive_gate_order(nl: &Netlist) -> Vec<GateId> {
    let num_gates = nl.num_gates();
    let mut indegree = vec![0u32; num_gates];
    for gid in nl.gate_ids() {
        for &input in nl.gate_fanins(gid) {
            if matches!(nl.driver(input), Driver::Gate(_)) {
                indegree[gid.index()] += 1;
            }
        }
    }
    let fanout = naive_fanout(nl);
    let mut queue: Vec<u32> = (0..num_gates as u32)
        .filter(|&g| indegree[g as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(num_gates);
    let mut head = 0;
    while head < queue.len() {
        let g = queue[head];
        head += 1;
        order.push(GateId::from_index(g as usize));
        for &succ in &fanout[nl.gate_output(GateId::from_index(g as usize)).index()] {
            indegree[succ as usize] -= 1;
            if indegree[succ as usize] == 0 {
                queue.push(succ);
            }
        }
    }
    assert_eq!(order.len(), num_gates, "reference order found a cycle");
    order
}

/// Set-based reference for [`cone::fanin_cone`].
fn naive_fanin_cone(nl: &Netlist, net: NetId) -> cone::FaninCone {
    let mut result = cone::FaninCone::default();
    let mut seen: HashSet<NetId> = HashSet::new();
    let mut seen_dffs = HashSet::new();
    let mut stack = vec![net];
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        result.nets.push(n);
        match nl.driver(n) {
            Driver::Input => result.inputs.push(n),
            Driver::Dff(id) => {
                if seen_dffs.insert(id) {
                    result.registers.push(id);
                }
            }
            Driver::Gate(gid) => stack.extend_from_slice(nl.gate_fanins(gid)),
            Driver::None => {}
        }
    }
    result.inputs.sort_unstable();
    result.registers.sort_unstable();
    result.nets.sort_unstable();
    result
}

/// Register connection graph built the pre-propagation way: one fan-in cone
/// walk per flip-flop, edges collected through ordered sets. Returns
/// `(successors, predecessors, classes)`.
fn naive_register_graph(nl: &Netlist) -> (Vec<Vec<usize>>, Vec<Vec<usize>>, Vec<RegClass>) {
    let n = nl.num_dffs();
    let mut successors: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut scratch = cone::ConeScratch::new();
    for (target, dff) in nl.dffs().iter().enumerate() {
        let Some(d) = dff.d else { continue };
        for src in cone::fanin_cone_with(nl, d, &mut scratch).registers {
            successors[src.index()].insert(target);
        }
    }
    let successors: Vec<Vec<usize>> = successors
        .into_iter()
        .map(|set| set.into_iter().collect())
        .collect();
    let mut predecessors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (src, succs) in successors.iter().enumerate() {
        for &dst in succs {
            predecessors[dst].push(src);
        }
    }
    let classes = nl.dffs().iter().map(|d| d.class).collect();
    (successors, predecessors, classes)
}

/// Asserts that `RegisterGraph::build` matches [`naive_register_graph`]
/// edge for edge.
fn check_register_graph(nl: &Netlist, what: &str) {
    let graph = RegisterGraph::build(nl);
    let (successors, predecessors, classes) = naive_register_graph(nl);
    assert_eq!(graph.num_nodes(), nl.num_dffs(), "{what}: node count");
    for node in 0..nl.num_dffs() {
        assert_eq!(
            graph.successors(node),
            successors[node].as_slice(),
            "{what}: successors of register {node}"
        );
        assert_eq!(
            graph.predecessors(node),
            predecessors[node].as_slice(),
            "{what}: predecessors of register {node}"
        );
        assert_eq!(graph.class(node), classes[node], "{what}: class of {node}");
    }
}

/// Checks the register graph of `original`, of its encryption and of the
/// full lock flow (encryption plus S = 10 re-encoded pairs).
fn check_register_graph_through_lock(original: &Netlist, what: &str, seed: u64) {
    check_register_graph(original, &format!("{what} plain"));
    let config = TriLockConfig::new(2, 1).with_alpha(0.6);
    let encrypted = encrypt(original, &config, &mut StdRng::seed_from_u64(seed)).expect("encrypts");
    check_register_graph(&encrypted.netlist, &format!("{what} encrypted"));
    let locked = trilock::lock(original, &config, &mut StdRng::seed_from_u64(seed)).expect("locks");
    check_register_graph(&locked.locked.netlist, &format!("{what} locked"));
}

#[test]
fn register_graph_matches_cone_walks_on_all_profiles() {
    for profile in TABLE1_PROFILES.iter().map(|p| p.scaled_down(64)) {
        let nl = benchgen::generate(&profile, 0x5CC).expect("generates");
        check_register_graph_through_lock(&nl, profile.name, 3);
    }
}

#[test]
fn register_graph_matches_cone_walks_on_a_20k_gate_design() {
    let nl = benchgen::generate(&CircuitProfile::large(20_000), 7).expect("generates");
    check_register_graph(&nl, "large(20000)");
}

/// Register counts on both sides of every 64-lane chunk boundary up to three
/// chunks.
#[test]
fn register_graph_matches_cone_walks_across_chunk_boundaries() {
    for dffs in [63, 64, 65, 127, 128, 129, 192, 193] {
        let profile = CircuitProfile {
            name: "chunks",
            inputs: 8,
            outputs: 8,
            dffs,
            gates: 6 * dffs,
        };
        let nl = benchgen::generate(&profile, dffs as u64).expect("generates");
        assert_eq!(nl.num_dffs(), dffs);
        check_register_graph_through_lock(&nl, &format!("{dffs} registers"), 5);
    }
}

/// Asserts every analysis invariant of one netlist. Returns the parsed
/// round-trip so callers can reuse it.
fn check_analyses(nl: &Netlist) {
    // Topological order and levels are bit-identical to the reference.
    let order = topo::gate_order(nl).expect("acyclic");
    assert_eq!(order, naive_gate_order(nl), "gate_order diverges");
    let levels = topo::levelize(nl).expect("acyclic");
    let mut ref_levels = vec![0u32; nl.num_nets()];
    for &gid in &order {
        let max_in = nl
            .gate_fanins(gid)
            .iter()
            .map(|&n| ref_levels[n.index()])
            .max()
            .unwrap_or(0);
        ref_levels[nl.gate_output(gid).index()] = max_in + 1;
    }
    assert_eq!(levels, ref_levels, "levelize diverges");

    // The cached CSR fanout lists exactly the naive per-net adjacency.
    let csr = nl.fanout_csr();
    for (net, expected) in naive_fanout(nl).iter().enumerate() {
        assert_eq!(
            csr.gates_reading(NetId::from_index(net)),
            expected.as_slice(),
            "fanout of net {net} diverges"
        );
    }

    // Cones under a shared epoch scratch match the set-based reference.
    let mut scratch = cone::ConeScratch::new();
    for net in nl.net_ids() {
        assert_eq!(
            cone::fanin_cone_with(nl, net, &mut scratch),
            naive_fanin_cone(nl, net),
            "fanin cone of {} diverges",
            nl.net_label(net)
        );
    }
}

/// Asserts the unroll, simulation and format-round-trip invariants.
fn check_engines(nl: &Netlist, seed: u64) {
    // Unrolling is deterministic and stable across a `.bench` round-trip.
    let reparsed = netlist::bench::parse(&netlist::bench::write(nl)).expect("round-trip parses");
    assert_eq!(
        topo::gate_order(nl).unwrap(),
        topo::gate_order(&reparsed).unwrap()
    );
    let a = unroll::unroll(nl, 3).expect("unrolls");
    let b = unroll::unroll(nl, 3).expect("unrolls");
    let c = unroll::unroll(&reparsed, 3).expect("unrolls");
    assert_eq!(a.netlist, b.netlist, "unroll is not deterministic");
    assert_eq!(a.netlist, c.netlist, "unroll unstable across round-trip");
    assert_eq!(a.inputs, c.inputs);
    assert_eq!(a.outputs, c.outputs);

    // Packed simulation is bit-identical to the scalar engine, per lane.
    let mut rng = StdRng::seed_from_u64(seed);
    let cycles = 24;
    let packed_stim: Vec<Vec<u64>> = (0..cycles)
        .map(|_| (0..nl.num_inputs()).map(|_| rng.gen()).collect())
        .collect();
    let mut packed = PackedSimulator::new(nl).expect("packed builds");
    let packed_out = packed.run_from_reset(&packed_stim).expect("packed runs");
    for lane in [0usize, 17, 63] {
        let scalar_stim: Vec<Vec<bool>> = packed_stim
            .iter()
            .map(|w| w.iter().map(|&x| (x >> lane) & 1 == 1).collect())
            .collect();
        let mut scalar = Simulator::new(nl).expect("scalar builds");
        let scalar_out = scalar.run_from_reset(&scalar_stim).expect("scalar runs");
        for (t, outs) in scalar_out.iter().enumerate() {
            let packed_lane: Vec<bool> = packed_out[t]
                .iter()
                .map(|&w| (w >> lane) & 1 == 1)
                .collect();
            assert_eq!(&packed_lane, outs, "lane {lane} diverges at cycle {t}");
        }
    }

    // Fixtures pinned across all three formats via sim::equiv.
    let via_edif = trilock_io::edif::parse(&trilock_io::edif::write(nl)).expect("edif round-trips");
    let via_verilog =
        trilock_io::verilog::parse(&trilock_io::verilog::write(nl)).expect("verilog round-trips");
    for (format, copy) in [
        ("bench", &reparsed),
        ("edif", &via_edif),
        ("verilog", &via_verilog),
    ] {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let cex =
            sim::equiv::random_equiv_check(nl, copy, 16, 64, &mut rng).expect("equiv check runs");
        assert!(cex.is_none(), "{format} round-trip changed behaviour");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Analysis and engine invariants hold on every benchgen profile.
    #[test]
    fn all_profiles_agree_with_reference_semantics(seed in 0u64..1u64 << 48) {
        for profile in test_profiles() {
            let nl = benchgen::generate(&profile, seed).expect("generates");
            check_analyses(&nl);
            check_engines(&nl, seed);
        }
    }

    /// The SAT attack still recovers working keys, deterministically.
    #[test]
    fn sat_attack_keys_are_deterministic_and_correct(seed in 0u64..1u64 << 16) {
        let original = benchgen::small::toy_controller(2).expect("toy circuit");
        let mut rng = StdRng::seed_from_u64(seed);
        let locked = encrypt(&original, &TriLockConfig::new(1, 1).with_alpha(0.6), &mut rng)
            .expect("locks");
        let config = SatAttackConfig {
            initial_unroll: 1,
            max_unroll: 4,
            max_dips: 10_000,
            verify_sequences: 16,
            verify_cycles: 10,
            ..SatAttackConfig::default()
        };
        let run = |attack_seed: u64| {
            let attack = SatAttack::new(&original, &locked.netlist, locked.kappa())
                .expect("interfaces match");
            let mut rng = StdRng::seed_from_u64(attack_seed);
            attack.run(&config, &mut rng).expect("attack runs")
        };
        let first = run(9);
        let second = run(9);
        prop_assert_eq!(&first.status, &second.status, "attack is not deterministic");
        let AttackStatus::KeyFound(key) = &first.status else {
            panic!("attack failed: {:?}", first.status);
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let cex = sim::equiv::key_restores_function(
            &original,
            &locked.netlist,
            key.cycles(),
            12,
            64,
            &mut rng,
        )
        .expect("validation runs");
        prop_assert!(cex.is_none(), "recovered key does not restore function");
    }
}

/// One random structural mutation, interpreted against the current netlist
/// state. Covers every public mutator class: net/input creation, gate
/// appends (which grow the flat fanin table), `replace_net_uses` (which
/// rewrites it in place), plus the mutators that deliberately do *not*
/// invalidate the fanout CSR (`mark_output`, `rebind_dff`).
fn apply_mutation(nl: &mut Netlist, op: (u8, u16, u16)) {
    let pick = |nl: &Netlist, x: u16| NetId::from_index(x as usize % nl.num_nets());
    match op.0 % 8 {
        0 => {
            nl.add_input_unnamed();
        }
        1 | 2 => {
            let a = pick(nl, op.1);
            let b = pick(nl, op.2);
            let kind = if op.0 % 8 == 1 {
                GateKind::And
            } else {
                GateKind::Xor
            };
            nl.add_gate_unnamed(kind, &[a, b]).expect("binary gate");
        }
        3 => {
            let a = pick(nl, op.1);
            nl.add_gate_unnamed(GateKind::Not, &[a]).expect("inverter");
        }
        4 | 5 => {
            let old = pick(nl, op.1);
            let new = pick(nl, op.2);
            nl.replace_net_uses(old, new).expect("valid ids");
        }
        6 => {
            // May fail on a duplicate output; the call must still leave the
            // netlist (and its caches) coherent.
            let _ = nl.mark_output(pick(nl, op.1));
        }
        _ => {
            if nl.num_dffs() > 0 {
                let q = nl.dffs()[op.1 as usize % nl.num_dffs()].q;
                let d = pick(nl, op.2);
                nl.rebind_dff(q, d).expect("q is a flip-flop output");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The register graph of randomly mutated netlists matches the cone
    /// walks. A final `replace_net_uses` makes some gate read its own output,
    /// so every case is also checked with a combinational cycle.
    #[test]
    fn register_graph_survives_random_mutation(
        ops in proptest::collection::vec(
            (0u8..=255u8, 0u16..=999u16, 0u16..=999u16),
            1..40,
        ),
        loop_at in 0u16..=999u16,
    ) {
        let mut nl = benchgen::small::toy_controller(2).expect("toy circuit");
        for op in ops {
            apply_mutation(&mut nl, op);
        }
        check_register_graph(&nl, "mutated");
        let gate = (0..nl.num_gates())
            .map(|i| GateId::from_index((loop_at as usize + i) % nl.num_gates()))
            .find(|&g| !nl.gate_fanins(g).is_empty())
            .expect("the toy circuit has gates with inputs");
        let fanin = nl.gate_fanins(gate)[0];
        nl.replace_net_uses(fanin, nl.gate_output(gate)).expect("valid ids");
        prop_assert!(topo::gate_order(&nl).is_err(), "loop closing made no cycle");
        check_register_graph(&nl, "mutated with a cycle");
    }

    /// Interleaved mutation/read sessions keep the cached fanout CSR exactly
    /// in sync with a naive rebuild. Reading the CSR *between* mutations is
    /// the point: each read re-primes the `OnceLock` cache, so a mutator
    /// missing its `touch()` call would serve the stale adjacency on the
    /// next read.
    #[test]
    fn fanout_csr_survives_interleaved_mutation(
        ops in proptest::collection::vec(
            (0u8..=255u8, 0u16..=999u16, 0u16..=999u16),
            1..40,
        ),
    ) {
        let mut nl = benchgen::small::toy_controller(2).expect("toy circuit");
        // Prime the cache so the very first mutation hits the invalidation
        // path rather than an empty cell.
        let _ = nl.fanout_csr();
        for op in ops {
            apply_mutation(&mut nl, op);
            let naive = naive_fanout(&nl);
            let csr = nl.fanout_csr();
            for (net, expected) in naive.iter().enumerate() {
                prop_assert_eq!(
                    csr.gates_reading(NetId::from_index(net)),
                    expected.as_slice(),
                    "fanout of net {} diverges after {:?}", net, op
                );
            }
        }
    }
}

/// The incremental SAT attack (one persistent solver across the whole DIP
/// loop) recovers a key bit-for-bit identical to the rebuild-per-depth mode
/// on every Table I benchgen profile. The initial unroll is chosen deep
/// enough that the attack converges without a depth bump, where the two
/// modes execute the same sequence of solver calls — any divergence
/// (extra/missing clauses, restart-state leakage between DIP queries,
/// assumption-core corruption) shows up as a different key or DIP count.
#[test]
fn incremental_attack_matches_rebuild_mode_on_all_profiles() {
    for profile in TABLE1_PROFILES.iter().map(|p| p.scaled_down(256)) {
        let original = benchgen::generate(&profile, 0xD1FF).expect("generates");
        let mut rng = StdRng::seed_from_u64(7);
        let locked = encrypt(
            &original,
            &trilock::TriLockConfig::new(2, 1).with_alpha(0.6),
            &mut rng,
        )
        .expect("locks");
        let base = SatAttackConfig {
            initial_unroll: 3,
            max_unroll: 6,
            max_dips: 100_000,
            verify_sequences: 16,
            verify_cycles: 10,
            ..SatAttackConfig::default()
        };
        let run = |config: &SatAttackConfig| {
            let attack = SatAttack::new(&original, &locked.netlist, locked.kappa())
                .expect("interfaces match");
            let mut rng = StdRng::seed_from_u64(11);
            attack.run(config, &mut rng).expect("attack runs")
        };
        let plain = run(&base);
        let incremental = run(&SatAttackConfig {
            incremental: true,
            ..base.clone()
        });
        assert!(
            matches!(plain.status, AttackStatus::KeyFound(_)),
            "{}: rebuild mode failed: {:?}",
            profile.name,
            plain.status
        );
        assert_eq!(
            plain.status, incremental.status,
            "{}: incremental key diverges from rebuild mode",
            profile.name
        );
        assert_eq!(
            (plain.dips, plain.unroll_depth),
            (incremental.dips, incremental.unroll_depth),
            "{}: incremental trajectory diverges",
            profile.name
        );
    }
}
