//! 64-lane bit-parallel ("packed") simulation.
//!
//! Every net carries one `u64` word whose bit *i* is the value of that net in
//! *lane* *i* — 64 independent executions of the circuit advance with every
//! [`PackedSimulator::step`]. Gates evaluate with plain bitwise word
//! operations (an `AND` gate is one `&` per extra input, regardless of how
//! many lanes are active), which turns the Monte-Carlo workloads of this
//! repository — FC estimation, randomized equivalence checking, candidate-key
//! validation — into word-parallel sweeps: ⌈800/64⌉ = 13 packed runs replace
//! the paper's 800 scalar simulations per configuration.
//!
//! # Lane semantics
//!
//! * Lane *i* of every input word, output word and register word belongs to
//!   the same execution; lanes never interact.
//! * [`PackedSimulator::reset`] loads every register with its declared reset
//!   value *broadcast across all lanes* (`init == true` ⇒ `u64::MAX`), so all
//!   64 executions start from the architectural reset state.
//! * When fewer than 64 executions are needed, the unused high lanes compute
//!   garbage (whatever stimulus bits were packed there);
//!   consumers mask results with [`lane_mask`] before counting or comparing.
//!
//! # Compiled tape
//!
//! [`PackedSimulator::new`] compiles the netlist once into a straight-line
//! program, in the spirit of compiled levelized simulation (Barzilai et al.,
//! "HSS — A High-Speed Simulator", IEEE TCAD 1987):
//!
//! * Nets are renumbered into dense *slots*: primary inputs first, then
//!   flip-flop `Q`s, then one slot per instruction in topological order, so
//!   instruction *i* writes slot `first + i` and stores no output operand.
//! * Each instruction is a `u8` opcode — a family (and, or, xor, mux) plus an
//!   invert bit — and three `u32` operand slots, held in struct-of-arrays
//!   form. Buf and Not are an `and` of one operand with itself; the constants
//!   are an `xor` of a slot with itself.
//! * And, or and xor gates with three or more inputs chain through temporary
//!   slots; only the last link carries the invert bit of Nand, Nor or Xnor.
//! * Every step runs the whole tape with no branch that depends on the
//!   opcode: each instruction computes all four family results and selects
//!   one by the opcode's low bits, then XORs the invert mask. On the `lock`
//!   benchmark's 21 800-gate locked design this costs about 2.3 ns per
//!   gate-word on a 2-vCPU x86-64 host, against about 15 ns for the
//!   interpreter it replaced, which looked up every gate's fan-in and
//!   matched on its kind each step. The same tape dispatched by a `match`
//!   per instruction costs about 13 ns: the dispatch branch mispredicts.
//!
//! The scalar [`crate::Simulator`] remains the reference model: the packed
//! engine is differential-tested against it lane by lane and net by net (see
//! `tests/packed_vs_scalar.rs`), and single-trace consumers (the SAT attack's
//! DIP oracle queries, counterexample replay) still use the scalar engine.

use netlist::{GateId, GateKind, NetId, Netlist};

use crate::simulator::SimError;
use crate::stimulus::Sequence;

/// Number of independent simulation lanes packed into one machine word.
pub const LANES: usize = 64;

/// Broadcasts a Boolean across all 64 lanes.
pub fn broadcast(value: bool) -> u64 {
    if value {
        u64::MAX
    } else {
        0
    }
}

/// Word with the low `lanes` bits set — the mask of the active lanes when
/// fewer than [`LANES`] executions are packed into a word.
///
/// # Panics
///
/// Panics if `lanes > 64`.
pub fn lane_mask(lanes: usize) -> u64 {
    assert!(
        lanes <= LANES,
        "at most {LANES} lanes per word, got {lanes}"
    );
    if lanes == LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Value of lane `lane` in `word`.
///
/// # Panics
///
/// Panics if `lane >= 64`.
pub fn lane(word: u64, lane: usize) -> bool {
    assert!(lane < LANES, "lane {lane} out of range");
    (word >> lane) & 1 == 1
}

/// Packs up to 64 scalar stimulus sequences into a packed sequence: the
/// result has one `Vec<u64>` per cycle with one word per primary input, and
/// lane *i* of every word carries `sequences[i]`.
///
/// # Panics
///
/// Panics if more than [`LANES`] sequences are given or if the sequences do
/// not all share the same cycle count and input width.
pub fn pack_sequences(sequences: &[Sequence]) -> Vec<Vec<u64>> {
    assert!(
        sequences.len() <= LANES,
        "at most {LANES} sequences per packed run, got {}",
        sequences.len()
    );
    let Some(first) = sequences.first() else {
        return Vec::new();
    };
    let cycles = first.len();
    let width = first.first().map_or(0, Vec::len);
    let mut packed = vec![vec![0u64; width]; cycles];
    for (l, sequence) in sequences.iter().enumerate() {
        assert_eq!(
            sequence.len(),
            cycles,
            "sequence {l} has a different length"
        );
        for (t, vector) in sequence.iter().enumerate() {
            assert_eq!(
                vector.len(),
                width,
                "cycle {t} of sequence {l} has a different width"
            );
            for (j, &bit) in vector.iter().enumerate() {
                packed[t][j] |= (bit as u64) << l;
            }
        }
    }
    packed
}

/// Packs one scalar sequence broadcast identically into all 64 lanes — the
/// shape of a key-loading phase, where every execution applies the same key.
pub fn broadcast_sequence(sequence: &[Vec<bool>]) -> Vec<Vec<u64>> {
    sequence
        .iter()
        .map(|cycle| cycle.iter().map(|&bit| broadcast(bit)).collect())
        .collect()
}

/// Extracts lane `lane` of a packed per-cycle word matrix (e.g. the outputs
/// of a packed run) back into scalar vectors.
pub fn unpack_lane(words: &[Vec<u64>], lane_index: usize) -> Sequence {
    words
        .iter()
        .map(|cycle| cycle.iter().map(|&w| lane(w, lane_index)).collect())
        .collect()
}

/// Two-valued cycle-accurate simulator evaluating 64 independent executions
/// per step, one per bit of a `u64` word.
///
/// The interface mirrors [`crate::Simulator`] with `bool` replaced by `u64`:
/// construct one per design, call [`PackedSimulator::step`] once per clock
/// cycle with one word per primary input, and read back one word per primary
/// output. See the [module documentation](self) for the lane semantics and
/// the compiled tape behind it.
#[derive(Debug, Clone)]
pub struct PackedSimulator<'a> {
    netlist: &'a Netlist,
    tape: Tape,
    /// Slot of every net, or [`NO_SLOT`] for a net nothing drives.
    net_slots: Vec<u32>,
    /// Slot of every primary output, in [`Netlist::outputs`] order.
    output_slots: Vec<u32>,
    /// Slot of every flip-flop's `D` net, in [`Netlist::dffs`] order.
    next_state_slots: Vec<u32>,
    /// Word of every slot after the latest combinational evaluation.
    values: Vec<u64>,
    /// Present-state word of every flip-flop.
    state: Vec<u64>,
    cycle: u64,
}

/// Slot marker of a net that no input, flip-flop or gate drives.
const NO_SLOT: u32 = u32::MAX;

/// Operation families, in the low two bits of an opcode.
const AND: u8 = 0;
const OR: u8 = 1;
const XOR: u8 = 2;
/// `a ? c : b`.
const MUX: u8 = 3;
/// Opcode bit that complements the family's result.
const INVERT: u8 = 4;

/// Straight-line program of one netlist: instruction `i` reads slots `a`,
/// `b` (and `c` for a mux) and writes slot `first + i`.
#[derive(Debug, Clone, Default)]
struct Tape {
    /// Slot of the first instruction: every primary input and flip-flop `Q`
    /// has a slot below it.
    first: usize,
    op: Vec<u8>,
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
}

impl Tape {
    /// Appends one instruction and returns the slot it writes.
    fn push(&mut self, op: u8, a: u32, b: u32, c: u32) -> u32 {
        let slot = self.next_slot();
        self.op.push(op);
        self.a.push(a);
        self.b.push(b);
        self.c.push(c);
        slot
    }

    /// Number of slots a value array needs.
    fn num_slots(&self) -> usize {
        self.first + self.op.len()
    }

    /// Slot the next pushed instruction will write.
    fn next_slot(&self) -> u32 {
        u32::try_from(self.num_slots()).expect("simulation tape exceeds 2^32 slots")
    }

    /// Compiles the gates of `netlist`, in the topological `order`, onto the
    /// tape, recording the slot of every gate output in `net_slots`.
    fn compile(netlist: &Netlist, order: &[GateId], net_slots: &mut [u32]) -> Tape {
        let mut tape = Tape {
            first: netlist.num_inputs() + netlist.num_dffs(),
            ..Tape::default()
        };
        let mut operands = Vec::new();
        for &gid in order {
            let gate = netlist.gate(gid);
            operands.clear();
            operands.extend(gate.inputs().iter().map(|n| net_slots[n.index()]));
            let (family, invert) = match gate.kind() {
                GateKind::Const0 | GateKind::Const1 => {
                    // x ^ x is 0 whatever x holds, so the instruction may
                    // read its own slot.
                    let own = tape.next_slot();
                    operands.extend([own, own]);
                    (XOR, gate.kind() == GateKind::Const1)
                }
                GateKind::Buf | GateKind::Not => {
                    operands.push(operands[0]);
                    (AND, gate.kind() == GateKind::Not)
                }
                GateKind::And => (AND, false),
                GateKind::Nand => (AND, true),
                GateKind::Or => (OR, false),
                GateKind::Nor => (OR, true),
                GateKind::Xor => (XOR, false),
                GateKind::Xnor => (XOR, true),
                GateKind::Mux => (MUX, false),
            };
            let out = if family == MUX {
                tape.push(MUX, operands[0], operands[1], operands[2])
            } else {
                // Wider gates chain through temporary slots; only the last
                // link inverts.
                let (&last, middle) = operands[1..].split_last().expect("arity >= 2");
                let mut acc = operands[0];
                for &operand in middle {
                    acc = tape.push(family, acc, operand, acc);
                }
                tape.push(family | (u8::from(invert) * INVERT), acc, last, acc)
            };
            net_slots[gate.output().index()] = out;
        }
        tape
    }

    /// Runs every instruction over `values`, whose input and flip-flop slots
    /// are already loaded.
    fn execute(&self, values: &mut [u64]) {
        let operands = self.a.iter().zip(&self.b).zip(&self.c);
        for (i, (&op, ((&a, &b), &c))) in self.op.iter().zip(operands).enumerate() {
            let x = values[a as usize];
            let y = values[b as usize];
            let z = values[c as usize];
            // Compute every family and select by index, so the loop has no
            // branch that depends on the opcode.
            let families = [x & y, x | y, x ^ y, y ^ (x & (y ^ z))];
            let invert = 0u64.wrapping_sub(u64::from(op >> 2));
            values[self.first + i] = families[usize::from(op & 3)] ^ invert;
        }
    }
}

impl<'a> PackedSimulator<'a> {
    /// Creates a packed simulator for `netlist` in the reset state,
    /// compiling the netlist onto its simulation tape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNetlist`] if the netlist does not validate
    /// (unbound flip-flops, undriven nets, combinational cycles).
    pub fn new(netlist: &'a Netlist) -> Result<Self, SimError> {
        netlist.validate()?;
        let order = netlist::topo::gate_order(netlist)?;
        let mut net_slots = vec![NO_SLOT; netlist.num_nets()];
        let sources = netlist
            .inputs()
            .iter()
            .chain(netlist.dffs().iter().map(|d| &d.q));
        for (slot, net) in (0u32..).zip(sources) {
            net_slots[net.index()] = slot;
        }
        let tape = Tape::compile(netlist, &order, &mut net_slots);
        let output_slots = netlist
            .outputs()
            .iter()
            .map(|o| net_slots[o.index()])
            .collect();
        let next_state_slots = netlist
            .dffs()
            .iter()
            .map(|d| net_slots[d.d.expect("validated netlist has bound flip-flops").index()])
            .collect();
        let state = netlist.dffs().iter().map(|d| broadcast(d.init)).collect();
        Ok(PackedSimulator {
            netlist,
            values: vec![0; tape.num_slots()],
            tape,
            net_slots,
            output_slots,
            next_state_slots,
            state,
            cycle: 0,
        })
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Number of clock cycles applied since the last reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Restores every register to its reset value in all lanes.
    pub fn reset(&mut self) {
        for (slot, dff) in self.state.iter_mut().zip(self.netlist.dffs()) {
            *slot = broadcast(dff.init);
        }
        self.cycle = 0;
    }

    /// Present-state words of all flip-flops, in [`Netlist::dffs`] order.
    pub fn state(&self) -> &[u64] {
        &self.state
    }

    /// Overrides the present state of every lane at once.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the number of flip-flops.
    pub fn load_state(&mut self, state: &[u64]) {
        assert_eq!(
            state.len(),
            self.state.len(),
            "state width mismatch when loading packed simulator state"
        );
        self.state.copy_from_slice(state);
    }

    /// Word of an arbitrary net after the most recent
    /// [`PackedSimulator::step`] or [`PackedSimulator::peek_outputs`] call.
    /// A net that nothing drives reads 0.
    ///
    /// # Panics
    ///
    /// Panics if the net does not belong to the simulated netlist.
    pub fn value(&self, net: NetId) -> u64 {
        match self.net_slots[net.index()] {
            NO_SLOT => 0,
            slot => self.values[slot as usize],
        }
    }

    fn evaluate(&mut self, inputs: &[u64]) -> Result<(), SimError> {
        let width = self.netlist.num_inputs();
        if inputs.len() != width {
            return Err(SimError::InputWidthMismatch {
                expected: width,
                got: inputs.len(),
            });
        }
        self.values[..width].copy_from_slice(inputs);
        self.values[width..self.tape.first].copy_from_slice(&self.state);
        self.tape.execute(&mut self.values);
        Ok(())
    }

    fn output_words(&self) -> Vec<u64> {
        self.output_slots
            .iter()
            .map(|&s| self.values[s as usize])
            .collect()
    }

    /// Evaluates the combinational logic for the given input words *without*
    /// advancing the registers, and returns the primary output words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputWidthMismatch`] if `inputs` has the wrong
    /// width.
    pub fn peek_outputs(&mut self, inputs: &[u64]) -> Result<Vec<u64>, SimError> {
        self.evaluate(inputs)?;
        Ok(self.output_words())
    }

    /// Applies one clock cycle to all lanes: evaluates the combinational
    /// logic on `inputs`, captures the primary outputs, then clocks every
    /// register.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputWidthMismatch`] if `inputs` has the wrong
    /// width.
    pub fn step(&mut self, inputs: &[u64]) -> Result<Vec<u64>, SimError> {
        self.evaluate(inputs)?;
        let outputs = self.output_words();
        for (word, &d) in self.state.iter_mut().zip(&self.next_state_slots) {
            *word = self.values[d as usize];
        }
        self.cycle += 1;
        Ok(outputs)
    }

    /// Runs a whole packed input sequence from the *current* state and
    /// returns the output words of every cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputWidthMismatch`] if any cycle has the wrong
    /// width.
    pub fn run(&mut self, sequence: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, SimError> {
        let mut outputs = Vec::with_capacity(sequence.len());
        for cycle_inputs in sequence {
            outputs.push(self.step(cycle_inputs)?);
        }
        Ok(outputs)
    }

    /// Convenience: reset, then run the packed sequence from the reset state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputWidthMismatch`] if any cycle has the wrong
    /// width.
    pub fn run_from_reset(&mut self, sequence: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, SimError> {
        self.reset();
        self.run(sequence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    fn counter2() -> Netlist {
        let mut nl = Netlist::new("cnt2");
        let en = nl.add_input("en");
        let q0 = nl.declare_dff("q0", false).unwrap();
        let q1 = nl.declare_dff("q1", true).unwrap();
        let n0 = nl.add_gate(GateKind::Xor, &[q0, en], "n0").unwrap();
        let c = nl.add_gate(GateKind::And, &[q0, en], "c").unwrap();
        let n1 = nl.add_gate(GateKind::Xor, &[q1, c], "n1").unwrap();
        nl.bind_dff(q0, n0).unwrap();
        nl.bind_dff(q1, n1).unwrap();
        nl.mark_output(q0).unwrap();
        nl.mark_output(q1).unwrap();
        nl
    }

    /// Exercises every gate kind through one netlist.
    fn all_kinds() -> Netlist {
        let mut nl = Netlist::new("kinds");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_input("s");
        let c0 = nl.add_gate(GateKind::Const0, &[], "c0").unwrap();
        let c1 = nl.add_gate(GateKind::Const1, &[], "c1").unwrap();
        let buf = nl.add_gate(GateKind::Buf, &[a], "buf").unwrap();
        let not = nl.add_gate(GateKind::Not, &[a], "not").unwrap();
        let and = nl.add_gate(GateKind::And, &[a, b, c1], "and").unwrap();
        let nand = nl.add_gate(GateKind::Nand, &[a, b], "nand").unwrap();
        let or = nl.add_gate(GateKind::Or, &[a, b, c0], "or").unwrap();
        let nor = nl.add_gate(GateKind::Nor, &[a, b], "nor").unwrap();
        let xor = nl.add_gate(GateKind::Xor, &[a, b, s], "xor").unwrap();
        let xnor = nl.add_gate(GateKind::Xnor, &[a, b], "xnor").unwrap();
        let mux = nl.add_gate(GateKind::Mux, &[s, a, b], "mux").unwrap();
        for net in [buf, not, and, nand, or, nor, xor, xnor, mux] {
            nl.mark_output(net).unwrap();
        }
        nl
    }

    #[test]
    fn lanes_match_the_scalar_simulator_on_all_gate_kinds() {
        let nl = all_kinds();
        let mut packed = PackedSimulator::new(&nl).unwrap();
        let mut scalar = Simulator::new(&nl).unwrap();
        // 8 lanes sweep all input combinations at once.
        let words: Vec<u64> = (0..3)
            .map(|j| {
                (0..8u64)
                    .map(|v| ((v >> j) & 1) << v)
                    .fold(0, |acc, w| acc | w)
            })
            .collect();
        let packed_out = packed.peek_outputs(&words).unwrap();
        for v in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|j| (v >> j) & 1 == 1).collect();
            let scalar_out = scalar.peek_outputs(&bits).unwrap();
            for (o, &word) in packed_out.iter().enumerate() {
                assert_eq!(
                    lane(word, v),
                    scalar_out[o],
                    "output {o} differs in lane {v}"
                );
            }
        }
    }

    #[test]
    fn registers_reset_to_broadcast_init_values() {
        let nl = counter2();
        let mut packed = PackedSimulator::new(&nl).unwrap();
        assert_eq!(packed.state(), &[0, u64::MAX]);
        packed.step(&[u64::MAX]).unwrap();
        assert_ne!(packed.state(), &[0, u64::MAX]);
        packed.reset();
        assert_eq!(packed.state(), &[0, u64::MAX]);
        assert_eq!(packed.cycle(), 0);
    }

    #[test]
    fn independent_lanes_count_independently() {
        let nl = counter2();
        let mut packed = PackedSimulator::new(&nl).unwrap();
        // Lane 0 counts every cycle, lane 1 never, lane 2 on odd cycles.
        let stim: Vec<Vec<u64>> = (0..4)
            .map(|t| vec![0b001 | if t % 2 == 1 { 0b100 } else { 0 }])
            .collect();
        let out = packed.run_from_reset(&stim).unwrap();
        let mut scalar = Simulator::new(&nl).unwrap();
        for lane_index in 0..3 {
            scalar.reset();
            for (t, cycle) in stim.iter().enumerate() {
                let scalar_out = scalar.step(&[lane(cycle[0], lane_index)]).unwrap();
                for (o, &expected) in scalar_out.iter().enumerate() {
                    assert_eq!(
                        lane(out[t][o], lane_index),
                        expected,
                        "cycle {t} output {o} lane {lane_index}"
                    );
                }
            }
        }
    }

    #[test]
    fn wrong_input_width_is_an_error() {
        let nl = counter2();
        let mut packed = PackedSimulator::new(&nl).unwrap();
        let err = packed.step(&[1, 2]).unwrap_err();
        assert_eq!(
            err,
            SimError::InputWidthMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn load_state_overrides_all_lanes() {
        let nl = counter2();
        let mut packed = PackedSimulator::new(&nl).unwrap();
        packed.load_state(&[u64::MAX, 0]);
        let out = packed.peek_outputs(&[0]).unwrap();
        assert_eq!(out, vec![u64::MAX, 0]);
    }

    #[test]
    fn invalid_netlist_is_rejected() {
        let mut nl = Netlist::new("bad");
        nl.declare_dff("q", false).unwrap();
        assert!(matches!(
            PackedSimulator::new(&nl),
            Err(SimError::InvalidNetlist(_))
        ));
    }

    #[test]
    fn pack_round_trips_through_unpack() {
        let sequences: Vec<Sequence> = (0..5u64)
            .map(|s| {
                (0..3)
                    .map(|t| (0..4).map(|j| (s + t + j) % 3 == 0).collect())
                    .collect()
            })
            .collect();
        let packed = pack_sequences(&sequences);
        assert_eq!(packed.len(), 3);
        assert_eq!(packed[0].len(), 4);
        for (l, sequence) in sequences.iter().enumerate() {
            assert_eq!(&unpack_lane(&packed, l), sequence);
        }
        // Unused lanes stay zero.
        assert!(packed.iter().flatten().all(|w| w & !lane_mask(5) == 0));
    }

    #[test]
    fn broadcast_sequence_fills_every_lane() {
        let seq = vec![vec![true, false], vec![false, true]];
        let words = broadcast_sequence(&seq);
        assert_eq!(words, vec![vec![u64::MAX, 0], vec![0, u64::MAX]]);
    }

    #[test]
    fn lane_mask_edges() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(64), u64::MAX);
    }

    #[test]
    fn empty_pack_is_empty() {
        assert!(pack_sequences(&[]).is_empty());
    }
}
