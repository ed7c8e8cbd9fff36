//! Fan-in / fan-out cone extraction.
//!
//! These traversals stop at *sequential boundaries*: primary inputs and
//! flip-flop `Q` pins terminate a backward traversal, flip-flop `D` pins and
//! primary outputs terminate a forward traversal.

use crate::ids::{DffId, NetId};
use crate::model::{Driver, FanoutCsr, Netlist};

/// Result of a backward (fan-in) cone traversal from a net.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaninCone {
    /// Primary inputs reached.
    pub inputs: Vec<NetId>,
    /// Flip-flops whose `Q` pin was reached.
    pub registers: Vec<DffId>,
    /// All nets visited (including the start net).
    pub nets: Vec<NetId>,
}

/// Reusable traversal state for [`fanin_cone_with`]: epoch-stamped visited
/// marks (bumping the epoch clears all marks in O(1)) plus the DFS stack.
/// Callers extracting many cones from one netlist allocate one scratch and
/// reuse it.
#[derive(Debug, Clone, Default)]
pub struct ConeScratch {
    net_stamp: Vec<u32>,
    dff_stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<NetId>,
}

impl ConeScratch {
    /// Creates an empty scratch; arrays grow to the netlist size on first use.
    pub fn new() -> ConeScratch {
        ConeScratch::default()
    }

    fn begin(&mut self, nets: usize, dffs: usize) {
        if self.net_stamp.len() < nets {
            self.net_stamp.resize(nets, 0);
        }
        if self.dff_stamp.len() < dffs {
            self.dff_stamp.resize(dffs, 0);
        }
        if self.epoch == u32::MAX {
            self.net_stamp.fill(0);
            self.dff_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
    }

    fn mark_net(&mut self, net: NetId) -> bool {
        let slot = &mut self.net_stamp[net.index()];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    fn mark_dff(&mut self, dff: DffId) -> bool {
        let slot = &mut self.dff_stamp[dff.index()];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// Computes the combinational fan-in cone of `net`: every net with a purely
/// combinational path to `net`, plus the primary inputs and registers feeding
/// that cone.
pub fn fanin_cone(netlist: &Netlist, net: NetId) -> FaninCone {
    fanin_cone_with(netlist, net, &mut ConeScratch::new())
}

/// Like [`fanin_cone`], but reuses caller-provided traversal state so that
/// extracting many cones performs no per-cone allocation (beyond the result).
pub fn fanin_cone_with(netlist: &Netlist, net: NetId, scratch: &mut ConeScratch) -> FaninCone {
    let mut cone = FaninCone::default();
    scratch.begin(netlist.num_nets(), netlist.num_dffs());
    scratch.stack.push(net);
    while let Some(n) = scratch.stack.pop() {
        if !scratch.mark_net(n) {
            continue;
        }
        cone.nets.push(n);
        match netlist.driver(n) {
            Driver::Input => cone.inputs.push(n),
            Driver::Dff(id) => {
                if scratch.mark_dff(id) {
                    cone.registers.push(id);
                }
            }
            Driver::Gate(gid) => {
                scratch.stack.extend_from_slice(netlist.gate_fanins(gid));
            }
            Driver::None => {}
        }
    }
    cone.inputs.sort_unstable();
    cone.registers.sort_unstable();
    cone.nets.sort_unstable();
    cone
}

/// The netlist's cached fanout adjacency: for every net, the indices of the
/// gates reading it (one entry per fanin occurrence). This is a view of the
/// CSR cache shared with [`crate::topo::gate_order`]; see
/// [`Netlist::fanout_csr`] for the invalidation rules.
pub fn fanout_map(netlist: &Netlist) -> &FanoutCsr {
    netlist.fanout_csr()
}

/// Counts how many sinks (gate inputs, flip-flop `D` pins, primary outputs)
/// read each net. Nets with zero fanout are dangling.
pub fn fanout_counts(netlist: &Netlist) -> Vec<usize> {
    let mut counts = vec![0usize; netlist.num_nets()];
    for gate in netlist.gates() {
        for &input in gate.inputs() {
            counts[input.index()] += 1;
        }
    }
    for dff in netlist.dffs() {
        if let Some(d) = dff.d {
            counts[d.index()] += 1;
        }
    }
    for &out in netlist.outputs() {
        counts[out.index()] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    /// Two registers, r1 feeds r0 through an AND; an input feeds both.
    fn fixture() -> Netlist {
        let mut nl = Netlist::new("fx");
        let a = nl.add_input("a");
        let q0 = nl.declare_dff("q0", false).unwrap();
        let q1 = nl.declare_dff("q1", false).unwrap();
        let d0 = nl.add_gate(GateKind::And, &[a, q1], "d0").unwrap();
        let d1 = nl.add_gate(GateKind::Not, &[a], "d1").unwrap();
        nl.bind_dff(q0, d0).unwrap();
        nl.bind_dff(q1, d1).unwrap();
        nl.mark_output(q0).unwrap();
        nl
    }

    #[test]
    fn fanin_cone_stops_at_registers() {
        let nl = fixture();
        let d0 = nl.net_id("d0").unwrap();
        let cone = fanin_cone(&nl, d0);
        assert_eq!(cone.inputs.len(), 1);
        assert_eq!(cone.registers.len(), 1);
        assert_eq!(cone.registers[0], DffId::from_index(1));
        // The cone must not walk through q1 into d1.
        assert!(!cone.nets.contains(&nl.net_id("d1").unwrap()));
    }

    #[test]
    fn fanout_counts_include_outputs_and_dff_d() {
        let nl = fixture();
        let counts = fanout_counts(&nl);
        let a = nl.net_id("a").unwrap();
        assert_eq!(counts[a.index()], 2); // feeds the AND and the NOT
        let q0 = nl.net_id("q0").unwrap();
        assert_eq!(counts[q0.index()], 1); // primary output only
        let d0 = nl.net_id("d0").unwrap();
        assert_eq!(counts[d0.index()], 1); // D pin of q0
    }

    #[test]
    fn fanout_map_lists_reading_gates() {
        let nl = fixture();
        let map = fanout_map(&nl);
        let a = nl.net_id("a").unwrap();
        assert_eq!(map.gates_reading(a).len(), 2);
    }

    #[test]
    fn scratch_reuse_matches_fresh_traversals() {
        let nl = fixture();
        let mut scratch = ConeScratch::new();
        for net in nl.net_ids() {
            assert_eq!(
                fanin_cone_with(&nl, net, &mut scratch),
                fanin_cone(&nl, net),
                "cone of {} diverges under scratch reuse",
                nl.net_label(net)
            );
        }
    }

    #[test]
    fn cone_of_input_is_trivial() {
        let nl = fixture();
        let a = nl.net_id("a").unwrap();
        let cone = fanin_cone(&nl, a);
        assert_eq!(cone.inputs, vec![a]);
        assert!(cone.registers.is_empty());
        assert_eq!(cone.nets, vec![a]);
    }
}
