//! Topological ordering and levelization of the combinational logic.

use crate::ids::{GateId, NetId};
use crate::model::{Driver, Netlist};
use crate::NetlistError;

/// Returns the combinational gates of `netlist` in a topological order:
/// every gate appears after all gates that drive its inputs. Primary inputs
/// and flip-flop `Q` pins are sources and impose no ordering constraints.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational logic is
/// cyclic.
pub fn gate_order(netlist: &Netlist) -> Result<Vec<GateId>, NetlistError> {
    let (order, unordered) = partial_gate_order(netlist);
    match unordered.first() {
        Some(&offender) => {
            let net = netlist.gate_output(offender);
            Err(NetlistError::CombinationalCycle(
                netlist.net_label(net).to_string(),
            ))
        }
        None => Ok(order),
    }
}

/// Kahn's algorithm without the cycle check. Returns `(ordered, unordered)`:
/// the gates that can be ordered, in the order [`gate_order`] returns them,
/// and the rest in ascending index order. The rest is empty unless there is
/// a combinational cycle; then it holds every gate on a cycle or downstream
/// of one. No unordered gate drives an ordered one, so analyses that
/// tolerate cycles can evaluate the ordered gates first and then settle the
/// remainder.
pub fn partial_gate_order(netlist: &Netlist) -> (Vec<GateId>, Vec<GateId>) {
    let num_gates = netlist.num_gates();
    // in-degree of each gate = number of inputs driven by other gates
    let mut indegree = vec![0u32; num_gates];
    for gid in netlist.gate_ids() {
        for &input in netlist.gate_fanins(gid) {
            if matches!(netlist.driver(input), Driver::Gate(_)) {
                indegree[gid.index()] += 1;
            }
        }
    }
    // Successors of a gate are the readers of its output net, served by the
    // netlist's cached CSR fanout adjacency (shared across analyses instead
    // of rebuilding a Vec<Vec<u32>> per call).
    let fanout = netlist.fanout_csr();

    let mut queue: Vec<u32> = (0..num_gates as u32)
        .filter(|&g| indegree[g as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(num_gates);
    let mut head = 0;
    while head < queue.len() {
        let g = queue[head];
        head += 1;
        order.push(GateId::from_index(g as usize));
        for &succ in fanout.gates_reading(netlist.gate_output(GateId::from_index(g as usize))) {
            let succ = succ as usize;
            indegree[succ] -= 1;
            if indegree[succ] == 0 {
                queue.push(succ as u32);
            }
        }
    }
    let unordered = if order.len() == num_gates {
        Vec::new()
    } else {
        (0..num_gates)
            .filter(|&g| indegree[g] > 0)
            .map(GateId::from_index)
            .collect()
    };
    (order, unordered)
}

/// Logic level of every net: primary inputs, constants and flip-flop outputs
/// are level 0; a gate output is one more than the maximum level of its
/// inputs. The result is indexed by [`NetId::index`].
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational logic is
/// cyclic.
pub fn levelize(netlist: &Netlist) -> Result<Vec<u32>, NetlistError> {
    let order = gate_order(netlist)?;
    let mut level = vec![0u32; netlist.num_nets()];
    for gid in order {
        let max_in = netlist
            .gate_fanins(gid)
            .iter()
            .map(|&n| level[n.index()])
            .max()
            .unwrap_or(0);
        level[netlist.gate_output(gid).index()] = max_in + 1;
    }
    Ok(level)
}

/// Maximum logic level over all nets (combinational depth of the circuit).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational logic is
/// cyclic.
pub fn depth(netlist: &Netlist) -> Result<u32, NetlistError> {
    Ok(levelize(netlist)?.into_iter().max().unwrap_or(0))
}

/// Nets that terminate combinational paths: flip-flop `D` pins and primary
/// outputs. Useful for critical-path style analyses.
pub fn path_endpoints(netlist: &Netlist) -> Vec<NetId> {
    let mut ends: Vec<NetId> = netlist.outputs().to_vec();
    for dff in netlist.dffs() {
        if let Some(d) = dff.d {
            ends.push(d);
        }
    }
    ends.sort_unstable();
    ends.dedup();
    ends
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn chain() -> Netlist {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(GateKind::And, &[a, b], "x").unwrap();
        let y = nl.add_gate(GateKind::Not, &[x], "y").unwrap();
        let z = nl.add_gate(GateKind::Or, &[y, a], "z").unwrap();
        nl.mark_output(z).unwrap();
        nl
    }

    #[test]
    fn order_respects_dependencies() {
        let nl = chain();
        let order = gate_order(&nl).unwrap();
        assert_eq!(order.len(), 3);
        let pos: Vec<usize> = (0..3)
            .map(|g| {
                order
                    .iter()
                    .position(|&x| x.index() == g)
                    .expect("gate present")
            })
            .collect();
        // gate 0 (x) before gate 1 (y) before gate 2 (z)
        assert!(pos[0] < pos[1]);
        assert!(pos[1] < pos[2]);
    }

    #[test]
    fn levels_count_gate_depth() {
        let nl = chain();
        let levels = levelize(&nl).unwrap();
        let z = nl.net_id("z").unwrap();
        assert_eq!(levels[z.index()], 3);
        assert_eq!(depth(&nl).unwrap(), 3);
    }

    #[test]
    fn dff_outputs_are_sources() {
        let mut nl = Netlist::new("seq");
        let q = nl.declare_dff("q", false).unwrap();
        let x = nl.add_gate(GateKind::Not, &[q], "x").unwrap();
        nl.bind_dff(q, x).unwrap();
        nl.mark_output(q).unwrap();
        // Feedback through a register is not a combinational cycle.
        assert_eq!(depth(&nl).unwrap(), 1);
        let ends = path_endpoints(&nl);
        assert!(ends.contains(&q));
        assert!(ends.contains(&x));
    }

    #[test]
    fn cycle_is_reported() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let x = nl.declare_net("x").unwrap();
        let y = nl.add_gate(GateKind::And, &[a, x], "y").unwrap();
        nl.add_gate_driving(GateKind::Or, &[y, a], x).unwrap();
        assert!(gate_order(&nl).is_err());
        assert!(levelize(&nl).is_err());
    }

    #[test]
    fn partial_order_keeps_the_acyclic_prefix() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let pre = nl.add_gate(GateKind::Not, &[a], "pre").unwrap();
        let x = nl.declare_net("x").unwrap();
        let y = nl.add_gate(GateKind::And, &[pre, x], "y").unwrap();
        nl.add_gate_driving(GateKind::Or, &[y, a], x).unwrap();
        nl.add_gate(GateKind::Buf, &[x], "post").unwrap();
        // Only `pre` is upstream of the y/x loop; `post` is downstream of it.
        let (ordered, unordered) = partial_gate_order(&nl);
        assert_eq!(ordered, vec![GateId::from_index(0)]);
        assert_eq!(unordered, [1, 2, 3].map(GateId::from_index));
        assert!(matches!(
            gate_order(&nl),
            Err(NetlistError::CombinationalCycle(net)) if net == "y"
        ));
    }

    #[test]
    fn empty_netlist_has_depth_zero() {
        let nl = Netlist::new("empty");
        assert_eq!(depth(&nl).unwrap(), 0);
        assert!(gate_order(&nl).unwrap().is_empty());
    }
}
