//! Construction of the register connection graph.
//!
//! [`RegisterGraph::build`] finds every register's source set with
//! word-parallel propagation rather than one fan-in cone walk per flip-flop.
//! Registers are taken 64 at a time: register `i` of a chunk puts bit `i` on
//! its `Q` net, and one pass over the gates in topological order sets each
//! gate output to the OR of its fanin words. The word on a flip-flop's `D`
//! net then holds exactly the chunk registers with a combinational path to
//! it. The cost is O(gates × ⌈R/64⌉ + edges) for R registers.
//!
//! Gates on or downstream of a combinational cycle have no topological
//! position; their OR-equations are iterated to the least fixpoint, which is
//! exactly the set of nets a backward cone walk would reach.

use netlist::{topo, GateId, Netlist, RegClass};

/// The register connection graph of a sequential netlist.
///
/// Node `i` corresponds to flip-flop `i` of the source netlist (same index as
/// [`Netlist::dffs`]). An edge `a → b` means that a purely combinational path
/// exists from the `Q` output of register `a` to the `D` input of register
/// `b`, i.e. the present state of `a` can influence the next state of `b`
/// within one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterGraph {
    /// Adjacency list: `successors[a]` holds every `b` with an edge `a → b`,
    /// sorted ascending.
    successors: Vec<Vec<usize>>,
    /// Reverse adjacency list, sorted ascending.
    predecessors: Vec<Vec<usize>>,
    /// Provenance tag of each register, copied from the netlist.
    classes: Vec<RegClass>,
}

impl RegisterGraph {
    /// Builds the RCG of `netlist`. Combinational cycles are allowed; paths
    /// through them count like any other combinational path.
    pub fn build(netlist: &Netlist) -> Self {
        let n = netlist.num_dffs();
        let chunks = n.div_ceil(64);
        let (order, unordered) = topo::partial_gate_order(netlist);
        // reach[t * chunks + c]: the registers of chunk c that feed D of t.
        let mut reach = vec![0u64; n * chunks];
        let mut word = vec![0u64; netlist.num_nets()];
        for chunk in 0..chunks {
            word.fill(0);
            let base = chunk * 64;
            for (lane, dff) in netlist.dffs()[base..n.min(base + 64)].iter().enumerate() {
                word[dff.q.index()] = 1 << lane;
            }
            for &gid in &order {
                word[netlist.gate_output(gid).index()] = fanin_word(netlist, gid, &word);
            }
            settle_cycles(netlist, &unordered, &mut word);
            for (target, dff) in netlist.dffs().iter().enumerate() {
                if let Some(d) = dff.d {
                    reach[target * chunks + chunk] = word[d.index()];
                }
            }
        }
        drop(word);

        let mut predecessors: Vec<Vec<usize>> = (0..n)
            .map(|target| {
                let row = &reach[target * chunks..(target + 1) * chunks];
                let count = row.iter().map(|w| w.count_ones() as usize).sum();
                let mut sources = Vec::with_capacity(count);
                for (chunk, &w) in row.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        sources.push(chunk * 64 + w.trailing_zeros() as usize);
                        w &= w - 1;
                    }
                }
                sources
            })
            .collect();
        drop(reach);
        let successors = sort_and_transpose(&mut predecessors);
        let classes = netlist.dffs().iter().map(|d| d.class).collect();
        RegisterGraph {
            successors,
            predecessors,
            classes,
        }
    }

    /// Builds a graph directly from adjacency data (mostly for tests and for
    /// synthetic experiments). Duplicate edges are merged.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node out of range or if `classes` has a
    /// different length than the adjacency list.
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize)], classes: Vec<RegClass>) -> Self {
        assert_eq!(classes.len(), num_nodes, "one class per node required");
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
        for &(a, b) in edges {
            assert!(
                a < num_nodes && b < num_nodes,
                "edge ({a},{b}) out of range"
            );
            successors[a].push(b);
        }
        let predecessors = sort_and_transpose(&mut successors);
        RegisterGraph {
            successors,
            predecessors,
            classes,
        }
    }

    /// Number of registers (nodes).
    pub fn num_nodes(&self) -> usize {
        self.successors.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.successors.iter().map(Vec::len).sum()
    }

    /// Successors of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn successors(&self, node: usize) -> &[usize] {
        &self.successors[node]
    }

    /// Predecessors of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn predecessors(&self, node: usize) -> &[usize] {
        &self.predecessors[node]
    }

    /// Provenance class of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn class(&self, node: usize) -> RegClass {
        self.classes[node]
    }

    /// Total degree (in + out) of a node, the "number of edges" criterion used
    /// by Algorithm 1 when picking the representative register of an SCC.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: usize) -> usize {
        self.successors[node].len() + self.predecessors[node].len()
    }

    /// `true` if the graph has an edge `a → b`.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.successors[a].binary_search(&b).is_ok()
    }
}

/// OR of the words on the fanin nets of `gid`.
fn fanin_word(netlist: &Netlist, gid: GateId, word: &[u64]) -> u64 {
    netlist
        .gate_fanins(gid)
        .iter()
        .fold(0, |acc, net| acc | word[net.index()])
}

/// Propagates words through the `unordered` gates until nothing changes.
///
/// Starting from zero, each update only adds bits, so the worklist reaches
/// the least fixpoint after at most 64 changes per net. Every reader of an
/// unordered gate is itself unordered, so the worklist never leaves the set.
fn settle_cycles(netlist: &Netlist, unordered: &[GateId], word: &mut [u64]) {
    if unordered.is_empty() {
        return;
    }
    let fanout = netlist.fanout_csr();
    let mut queued = vec![false; netlist.num_gates()];
    for gid in unordered {
        queued[gid.index()] = true;
    }
    let mut work = unordered.to_vec();
    while let Some(gid) = work.pop() {
        queued[gid.index()] = false;
        let out = netlist.gate_output(gid);
        let w = fanin_word(netlist, gid, word);
        if w != word[out.index()] {
            word[out.index()] = w;
            for &reader in fanout.gates_reading(out) {
                if !queued[reader as usize] {
                    queued[reader as usize] = true;
                    work.push(GateId::from_index(reader as usize));
                }
            }
        }
    }
}

/// Sorts and deduplicates every list of `adjacency` in place, trimming spare
/// capacity, and returns the reverse adjacency. Sources are visited in
/// ascending order, so every reversed list comes out sorted, and each is
/// allocated at its exact length.
fn sort_and_transpose(adjacency: &mut [Vec<usize>]) -> Vec<Vec<usize>> {
    let mut degree = vec![0usize; adjacency.len()];
    for list in adjacency.iter_mut() {
        list.sort_unstable();
        list.dedup();
        list.shrink_to_fit();
        for &node in list.iter() {
            degree[node] += 1;
        }
    }
    let mut reverse: Vec<Vec<usize>> = degree.into_iter().map(Vec::with_capacity).collect();
    for (node, list) in adjacency.iter().enumerate() {
        for &other in list {
            reverse[other].push(node);
        }
    }
    reverse
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;

    /// r0 -> r1 -> r2 -> r0 ring plus an isolated register r3 fed by an input.
    fn ring_netlist() -> Netlist {
        let mut nl = Netlist::new("ring");
        let a = nl.add_input("a");
        let q0 = nl.declare_dff("q0", false).unwrap();
        let q1 = nl.declare_dff("q1", false).unwrap();
        let q2 = nl.declare_dff("q2", false).unwrap();
        let q3 = nl
            .declare_dff_with_class("q3", false, RegClass::Locking)
            .unwrap();
        let d1 = nl.add_gate(GateKind::Buf, &[q0], "d1").unwrap();
        let d2 = nl.add_gate(GateKind::Not, &[q1], "d2").unwrap();
        let d0 = nl.add_gate(GateKind::And, &[q2, a], "d0").unwrap();
        let d3 = nl.add_gate(GateKind::Not, &[a], "d3").unwrap();
        nl.bind_dff(q0, d0).unwrap();
        nl.bind_dff(q1, d1).unwrap();
        nl.bind_dff(q2, d2).unwrap();
        nl.bind_dff(q3, d3).unwrap();
        nl.mark_output(q2).unwrap();
        nl.mark_output(q3).unwrap();
        nl
    }

    #[test]
    fn rcg_of_ring_has_ring_edges_only() {
        let nl = ring_netlist();
        let g = RegisterGraph::build(&nl);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 2));
        assert!(g.successors(3).is_empty());
        assert!(g.predecessors(3).is_empty());
        assert_eq!(g.class(3), RegClass::Locking);
        assert_eq!(g.class(0), RegClass::Original);
    }

    #[test]
    fn degree_counts_both_directions() {
        let nl = ring_netlist();
        let g = RegisterGraph::build(&nl);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn from_edges_deduplicates() {
        let g =
            RegisterGraph::from_edges(3, &[(0, 1), (0, 1), (1, 2)], vec![RegClass::Original; 3]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.predecessors(2), &[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_bad_nodes() {
        RegisterGraph::from_edges(2, &[(0, 5)], vec![RegClass::Original; 2]);
    }

    #[test]
    fn self_loop_when_register_feeds_itself() {
        let mut nl = Netlist::new("self");
        let q = nl.declare_dff("q", false).unwrap();
        let d = nl.add_gate(GateKind::Not, &[q], "d").unwrap();
        nl.bind_dff(q, d).unwrap();
        nl.mark_output(q).unwrap();
        let g = RegisterGraph::build(&nl);
        assert!(g.has_edge(0, 0));
        assert_eq!(g.num_edges(), 1);
    }

    /// The `y = a ∧ x`, `x = y ∨ a` loop of `topo::cycle_is_reported`, with
    /// register q0 feeding the loop, q1 both feeding and sampling it.
    #[test]
    fn paths_through_a_combinational_cycle_are_edges() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let q0 = nl.declare_dff("q0", false).unwrap();
        let q1 = nl.declare_dff("q1", false).unwrap();
        let x = nl.declare_net("x").unwrap();
        let a0 = nl.add_gate(GateKind::And, &[a, q0], "a0").unwrap();
        let y = nl.add_gate(GateKind::And, &[a0, x], "y").unwrap();
        nl.add_gate_driving(GateKind::Or, &[y, q1], x).unwrap();
        let d0 = nl.add_gate(GateKind::Not, &[a], "d0").unwrap();
        nl.bind_dff(q0, d0).unwrap();
        nl.bind_dff(q1, x).unwrap();
        nl.mark_output(q1).unwrap();
        assert!(topo::gate_order(&nl).is_err());

        let g = RegisterGraph::build(&nl);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.successors(1), &[1]);
        assert_eq!(g.predecessors(1), &[0, 1]);
        assert!(g.predecessors(0).is_empty());
        // Same source sets as a backward cone walk from each D pin.
        for (target, dff) in nl.dffs().iter().enumerate() {
            let walked: Vec<usize> = netlist::cone::fanin_cone(&nl, dff.d.unwrap())
                .registers
                .iter()
                .map(|r| r.index())
                .collect();
            assert_eq!(g.predecessors(target), walked.as_slice());
        }
    }
}
