//! Cycle-accurate gate-level simulation.
//!
//! This crate drives [`netlist::Netlist`] designs through time:
//!
//! * [`Simulator`] — two-valued, event-free cycle simulation (evaluate the
//!   combinational cloud in topological order, then clock every register).
//!   This is the *reference model*: one `bool` per net per cycle.
//! * [`packed`] / [`PackedSimulator`] — the production Monte-Carlo engine:
//!   64 independent simulation lanes packed into one `u64` per net. Each
//!   netlist is compiled once into a flat tape: nets renumbered into dense
//!   slots, wide gates chained through temporary slots, and every
//!   instruction evaluated with bitwise word operations and no
//!   opcode-dependent branch. Everything that samples many executions (FC
//!   estimation, randomized equivalence, candidate-key validation) runs on
//!   this engine; the scalar simulator remains the oracle it is
//!   differential-tested against (`tests/packed_vs_scalar.rs`).
//! * [`stimulus`] — deterministic pseudo-random input/key sequence generation.
//! * [`fc`] — Monte-Carlo estimation of the *functional corruptibility* of a
//!   locked circuit (paper Eq. 1), mirroring the 800-sample VCS protocol used
//!   in the paper's evaluation — batched into ⌈800/64⌉ packed runs.
//! * [`equiv`] — randomized sequential equivalence checking, used to confirm
//!   that the correct key restores the original function and that attacks
//!   recovered a usable key; 64 sequences per packed pass.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, GateKind};
//! use sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nl = Netlist::new("toggle");
//! let en = nl.add_input("en");
//! let q = nl.declare_dff("q", false)?;
//! let d = nl.add_gate(GateKind::Xor, &[q, en], "d")?;
//! nl.bind_dff(q, d)?;
//! nl.mark_output(q)?;
//!
//! let mut s = Simulator::new(&nl)?;
//! assert_eq!(s.step(&[true])?, vec![false]);
//! assert_eq!(s.step(&[true])?, vec![true]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod simulator;

pub mod equiv;
pub mod fc;
pub mod packed;
pub mod stimulus;

pub use packed::PackedSimulator;
pub use simulator::{check_same_interface, SimError, Simulator};
