//! # trips-micronet — micronetworks for distributed microarchitectures
//!
//! The TRIPS processor replaces global wires and broadcast busses with
//! *micronets*: switched, flow-controlled networks whose clients are
//! the tiles of the processor (§1, §3 of the MICRO-39 paper). This
//! crate provides the network substrate the processor model is built
//! on:
//!
//! * [`Chain`] — a linear path of point-to-point links traversed one
//!   tile per cycle, delivering in send order: the primitive from
//!   which the six control micronets (GDN, GCN, GSN, GRN, DSN, ESN)
//!   are wired. It models latency, not link contention.
//! * [`Mesh`] — a two-dimensional mesh of wormhole routers with Y-X
//!   dimension-order routing, credit flow control and round-robin
//!   arbitration: the one router behind both data networks.
//!   `Mesh<P>` (one virtual channel, single-flit messages) is the
//!   operand network (OPN), a 5×5 mesh with separate control/data
//!   phits delivering one 64-bit operand per link per cycle;
//!   `Mesh<P, VIRTUAL_CHANNELS>` carrying multi-flit packets is the
//!   on-chip network (OCN), the 4×10, 16-byte-link, 4-virtual-channel
//!   network of the secondary memory system.
//! * [`WakeTable`] — one due cycle per tile, lowered by the chains and
//!   the mesh as they deliver, so a scheduler reads who has work
//!   instead of polling every inbox.
//! * [`widths`] — the bit widths of every TRIPS micronet (Table 2),
//!   derived from the message definitions and consumed by the area
//!   model.
//!
//! All components are deterministic: ticked once per cycle with
//! fixed-order, round-robin arbitration, so a simulation run is
//! exactly reproducible.
//!
//! ## Example
//!
//! ```
//! use trips_micronet::{Coord, Mesh, MeshMsg};
//!
//! let mut opn: Mesh<&'static str> = Mesh::new(5, 5, 4);
//! let src = Coord { row: 0, col: 0 };
//! let dst = Coord { row: 4, col: 4 };
//! assert!(opn.inject(0, MeshMsg::new(src, dst, "operand")));
//! let mut cycle = 0;
//! let msg = loop {
//!     opn.tick(cycle);
//!     cycle += 1;
//!     if let Some(m) = opn.eject(dst) {
//!         break m;
//!     }
//!     assert!(cycle < 100, "message lost");
//! };
//! assert_eq!(msg.payload, "operand");
//! assert_eq!(msg.hops, 8); // manhattan distance in the 5x5 mesh
//! ```

mod chain;
mod fault;
mod mesh;
mod routerset;
mod wake;
pub mod widths;

pub use chain::Chain;
pub use fault::{ChainFaultConfig, FaultPort, MeshFaultConfig, PortStall};
pub use mesh::{
    Coord, Mesh, MeshMsg, MeshStats, MeshWork, PacketStats, MAX_TAGS, VIRTUAL_CHANNELS,
};
pub use wake::{WakePort, WakeTable};
