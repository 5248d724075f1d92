//! Protocol invariants, checked every tick under fuzzing.
//!
//! The paper's §4 protocols are distributed state machines; this
//! module states the properties they must hold at *every* cycle, under
//! *any* message timing the micronets can legally produce. The fuzz
//! harness (`protofuzz`) runs them each tick with
//! [`CoreConfig::check_invariants`](crate::CoreConfig) on; a violation
//! aborts the run with [`SimError::Invariant`](crate::SimError)
//! carrying the failing cycle and a description.
//!
//! The catalogue (each follows from a protocol description in §3–§4;
//! DESIGN.md gives the full derivations):
//!
//! * **GT frame lifecycle** — the age order holds each in-flight frame
//!   exactly once; a frame reaches `Complete` only with all register
//!   writes done, all stores done, and its branch resolved (§4.4's
//!   three completion inputs); commit commands go out in age order;
//!   commit acks only exist for frames whose commit command went out.
//! * **Tile frame lifecycle** (`frames::FrameFile::audit`, one copy for
//!   RT, DT and ET) — a tile's age order holds active frames, each
//!   once; every frame set a schedule reads equals its recount.
//! * **Cross-tile generation bound** — no tile holds an *active* frame
//!   at a generation newer than the GT's, and a tile frame active at
//!   the GT's current generation implies the GT slot is not free:
//!   generations are born at the GT and travel outward (§4.3 flush
//!   gens), so a tile ahead of the GT means a forged or corrupted
//!   message.
//! * **DT / LSQ sanity** — every load/store record carries a legal
//!   LSQ id (< 32, the block's LSID space); arrived-store bits and
//!   held stores stay inside the block's store mask once the mask is
//!   known (§4.4 store-completion counting); the occupancy counter
//!   equals the live records (a leak here is an operand created but
//!   never consumed).
//! * **OPN conservation** — per mesh, `injected = ejected +
//!   in-flight`, and the routers' queue occupancy equals the in-flight
//!   count: the fabric neither drops nor duplicates operands.
//! * **Secondary-system conservation** — under the NUCA backend every
//!   request a tile handed to the adapter is exactly one of: awaiting
//!   injection, inside the OCN/banks, or a completion awaiting its
//!   tile; and the OCN's own packet accounting balances. The network
//!   may delay a fill or a store acknowledgement arbitrarily but can
//!   never drop or duplicate one. The adapter's half is checked here;
//!   the system-wide equations belong to the die that owns the NUCA
//!   ([`Processor::check_invariants`] runs both on a solo NUCA core).
//! * **Wake table** — every tile's filed due cycle equals the one
//!   recomputed from its state and inbox heads (the scheduler's whole
//!   input; a missed push would let a tile sleep through its event).
//!
//! The remaining tentpole properties are checked at run boundaries
//! rather than per tick: *flush fully drains a frame's in-flight
//! state* and *no operand is created but never consumed* both reduce
//! to the die quiescing after halt — [`Processor::run`] (and a chip's
//! run) with invariants on drains the halted die and requires every
//! core [quiesced](Processor::quiesced) and its NUCA empty; any leaked operand, stuck wave, or
//! undrained queue keeps a network or tile active and fails the run.

use std::fmt;

use crate::proc::Processor;

/// A violated protocol invariant: where and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Cycle at which the check failed.
    pub cycle: u64,
    /// Human-readable description of the violated property.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol invariant violated at cycle {}: {}", self.cycle, self.detail)
    }
}

/// Runs one core's per-tick invariant suite against its current state
/// (the die adds its NUCA's audit: [`Processor::check_invariants`]).
///
/// # Errors
///
/// The first violated invariant, with the current cycle.
pub fn check(p: &Processor) -> Result<(), InvariantViolation> {
    check_detail(p).map_err(|detail| InvariantViolation { cycle: p.cycle, detail })
}

fn check_detail(p: &Processor) -> Result<(), String> {
    p.gt.audit()?;
    for rt in &p.rts {
        rt.audit(&p.gt)?;
    }
    for et in &p.ets {
        et.audit(&p.gt)?;
    }
    for dt in &p.dts {
        dt.audit(&p.gt)?;
    }
    for (n, m) in p.nets.opn.iter().enumerate() {
        m.audit().map_err(|e| format!("OPN{n}: {e}"))?;
    }
    p.memsys.audit()?;
    p.audit_wake_table()
}
