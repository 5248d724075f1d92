//! Protocol invariants, checked after every die step under fuzzing.
//!
//! The paper's §4 protocols are distributed state machines; this
//! module states the properties they must hold at *every* cycle, under
//! *any* message timing the micronets can legally produce. The fuzz
//! harness (`protofuzz`) runs them after each step with
//! [`CoreConfig::check_invariants`](crate::CoreConfig) on; a violation
//! aborts the run with [`SimError::Invariant`](crate::SimError)
//! carrying the failing cycle and a description.
//!
//! **What a step audits.** A tile's audit reads only its own state
//! and the GT's `(generation, free)` slot table, and a tile's state
//! moves only in its tick or in an edit from outside it, which marks
//! the tile as it re-files its wake entry. So a step check audits the
//! tiles ticked or edited since the last passing one, re-runs the
//! generation bound over the rest only when the GT's slots moved, and
//! audits the OPN meshes, the memory adapter, the NUCA and the wake
//! table every step. Every tile it skips would pass: a violation is
//! reported at the same cycle with the same text as by the full suite
//! ([`Processor::check_invariants`]: the same function, every tile
//! marked).
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
//!   RT, DT and ET) — a tile's age order holds each ordered frame once,
//!   and only active ones; the tile's own summaries (ET ready frames,
//!   DT deferred frames and occupancy) equal their recounts.
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

use crate::config::{TileMask, MAX_FRAMES};
use crate::frames::{FrameSet, GtSlots};
use crate::msg::FrameId;
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

/// What a core's next step check audits: the tiles ticked or edited
/// since its last passing one (mask bits), and the GT's `(generation,
/// free)` per slot — all a tile audit reads of another tile — as that
/// check saw them.
#[derive(Default)]
pub(crate) struct Unaudited {
    pub(crate) tiles: TileMask,
    gt_slots: GtSlots,
    /// Tile audits the step checks ran ([`Processor::tile_audits`]).
    pub(crate) audits: u64,
}

/// Runs one core's whole invariant suite against its current state
/// (the die adds its NUCA's audit: [`Processor::check_invariants`]).
///
/// # Errors
///
/// The first violated invariant, with the current cycle.
pub fn check(p: &Processor) -> Result<(), InvariantViolation> {
    let every = p.cfg.geometry.full_mask();
    audit(p, every, &p.gt.slots(), FrameSet::EMPTY, &mut 0)
        .map_err(|detail| InvariantViolation { cycle: p.cycle, detail })
}

/// [`check`] after a die step, over what `p.unaudited` marks; a pass
/// clears the marks and records the GT's slots.
pub(crate) fn check_step(p: &mut Processor) -> Result<(), InvariantViolation> {
    let slots = p.gt.slots();
    let mut moved = FrameSet::EMPTY;
    let then = p.unaudited.gt_slots;
    (0..MAX_FRAMES)
        .filter(|&fi| slots[fi] != then[fi])
        .for_each(|fi| moved.insert(FrameId(fi as u8)));
    let (tiles, mut audits) = (p.unaudited.tiles, p.unaudited.audits);
    audit(p, tiles, &slots, moved, &mut audits)
        .map_err(|detail| InvariantViolation { cycle: p.cycle, detail })?;
    p.unaudited = Unaudited { tiles: 0, gt_slots: slots, audits };
    Ok(())
}

/// Audits `tiles` in full and the generation bound of the other tiles
/// over the `moved` GT slots, counting each tile audit in `audits`.
fn audit(
    p: &Processor,
    tiles: TileMask,
    gt: &GtSlots,
    moved: FrameSet,
    audits: &mut u64,
) -> Result<(), String> {
    if tiles & 1 != 0 {
        *audits += 1;
        p.gt.audit()?;
    }
    let mut tile = |bit: usize, audit: &dyn Fn(Option<FrameSet>) -> Result<(), String>| {
        let only_gens = match tiles >> bit & 1 {
            1 => None,
            _ if moved.is_empty() => return Ok(()),
            _ => Some(moved),
        };
        *audits += 1;
        audit(only_gens)
    };
    // Mask order: GT, ITs (no audit), RTs, ETs, DTs.
    let rt0 = 1 + p.its.len();
    let (et0, dt0) = (rt0 + p.rts.len(), rt0 + p.rts.len() + p.ets.len());
    for (i, t) in p.rts.iter().enumerate() {
        tile(rt0 + i, &|only| t.audit(gt, only))?;
    }
    for (i, t) in p.ets.iter().enumerate() {
        tile(et0 + i, &|only| t.audit(gt, only))?;
    }
    for (i, t) in p.dts.iter().enumerate() {
        tile(dt0 + i, &|only| t.audit(gt, only))?;
    }
    for (n, m) in p.nets.opn.iter().enumerate() {
        m.audit().map_err(|e| format!("OPN{n}: {e}"))?;
    }
    p.memsys.audit()?;
    p.audit_wake_table()
}
