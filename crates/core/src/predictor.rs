//! The next-block predictor of the global tile (§3.1).
//!
//! TRIPS predicts at block granularity. Each block emits one *exit*
//! (0..8, the branch's 3-bit exit field), so the predictor builds
//! *exit histories* instead of taken/not-taken bits:
//!
//! * an **exit predictor** — a tournament of a local table and a
//!   gshare-style table over the exit history, as in the Alpha 21264;
//! * a **target predictor** — a branch target buffer, a call target
//!   buffer, a return address stack, and a branch *type* predictor
//!   that selects among them (the distributed fetch protocol means the
//!   predictor never sees branch instructions, so even the kind of
//!   branch must be predicted).

use trips_isa::BranchKind;

use crate::config::{
    BTB_ENTRIES, BTYPE_ENTRIES, CHOOSER_ENTRIES, CTB_ENTRIES, GSHARE_ENTRIES, HISTORY_EXITS,
    LOCAL_EXIT_ENTRIES, RAS_ENTRIES,
};

/// The exit-history register's live bits.
const HIST_MASK: u32 = (1 << (3 * HISTORY_EXITS)) - 1;

/// Speculative predictor state snapshotted per in-flight block so a
/// flush can restore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorCheckpoint {
    history: u32,
    ras_top: usize,
    ras_depth: usize,
}

impl PredictorCheckpoint {
    /// The exit-history register value at the checkpoint (used to
    /// index the gshare table when training later).
    pub fn history(&self) -> u32 {
        self.history
    }
}

/// A complete next-block prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted next block address.
    pub target: u64,
    /// Predicted exit number.
    pub exit: u8,
    /// Predicted branch kind.
    pub kind: BranchKind,
}

#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    tag: u32,
    target: u64,
}

/// The predictor.
#[derive(Debug)]
pub struct NextBlockPredictor {
    /// Predict every block's fall-through (the ablation's predictor).
    disabled: bool,
    /// Local exit table: hysteresis counter + exit.
    local: Vec<(u8, u8)>,
    /// Gshare exit table.
    gshare: Vec<(u8, u8)>,
    /// Tournament chooser: 2-bit counter, ≥2 selects gshare.
    chooser: Vec<u8>,
    /// Exit history: 3 bits per block exit.
    history: u32,
    btb: Vec<Option<BtbEntry>>,
    ctb: Vec<Option<BtbEntry>>,
    ras: Vec<u64>,
    ras_top: usize,
    ras_depth: usize,
    /// Branch-kind table: 2-bit encoded kind with hysteresis.
    btype: Vec<u8>,
}

fn kind_code(k: BranchKind) -> u8 {
    match k {
        BranchKind::Branch => 0,
        BranchKind::Call => 1,
        BranchKind::Return => 2,
        BranchKind::Sequential | BranchKind::Halt => 3,
    }
}

fn code_kind(c: u8) -> BranchKind {
    match c & 3 {
        0 => BranchKind::Branch,
        1 => BranchKind::Call,
        2 => BranchKind::Return,
        _ => BranchKind::Sequential,
    }
}

impl NextBlockPredictor {
    /// The prototype's predictor; a `disabled` one predicts every
    /// block's sequential fall-through and ignores its training.
    pub fn new(disabled: bool) -> NextBlockPredictor {
        NextBlockPredictor {
            disabled,
            local: vec![(0, 0); LOCAL_EXIT_ENTRIES],
            gshare: vec![(0, 0); GSHARE_ENTRIES],
            chooser: vec![1; CHOOSER_ENTRIES],
            history: 0,
            btb: vec![None; BTB_ENTRIES],
            ctb: vec![None; CTB_ENTRIES],
            ras: vec![0; RAS_ENTRIES],
            ras_top: 0,
            ras_depth: 0,
            btype: vec![kind_code(BranchKind::Sequential) << 1; BTYPE_ENTRIES],
        }
    }

    fn gshare_index(addr: u64, history: u32) -> usize {
        (((addr >> 7) as usize) ^ (history as usize)) % GSHARE_ENTRIES
    }

    /// Captures speculative state before predicting a block, for
    /// restoration on a flush.
    pub fn checkpoint(&self) -> PredictorCheckpoint {
        PredictorCheckpoint {
            history: self.history,
            ras_top: self.ras_top,
            ras_depth: self.ras_depth,
        }
    }

    /// Restores a checkpoint after a misprediction flush.
    pub fn restore(&mut self, cp: PredictorCheckpoint) {
        self.history = cp.history;
        self.ras_top = cp.ras_top;
        self.ras_depth = cp.ras_depth;
    }

    /// Applies a resolved block outcome to the speculative state after
    /// a [`NextBlockPredictor::restore`]: pushes the actual exit into
    /// the history and repairs the RAS for the actual branch kind
    /// (`seq_addr` is the block's fall-through address, pushed by
    /// calls).
    pub fn apply_outcome(&mut self, exit: u8, kind: BranchKind, seq_addr: u64) {
        self.history = ((self.history << 3) | u32::from(exit & 7)) & HIST_MASK;
        match kind {
            BranchKind::Call => self.ras_push(seq_addr),
            BranchKind::Return => {
                let _ = self.ras_pop();
            }
            _ => {}
        }
    }

    /// Predicts the block following the block at `addr`, whose size in
    /// bytes is `size` (needed for sequential fall-through and for the
    /// return address pushed by a predicted call).
    ///
    /// Updates speculative history/RAS state; callers must have taken
    /// a [`PredictorCheckpoint`] first if they might need to undo.
    pub fn predict(&mut self, addr: u64, size: u64) -> Prediction {
        let seq = addr + size;
        if self.disabled {
            return Prediction { target: seq, exit: 0, kind: BranchKind::Sequential };
        }
        // Exit prediction: tournament of local and gshare.
        let li = ((addr >> 7) as usize) % LOCAL_EXIT_ENTRIES;
        let gi = Self::gshare_index(addr, self.history);
        let ci = gi % CHOOSER_ENTRIES;
        let exit = if self.chooser[ci] >= 2 { self.gshare[gi].1 } else { self.local[li].1 };

        // Kind prediction.
        let ti = ((addr >> 7) as usize ^ (usize::from(exit) << 5)) % BTYPE_ENTRIES;
        let kind = code_kind(self.btype[ti] >> 1);

        // Target prediction by kind.
        let tag = (addr >> 7) as u32 ^ (u32::from(exit) << 27);
        let target = match kind {
            BranchKind::Sequential | BranchKind::Halt => seq,
            BranchKind::Branch => {
                let bi = ((addr >> 7) as usize ^ (usize::from(exit) << 4)) % BTB_ENTRIES;
                match self.btb[bi] {
                    Some(e) if e.tag == tag => e.target,
                    _ => seq,
                }
            }
            BranchKind::Call => {
                let ci2 = ((addr >> 7) as usize) % CTB_ENTRIES;
                let t = match self.ctb[ci2] {
                    Some(e) if e.tag == tag => e.target,
                    _ => seq,
                };
                self.ras_push(seq);
                t
            }
            BranchKind::Return => self.ras_pop().unwrap_or(seq),
        };

        // Speculative history update.
        self.history = ((self.history << 3) | u32::from(exit & 7)) & HIST_MASK;

        Prediction { target, exit, kind }
    }

    fn ras_push(&mut self, v: u64) {
        self.ras_top = (self.ras_top + 1) % RAS_ENTRIES;
        self.ras[self.ras_top] = v;
        self.ras_depth = (self.ras_depth + 1).min(RAS_ENTRIES);
    }

    fn ras_pop(&mut self) -> Option<u64> {
        if self.ras_depth == 0 {
            return None;
        }
        let v = self.ras[self.ras_top];
        self.ras_top = (self.ras_top + RAS_ENTRIES - 1) % RAS_ENTRIES;
        self.ras_depth -= 1;
        Some(v)
    }

    /// Trains the tables with a resolved block: the block at `addr`
    /// (size `size`) actually exited via `exit` with `kind` to
    /// `target`. `history_at_predict` is the history value the
    /// prediction used (from its checkpoint).
    pub fn update(
        &mut self,
        addr: u64,
        exit: u8,
        kind: BranchKind,
        target: u64,
        history_at_predict: u32,
    ) {
        let li = ((addr >> 7) as usize) % LOCAL_EXIT_ENTRIES;
        let gi = Self::gshare_index(addr, history_at_predict);
        let ci = gi % CHOOSER_ENTRIES;

        let local_right = self.local[li].1 == exit;
        let gshare_right = self.gshare[gi].1 == exit;
        if local_right != gshare_right {
            let c = &mut self.chooser[ci];
            if gshare_right {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        train_exit(&mut self.local[li], exit);
        train_exit(&mut self.gshare[gi], exit);

        let ti = ((addr >> 7) as usize ^ (usize::from(exit) << 5)) % BTYPE_ENTRIES;
        train_kind(&mut self.btype[ti], kind_code(kind));

        let tag = (addr >> 7) as u32 ^ (u32::from(exit) << 27);
        match kind {
            BranchKind::Branch => {
                let bi = ((addr >> 7) as usize ^ (usize::from(exit) << 4)) % BTB_ENTRIES;
                self.btb[bi] = Some(BtbEntry { tag, target });
            }
            BranchKind::Call => {
                let ci2 = ((addr >> 7) as usize) % CTB_ENTRIES;
                self.ctb[ci2] = Some(BtbEntry { tag, target });
            }
            _ => {}
        }
    }
}

fn train_exit(e: &mut (u8, u8), exit: u8) {
    if e.1 == exit {
        e.0 = (e.0 + 1).min(3);
    } else if e.0 > 0 {
        e.0 -= 1;
    } else {
        *e = (1, exit);
    }
}

fn train_kind(e: &mut u8, code: u8) {
    let (conf, cur) = (*e & 1, *e >> 1);
    if cur == code {
        *e = (code << 1) | 1;
    } else if conf == 1 {
        *e = cur << 1; // lose hysteresis
    } else {
        *e = code << 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> NextBlockPredictor {
        NextBlockPredictor::new(false)
    }

    #[test]
    fn learns_a_steady_branch() {
        let mut p = predictor();
        let addr = 0x1_0000;
        let target = 0x2_0000;
        for _ in 0..8 {
            let cp = p.checkpoint();
            let _ = p.predict(addr, 256);
            p.update(addr, 2, BranchKind::Branch, target, cp.history);
        }
        let pr = p.predict(addr, 256);
        assert_eq!(pr.exit, 2);
        assert_eq!(pr.kind, BranchKind::Branch);
        assert_eq!(pr.target, target);
    }

    #[test]
    fn ras_predicts_returns() {
        let mut p = predictor();
        let call_addr = 0x1_0000;
        let callee = 0x5_0000;
        // Teach: the call block calls, the callee block returns.
        for _ in 0..8 {
            let cp = p.checkpoint();
            let _ = p.predict(call_addr, 384);
            p.update(call_addr, 0, BranchKind::Call, callee, cp.history);
            let cp2 = p.checkpoint();
            let _ = p.predict(callee, 256);
            p.update(callee, 0, BranchKind::Return, call_addr + 384, cp2.history);
        }
        let pr = p.predict(call_addr, 384);
        assert_eq!(pr.kind, BranchKind::Call);
        assert_eq!(pr.target, callee);
        let pr2 = p.predict(callee, 256);
        assert_eq!(pr2.kind, BranchKind::Return);
        assert_eq!(pr2.target, call_addr + 384, "return address from the RAS");
    }

    #[test]
    fn checkpoint_restores_history_and_ras() {
        let mut p = predictor();
        let cp = p.checkpoint();
        let _ = p.predict(0x1_0000, 256); // speculatively bumps history
        let _ = p.predict(0x2_0000, 256);
        p.restore(cp);
        assert_eq!(p.checkpoint(), cp);
    }

    #[test]
    fn alternating_exits_learned_by_history() {
        // Block alternates exit 1, exit 2: local cannot learn it but
        // gshare over exit history can.
        let mut p = predictor();
        let addr = 0x3_0000;
        let mut correct = 0;
        for i in 0..200u32 {
            let exit = if i % 2 == 0 { 1 } else { 2 };
            let cp = p.checkpoint();
            let pr = p.predict(addr, 256);
            if pr.exit == exit {
                correct += 1;
            } else {
                // Mirror the GT: a misprediction flush restores the
                // checkpoint and applies the actual outcome.
                p.restore(cp);
                p.apply_outcome(exit, BranchKind::Branch, addr + 256);
            }
            p.update(addr, exit, BranchKind::Branch, 0x4_0000 + u64::from(exit), cp.history);
        }
        assert!(correct > 150, "history predictor should learn alternation: {correct}/200");
    }

    #[test]
    fn sequential_fallthrough_by_default() {
        let mut p = predictor();
        let pr = p.predict(0x7_0000, 512);
        assert_eq!(pr.kind, BranchKind::Sequential);
        assert_eq!(pr.target, 0x7_0000 + 512);
    }

    #[test]
    fn a_disabled_predictor_predicts_the_fall_through_after_training() {
        // Train the disabled predictor exactly as `learns_a_steady_branch`
        // and `ras_predicts_returns` train the prototype's: a taken
        // branch, a call and a return. Each still predicts `addr + size`.
        let (mut on, mut off) = (predictor(), NextBlockPredictor::new(true));
        let (branch, call, callee) = (0x1_0000, 0x2_0000, 0x5_0000);
        for p in [&mut on, &mut off] {
            for _ in 0..8 {
                for (addr, size, kind, target) in [
                    (branch, 128, BranchKind::Branch, 0x8000),
                    (call, 384, BranchKind::Call, callee),
                    (callee, 256, BranchKind::Return, call + 384),
                ] {
                    let cp = p.checkpoint();
                    let _ = p.predict(addr, size);
                    p.update(addr, 1, kind, target, cp.history);
                }
            }
        }
        assert_eq!(on.predict(branch, 128).target, 0x8000, "the training is not vacuous");
        assert_eq!(on.predict(call, 384).target, callee);
        assert_eq!(on.predict(callee, 256).target, call + 384);
        for (addr, size) in [(branch, 128), (call, 384), (callee, 256)] {
            let pr = off.predict(addr, size);
            assert_eq!((pr.target, pr.kind), (addr + size, BranchKind::Sequential), "{addr:#x}");
        }
    }
}
