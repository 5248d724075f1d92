//! The frame file: one block's per-tile lifecycle (§4.3 flush, §4.4
//! commit), the same in every register, data and execution tile. A slot
//! is armed by a generation's first message, aged by a dispatch
//! message, latches the GCN commit wave, drains oldest-first, waits for
//! its daisy-chain neighbour's ack and deallocates from the head of the
//! age order with a generation bump; a flush wave squashes it any time
//! before. [`FrameFile`] implements that once and [`FrameSet`] is the
//! one frame-indexed bit set; tiles keep their bodies (DESIGN.md §5i).

use std::fmt;
use std::ops::{BitAnd, Index, IndexMut, Sub};

use crate::config::MAX_FRAMES;
use crate::msg::{FrameId, Gen};

/// The GT's `(generation, free)` per frame slot: all a tile's audit
/// reads of another tile.
pub(crate) type GtSlots = [(Gen, bool); MAX_FRAMES];

/// A set of frame indices (≤ [`MAX_FRAMES`]). Built only from
/// [`FrameSet::EMPTY`], [`FrameSet::all`] and [`FrameSet::bit`], so no
/// caller shifts by a frame index: the 16-frame die fills the word
/// exactly, where `(1 << frames) - 1` is a shift by the type width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FrameSet(u16);

impl FrameSet {
    /// No frame.
    pub const EMPTY: FrameSet = FrameSet(0);

    /// Every frame of a `frames`-deep file (`1..=MAX_FRAMES`), computed
    /// by shifting `MAX` down rather than `1` up.
    pub fn all(frames: usize) -> FrameSet {
        debug_assert!((1..=MAX_FRAMES).contains(&frames));
        FrameSet(u16::MAX >> (u16::BITS as usize - frames))
    }

    /// Just `frame`.
    pub fn bit(frame: FrameId) -> FrameSet {
        debug_assert!((frame.0 as usize) < MAX_FRAMES);
        FrameSet(1 << frame.0)
    }

    /// Adds `frame`.
    pub fn insert(&mut self, frame: FrameId) {
        self.0 |= FrameSet::bit(frame).0;
    }

    /// Removes `frame`.
    pub fn remove(&mut self, frame: FrameId) {
        self.0 &= !FrameSet::bit(frame).0;
    }

    /// Whether `frame` is in the set.
    pub fn contains(self, frame: FrameId) -> bool {
        self.0 & FrameSet::bit(frame).0 != 0
    }

    /// Whether the set holds no frame.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The frames of the set, ascending.
    pub fn iter(self) -> impl Iterator<Item = FrameId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let frame = FrameId(bits.trailing_zeros() as u8);
                bits &= bits - 1;
                frame
            })
        })
    }
}

impl BitAnd for FrameSet {
    type Output = FrameSet;
    fn bitand(self, rhs: FrameSet) -> FrameSet {
        FrameSet(self.0 & rhs.0)
    }
}

/// Set difference: the frames of `self` not in `rhs`.
impl Sub for FrameSet {
    type Output = FrameSet;
    fn sub(self, rhs: FrameSet) -> FrameSet {
        FrameSet(self.0 & !rhs.0)
    }
}

impl fmt::Binary for FrameSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// One tile's frame slots: each slot's generation and tile-specific
/// body, the lifecycle as one [`FrameSet`] per stage, and the
/// dispatch-age order. The sets are the only copy of the lifecycle, so
/// the sets the tick schedules read cannot drift from it. Indexing by
/// [`FrameId`] reaches a slot's body.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
pub(crate) struct FrameFile<T> {
    /// The generation each slot holds, or awaits once inactive (inline:
    /// a file allocates only its bodies).
    gens: [Gen; MAX_FRAMES],
    bodies: Vec<T>,
    /// Ordered frames, oldest first.
    order: Vec<FrameId>,
    /// The lifecycle, a set per stage: armed by a generation's first
    /// message (the dirty-frame work list); in `order`, aged by a
    /// dispatch message; past the commit wave; done draining; acked by
    /// the ack-chain neighbour (set on arming at the chain's end).
    active: FrameSet,
    ordered: FrameSet,
    committing: FrameSet,
    commit_done: FrameSet,
    neighbour_ack: FrameSet,
    chain_end: bool,
}

impl<T: Default> FrameFile<T> {
    /// A file of `frames` free slots. `chain_end` marks the tile with
    /// no ack-chain neighbour to wait for.
    pub fn new(frames: usize, chain_end: bool, body: impl FnMut() -> T) -> FrameFile<T> {
        FrameFile {
            gens: [0; MAX_FRAMES],
            bodies: std::iter::repeat_with(body).take(frames).collect(),
            order: Vec::with_capacity(frames),
            active: FrameSet::EMPTY,
            ordered: FrameSet::EMPTY,
            committing: FrameSet::EMPTY,
            commit_done: FrameSet::EMPTY,
            neighbour_ack: FrameSet::EMPTY,
            chain_end,
        }
    }

    /// Slots in the file.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// The ordered frames, oldest first.
    pub fn order(&self) -> &[FrameId] {
        &self.order
    }

    /// `frame`'s position in the age order (0 = oldest).
    pub fn age(&self, frame: FrameId) -> Option<usize> {
        self.order.iter().position(|&x| x == frame)
    }

    /// The active frames.
    pub fn active(&self) -> FrameSet {
        self.active
    }

    /// The frames with a commit drain underway: active, past the commit
    /// wave and not done draining — the clock-gating predicate's frame
    /// term.
    pub fn draining(&self) -> FrameSet {
        self.active & (self.committing - self.commit_done)
    }

    /// Active and past its commit wave.
    pub fn is_committing(&self, frame: FrameId) -> bool {
        (self.active & self.committing).contains(frame)
    }

    pub fn gen(&self, frame: FrameId) -> Gen {
        self.gens[frame.0 as usize]
    }

    /// The live incarnation in `frame`'s slot — its generation and
    /// body — or `None` for an inactive slot.
    pub fn live(&mut self, frame: FrameId) -> Option<(Gen, &mut T)> {
        let fi = frame.0 as usize;
        self.active.contains(frame).then_some((self.gens[fi], &mut self.bodies[fi]))
    }

    /// Whether a message for (`frame`, `gen`) addresses the live
    /// incarnation. A retired or flushed generation's stragglers fail
    /// here (and in [`FrameFile::ensure`]).
    pub fn ok(&self, frame: FrameId, gen: Gen) -> bool {
        self.active.contains(frame) && self.gens[frame.0 as usize] == gen
    }

    /// Validates a message for (`frame`, `gen`): a stale generation
    /// returns `false`; one the slot does not hold yet (re-)arms it and
    /// `rearm` resets the body — the implicit flush of a message that
    /// overtook its GCN wave. Only a dispatch message establishes the
    /// frame's age: everything else can overtake the dispatch chains.
    pub fn ensure(
        &mut self,
        frame: FrameId,
        gen: Gen,
        from_dispatch: bool,
        rearm: impl FnOnce(&mut T),
    ) -> bool {
        let fi = frame.0 as usize;
        if self.gens[fi] > gen {
            return false;
        }
        if !self.ok(frame, gen) {
            self.gens[fi] = gen;
            self.active.insert(frame);
            self.committing.remove(frame);
            self.commit_done.remove(frame);
            if self.chain_end {
                self.neighbour_ack.insert(frame);
            } else {
                self.neighbour_ack.remove(frame);
            }
            rearm(&mut self.bodies[fi]);
        }
        if from_dispatch && !self.ordered.contains(frame) {
            self.ordered.insert(frame);
            self.order.push(frame);
        }
        true
    }

    /// Latches the GCN commit wave; `false` for a stale one.
    pub fn commit_wave(&mut self, frame: FrameId, gen: Gen) -> bool {
        let ok = self.ok(frame, gen);
        if ok {
            self.committing.insert(frame);
        }
        ok
    }

    /// The oldest-first draining prefix, by cursor (start at 0): the
    /// next frame past its commit wave and not done draining, `None` at
    /// the first frame still executing. Commit waves arrive in age
    /// order, so committing frames are a prefix of the age order; a
    /// shared drain port (RT write ports, DT store port) walks it so a
    /// younger block's drain cannot overtake an older one's to the same
    /// register or address (DESIGN.md §5c, bugs 3 and 4).
    pub fn next_draining(&self, cursor: &mut usize) -> Option<FrameId> {
        while let Some(&frame) = self.order.get(*cursor) {
            if !self.is_committing(frame) {
                break;
            }
            *cursor += 1;
            if !self.commit_done.contains(frame) {
                return Some(frame);
            }
        }
        None
    }

    /// `frame`'s commit drain is finished.
    pub fn drain_done(&mut self, frame: FrameId) {
        self.commit_done.insert(frame);
    }

    /// The ack-chain neighbour acknowledged (`frame`, `gen`).
    pub fn neighbour_ack(&mut self, frame: FrameId, gen: Gen) {
        if self.ok(frame, gen) {
            self.neighbour_ack.insert(frame);
        }
    }

    /// Deallocates the oldest frame if it is drained and its neighbour
    /// has acked, returning it with the generation to acknowledge; the
    /// slot's generation is bumped like the GT's, so stragglers read as
    /// stale. Head-only, and besides [`FrameFile::flush`] the only way
    /// out of the age order: retiring by readiness let a younger frame
    /// leave while an older one awaited a delayed ack, and forwarding
    /// fell through to the older frame's stale queued entry (DESIGN.md
    /// §5c, bug 5). Under clean timing this only ever delays an ack.
    pub fn retire_head(&mut self) -> Option<(FrameId, Gen)> {
        let &frame = self.order.first()?;
        if !(self.active & self.commit_done & self.neighbour_ack).contains(frame) {
            return None;
        }
        let gen = self.gens[frame.0 as usize];
        self.gens[frame.0 as usize] += 1;
        self.active.remove(frame);
        self.ordered.remove(frame);
        self.order.remove(0);
        Some((frame, gen))
    }

    /// The GCN flush wave: every frame of `mask` older than its new
    /// generation moves to it; one that was active is squashed (out of
    /// the age order, `on_squash` sees its body).
    pub fn flush(
        &mut self,
        mask: FrameSet,
        gens: &[Gen; MAX_FRAMES],
        mut on_squash: impl FnMut(FrameId, &mut T),
    ) {
        for frame in mask.iter() {
            let fi = frame.0 as usize;
            if fi >= self.len() {
                break;
            }
            if self.gens[fi] >= gens[fi] {
                continue;
            }
            self.gens[fi] = gens[fi];
            if self.active.contains(frame) {
                self.active.remove(frame);
                self.ordered.remove(frame);
                self.order.retain(|&x| x != frame);
                on_squash(frame, &mut self.bodies[fi]);
            }
        }
    }

    /// A tile's audit (see [`crate::invariants`]). The lifecycle half:
    /// the age order holds each ordered frame once, only active ones are
    /// ordered, and the [generation bound](FrameFile::audit_gens) holds.
    /// The tile's half: `body` sees each active frame and its body (an
    /// inactive body is dead until re-armed resets it).
    pub fn audit(
        &self,
        gt: &GtSlots,
        mut body: impl FnMut(FrameId, &T) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut seen = FrameSet::EMPTY;
        for &f in &self.order {
            if seen.contains(f) {
                return Err(format!("frame {} twice in dispatch order", f.0));
            }
            seen.insert(f);
        }
        if seen != self.ordered {
            return Err(format!("dispatch order {seen:#b}, ordered set {:#b}", self.ordered));
        }
        let stray = self.ordered - self.active;
        if !stray.is_empty() {
            return Err(format!("ordered but inactive {stray:#b}"));
        }
        self.audit_gens(gt, self.active)?;
        self.active.iter().try_for_each(|frame| body(frame, &self.bodies[frame.0 as usize]))
    }

    /// The cross-tile generation bound over `frames`: no active slot is
    /// ahead of the GT's `(generation, free)` for it. The one part of
    /// the audit that reads another tile's state.
    pub fn audit_gens(&self, gt: &GtSlots, frames: FrameSet) -> Result<(), String> {
        for frame in (self.active & frames).iter() {
            let fi = frame.0 as usize;
            let (gen, (gt_gen, gt_free)) = (self.gens[fi], gt[fi]);
            if gen > gt_gen || (gen == gt_gen && gt_free) {
                return Err(format!(
                    "frame {fi} active at gen {gen}, the GT slot at gen {gt_gen} (free: {gt_free})"
                ));
            }
        }
        Ok(())
    }
}

impl<T> Index<FrameId> for FrameFile<T> {
    type Output = T;
    fn index(&self, frame: FrameId) -> &T {
        &self.bodies[frame.0 as usize]
    }
}

impl<T> IndexMut<FrameId> for FrameFile<T> {
    fn index_mut(&mut self, frame: FrameId) -> &mut T {
        &mut self.bodies[frame.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    #[test]
    fn frame_set_is_exact_at_every_depth_and_full_at_the_type_width() {
        assert!(FrameSet::EMPTY.is_empty() && FrameSet::EMPTY.iter().next().is_none());
        for frames in 1..=MAX_FRAMES {
            let all: Vec<u8> = FrameSet::all(frames).iter().map(|f| f.0).collect();
            assert_eq!(all, (0..frames as u8).collect::<Vec<_>>(), "ascending, {frames} deep");
        }
        // The fat die: `all(MAX_FRAMES)` is every bit of the word, where
        // `(1 << 16) - 1` on a u16 is a shift by the type width.
        let mut built = FrameSet::EMPTY;
        (0..MAX_FRAMES as u8).for_each(|i| built.insert(FrameId(i)));
        assert_eq!(built, FrameSet::all(MAX_FRAMES));
        assert_eq!(FrameSet::all(MAX_FRAMES).0, u16::MAX);

        let mut s = FrameSet::all(4);
        s.remove(FrameId(2));
        assert!(!s.contains(FrameId(2)) && s.contains(FrameId(3)) && !s.contains(FrameId(4)));
        assert_eq!(format!("{s:#010b}"), "0b00001011", "the trace's flush-wave rendering");
        assert_eq!(FrameSet::bit(FrameId(15)).iter().map(|f| f.0).collect::<Vec<_>>(), [15]);
    }

    #[test]
    fn a_newer_generation_rearms_in_place_and_only_dispatch_gives_age() {
        let mut file = FrameFile::new(4, false, || 0u32);
        let (a, b) = (FrameId(2), FrameId(0));
        // First touch by a non-dispatch message: armed, but ageless.
        assert!(file.ensure(a, 0, false, |body| *body += 1));
        assert!(file.ok(a, 0) && file.age(a).is_none() && file[a] == 1);
        assert!(file.ensure(b, 0, true, |body| *body += 1));
        assert!(file.ensure(a, 0, true, |_| panic!("already armed")));
        assert_eq!(file.order(), [b, a], "dispatch order, not touch order");
        // A generation-1 message overtakes generation 0's flush wave:
        // the slot re-arms (lifecycle cleared, body reset) and keeps its
        // place; the late wave and generation 0's stragglers are stale.
        assert!(file.commit_wave(a, 0) && file.draining().contains(a));
        assert!(file.ensure(a, 1, false, |body| *body += 1));
        assert!(file.ok(a, 1) && !file.ok(a, 0) && file[a] == 2);
        assert!(file.draining().is_empty() && !file.is_committing(a));
        assert_eq!(file.order(), [b, a]);
        let mut gens = [0; MAX_FRAMES];
        gens[a.0 as usize] = 1;
        file.flush(FrameSet::bit(a), &gens, |_, _| panic!("the wave is stale"));
        assert!(!file.ensure(a, 0, true, |_| panic!("stale")) && !file.commit_wave(a, 0));
        file.audit(&gens.map(|gen| (gen, false)), |_, _| Ok(())).unwrap();
    }

    // ---- every interleaving, to a bounded depth ----

    const FRAMES: usize = 4;
    /// Steps explored from reset. The shortest trace on which
    /// deallocating by readiness (§5c bug 5) differs from head-only is
    /// nine steps long (EXPERIMENTS.md, "Frame-file calibration").
    const DEPTH: usize = 14;

    /// What the model GT knows of one in-flight frame, and what it has
    /// sent this tile about it.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct InFlight {
        frame: FrameId,
        /// Some message reached the tile (the slot is armed).
        touched: bool,
        dispatched: bool,
        commit: bool,
        drained: bool,
        acked: bool,
    }

    /// One tile's frame file and a model of the GT and wires around it.
    /// GCN waves (commit, flush) and the GT's own deallocation are
    /// atomic with their delivery; dispatch messages queue on a FIFO
    /// GDN, so a flush turns its victims' queued messages into
    /// stragglers.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct World {
        file: FrameFile<()>,
        gens: [Gen; MAX_FRAMES],
        /// In fetch (= block age) order.
        flight: Vec<InFlight>,
        gdn: VecDeque<(FrameId, Gen)>,
    }

    #[derive(Debug, Clone, Copy)]
    enum Act {
        Fetch,
        Dispatch,
        /// A non-dispatch message is the first to reach the tile for
        /// `flight[i]` (OPN/DSN/GSN traffic overtaking the GDN).
        Touch(usize),
        Commit,
        DrainDone(usize),
        Ack,
        /// The GT flushes its youngest `n` frames.
        Flush(usize),
    }

    #[derive(Debug, Default)]
    struct Tally {
        retired: u32,
        squashed: u32,
        stragglers: u32,
        touched_first: u32,
        acked_before_commit: u32,
        drained_out_of_order: u32,
    }

    impl World {
        fn new() -> World {
            World {
                file: FrameFile::new(FRAMES, false, || ()),
                gens: [0; MAX_FRAMES],
                flight: Vec::new(),
                gdn: VecDeque::new(),
            }
        }

        fn in_flight(&self, fi: usize) -> bool {
            self.flight.iter().any(|f| f.frame.0 as usize == fi)
        }

        fn gen(&self, frame: FrameId) -> Gen {
            self.gens[frame.0 as usize]
        }

        fn actions(&self) -> Vec<Act> {
            let mut acts = Vec::new();
            if self.flight.len() < FRAMES {
                acts.push(Act::Fetch);
            }
            if !self.gdn.is_empty() {
                acts.push(Act::Dispatch);
            }
            for (i, f) in self.flight.iter().enumerate() {
                if !f.touched {
                    acts.push(Act::Touch(i));
                }
                if f.commit && !f.drained {
                    acts.push(Act::DrainDone(i));
                }
            }
            // Commit commands and the neighbour's acks both come in age
            // order; a block completes (and so can commit, and be acked
            // by a faster neighbour) only once dispatched here.
            if self.flight.iter().find(|f| !f.commit).is_some_and(|f| f.dispatched && !f.acked) {
                acts.push(Act::Commit);
            }
            if let Some(f) = self.flight.iter().find(|f| !f.acked) {
                let older_committed =
                    self.flight.iter().take_while(|o| o.frame != f.frame).all(|o| o.commit);
                if f.dispatched && older_committed {
                    acts.push(Act::Ack);
                }
            }
            // The GT never flushes a frame whose commit command is out.
            let flushable = self.flight.iter().rev().take_while(|f| !f.commit && !f.acked).count();
            acts.extend((1..=flushable).map(Act::Flush));
            acts
        }

        fn step(&mut self, act: Act, tally: &mut Tally) {
            match act {
                Act::Fetch => {
                    let slot = (0..FRAMES).find(|&fi| !self.in_flight(fi)).expect("a free slot");
                    let frame = FrameId(slot as u8);
                    self.flight.push(InFlight {
                        frame,
                        touched: false,
                        dispatched: false,
                        commit: false,
                        drained: false,
                        acked: false,
                    });
                    self.gdn.push_back((frame, self.gen(frame)));
                }
                Act::Dispatch => {
                    let (frame, gen) = self.gdn.pop_front().expect("a queued dispatch");
                    let live = gen == self.gen(frame);
                    assert_eq!(self.file.ensure(frame, gen, true, |()| ()), live, "{self:?}");
                    if live {
                        let f = self.flight.iter_mut().find(|f| f.frame == frame).expect("live");
                        tally.touched_first += u32::from(f.touched);
                        (f.touched, f.dispatched) = (true, true);
                    } else {
                        tally.stragglers += 1;
                    }
                }
                Act::Touch(i) => {
                    let frame = self.flight[i].frame;
                    assert!(self.file.ensure(frame, self.gen(frame), false, |()| ()));
                    self.flight[i].touched = true;
                }
                Act::Commit => {
                    let gens = self.gens;
                    let f = self.flight.iter_mut().find(|f| !f.commit).expect("enabled");
                    assert!(self.file.commit_wave(f.frame, gens[f.frame.0 as usize]));
                    f.commit = true;
                }
                Act::DrainDone(i) => {
                    let frame = self.flight[i].frame;
                    assert!(self.file.draining().contains(frame));
                    self.file.drain_done(frame);
                    self.flight[i].drained = true;
                    tally.drained_out_of_order +=
                        u32::from(self.flight[..i].iter().any(|o| !o.drained));
                }
                Act::Ack => {
                    let gens = self.gens;
                    let f = self.flight.iter_mut().find(|f| !f.acked).expect("enabled");
                    self.file.neighbour_ack(f.frame, gens[f.frame.0 as usize]);
                    f.acked = true;
                    tally.acked_before_commit += u32::from(!f.commit);
                }
                Act::Flush(n) => {
                    let victims = self.flight.split_off(self.flight.len() - n);
                    let mut mask = FrameSet::EMPTY;
                    for v in &victims {
                        mask.insert(v.frame);
                        self.gens[v.frame.0 as usize] += 1;
                    }
                    let mut squashed = FrameSet::EMPTY;
                    self.file.flush(mask, &self.gens, |frame, ()| squashed.insert(frame));
                    let mut armed = FrameSet::EMPTY;
                    victims.iter().filter(|v| v.touched).for_each(|v| armed.insert(v.frame));
                    assert_eq!(squashed, armed, "exactly the armed victims are squashed");
                    tally.squashed += squashed.iter().count() as u32;
                }
            }
            // The tile's ack walk, as every tick ends: retirement order
            // is dispatch order, and exactly the ready head retires.
            while let Some((frame, gen)) = self.file.retire_head() {
                assert!(!self.flight.is_empty(), "retired {frame:?} with nothing in flight");
                let head = self.flight.remove(0);
                assert_eq!((frame, gen), (head.frame, self.gen(frame)), "not the oldest: {head:?}");
                assert!(head.commit && head.drained && head.acked, "retired unready: {head:?}");
                self.gens[frame.0 as usize] += 1; // the GT's deallocation bump
                tally.retired += 1;
            }
            let ready = |h: &InFlight| h.commit && h.drained && h.acked;
            assert!(!self.flight.first().is_some_and(ready), "a ready head stayed: {self:?}");
        }

        fn check(&self) {
            let file = &self.file;
            let gt = std::array::from_fn(|fi| (self.gens[fi], !self.in_flight(fi)));
            file.audit(&gt, |_, _| Ok(())).unwrap_or_else(|e| panic!("{e}\n{self:?}"));
            let set_of = |pred: fn(&InFlight) -> bool| {
                let mut set = FrameSet::EMPTY;
                self.flight.iter().filter(|f| pred(f)).for_each(|f| set.insert(f.frame));
                set
            };
            assert_eq!(file.active(), set_of(|f| f.touched), "{self:?}");
            assert_eq!(file.draining(), set_of(|f| f.commit && !f.drained), "{self:?}");
            let dispatched = self.flight.iter().filter(|f| f.dispatched).map(|f| f.frame);
            assert_eq!(file.order(), dispatched.collect::<Vec<_>>(), "{self:?}");
            // The drain port sees the undrained committing frames, oldest first.
            let (mut cursor, mut port) = (0, Vec::new());
            while let Some(frame) = file.next_draining(&mut cursor) {
                port.push(frame);
            }
            let undrained = self.flight.iter().filter(|f| f.commit && !f.drained).map(|f| f.frame);
            assert_eq!(port, undrained.collect::<Vec<_>>(), "{self:?}");

            for fi in 0..FRAMES {
                let frame = FrameId(fi as u8);
                let gen = self.gens[fi];
                assert_eq!(file.gen(frame), gen, "waves are atomic: the tile tracks the GT");
                let armed = self.flight.iter().any(|f| f.frame == frame && f.touched);
                assert_eq!(file.ok(frame, gen), armed);
                // A retired or flushed generation's stragglers bounce
                // off `ok` and `ensure` alike, leaving no trace.
                if gen > 0 {
                    let mut probe = file.clone();
                    assert!(!probe.ok(frame, gen - 1) && !probe.commit_wave(frame, gen - 1));
                    assert!(!probe.ensure(frame, gen - 1, true, |()| panic!("armed a dead gen")));
                    probe.neighbour_ack(frame, gen - 1);
                    assert!(probe == *file, "a straggler changed the file: {self:?}");
                }
            }
        }
    }

    #[test]
    fn every_interleaving_keeps_the_lifecycle_invariants() {
        let mut tally = Tally::default();
        let mut seen = HashSet::from([World::new()]);
        let mut frontier = vec![World::new()];
        for _ in 0..DEPTH {
            let mut next = Vec::new();
            for world in &frontier {
                for act in world.actions() {
                    let mut w = world.clone();
                    w.step(act, &mut tally);
                    w.check();
                    if seen.insert(w.clone()) {
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        // Not vacuous: every kind of event the lifecycle exists for
        // happened somewhere in the explored space.
        assert!(seen.len() > 50_000, "{} states", seen.len());
        let Tally { retired, squashed, stragglers, .. } = tally;
        assert!(retired > 0 && squashed > 0 && stragglers > 0, "{tally:?}");
        assert!(tally.touched_first > 0 && tally.acked_before_commit > 0, "{tally:?}");
        assert!(tally.drained_out_of_order > 0, "{tally:?}");
    }
}
