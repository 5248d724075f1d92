//! Critical-path analysis in the style of Fields et al. (ISCA 2001),
//! as used for the overhead attribution of Table 3 (§5.4).
//!
//! Every microarchitectural happening of interest appends an *event*
//! carrying its time, its last-arriving parent, and the category of
//! the edge from that parent. At the end of a run, walking the parent
//! chain backward from the final commit yields the program's critical
//! path. The walk charges each edge its gap, `time − parent.time`, to
//! the edge's category, and the root (the first fetch, at t = 0)
//! nothing, so the categories add up to the final event's time. No
//! recording site computes a latency: where one gap covers two kinds
//! of delay, the site records an event where the first one ends, as
//! [`CritPath::opn_arrival`] does for the three parts of an operand's
//! trip.

use trips_micronet::MeshMsg;

/// Overhead categories: the columns of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cat {
    /// Instruction distribution: fetch pipeline and GDN dispatch.
    IFetch = 0,
    /// Operand network hop latency.
    OpnHop = 1,
    /// Operand network contention: the wait in the sender's outbox
    /// before injection and the queueing in the routers beyond hop
    /// latency.
    OpnContention = 2,
    /// Execution of fanout (`mov`) instructions.
    Fanout = 3,
    /// Waiting for the GT to learn all block outputs were produced.
    BlockComplete = 4,
    /// The commit command/acknowledgement round trip.
    BlockCommit = 5,
    /// Everything a conventional core also pays: ALU execution,
    /// selection, cache access, misses (I-cache refills included).
    Other = 6,
}

/// Number of categories.
pub const NUM_CATS: usize = 7;

/// All categories in display order.
pub const CATS: [Cat; NUM_CATS] = [
    Cat::IFetch,
    Cat::OpnHop,
    Cat::OpnContention,
    Cat::Fanout,
    Cat::BlockComplete,
    Cat::BlockCommit,
    Cat::Other,
];

impl Cat {
    /// Column label used by the Table 3 printer.
    pub fn label(self) -> &'static str {
        match self {
            Cat::IFetch => "IFetch",
            Cat::OpnHop => "OPN Hops",
            Cat::OpnContention => "OPN Cont.",
            Cat::Fanout => "Fanout Ops",
            Cat::BlockComplete => "Block Complete",
            Cat::BlockCommit => "Block Commit",
            Cat::Other => "Other",
        }
    }
}

/// Sentinel for "no parent" (a root event).
pub const NO_EVENT: u32 = u32::MAX;

/// log2 of the events per chunk (64 Ki), so an id splits by shift and mask.
const CHUNK_BITS: u32 = 16;
const CHUNK_MASK: u32 = (1 << CHUNK_BITS) - 1;

/// A stored event: 12 bytes.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: u32,
    parent: u32,
    cat: Cat,
}
const _: () = assert!(std::mem::size_of::<Event>() == 12);

/// The id of the `n`-th stored event. Ids stop short of [`NO_EVENT`]:
/// an id that wrapped onto it would read as a root.
fn event_id(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(id) if id != NO_EVENT => id,
        _ => panic!("critical-path recorder full: {n} events stored, at most {NO_EVENT} fit"),
    }
}

/// The event graph recorder.
///
/// When disabled, [`CritPath::event`] is a no-op returning
/// [`NO_EVENT`], so the simulator pays nothing on runs that do not
/// need attribution. Events live in fixed-size chunks, so growth
/// never moves the recorded graph.
#[derive(Debug, Default)]
pub struct CritPath {
    enabled: bool,
    chunks: Vec<Vec<Event>>,
    len: usize,
}

/// Per-category cycle totals from a critical-path walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CritBreakdown {
    /// Cycles attributed to each [`Cat`] (indexed by discriminant).
    pub cycles: [u64; NUM_CATS],
}

impl CritBreakdown {
    /// Total cycles over all categories: the walk's first event's time.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Fraction (0..=1) of the path in `cat`.
    pub fn fraction(&self, cat: Cat) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.cycles[cat as usize] as f64 / t as f64
        }
    }
}

impl CritPath {
    /// A recorder; `enabled` selects whether events are stored.
    pub fn new(enabled: bool) -> CritPath {
        CritPath { enabled, ..CritPath::default() }
    }

    /// True if events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn get(&self, ev: u32) -> Event {
        self.chunks[(ev >> CHUNK_BITS) as usize][(ev & CHUNK_MASK) as usize]
    }

    /// Appends an event at `time`, reached from `parent` over an edge
    /// of `cat`. Returns the event's id.
    ///
    /// An event at its parent's stored time is not stored: it returns
    /// the parent's id. That is exact — a walk charges its edge 0, and
    /// [`later`](Self::later) reads the same time either way.
    pub fn event(&mut self, time: u64, parent: u32, cat: Cat) -> u32 {
        if !self.enabled {
            return NO_EVENT;
        }
        let time = time.min(u64::from(u32::MAX)) as u32;
        if parent != NO_EVENT && self.get(parent).time == time {
            return parent;
        }
        let id = event_id(self.len);
        if id & CHUNK_MASK == 0 {
            self.chunks.push(Vec::with_capacity(1 << CHUNK_BITS));
        }
        self.chunks[(id >> CHUNK_BITS) as usize].push(Event { time, parent, cat });
        self.len += 1;
        id
    }

    /// The arrival at `now` of OPN message `msg`, sent by event
    /// `parent`. The message's own times split the trip: the wait in
    /// the sender's outbox up to `injected_at` and the last `queued`
    /// cycles, spent queueing in the routers, are contention; the
    /// flight between them (`hops + 1` cycles) is hop latency.
    pub fn opn_arrival<P>(&mut self, now: u64, parent: u32, msg: &MeshMsg<P>) -> u32 {
        let sent = self.event(msg.injected_at, parent, Cat::OpnContention);
        let flown = self.event(now - u64::from(msg.queued), sent, Cat::OpnHop);
        self.event(now, flown, Cat::OpnContention)
    }

    /// True if [`later`](Self::later) picks `b`: it arrived strictly
    /// later than `a`, or `a` is missing. Ask this, not whether the
    /// returned id equals `b` — two events can share an id.
    pub fn picks_second(&self, a: u32, b: u32) -> bool {
        b != NO_EVENT && (a == NO_EVENT || self.get(a).time < self.get(b).time)
    }

    /// Of two candidate parents, the one with the later recorded time
    /// (the last-arriving edge).
    pub fn later(&self, a: u32, b: u32) -> u32 {
        if self.picks_second(a, b) {
            b
        } else {
            a
        }
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing was stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Event `ev` and the gap from its parent's time (t = 0 for a root).
    fn edge(&self, ev: u32) -> (Event, i64) {
        let e = self.get(ev);
        let from = if e.parent == NO_EVENT { 0 } else { self.get(e.parent).time };
        (e, i64::from(e.time) - i64::from(from))
    }

    /// Renders the first `n` chain events from `last`, each with its
    /// edge's gap, for debugging; each line's parent is the next.
    pub fn debug_chain(&self, last: u32, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut cur = last;
        for _ in 0..n {
            if cur == NO_EVENT {
                out.push_str("ROOT\n");
                break;
            }
            let (e, gap) = self.edge(cur);
            let _ = writeln!(out, "ev{cur}: t={} {:?} gap={gap}", e.time, e.cat);
            cur = e.parent;
        }
        out
    }

    /// Walks the critical path backward from `last`, charging each
    /// edge its gap in its category.
    ///
    /// # Panics
    ///
    /// On a negative gap or a root after t = 0, printing the chain back
    /// from that event: the graph does not reconstruct the run.
    pub fn walk(&self, last: u32) -> CritBreakdown {
        let mut out = CritBreakdown::default();
        let mut cur = last;
        while cur != NO_EVENT {
            let (e, gap) = self.edge(cur);
            if gap < 0 || (e.parent == NO_EVENT && gap > 0) {
                let what = if gap < 0 { "precedes its parent" } else { "is a root after t = 0" };
                panic!("critical path: ev{cur} {what}\n{}", self.debug_chain(cur, 16));
            }
            out.cycles[e.cat as usize] += gap as u64;
            cur = e.parent;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_harness::Rng;

    /// The reference model: a recorder that elides nothing and packs
    /// nothing — one record per call in one `Vec`, every id distinct,
    /// each edge charged its gap.
    mod reference {
        use super::super::{Cat, CritBreakdown, NO_EVENT};

        #[derive(Clone, Copy)]
        struct Event {
            time: u64,
            parent: u32,
            cat: Cat,
        }

        #[derive(Default)]
        pub struct CritPath {
            events: Vec<Event>,
        }

        impl CritPath {
            pub fn event(&mut self, time: u64, parent: u32, cat: Cat) -> u32 {
                let id = self.events.len() as u32;
                self.events.push(Event { time, parent, cat });
                id
            }

            pub fn time_of(&self, ev: u32) -> u64 {
                if ev == NO_EVENT {
                    0
                } else {
                    self.events[ev as usize].time
                }
            }

            pub fn later(&self, a: u32, b: u32) -> u32 {
                match (a, b) {
                    (NO_EVENT, b) => b,
                    (a, NO_EVENT) => a,
                    (a, b) => {
                        if self.time_of(a) >= self.time_of(b) {
                            a
                        } else {
                            b
                        }
                    }
                }
            }

            pub fn len(&self) -> usize {
                self.events.len()
            }

            pub fn walk(&self, last: u32) -> CritBreakdown {
                let mut out = CritBreakdown::default();
                let mut cur = last;
                while cur != NO_EVENT {
                    let e = self.events[cur as usize];
                    out.cycles[e.cat as usize] += e.time - self.time_of(e.parent);
                    cur = e.parent;
                }
                out
            }
        }
    }

    /// Feeds the recorder and the reference model the same 300 000
    /// calls (three chunks' worth once elision is taken off) and
    /// requires, call by call, that the two returned ids walk to the
    /// same breakdown, that it adds up to the event's time, and that
    /// `later` picks the same side against an earlier event — half the
    /// time the parent, so ties are common. Parents are earlier
    /// returned ids (uniform, so chains stay short) or a root at t = 0;
    /// half the times tie the parent's.
    #[test]
    fn elided_chunked_recorder_matches_the_reference_model() {
        let mut rng = Rng::new(0x3e38);
        let (mut cp, mut model) = (CritPath::new(true), reference::CritPath::default());
        // `ids[i]` = (our id, the model's id) returned by call `i`.
        let mut ids: Vec<(u32, u32)> = Vec::new();
        let mut elided = 0;
        for call in 0..300_000 {
            let (p, rp) = if ids.is_empty() || rng.chance(1, 16) {
                (NO_EVENT, NO_EVENT)
            } else {
                ids[rng.range_usize(0, ids.len())]
            };
            let time = if rp == NO_EVENT || rng.chance(1, 2) {
                model.time_of(rp)
            } else {
                model.time_of(rp) + rng.range_u64(1, 40)
            };
            let cat = CATS[rng.range_usize(0, NUM_CATS)];
            if rp != NO_EVENT && model.time_of(rp) == time {
                elided += 1;
            }
            let (a, b) = (cp.event(time, p, cat), model.event(time, rp, cat));
            assert_eq!(cp.walk(a), model.walk(b), "call {call}: walk");
            assert_eq!(cp.walk(a).total(), time, "call {call}: the walk adds up");
            assert_eq!(u64::from(cp.get(a).time), model.time_of(b), "call {call}: time");
            let (x, rx) =
                if call == 0 || rng.chance(1, 2) { (p, rp) } else { ids[rng.range_usize(0, call)] };
            assert_eq!(cp.picks_second(x, a), model.later(rx, b) == b, "call {call}: later(x, a)");
            assert_eq!(cp.picks_second(a, x), model.later(b, rx) == rx, "call {call}: later(a, x)");
            assert_eq!(cp.later(x, a), if model.later(rx, b) == b { a } else { x });
            ids.push((a, b));
        }
        assert!(elided > 10_000, "only {elided} calls were elidable");
        assert_eq!(cp.len(), model.len() - elided);
        assert!(cp.len() > 2 << CHUNK_BITS, "{} events fill fewer than three chunks", cp.len());
    }

    #[test]
    fn disabled_recorder_is_free() {
        let mut cp = CritPath::new(false);
        assert_eq!(cp.event(10, NO_EVENT, Cat::Other), NO_EVENT);
        assert!(cp.is_empty());
    }

    #[test]
    fn walk_charges_each_edge_its_gap() {
        let mut cp = CritPath::new(true);
        let a = cp.event(0, NO_EVENT, Cat::IFetch);
        let b = cp.event(10, a, Cat::IFetch);
        let c = cp.event(13, b, Cat::OpnHop);
        let d = cp.event(15, c, Cat::OpnContention);
        let e = cp.event(16, d, Cat::Other);
        let bd = cp.walk(e);
        assert_eq!(bd.cycles[Cat::IFetch as usize], 10);
        assert_eq!(bd.cycles[Cat::OpnHop as usize], 3);
        assert_eq!(bd.cycles[Cat::OpnContention as usize], 2);
        assert_eq!(bd.cycles[Cat::Other as usize], 1);
        assert_eq!(bd.total(), 16);
        assert!((bd.fraction(Cat::IFetch) - 10.0 / 16.0).abs() < 1e-12);
        let chain = cp.debug_chain(e, 8);
        assert!(chain.starts_with("ev4: t=16 Other gap=1\nev3: t=15 OpnContention gap=2\n"));
        assert!(chain.ends_with("ev1: t=10 IFetch gap=10\nev0: t=0 IFetch gap=0\nROOT\n"));
    }

    #[test]
    fn an_opn_arrival_splits_outbox_wait_flight_and_queueing() {
        let mut cp = CritPath::new(true);
        let sent = cp.event(0, NO_EVENT, Cat::Other);
        let at = trips_micronet::Coord { row: 0, col: 0 };
        let mut msg = MeshMsg::new(at, at, ());
        (msg.injected_at, msg.hops, msg.queued) = (4, 2, 5);
        // Outbox 0..4, flight 4..7 (hops + 1), router queueing 7..12.
        let arrived = cp.opn_arrival(12, sent, &msg);
        let bd = cp.walk(arrived);
        assert_eq!(bd.cycles[Cat::OpnContention as usize], 4 + 5);
        assert_eq!(bd.cycles[Cat::OpnHop as usize], 3);
        assert_eq!(bd.total(), 12);
        // Injected at once and never queued: one stored hop event.
        (msg.injected_at, msg.queued) = (0, 0);
        let before = cp.len();
        let arrived = cp.opn_arrival(3, sent, &msg);
        let bd = cp.walk(arrived);
        assert_eq!((bd.cycles[Cat::OpnHop as usize], bd.total()), (3, 3));
        assert_eq!(cp.len(), before + 1);
    }

    #[test]
    #[should_panic(expected = "ev2 precedes its parent")]
    fn a_negative_gap_panics() {
        let mut cp = CritPath::new(true);
        let a = cp.event(0, NO_EVENT, Cat::IFetch);
        let b = cp.event(5, a, Cat::Other);
        let c = cp.event(3, b, Cat::Other);
        cp.walk(c);
    }

    #[test]
    #[should_panic(expected = "ev1 is a root after t = 0")]
    fn a_root_after_t0_panics() {
        let mut cp = CritPath::new(true);
        let _ = cp.event(0, NO_EVENT, Cat::IFetch);
        let a = cp.event(4, NO_EVENT, Cat::Other);
        let b = cp.event(6, a, Cat::Other);
        cp.walk(b);
    }

    #[test]
    fn later_picks_by_time() {
        let mut cp = CritPath::new(true);
        let a = cp.event(5, NO_EVENT, Cat::Other);
        let b = cp.event(9, NO_EVENT, Cat::Other);
        assert_eq!(cp.later(a, b), b);
        assert_eq!(cp.later(b, a), b);
        assert_eq!(cp.later(NO_EVENT, a), a);
        assert_eq!(cp.later(a, NO_EVENT), a);
    }

    #[test]
    fn times_saturate_at_u32_max() {
        let mut cp = CritPath::new(true);
        let a = cp.event(0, NO_EVENT, Cat::IFetch);
        let b = cp.event(u64::MAX, a, Cat::Other);
        assert_eq!(cp.event(u64::from(u32::MAX) + 7, b, Cat::OpnHop), b);
        assert_eq!(cp.len(), 2);
        assert_eq!(cp.walk(b).total(), u64::from(u32::MAX));
    }

    #[test]
    fn ids_stop_short_of_no_event() {
        assert_eq!(event_id(0), 0);
        assert_eq!(event_id(NO_EVENT as usize - 1), NO_EVENT - 1);
    }

    #[test]
    #[should_panic(expected = "4294967295 events stored")]
    fn an_id_that_would_alias_no_event_is_refused() {
        event_id(NO_EVENT as usize);
    }

    #[test]
    #[should_panic(expected = "4294967296 events stored")]
    fn an_id_past_u32_is_refused() {
        event_id(1 << 32);
    }
}
