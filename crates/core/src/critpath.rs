//! Critical-path analysis in the style of Fields et al. (ISCA 2001),
//! as used for the overhead attribution of Table 3 (§5.4).
//!
//! Every microarchitectural happening of interest appends an *event*
//! carrying its time, its last-arriving parent, and the category and
//! latency of the edge from that parent. At the end of a run, walking
//! the parent chain backward from the final commit yields the
//! program's critical path, with each cycle attributed to one of the
//! paper's overhead categories.

/// Overhead categories: the columns of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cat {
    /// Instruction distribution: fetch pipeline and GDN dispatch.
    IFetch = 0,
    /// Operand network hop latency.
    OpnHop = 1,
    /// Operand network contention (queueing beyond hop latency).
    OpnContention = 2,
    /// Execution of fanout (`mov`) instructions.
    Fanout = 3,
    /// Waiting for the GT to learn all block outputs were produced.
    BlockComplete = 4,
    /// The commit command/acknowledgement round trip.
    BlockCommit = 5,
    /// Everything a conventional core also pays: ALU execution,
    /// selection, cache access, misses.
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
/// Edge latencies saturate here: the latency shares a word with the
/// category's three bits.
const LAT_MAX: u64 = (1 << 29) - 1;

/// A stored event: 12 bytes.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: u32,
    parent: u32,
    /// `lat << 3 | cat`.
    lat_cat: u32,
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
    /// Total cycles over all categories.
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
    /// of `cat` costing `lat` cycles. Returns the event's id.
    ///
    /// An event that costs nothing and happens at its parent's stored
    /// time is not stored: it returns the parent's id. That is exact —
    /// a walk adds 0 for it, and [`time_of`](Self::time_of) and
    /// [`later`](Self::later) read the same time either way. A
    /// saturated time is never elided.
    pub fn event(&mut self, time: u64, parent: u32, cat: Cat, lat: u64) -> u32 {
        if !self.enabled {
            return NO_EVENT;
        }
        let time = time.min(u64::from(u32::MAX)) as u32;
        if lat == 0 && parent != NO_EVENT && time != u32::MAX && self.get(parent).time == time {
            return parent;
        }
        let id = event_id(self.len);
        if id & CHUNK_MASK == 0 {
            self.chunks.push(Vec::with_capacity(1 << CHUNK_BITS));
        }
        let lat_cat = (lat.min(LAT_MAX) as u32) << 3 | cat as u32;
        self.chunks[(id >> CHUNK_BITS) as usize].push(Event { time, parent, lat_cat });
        self.len += 1;
        id
    }

    /// The recorded time of `ev` (0 for `NO_EVENT`).
    pub fn time_of(&self, ev: u32) -> u64 {
        if ev == NO_EVENT || !self.enabled {
            0
        } else {
            u64::from(self.get(ev).time)
        }
    }

    /// True if [`later`](Self::later) picks `b`: it arrived strictly
    /// later than `a`, or `a` is missing. Ask this, not whether the
    /// returned id equals `b` — two events can share an id.
    pub fn picks_second(&self, a: u32, b: u32) -> bool {
        b != NO_EVENT && (a == NO_EVENT || self.time_of(a) < self.time_of(b))
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

    /// Renders the first `n` chain events from `last` for debugging.
    pub fn debug_chain(&self, last: u32, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut cur = last;
        for _ in 0..n {
            if cur == NO_EVENT {
                out.push_str("ROOT\n");
                break;
            }
            let e = self.get(cur);
            let (cat, lat) = (CATS[(e.lat_cat & 7) as usize], e.lat_cat >> 3);
            let _ =
                writeln!(out, "ev{cur}: t={} {cat:?} lat={lat} parent={}", e.time, e.parent as i64);
            cur = e.parent;
        }
        out
    }

    /// Walks the critical path backward from `last`, accumulating
    /// per-category cycles.
    pub fn walk(&self, last: u32) -> CritBreakdown {
        let mut out = CritBreakdown::default();
        let mut cur = last;
        while cur != NO_EVENT {
            let e = self.get(cur);
            out.cycles[(e.lat_cat & 7) as usize] += u64::from(e.lat_cat >> 3);
            cur = e.parent;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_harness::Rng;

    /// The reference model: the recorder this module had before it
    /// elided events and packed them into chunks — one 16-byte record
    /// per call in one `Vec`, every id distinct.
    mod reference {
        use super::super::{Cat, CritBreakdown, NO_EVENT};

        #[derive(Clone, Copy)]
        struct Event {
            time: u32,
            parent: u32,
            cat: Cat,
            lat: u32,
        }

        #[derive(Default)]
        pub struct CritPath {
            events: Vec<Event>,
        }

        impl CritPath {
            pub fn event(&mut self, time: u64, parent: u32, cat: Cat, lat: u64) -> u32 {
                let id = self.events.len() as u32;
                self.events.push(Event {
                    time: time.min(u32::MAX as u64) as u32,
                    parent,
                    cat,
                    lat: lat.min(u32::MAX as u64) as u32,
                });
                id
            }

            pub fn time_of(&self, ev: u32) -> u64 {
                if ev == NO_EVENT {
                    0
                } else {
                    u64::from(self.events[ev as usize].time)
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
                    out.cycles[e.cat as usize] += u64::from(e.lat);
                    cur = e.parent;
                }
                out
            }
        }
    }

    /// Feeds the recorder and the reference model the same 200 000
    /// calls (three chunks' worth once elision is taken off) and
    /// requires, call by call, that the two returned ids walk to the
    /// same breakdown, read the same time and make `later` pick the
    /// same side against an earlier event — half the time the parent,
    /// so ties are common. Parents are earlier returned ids (uniform,
    /// so chains stay short) or a root; half the times tie the
    /// parent's, and a quarter of the latencies are 0.
    #[test]
    fn elided_chunked_recorder_matches_the_reference_model() {
        let mut rng = Rng::new(0x3e38);
        let (mut cp, mut model) = (CritPath::new(true), reference::CritPath::default());
        // `ids[i]` = (our id, the model's id) returned by call `i`.
        let mut ids: Vec<(u32, u32)> = Vec::new();
        let mut elided = 0;
        for call in 0..200_000 {
            let (p, rp) = if ids.is_empty() || rng.chance(1, 16) {
                (NO_EVENT, NO_EVENT)
            } else {
                ids[rng.range_usize(0, ids.len())]
            };
            let time = if rng.chance(1, 2) {
                model.time_of(rp)
            } else {
                model.time_of(rp) + rng.range_u64(1, 40)
            };
            let lat = if rng.chance(1, 4) { 0 } else { rng.range_u64(1, 40) };
            let cat = CATS[rng.range_usize(0, NUM_CATS)];
            if lat == 0 && rp != NO_EVENT && model.time_of(rp) == time {
                elided += 1;
            }
            let (a, b) = (cp.event(time, p, cat, lat), model.event(time, rp, cat, lat));
            assert_eq!(cp.walk(a), model.walk(b), "call {call}: walk");
            assert_eq!(cp.time_of(a), model.time_of(b), "call {call}: time_of");
            let (x, rx) = if rng.chance(1, 2) { (p, rp) } else { ids[rng.range_usize(0, call)] };
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
        assert_eq!(cp.event(10, NO_EVENT, Cat::Other, 5), NO_EVENT);
        assert!(cp.is_empty());
    }

    #[test]
    fn walk_accumulates_by_category() {
        let mut cp = CritPath::new(true);
        let a = cp.event(0, NO_EVENT, Cat::IFetch, 10);
        let b = cp.event(3, a, Cat::OpnHop, 3);
        let c = cp.event(5, b, Cat::OpnContention, 2);
        let d = cp.event(6, c, Cat::Other, 1);
        let bd = cp.walk(d);
        assert_eq!(bd.cycles[Cat::IFetch as usize], 10);
        assert_eq!(bd.cycles[Cat::OpnHop as usize], 3);
        assert_eq!(bd.cycles[Cat::OpnContention as usize], 2);
        assert_eq!(bd.cycles[Cat::Other as usize], 1);
        assert_eq!(bd.total(), 16);
        assert!((bd.fraction(Cat::IFetch) - 10.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn later_picks_by_time() {
        let mut cp = CritPath::new(true);
        let a = cp.event(5, NO_EVENT, Cat::Other, 5);
        let b = cp.event(9, NO_EVENT, Cat::Other, 9);
        assert_eq!(cp.later(a, b), b);
        assert_eq!(cp.later(b, a), b);
        assert_eq!(cp.later(NO_EVENT, a), a);
        assert_eq!(cp.later(a, NO_EVENT), a);
    }

    #[test]
    fn latency_saturates_at_29_bits_without_touching_the_category() {
        let mut cp = CritPath::new(true);
        let a = cp.event(1, NO_EVENT, Cat::BlockCommit, u64::MAX);
        let b = cp.event(2, a, Cat::Fanout, 1 << 29);
        let c = cp.event(3, b, Cat::IFetch, (1 << 29) - 2);
        let bd = cp.walk(c);
        assert_eq!(bd.cycles[Cat::BlockCommit as usize], (1 << 29) - 1);
        assert_eq!(bd.cycles[Cat::Fanout as usize], (1 << 29) - 1);
        assert_eq!(bd.cycles[Cat::IFetch as usize], (1 << 29) - 2);
        assert_eq!(bd.total(), 3 * (1 << 29) - 4);
    }

    #[test]
    fn a_saturated_time_is_never_elided() {
        let mut cp = CritPath::new(true);
        let a = cp.event(u64::MAX, NO_EVENT, Cat::Other, 1);
        let b = cp.event(u64::from(u32::MAX) + 7, a, Cat::Other, 0);
        assert_ne!(a, b);
        assert_eq!(cp.len(), 2);
        // The same shape below saturation is elided.
        let c = cp.event(9, NO_EVENT, Cat::Other, 1);
        assert_eq!(cp.event(9, c, Cat::OpnHop, 0), c);
        assert_eq!(cp.len(), 3);
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
