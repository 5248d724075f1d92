//! The flight recorder: core-wide event tracing for the distributed
//! protocols.
//!
//! The paper's argument is about *protocol timing* — fetch cadence,
//! commit overlap, flush waves — but a cycle simulator is opaque while
//! it runs. The [`Tracer`] is a bounded ring buffer of typed
//! [`TraceEvent`]s threaded through [`Processor::tick`] into every
//! tile and micronet. It is **zero-cost when disabled**: every record
//! site is a single branch on a bool, and the event value is built
//! inside a closure that never runs unless tracing is on.
//!
//! Enabled, it captures the full protocol choreography — fetch issue,
//! dispatch beats, operand inject/eject with hop and queue counts, LSQ
//! insert/wakeup, commit/flush wave arrival per tile, and block
//! acknowledgement — and can render it as Chrome `trace_event` JSON
//! ([`Tracer::chrome_trace`]) with one lane per tile, loadable in
//! `about:tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! [`Processor::tick`]: crate::Processor::tick

use trips_harness::json::Object;

use crate::config::CoreGeometry;
use crate::frames::FrameSet;
use crate::msg::{FrameId, OpnPayload, TileId};

/// Classes of operand-network payloads, for trace labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpnClass {
    /// An operand for an ET reservation station.
    Operand,
    /// A register-write value for an RT write queue.
    WriteVal,
    /// A load request for a DT.
    LoadReq,
    /// A store (or nullified store) for a DT.
    StoreReq,
    /// A resolved branch for the GT.
    Branch,
}

impl OpnClass {
    /// The payload's class.
    pub fn of(p: &OpnPayload) -> OpnClass {
        match p {
            OpnPayload::Operand { .. } => OpnClass::Operand,
            OpnPayload::WriteVal { .. } => OpnClass::WriteVal,
            OpnPayload::LoadReq { .. } => OpnClass::LoadReq,
            OpnPayload::StoreReq { .. } => OpnClass::StoreReq,
            OpnPayload::Branch { .. } => OpnClass::Branch,
        }
    }

    fn name(self) -> &'static str {
        match self {
            OpnClass::Operand => "operand",
            OpnClass::WriteVal => "writeval",
            OpnClass::LoadReq => "load",
            OpnClass::StoreReq => "store",
            OpnClass::Branch => "branch",
        }
    }
}

/// One typed protocol event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// The GT began fetching a block into `frame`.
    FetchIssued {
        /// Destination frame.
        frame: FrameId,
        /// Block header address.
        pc: u64,
    },
    /// The GT issued the GDN dispatch command for `frame`.
    DispatchCmd {
        /// The frame.
        frame: FrameId,
        /// Block header address.
        pc: u64,
    },
    /// An IT streamed one dispatch beat to its row.
    DispatchBeat {
        /// The IT (0..5).
        it: u8,
        /// The frame being dispatched.
        frame: FrameId,
        /// Beat number (0..8).
        beat: u8,
    },
    /// A message entered an operand network.
    OpnInject {
        /// Which parallel OPN (0-based).
        net: u8,
        /// Payload class.
        class: OpnClass,
        /// Injecting tile.
        src: TileId,
        /// Destination tile.
        dst: TileId,
    },
    /// A message left an operand network at its destination.
    OpnEject {
        /// Which parallel OPN (0-based).
        net: u8,
        /// Payload class.
        class: OpnClass,
        /// Injecting tile.
        src: TileId,
        /// Destination tile.
        dst: TileId,
        /// Router-to-router link traversals.
        hops: u32,
        /// Cycles queued beyond the minimum (contention).
        queued: u32,
    },
    /// A DT accepted a load or store into its LSQ copy.
    LsqInsert {
        /// The DT (0..4).
        dt: u8,
        /// The frame.
        frame: FrameId,
        /// The access's LSID.
        lsid: u8,
        /// True for stores.
        store: bool,
    },
    /// A deferred load woke after its prior stores arrived.
    LsqWakeup {
        /// The DT (0..4).
        dt: u8,
        /// The frame.
        frame: FrameId,
        /// The load's LSID.
        lsid: u8,
    },
    /// An RT observed all declared writes of `frame` and joined the
    /// completion daisy chain.
    WritesDone {
        /// The RT bank (0..4).
        rt: u8,
        /// The frame.
        frame: FrameId,
    },
    /// DT0 observed all expected stores of `frame` and notified the GT.
    StoresDone {
        /// The frame.
        frame: FrameId,
    },
    /// The GT marked `frame` complete (writes + stores + branch).
    BlockComplete {
        /// The frame.
        frame: FrameId,
    },
    /// The GT put the commit command for `frame` on the GCN.
    CommitCmd {
        /// The frame.
        frame: FrameId,
    },
    /// The GCN commit wave reached `tile`.
    CommitWave {
        /// The tile.
        tile: TileId,
        /// The frame.
        frame: FrameId,
    },
    /// The GCN flush wave reached `tile`.
    FlushWave {
        /// The tile.
        tile: TileId,
        /// Frame mask being flushed.
        mask: FrameSet,
    },
    /// A tile finished its commit work and joined the ack chain.
    CommitAck {
        /// The tile (an RT or DT).
        tile: TileId,
        /// The frame.
        frame: FrameId,
    },
    /// Both acks arrived at the GT: `frame` deallocated.
    BlockAck {
        /// The frame.
        frame: FrameId,
        /// The committed block's address.
        pc: u64,
    },
    /// A DT raised a memory-ordering violation against `frame`.
    Violation {
        /// The detecting DT.
        dt: u8,
        /// The flushed-from frame.
        frame: FrameId,
    },
    /// An IT began an I-cache refill.
    RefillStart {
        /// The IT (0..5).
        it: u8,
        /// Block address.
        addr: u64,
    },
    /// An IT's refill chunk arrived and the completion chain advanced.
    RefillDone {
        /// The IT (0..5).
        it: u8,
        /// Block address.
        addr: u64,
    },
    /// A secondary-memory request entered the OCN (NUCA backend).
    OcnInject {
        /// Client port (0..4 = DT0..3, 10..15 = IT0..4).
        port: u8,
        /// Line-aligned byte address.
        addr: u64,
        /// True for a store writeback, false for a line fill.
        write: bool,
    },
    /// A secondary-memory response left the OCN at its client.
    OcnEject {
        /// Client port (0..4 = DT0..3, 10..15 = IT0..4).
        port: u8,
        /// Line-aligned byte address.
        addr: u64,
        /// True for a writeback acknowledgement, false for a fill.
        write: bool,
    },
}

/// One recorded event with its cycle stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The cycle the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// Default ring-buffer capacity (events) for [`Tracer::enabled`].
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The flight recorder: a bounded ring buffer of [`TraceEvent`]s.
///
/// Disabled (the default), every [`Tracer::record`] call is one branch
/// and nothing allocates. Enabled, the buffer holds the most recent
/// `capacity` events; older events are dropped (counted in
/// [`Tracer::dropped`]) without reallocating.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    cap: usize,
    /// Geometry the lane layout is derived from (the prototype's
    /// 4×4 array reproduces the original fixed lane numbers exactly).
    geom: CoreGeometry,
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    /// OPN messages recorded injected (tracing on only).
    pub opn_injected: u64,
    /// OPN messages recorded ejected (tracing on only).
    pub opn_ejected: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A disabled tracer: every record call is a single branch.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            cap: 0,
            geom: CoreGeometry::prototype(),
            buf: Vec::new(),
            head: 0,
            dropped: 0,
            opn_injected: 0,
            opn_ejected: 0,
        }
    }

    /// An enabled tracer retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn enabled(capacity: usize) -> Tracer {
        Tracer::enabled_with(capacity, CoreGeometry::prototype())
    }

    /// An enabled tracer whose lane layout is sized for `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn enabled_with(capacity: usize, geom: CoreGeometry) -> Tracer {
        assert!(capacity > 0, "trace ring must hold at least one event");
        Tracer {
            enabled: true,
            cap: capacity,
            geom,
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            opn_injected: 0,
            opn_ejected: 0,
        }
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Ring capacity in events (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted from the ring since the last [`Tracer::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records one event. `make` only runs when tracing is enabled, so
    /// disabled call sites pay one branch and never construct the
    /// event.
    #[inline(always)]
    pub fn record<F: FnOnce() -> TraceKind>(&mut self, cycle: u64, make: F) {
        if !self.enabled {
            return;
        }
        self.push(cycle, make());
    }

    #[inline(never)]
    fn push(&mut self, cycle: u64, kind: TraceKind) {
        match kind {
            TraceKind::OpnInject { .. } => self.opn_injected += 1,
            TraceKind::OpnEject { .. } => self.opn_ejected += 1,
            _ => {}
        }
        let ev = TraceEvent { cycle, kind };
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            // Overwrite the oldest slot in place: bounded memory, no
            // reallocation.
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Clears retained events and counters, keeping the enabled state
    /// and the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
        self.opn_injected = 0;
        self.opn_ejected = 0;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Renders the retained events as Chrome `trace_event` JSON with
    /// one lane (thread) per tile plus one per operand network — open
    /// the result in `about:tracing` or Perfetto. One simulated cycle
    /// maps to one microsecond of trace time.
    pub fn chrome_trace(&self) -> String {
        chrome_document(self.chrome_rows(0))
    }

    /// The lane metadata and events of one core as process `pid`, one
    /// trace event per row — the body shared between the solo and chip
    /// exporters.
    fn chrome_rows(&self, pid: u32) -> impl Iterator<Item = Object> + '_ {
        // Lane names, derived from the geometry (prototype layout:
        // GT 0, IT 1..6, RT 6..10, DT 10..14, ET 14..30, OPN 30..34,
        // OCN 34 — exactly the original fixed numbering).
        let g = self.geom;
        let mut lanes: Vec<(u32, String)> = vec![(LANE_GT, "GT".into())];
        for it in 0..g.num_its() as u8 {
            lanes.push((lane_it(it), format!("IT{it}")));
        }
        for rt in 0..g.num_rts() as u8 {
            lanes.push((lane_tile(g, TileId::Rt(rt)), format!("RT{rt}")));
        }
        for dt in 0..g.num_dts() as u8 {
            lanes.push((lane_tile(g, TileId::Dt(dt)), format!("DT{dt}")));
        }
        for r in 0..g.et_rows as u8 {
            for c in 0..g.et_cols as u8 {
                lanes.push((lane_tile(g, TileId::Et(r, c)), format!("ET({r},{c})")));
            }
        }
        for net in 0..4u8 {
            lanes.push((lane_opn(g, net), format!("OPN{net}")));
        }
        lanes.push((lane_ocn(g), "OCN".into()));
        let lane_names = lanes.into_iter().map(move |(tid, name)| {
            let meta = Object::default().str("name", "thread_name").str("ph", "M");
            meta.lit("pid", pid).lit("tid", tid).raw("args", Object::default().str("name", &name))
        });
        let events = self.events().map(move |ev| {
            let (tid, name, args) = describe(g, &ev.kind);
            let event = Object::default().str("name", &name).str("ph", "i").str("s", "t");
            event.lit("pid", pid).lit("tid", tid).lit("ts", ev.cycle).raw("args", args)
        });
        lane_names.chain(events)
    }
}

/// Renders several cores' flight recorders as one Chrome `trace_event`
/// JSON document: one *process* per core (named `core K`), with the
/// usual one-lane-per-tile threads inside each — the chip view of the
/// per-core recorder. A one-element slice produces the same lanes as
/// [`Tracer::chrome_trace`] plus the process label.
pub fn chrome_trace_chip(cores: &[&Tracer]) -> String {
    chrome_document(cores.iter().zip(0u32..).flat_map(|(tracer, pid)| {
        let label = Object::default().str("name", &format!("core {pid}"));
        let process = Object::default().str("name", "process_name").str("ph", "M");
        std::iter::once(process.lit("pid", pid).raw("args", label)).chain(tracer.chrome_rows(pid))
    }))
}

/// One Chrome `trace_event` document holding `rows`.
fn chrome_document(rows: impl IntoIterator<Item = Object>) -> String {
    Object::default().str("displayTimeUnit", "ns").rows("traceEvents", rows).document()
}

const LANE_GT: u32 = 0;

fn lane_it(it: u8) -> u32 {
    1 + u32::from(it)
}

/// Lane of a routed tile: GT, then ITs, RTs, DTs, and the ET array
/// row-major — packed per the geometry so no two tiles collide at any
/// supported size (prototype: RT 6.., DT 10.., ET 14..).
fn lane_tile(g: CoreGeometry, t: TileId) -> u32 {
    let rt_base = 1 + g.num_its() as u32;
    let dt_base = rt_base + g.num_rts() as u32;
    let et_base = dt_base + g.num_dts() as u32;
    match t {
        TileId::Gt => LANE_GT,
        TileId::Rt(b) => rt_base + u32::from(b),
        TileId::Dt(d) => dt_base + u32::from(d),
        TileId::Et(r, c) => et_base + u32::from(r) * g.et_cols as u32 + u32::from(c),
    }
}

fn lane_opn(g: CoreGeometry, net: u8) -> u32 {
    // First lane past the tiles (prototype: 30).
    g.tile_ticks() as u32 + u32::from(net)
}

/// The secondary system's OCN gets one lane after the OPNs.
fn lane_ocn(g: CoreGeometry) -> u32 {
    lane_opn(g, 4)
}

/// (lane, event name, args) for one event kind.
fn describe(g: CoreGeometry, kind: &TraceKind) -> (u32, String, Object) {
    let hex = |v: u64| format!("{v:#x}");
    let named = |what: &str, f: FrameId| format!("{what} f{}", f.0);
    let of = |f: FrameId| Object::default().lit("frame", f.0);
    let opn = |src: TileId, dst: TileId, net: u8| {
        Object::default().str("src", &src.to_string()).str("dst", &dst.to_string()).lit("net", net)
    };
    let ocn = |port: u8, addr: u64, write: bool| {
        Object::default().lit("port", port).str("addr", &hex(addr)).lit("write", write)
    };
    let dt = |d| lane_tile(g, TileId::Dt(d));
    match *kind {
        TraceKind::FetchIssued { frame, pc } => {
            (LANE_GT, named("fetch", frame), of(frame).str("pc", &hex(pc)))
        }
        TraceKind::DispatchCmd { frame, pc } => {
            (LANE_GT, named("dispatch", frame), of(frame).str("pc", &hex(pc)))
        }
        TraceKind::DispatchBeat { it, frame, beat } => {
            (lane_it(it), named("beat", frame), of(frame).lit("beat", beat))
        }
        TraceKind::OpnInject { net, class, src, dst } => {
            (lane_opn(g, net), format!("inject {}", class.name()), opn(src, dst, net))
        }
        TraceKind::OpnEject { net, class, src, dst, hops, queued } => (
            lane_opn(g, net),
            format!("eject {}", class.name()),
            opn(src, dst, net).lit("hops", hops).lit("queued", queued),
        ),
        TraceKind::LsqInsert { dt: d, frame, lsid, store } => (
            dt(d),
            named(if store { "lsq store" } else { "lsq load" }, frame),
            of(frame).lit("lsid", lsid).lit("store", store),
        ),
        TraceKind::LsqWakeup { dt: d, frame, lsid } => {
            (dt(d), named("lsq wakeup", frame), of(frame).lit("lsid", lsid))
        }
        TraceKind::WritesDone { rt, frame } => {
            (lane_tile(g, TileId::Rt(rt)), named("writes done", frame), of(frame))
        }
        TraceKind::StoresDone { frame } => (dt(0), named("stores done", frame), of(frame)),
        TraceKind::BlockComplete { frame } => (LANE_GT, named("complete", frame), of(frame)),
        TraceKind::CommitCmd { frame } => (LANE_GT, named("commit", frame), of(frame)),
        TraceKind::CommitWave { tile, frame } => {
            (lane_tile(g, tile), named("commit wave", frame), of(frame))
        }
        TraceKind::FlushWave { tile, mask } => (
            lane_tile(g, tile),
            "flush wave".to_string(),
            Object::default().str("mask", &format!("{mask:#010b}")),
        ),
        TraceKind::CommitAck { tile, frame } => {
            (lane_tile(g, tile), named("ack", frame), of(frame))
        }
        TraceKind::BlockAck { frame, pc } => {
            (LANE_GT, named("dealloc", frame), of(frame).str("pc", &hex(pc)))
        }
        TraceKind::Violation { dt: d, frame } => (dt(d), named("violation", frame), of(frame)),
        TraceKind::RefillStart { it, addr } => {
            (lane_it(it), "refill".to_string(), Object::default().str("addr", &hex(addr)))
        }
        TraceKind::RefillDone { it, addr } => {
            (lane_it(it), "refill done".to_string(), Object::default().str("addr", &hex(addr)))
        }
        TraceKind::OcnInject { port, addr, write } => (
            lane_ocn(g),
            format!("inject {}", if write { "writeback" } else { "fill" }),
            ocn(port, addr, write),
        ),
        TraceKind::OcnEject { port, addr, write } => (
            lane_ocn(g),
            format!("eject {}", if write { "ack" } else { "fill" }),
            ocn(port, addr, write),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceKind {
        TraceKind::FetchIssued { frame: FrameId((i % 8) as u8), pc: i * 64 }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        let mut called = false;
        t.record(0, || {
            called = true;
            ev(0)
        });
        assert!(!called, "closure must not run when disabled");
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn ring_drops_oldest_without_reallocating() {
        let mut t = Tracer::enabled(4);
        for i in 0..10u64 {
            t.record(i, || ev(i));
        }
        let base_cap = t.buf.capacity();
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "oldest events evicted first");
        for i in 10..1000u64 {
            t.record(i, || ev(i));
        }
        assert_eq!(t.buf.capacity(), base_cap, "ring must not reallocate");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn clear_keeps_enabled_and_capacity() {
        let mut t = Tracer::enabled(8);
        for i in 0..20u64 {
            t.record(i, || ev(i));
        }
        t.clear();
        assert!(t.is_enabled());
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 0);
        t.record(5, || ev(5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let mut t = Tracer::enabled(64);
        t.record(1, || TraceKind::FetchIssued { frame: FrameId(0), pc: 0x80 });
        t.record(3, || TraceKind::OpnInject {
            net: 0,
            class: OpnClass::Operand,
            src: TileId::Et(0, 0),
            dst: TileId::Et(1, 2),
        });
        t.record(7, || TraceKind::OpnEject {
            net: 0,
            class: OpnClass::Operand,
            src: TileId::Et(0, 0),
            dst: TileId::Et(1, 2),
            hops: 3,
            queued: 1,
        });
        let json = t.chrome_trace();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"hops\": 3"));
        assert!(json.contains("thread_name"));
        assert!(json.contains("ET(1,2)"));
        assert!(json.contains(
            "\n    {\"name\": \"fetch f0\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": 0, \
             \"ts\": 1, \"args\": {\"frame\": 0, \"pc\": \"0x80\"}}"
        ));
    }
}
