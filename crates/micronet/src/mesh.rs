//! The one router: a wormhole-routed mesh with `VCS` virtual channels
//! per link, carrying messages of one or more flits.
//!
//! The paper's two data networks are this machine at two design
//! points. The operand network (OPN, §3) is a 5×5 mesh with separate
//! control and data channels; the control header phit is launched one
//! cycle ahead of the data payload so the consuming tile can wake its
//! target instruction early. It is `Mesh<P>`: one virtual channel,
//! every operand a single flit, one-cycle hops, one message per link
//! per cycle — enough fidelity to reproduce the hop-latency and
//! contention components of the paper's critical-path breakdown
//! (Table 3). The on-chip network (OCN, §3.6) is a 4×10 mesh with
//! 16-byte links and four virtual channels, optimized for
//! cache-line-sized transfers. It is `Mesh<P, VIRTUAL_CHANNELS>`,
//! carrying whole packets whose flit count occupies each traversed
//! link for that many cycles, which gives wormhole-accurate bandwidth
//! and head-of-line behaviour at packet granularity.
//!
//! Both have small input buffers with credit flow control, Y-X
//! dimension-order routing and deterministic round-robin arbitration.

use std::collections::VecDeque;

use crate::fault::{MeshFaultConfig, MeshFaultState};
use crate::routerset::RouterSet;
use crate::wake::WakePort;

/// Virtual channels per physical link of the OCN.
pub const VIRTUAL_CHANNELS: usize = 4;

/// Distinct client tags a [`Mesh`] accounts for — one per core of the
/// largest die the chip-level geometry supports (16 cores).
pub const MAX_TAGS: usize = 16;

/// Position of a router in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Row (increases southward).
    pub row: u8,
    /// Column (increases eastward).
    pub col: u8,
}

impl Coord {
    /// Manhattan distance to `other` — the minimum hop count.
    pub fn distance(self, other: Coord) -> u32 {
        self.row.abs_diff(other.row) as u32 + self.col.abs_diff(other.col) as u32
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// A message travelling through a [`Mesh`].
#[derive(Debug, Clone)]
pub struct MeshMsg<P> {
    /// Injecting node.
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
    /// The carried value.
    pub payload: P,
    /// Number of flits (header included): one for an operand; on the
    /// OCN's 16-byte links a 64-byte cache line with its header is
    /// five.
    pub flits: u32,
    /// Virtual channel, usually assigned by traffic class to avoid
    /// protocol deadlock (e.g. requests vs replies).
    pub vc: u8,
    /// Client tag (0..[`MAX_TAGS`]) identifying the traffic source —
    /// on the OCN, which processor core the request belongs to. Tags
    /// are attribution only: they never affect routing or arbitration,
    /// so a single-client mesh with every tag 0 behaves identically to
    /// one that never tags.
    pub tag: u8,
    /// Cycle the message entered the network.
    pub injected_at: u64,
    /// Router-to-router link traversals so far.
    pub hops: u32,
    /// Cycles spent waiting for links beyond the minimum (contention),
    /// finalized when the message reaches its destination.
    pub queued: u32,
}

impl<P> MeshMsg<P> {
    /// A new single-flit message from `src` to `dst` on virtual
    /// channel 0 — an operand.
    pub fn new(src: Coord, dst: Coord, payload: P) -> MeshMsg<P> {
        MeshMsg::packet(src, dst, payload, 1, 0)
    }

    /// A new packet of `flits` flits on virtual channel `vc`. Both are
    /// checked against the mesh it enters, by [`Mesh::inject`].
    pub fn packet(src: Coord, dst: Coord, payload: P, flits: u32, vc: u8) -> MeshMsg<P> {
        MeshMsg { src, dst, payload, flits, vc, tag: 0, injected_at: 0, hops: 0, queued: 0 }
    }

    /// Sets the client tag (builder-style).
    pub fn with_tag(mut self, tag: u8) -> MeshMsg<P> {
        self.tag = tag;
        self
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Messages accepted into the network.
    pub injected: u64,
    /// Messages delivered to their destination's eject queue.
    pub ejected: u64,
    /// Rejected injection attempts (local buffer full).
    pub inject_fails: u64,
    /// Sum of per-message hop counts.
    pub total_hops: u64,
    /// Sum of per-message contention cycles.
    pub total_queued: u64,
    /// Sum of per-message latencies (inject to eject-queue entry),
    /// including serialization of the tail flits.
    pub total_latency: u64,
    /// Sum of flits carried by delivered messages.
    pub total_flits: u64,
}

/// The OCN's name for its statistics.
pub type PacketStats = MeshStats;

impl MeshStats {
    /// Accumulates `other` into `self` — the one place mesh statistics
    /// are folded, whether across parallel operand networks or across
    /// independent runs.
    pub fn merge(&mut self, other: &MeshStats) {
        self.injected += other.injected;
        self.ejected += other.ejected;
        self.inject_fails += other.inject_fails;
        self.total_hops += other.total_hops;
        self.total_queued += other.total_queued;
        self.total_latency += other.total_latency;
        self.total_flits += other.total_flits;
    }

    /// Mean hops per delivered message.
    pub fn avg_hops(&self) -> f64 {
        if self.ejected == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.ejected as f64
        }
    }
}

/// Deterministic cost counters of a [`Mesh`]: how much work its ticks
/// did, as counts that repeat exactly for a given traffic pattern
/// (unlike host time). Kept outside [`MeshStats`] because they describe
/// the simulator, not the simulated network — two implementations of
/// the same network agree on `MeshStats` and may differ here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshWork {
    /// Calls to [`Mesh::tick`], idle ones included.
    pub ticks: u64,
    /// Routers arbitrated: per tick, the routers holding a message
    /// plus the routers carrying a fault.
    pub router_visits: u64,
    /// Queue heads examined (routed) by those visits.
    pub queue_probes: u64,
}

// Router ports. Inputs and outputs share the numbering: input `LOCAL`
// is the injection port, output `LOCAL` the eject port — also the
// order outputs arbitrate in, and `FaultPort::index`'s.
const LOCAL: usize = 0;
const NORTH: usize = 1;
const EAST: usize = 2;
const SOUTH: usize = 3;
const WEST: usize = 4;
const PORTS: usize = 5;

struct Router<P, const VCS: usize> {
    /// This router's position (kept here so the tick never divides a
    /// router index by the mesh width).
    at: Coord,
    /// `inputs[port][vc]`; queue `q` is `inputs[q / VCS][q % VCS]`.
    inputs: [[VecDeque<MeshMsg<P>>; VCS]; PORTS],
    /// Bit `q` set iff input queue `q` is non-empty.
    nonempty: u32,
    /// `(available_at, msg)`: a message is delivered when its head
    /// flit ejects and can be consumed once its tail has arrived.
    eject: VecDeque<(u64, MeshMsg<P>)>,
    /// Physical output links are busy while a message's flits stream
    /// across them (never past the next cycle for single flits).
    busy_until: [u64; PORTS],
    rr: [usize; PORTS],
}

/// A grant: the head of router `r`'s input queue `q` leaves by output
/// `out`. Grants are collected while every router arbitrates and
/// applied afterwards, so arbitration reads start-of-cycle state.
#[derive(Debug, Clone, Copy)]
struct Move {
    r: usize,
    q: usize,
    out: usize,
}

/// A W×H wormhole mesh with `VCS` virtual channels per link and Y-X
/// dimension-order routing.
///
/// A tick costs what is in flight: it arbitrates only the routers
/// that hold a message (plus any that carry a fault), in row-major
/// order, and each of those routes only its non-empty queues' heads;
/// outputs arbitrate in a fixed order and competing inputs are granted
/// round-robin. An empty router can grant nothing, so skipping it is
/// invisible; grants are applied only after every router has
/// arbitrated, so capacity checks see start-of-cycle occupancy
/// (DESIGN.md §5b gives the full argument, faults included).
/// Dimension-order routing on a mesh is deadlock-free, and the eject
/// queues are unbounded, so every injected message is eventually
/// delivered.
pub struct Mesh<P, const VCS: usize = 1> {
    rows: u8,
    cols: u8,
    fifo_cap: usize,
    routers: Vec<Router<P, VCS>>,
    /// Aggregate statistics.
    pub stats: MeshStats,
    in_flight: usize,
    /// Routers with a non-empty input queue — the routers a tick
    /// arbitrates. Maintained where queues change ([`Mesh::inject`]
    /// and each applied move) and recounted by [`Mesh::audit`].
    occupied: RouterSet,
    /// Routers with a non-empty eject queue, for
    /// [`Mesh::has_delivered`]. Maintained at the two mutation sites
    /// (the eject arm of an applied move, [`Mesh::eject_at`] on the
    /// last message) and audited like `occupied`.
    delivered: RouterSet,
    /// Where deliveries are announced, by router index (`None`: a
    /// free-standing mesh).
    wake: Option<WakePort>,
    /// Messages in eject queues (delivered, not yet popped).
    undrained: usize,
    /// Per-tag messages inside routers (attribution of `in_flight`).
    in_flight_by_tag: [usize; MAX_TAGS],
    /// Per-tag high-water marks of `in_flight_by_tag`.
    tag_highwater: [usize; MAX_TAGS],
    /// Per-tag `(accepted, delivered)` message counts.
    tag_counts: [(u64, u64); MAX_TAGS],
    /// Installed timing faults (`None` on the production path).
    fault: Option<MeshFaultState>,
    work: MeshWork,
    // Per-tick scratch, retained so a tick never allocates. Per router,
    // the input queues already promised a message this cycle (all zero
    // between ticks: each applied move clears the bit its grant set),
    // and this cycle's grants.
    incoming: Vec<u32>,
    moves: Vec<Move>,
}

impl<P, const VCS: usize> Mesh<P, VCS> {
    /// Input queues per router.
    const QUEUES: usize = PORTS * VCS;
    /// The queues of virtual channel 0, one per port (`<< v` for
    /// channel `v`'s): the sum of `1 << p * VCS` over the five ports.
    const LANE: u32 = ((1 << Self::QUEUES) - 1) / ((1 << VCS) - 1);

    /// A `rows`×`cols` mesh with per-VC input buffers of `fifo_cap`
    /// messages.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `fifo_cap == 0`.
    pub fn new(rows: u8, cols: u8, fifo_cap: usize) -> Mesh<P, VCS> {
        // The queue masks are `u32` built by raw shifts (`1 << q`,
        // `1 << QUEUES`): a channel count they cannot hold does not
        // compile.
        const { assert!(VCS >= 1 && PORTS * VCS < 32, "5 * VCS must fit the u32 queue masks") }
        assert!(rows > 0 && cols > 0 && fifo_cap > 0, "degenerate mesh");
        let n = rows as usize * cols as usize;
        let router = |at| Router {
            at,
            inputs: std::array::from_fn(|_| std::array::from_fn(|_| VecDeque::new())),
            nonempty: 0,
            eject: VecDeque::new(),
            busy_until: [0; PORTS],
            rr: [0; PORTS],
        };
        Mesh {
            rows,
            cols,
            fifo_cap,
            routers: (0..rows)
                .flat_map(|row| (0..cols).map(move |col| Coord { row, col }))
                .map(router)
                .collect(),
            stats: MeshStats::default(),
            in_flight: 0,
            occupied: RouterSet::with_capacity(n),
            delivered: RouterSet::with_capacity(n),
            wake: None,
            undrained: 0,
            in_flight_by_tag: [0; MAX_TAGS],
            tag_highwater: [0; MAX_TAGS],
            tag_counts: [(0, 0); MAX_TAGS],
            fault: None,
            work: MeshWork::default(),
            incoming: vec![0; n],
            moves: Vec::with_capacity(n),
        }
    }

    fn idx(&self, c: Coord) -> usize {
        assert!(c.row < self.rows && c.col < self.cols, "coord {c} outside mesh");
        c.row as usize * self.cols as usize + c.col as usize
    }

    /// Messages currently inside routers (excluding eject queues).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Messages delivered to an eject queue but not yet popped by the
    /// destination (these count as `ejected` in [`MeshStats`] and are
    /// *not* in [`Mesh::in_flight`]).
    pub fn undrained(&self) -> usize {
        self.undrained
    }

    /// Cycle of the mesh's next state change, for the epoch-skipping
    /// scheduler. A mesh moves messages every cycle it has any inside
    /// a router, so the answer is either "now" or "never until the
    /// next injection" — there are no timed-future events inside the
    /// mesh itself. Delivered-but-unconsumed messages in eject queues
    /// are *not* events here: they wake the destination tile through
    /// [`Mesh::has_delivered`], not the mesh.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        (self.in_flight > 0).then_some(now)
    }

    /// True if a delivered message awaits consumption at `node` —
    /// a destination tile must be clocked while this holds. One bit
    /// test on the `delivered` set.
    pub fn has_delivered(&self, node: Coord) -> bool {
        self.delivered.contains(self.idx(node))
    }

    /// Per-tag high-water marks of messages inside routers — on the
    /// OCN, how deep each core's traffic ran concurrently.
    pub fn tag_highwater(&self) -> [usize; MAX_TAGS] {
        self.tag_highwater
    }

    /// Per-tag `(injected, ejected)` message counts.
    pub fn tag_counts(&self) -> [(u64, u64); MAX_TAGS] {
        self.tag_counts
    }

    /// The deterministic cost counters (see [`MeshWork`]).
    pub fn work(&self) -> MeshWork {
        self.work
    }

    /// Installs (or clears) the wake port: every delivery into router
    /// `r`'s eject queue (row-major index) is filed with `r`'s consumer
    /// at the cycle the message becomes consumable.
    pub fn set_wake(&mut self, port: Option<WakePort>) {
        self.wake = port;
    }

    /// Installs (or clears) a timing-fault configuration. Faults stall
    /// output ports and perturb arbitration; they never drop, corrupt,
    /// or reorder a same-queue flow (see [`MeshFaultConfig`]). With
    /// `None` the tick is bit-identical to a mesh that never had the
    /// hook.
    pub fn set_fault(&mut self, cfg: Option<&MeshFaultConfig>) {
        self.fault = cfg.map(|c| MeshFaultState::new(c, self.rows, self.cols));
    }

    /// Audits the conservation invariant: the in-flight counter must
    /// equal the recounted router queue occupancy, every injected
    /// message must be accounted for as ejected or in flight
    /// (`injected = ejected + in_flight`, where `ejected` includes
    /// eject-queue entries the destination has not drained), and every
    /// incrementally kept summary — the per-router non-empty masks, the
    /// occupied and delivered sets, the undrained counter, the clean
    /// scratch — must equal its recount from the queues.
    ///
    /// # Errors
    ///
    /// A description of the first violated equation.
    pub fn audit(&self) -> Result<(), String> {
        let mut recount = 0;
        let mut undrained = 0;
        for (r, router) in self.routers.iter().enumerate() {
            let mut nonempty = 0u32;
            for (q, queue) in router.inputs.as_flattened().iter().enumerate() {
                recount += queue.len();
                nonempty |= u32::from(!queue.is_empty()) << q;
            }
            if nonempty != router.nonempty {
                return Err(format!(
                    "router {r}: non-empty mask {:#07x} != recounted {nonempty:#07x}",
                    router.nonempty
                ));
            }
            if self.occupied.contains(r) != (nonempty != 0) {
                return Err(format!(
                    "occupied set {} router {r}, whose queues are {}",
                    if nonempty == 0 { "holds" } else { "misses" },
                    if nonempty == 0 { "empty" } else { "non-empty" },
                ));
            }
            if router.eject.is_empty() == self.delivered.contains(r) {
                return Err(format!(
                    "delivered set {} router {r}, whose eject queue holds {} message(s)",
                    if router.eject.is_empty() { "holds" } else { "misses" },
                    router.eject.len(),
                ));
            }
            if self.incoming[r] != 0 {
                return Err(format!("router {r}: grant scratch left dirty between ticks"));
            }
            undrained += router.eject.len();
        }
        if recount != self.in_flight {
            return Err(format!(
                "in-flight counter {} != recounted router occupancy {recount}",
                self.in_flight
            ));
        }
        if undrained != self.undrained {
            return Err(format!(
                "undrained counter {} != recounted eject queues {undrained}",
                self.undrained
            ));
        }
        if self.stats.injected != self.stats.ejected + self.in_flight as u64 {
            return Err(format!(
                "conservation broken: injected {} != ejected {} + in-flight {}",
                self.stats.injected, self.stats.ejected, self.in_flight
            ));
        }
        Ok(())
    }

    /// The oldest message still inside the network (router buffers or
    /// an eject queue no tile has drained): `(injected_at, src, dst,
    /// delivered)`. `delivered` is true when the message sits in an
    /// eject queue — i.e. the network did its job and the destination
    /// tile never consumed it. Used by the hang diagnoser.
    pub fn oldest_in_flight(&self) -> Option<(u64, Coord, Coord, bool)> {
        let mut best: Option<(u64, Coord, Coord, bool)> = None;
        let mut consider = |m: &MeshMsg<P>, delivered: bool| {
            if best.is_none_or(|(t, ..)| m.injected_at < t) {
                best = Some((m.injected_at, m.src, m.dst, delivered));
            }
        };
        for router in &self.routers {
            router.inputs.iter().flatten().flatten().for_each(|m| consider(m, false));
            router.eject.iter().for_each(|(_, m)| consider(m, true));
        }
        best
    }

    /// True if an injection at `src` on `vc` would be accepted.
    pub fn can_inject(&self, src: Coord, vc: u8) -> bool {
        self.routers[self.idx(src)].inputs[LOCAL][vc as usize].len() < self.fifo_cap
    }

    /// [`Mesh::can_inject`] for a caller about to inject: a refusal is
    /// counted in [`MeshStats::inject_fails`] exactly as a refused
    /// [`Mesh::inject`] is, so the caller can keep its payload (and
    /// skip building the message) on the retry path.
    pub fn admit(&mut self, src: Coord, vc: u8) -> bool {
        let ok = self.can_inject(src, vc);
        self.stats.inject_fails += u64::from(!ok);
        ok
    }

    /// Injects a message at its source node. Returns `false` (and
    /// counts a failure) if the local buffer of its virtual channel is
    /// full.
    ///
    /// # Panics
    ///
    /// Panics if `msg.flits == 0`, `msg.vc >= VCS`,
    /// `msg.tag >= `[`MAX_TAGS`], or either end is outside the mesh.
    pub fn inject(&mut self, now: u64, mut msg: MeshMsg<P>) -> bool {
        assert!(msg.flits > 0, "packets have at least a header flit");
        assert!((msg.vc as usize) < VCS, "vc out of range: {}", msg.vc);
        assert!((msg.tag as usize) < MAX_TAGS, "tag out of range: {}", msg.tag);
        let i = self.idx(msg.src);
        let _ = self.idx(msg.dst); // validate
        if !self.admit(msg.src, msg.vc) {
            return false;
        }
        msg.injected_at = now;
        msg.hops = 0;
        let tag = msg.tag as usize;
        let vc = msg.vc as usize;
        self.routers[i].inputs[LOCAL][vc].push_back(msg);
        self.routers[i].nonempty |= 1 << (LOCAL * VCS + vc);
        self.occupied.insert(i);
        self.stats.injected += 1;
        self.in_flight += 1;
        self.tag_counts[tag].0 += 1;
        self.in_flight_by_tag[tag] += 1;
        self.tag_highwater[tag] = self.tag_highwater[tag].max(self.in_flight_by_tag[tag]);
        true
    }

    /// Pops the next delivered message at `node`, if any — for
    /// single-flit traffic, whose tail is its head.
    pub fn eject(&mut self, node: Coord) -> Option<MeshMsg<P>> {
        self.eject_at(u64::MAX, node)
    }

    /// Pops the next delivered message at `node` whose tail flit has
    /// arrived by `now`.
    pub fn eject_at(&mut self, now: u64, node: Coord) -> Option<MeshMsg<P>> {
        let i = self.idx(node);
        let queue = &mut self.routers[i].eject;
        if queue.front().is_none_or(|&(avail, _)| avail > now) {
            return None;
        }
        self.undrained -= 1;
        if queue.len() == 1 {
            self.delivered.remove(i);
        }
        queue.pop_front().map(|(_, msg)| msg)
    }

    /// The output a message for `dst` leaves router `at` by (Y-X
    /// dimension order: vertical first, then horizontal).
    fn route(at: Coord, dst: Coord) -> usize {
        if dst.row < at.row {
            NORTH
        } else if dst.row > at.row {
            SOUTH
        } else if dst.col > at.col {
            EAST
        } else if dst.col < at.col {
            WEST
        } else {
            LOCAL
        }
    }

    /// The router beyond link output `out` of router `r` (row-major
    /// index arithmetic: a row is `cols` routers) and the input port
    /// the link enters it by. Only asked of outputs a head routes to,
    /// and dimension-order routes never leave the mesh.
    fn neighbor(&self, r: usize, out: usize) -> (usize, usize) {
        let cols = self.cols as usize;
        match out {
            NORTH => (r - cols, SOUTH),
            SOUTH => (r + cols, NORTH),
            EAST => (r + 1, WEST),
            WEST => (r - 1, EAST),
            _ => unreachable!("eject has no neighbor"),
        }
    }

    /// Advances the network one cycle: every router forwards at most
    /// one message per free output link, one message per input queue.
    pub fn tick(&mut self, now: u64) {
        self.work.ticks += 1;
        if self.in_flight == 0 {
            return;
        }
        // Fault hook: moved out for the arbitration loop (it borrows
        // mutably alongside the routers) and restored at the end.
        let mut fault = self.fault.take();
        if let Some(f) = fault.as_mut() {
            if f.rotate() {
                for router in &mut self.routers {
                    for rr in &mut router.rr {
                        *rr = f.draw(Self::QUEUES);
                    }
                }
            }
        }
        // Occupied routers, plus the fault-bearing ones: a stalled
        // port draws from the fault PRNG every cycle its router
        // arbitrates, holding a message or not — and no other port
        // draws at all, so this visits every draw of a sweep over all
        // routers, in the same order.
        // Counted in locals: a read-modify-write of `self.work` per
        // router measured a tenth of a saturated tick.
        let (mut visits, mut probes) = (0, 0);
        for w in 0..self.occupied.num_words() {
            let bearing = fault.as_ref().map(MeshFaultState::bearing);
            for r in self.occupied.word_union(bearing, w) {
                visits += 1;
                probes += u64::from(self.routers[r].nonempty.count_ones());
                self.arbitrate(r, now, fault.as_mut());
            }
        }
        self.work.router_visits += visits;
        self.work.queue_probes += probes;
        self.fault = fault;

        let mut moves = std::mem::take(&mut self.moves);
        for mv in moves.drain(..) {
            self.apply(now, mv);
        }
        self.moves = moves;
    }

    /// One router's output arbitration: grants each free output to at
    /// most one waiting head and records the grants in `self.moves`.
    /// Cost follows occupancy, not port count: each waiting head is
    /// routed once up front (its route cannot change mid-arbitration).
    ///
    /// Under a fault the outputs are probed in port order, all five of
    /// them, requested or not, busy check then stall check — the stall
    /// check is where the fault PRNG is drawn, so its order is part of
    /// the model (and a busy link does not draw). Capacity downstream
    /// is read from the live queue: grants are applied only after every
    /// router has arbitrated, so the live length *is* the start-of-cycle
    /// length.
    fn arbitrate(&mut self, r: usize, now: u64, mut fault: Option<&mut MeshFaultState>) {
        let router = &self.routers[r];
        let at = router.at;
        // `want[out]` is the set of queues whose head leaves by `out`.
        let mut want = [0u32; PORTS];
        let mut waiting = router.nonempty;
        while waiting != 0 {
            let q = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let head = router.inputs[q / VCS][q % VCS]
                .front()
                .expect("the non-empty mask tracks the queues");
            want[Self::route(at, head.dst)] |= 1 << q;
        }

        for out in 0..PORTS {
            let mut want = want[out];
            // An unrequested output is probed only for its draw.
            if want == 0 && fault.is_none() {
                continue;
            }
            if out != LOCAL && self.routers[r].busy_until[out] > now {
                continue;
            }
            // An injected stall burst holds the whole output port:
            // nothing is granted, waiting messages stay queued.
            if fault.as_deref_mut().is_some_and(|f| f.stalled(r, out, now)) {
                continue;
            }
            // Round-robin from the pointer: the candidates in the order
            // `(base + k) % QUEUES` are those at or past `base`, then
            // the rest; grant the first whose channel has room
            // downstream. A message keeps its virtual channel across
            // the link, so a full channel rules out every candidate on
            // it at once.
            let base = self.routers[r].rr[out];
            while want != 0 {
                let ahead = want >> base << base;
                let q = if ahead != 0 { ahead } else { want }.trailing_zeros() as usize;
                if out != LOCAL {
                    let (nb, port) = self.neighbor(r, out);
                    let (v, slot) = (q % VCS, port * VCS + q % VCS);
                    if self.incoming[nb] >> slot & 1 != 0
                        || self.routers[nb].inputs[port][v].len() >= self.fifo_cap
                    {
                        want &= !(Self::LANE << v);
                        continue;
                    }
                    self.incoming[nb] |= 1 << slot;
                }
                self.routers[r].rr[out] = (q + 1) % Self::QUEUES;
                self.moves.push(Move { r, q, out });
                break;
            }
        }
    }

    /// Carries out one grant, keeping every occupancy summary in step
    /// with the queues.
    fn apply(&mut self, now: u64, Move { r, q, out }: Move) {
        let (p, v) = (q / VCS, q % VCS);
        let router = &mut self.routers[r];
        let mut msg = router.inputs[p][v].pop_front().expect("a grant names a waiting head");
        if router.inputs[p][v].is_empty() {
            router.nonempty &= !(1 << q);
            if router.nonempty == 0 {
                self.occupied.remove(r);
            }
        }
        if out == LOCAL {
            // The tail arrives flits-1 cycles after the head.
            let avail = now + u64::from(msg.flits - 1);
            let latency = avail.saturating_sub(msg.injected_at) as u32;
            msg.queued = latency.saturating_sub(msg.hops + msg.flits - 1);
            self.stats.ejected += 1;
            self.stats.total_hops += u64::from(msg.hops);
            self.stats.total_queued += u64::from(msg.queued);
            self.stats.total_latency += u64::from(latency);
            self.stats.total_flits += u64::from(msg.flits);
            self.in_flight -= 1;
            self.tag_counts[msg.tag as usize].1 += 1;
            self.in_flight_by_tag[msg.tag as usize] -= 1;
            router.eject.push_back((avail, msg));
            self.delivered.insert(r);
            self.undrained += 1;
            if let Some(w) = &self.wake {
                w.file(r, avail);
            }
        } else {
            router.busy_until[out] = now + u64::from(msg.flits);
            let (nb, port) = self.neighbor(r, out);
            let slot = port * VCS + v;
            msg.hops += 1;
            self.routers[nb].inputs[port][v].push_back(msg);
            self.routers[nb].nonempty |= 1 << slot;
            self.occupied.insert(nb);
            self.incoming[nb] &= !(1 << slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fault::{FaultPort, PortStall};
    use crate::wake::WakeTable;
    use trips_harness::Rng;

    type Ocn<P> = Mesh<P, VIRTUAL_CHANNELS>;

    /// The reference model: the tick this module had before it kept an
    /// occupied-router set. Every router, every output, every queue,
    /// every cycle, against a start-of-cycle snapshot of all queue
    /// lengths — nothing incremental to get wrong. It shares only
    /// `apply` (which carries a grant out) with the real tick.
    fn reference_tick<P, const VCS: usize>(m: &mut Mesh<P, VCS>, now: u64) {
        if m.in_flight == 0 {
            return;
        }
        let queues = PORTS * VCS;
        let n = m.routers.len();
        let start_len: Vec<[[usize; VCS]; PORTS]> = m
            .routers
            .iter()
            .map(|r| r.inputs.each_ref().map(|port| port.each_ref().map(VecDeque::len)))
            .collect();
        let mut incoming = vec![[[false; VCS]; PORTS]; n];
        let mut moves = Vec::new();
        let mut fault = m.fault.take();
        if let Some(f) = fault.as_mut() {
            if f.rotate() {
                for router in &mut m.routers {
                    for rr in &mut router.rr {
                        *rr = f.draw(queues);
                    }
                }
            }
        }
        for r in 0..n {
            let at = Coord { row: (r / m.cols as usize) as u8, col: (r % m.cols as usize) as u8 };
            let mut input_used = [[false; VCS]; PORTS];
            for out in [LOCAL, NORTH, EAST, SOUTH, WEST] {
                if out != LOCAL && m.routers[r].busy_until[out] > now {
                    continue;
                }
                if let Some(f) = fault.as_mut() {
                    if f.stalled(r, out, now) {
                        continue;
                    }
                }
                let dest = match out {
                    LOCAL => None,
                    NORTH if at.row == 0 => continue,
                    SOUTH if at.row + 1 == m.rows => continue,
                    EAST if at.col + 1 == m.cols => continue,
                    WEST if at.col == 0 => continue,
                    NORTH => Some((m.idx(Coord { row: at.row - 1, col: at.col }), SOUTH)),
                    SOUTH => Some((m.idx(Coord { row: at.row + 1, col: at.col }), NORTH)),
                    EAST => Some((m.idx(Coord { row: at.row, col: at.col + 1 }), WEST)),
                    _ => Some((m.idx(Coord { row: at.row, col: at.col - 1 }), EAST)),
                };
                let base = m.routers[r].rr[out];
                for k in 0..queues {
                    let q = (base + k) % queues;
                    let (p, v) = (q / VCS, q % VCS);
                    if input_used[p][v] {
                        continue;
                    }
                    let Some(head) = m.routers[r].inputs[p][v].front() else {
                        continue;
                    };
                    if Mesh::<P, VCS>::route(at, head.dst) != out {
                        continue;
                    }
                    if let Some((nb, port)) = dest {
                        if incoming[nb][port][v] || start_len[nb][port][v] >= m.fifo_cap {
                            continue;
                        }
                        incoming[nb][port][v] = true;
                    }
                    input_used[p][v] = true;
                    m.routers[r].rr[out] = (q + 1) % queues;
                    moves.push(Move { r, q, out });
                    break;
                }
            }
        }
        m.fault = fault;
        for mv in moves {
            m.apply(now, mv);
        }
    }

    fn stall(row: u8, col: u8, port: FaultPort, den: u64, max_burst: u64) -> PortStall {
        PortStall { router: Coord { row, col }, port, num: 1, den, max_burst }
    }

    /// Stall bursts for a mesh whose traffic stays off the last row:
    /// two contended links, an off-edge output at each end (they route
    /// nothing but draw every cycle their router arbitrates), and an
    /// eject port on a router that never holds a message.
    fn stalls(rows: u8, cols: u8) -> Vec<PortStall> {
        vec![
            stall(1, 1, FaultPort::South, 3, 6),
            stall(rows / 2, cols - 1, FaultPort::West, 4, 9),
            stall(rows - 2, 0, FaultPort::Eject, 3, 4),
            stall(0, 2, FaultPort::North, 2, 3),
            stall(rows - 1, 1, FaultPort::South, 2, 5),
            stall(rows - 1, cols - 1, FaultPort::Eject, 2, 4),
        ]
    }

    /// Drives the same seeded traffic through `tick` and through
    /// `reference_tick` and requires them to agree, cycle by cycle, on
    /// everything observable. A one-channel mesh carries what the OPN
    /// does, single flits; the others mix them with five-flit lines.
    fn assert_matches_reference<const VCS: usize>(
        (rows, cols): (u8, u8),
        fifo_cap: usize,
        fault: Option<&MeshFaultConfig>,
    ) {
        let what = format!("{rows}x{cols} x{VCS} fifo_cap {fifo_cap} fault {fault:?}");
        let mut new: Mesh<u64, VCS> = Mesh::new(rows, cols, fifo_cap);
        let mut old: Mesh<u64, VCS> = Mesh::new(rows, cols, fifo_cap);
        new.set_fault(fault);
        old.set_fault(fault);
        let mut rng = Rng::new(0x0c4e ^ u64::from(rows) << 8 ^ fifo_cap as u64);
        let node =
            |rng: &mut Rng| Coord { row: rng.range_u8(0, rows - 1), col: rng.range_u8(0, cols) };
        let hot = Coord { row: rows / 2, col: 1 };
        let offers = 2 + rows as usize / 10;
        let mut id = 0u64;
        let mut t = 0u64;
        while t < 1200 || new.in_flight() + new.undrained() > 0 {
            assert!(t < 20_000, "{what}: traffic never drained");
            for _ in 0..if t < 1200 { offers } else { 0 } {
                let src = node(&mut rng);
                let dst = if rng.chance(1, 4) { hot } else { node(&mut rng) };
                let flits = if VCS == 1 || rng.chance(1, 2) { 1 } else { 5 };
                let msg = MeshMsg::packet(src, dst, id, flits, rng.range_u8(0, VCS as u8))
                    .with_tag(rng.range_u8(0, MAX_TAGS as u8));
                id += 1;
                assert_eq!(new.inject(t, msg.clone()), old.inject(t, msg), "{what}: inject at {t}");
            }
            new.tick(t);
            reference_tick(&mut old, t);
            for (r, (a, b)) in new.routers.iter().zip(&old.routers).enumerate() {
                let view = |q: &VecDeque<(u64, MeshMsg<u64>)>| -> Vec<_> {
                    q.iter().map(|(at, m)| (*at, m.payload, m.hops, m.queued)).collect()
                };
                assert_eq!(view(&a.eject), view(&b.eject), "{what}: router {r} ejections at {t}");
            }
            // Destinations drain at their own pace: delivered messages
            // wait in the eject queues some of the time.
            for row in 0..rows {
                for col in 0..cols {
                    if rng.chance(1, 3) {
                        continue;
                    }
                    let at = Coord { row, col };
                    while let Some(m) = new.eject_at(t + 1, at) {
                        assert_eq!(old.eject_at(t + 1, at).map(|o| o.payload), Some(m.payload));
                    }
                }
            }
            assert_eq!(new.stats, old.stats, "{what}: stats at {t}");
            assert_eq!(new.tag_counts(), old.tag_counts(), "{what}: tag counts at {t}");
            assert_eq!(new.tag_highwater(), old.tag_highwater(), "{what}: tag highwater at {t}");
            assert_eq!(new.in_flight(), old.in_flight());
            assert_eq!(new.undrained(), old.undrained());
            new.audit().unwrap_or_else(|e| panic!("{what}: audit at {t}: {e}"));
            old.audit().unwrap_or_else(|e| panic!("{what}: reference audit at {t}: {e}"));
            t += 1;
        }
        assert!(new.stats.total_queued > 0, "{what}: the traffic must contend");
        assert_eq!(new.stats.ejected, new.stats.injected);
    }

    /// [`assert_matches_reference`] clean, under stall bursts, under
    /// arbitration rotation, and under both.
    fn assert_shape_matches_reference<const VCS: usize>(shape: (u8, u8), fifo_cap: usize) {
        let fault = |rotate_arbitration, stalls| MeshFaultConfig {
            seed: 0xfa17 + u64::from(shape.0),
            rotate_arbitration,
            stalls,
        };
        let stalls = || stalls(shape.0, shape.1);
        assert_matches_reference::<VCS>(shape, fifo_cap, None);
        assert_matches_reference::<VCS>(shape, fifo_cap, Some(&fault(false, stalls())));
        assert_matches_reference::<VCS>(shape, fifo_cap, Some(&fault(true, Vec::new())));
        assert_matches_reference::<VCS>(shape, fifo_cap, Some(&fault(true, stalls())));
    }

    #[test]
    fn tick_matches_the_full_sweep_reference_model() {
        // 10x4 is the prototype OCN; 20x4 (80 routers) crosses the
        // occupied set's 64-router word; 80x4 is the 16-core die.
        for rows in [10u8, 20, 80] {
            for vc_cap in [1, 2] {
                assert_shape_matches_reference::<VIRTUAL_CHANNELS>((rows, 4), vc_cap);
            }
        }
        // 5x5 is the prototype OPN; the fat die's 9x9 (81 routers)
        // crosses the word.
        for side in [5u8, 9] {
            for fifo_cap in [1, 4] {
                assert_shape_matches_reference::<1>((side, side), fifo_cap);
            }
        }
    }

    #[test]
    fn a_tick_visits_only_occupied_and_fault_bearing_routers() {
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 9, col: 3 };
        let mut m: Ocn<u32> = Mesh::new(10, 4, 2);
        for t in 0..50 {
            m.tick(t);
        }
        assert_eq!(
            m.work(),
            MeshWork { ticks: 50, ..MeshWork::default() },
            "idle ticks visit nothing"
        );
        // One packet: one router visited and one head routed per cycle
        // it is in flight (12 hops, then the eject).
        m.inject(50, MeshMsg::packet(src, dst, 1, 5, 0));
        for t in 50..100 {
            m.tick(t);
        }
        assert_eq!(m.work(), MeshWork { ticks: 100, router_visits: 13, queue_probes: 13 });
        assert!(m.eject_at(100, dst).is_some());

        // Two fault-bearing routers off the packet's path are visited
        // on every tick with a packet in flight, and only then.
        let mut m: Ocn<u32> = Mesh::new(10, 4, 2);
        m.set_fault(Some(&MeshFaultConfig {
            seed: 1,
            rotate_arbitration: false,
            stalls: vec![stall(0, 2, FaultPort::North, 2, 3), stall(5, 1, FaultPort::Eject, 2, 3)],
        }));
        m.inject(0, MeshMsg::new(src, dst, 1));
        for t in 0..100 {
            m.tick(t);
        }
        assert_eq!(m.work(), MeshWork { ticks: 100, router_visits: 13 * 3, queue_probes: 13 });
    }

    #[test]
    fn cache_line_serialization_delays_tail() {
        let mut m: Ocn<u32> = Mesh::new(1, 2, 2);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 0, col: 1 };
        m.inject(0, MeshMsg::packet(src, dst, 1, 5, 0));
        m.tick(0); // crosses the link (head)
        m.tick(1); // ejects at router, tail streaming
        assert!(m.eject_at(2, dst).is_none(), "tail still arriving");
        assert!(m.eject_at(5, dst).is_some(), "five flits done");
    }

    #[test]
    fn link_busy_serializes_packets() {
        let mut m: Ocn<u32> = Mesh::new(1, 2, 4);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 0, col: 1 };
        m.inject(0, MeshMsg::packet(src, dst, 1, 5, 0));
        m.inject(0, MeshMsg::packet(src, dst, 2, 5, 1));
        let mut got = Vec::new();
        for t in 0..40u64 {
            m.tick(t);
            while let Some(msg) = m.eject_at(t + 1, dst) {
                got.push((t + 1, msg.payload));
            }
        }
        assert_eq!(got.len(), 2);
        assert!(got[1].0 >= got[0].0 + 5, "second packet delayed by first packet's flits: {got:?}");
    }

    #[test]
    fn separate_vcs_buffer_independently() {
        let mut m: Ocn<u32> = Mesh::new(1, 2, 1);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 0, col: 1 };
        assert!(m.inject(0, MeshMsg::packet(src, dst, 1, 1, 0)));
        assert!(!m.can_inject(src, 0), "vc0 buffer full");
        assert!(m.can_inject(src, 1), "vc1 independent");
        assert!(m.inject(0, MeshMsg::packet(src, dst, 2, 1, 1)));
    }

    #[test]
    #[should_panic(expected = "vc out of range")]
    fn vc_bounds_checked() {
        let at = Coord { row: 0, col: 0 };
        Ocn::new(1, 1, 1).inject(0, MeshMsg::packet(at, at, 0, 1, VIRTUAL_CHANNELS as u8));
    }

    #[test]
    fn tags_attribute_traffic_without_affecting_it() {
        let mut m: Ocn<u32> = Mesh::new(2, 2, 4);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 1, col: 1 };
        m.inject(0, MeshMsg::packet(src, dst, 1, 1, 0).with_tag(0));
        m.inject(0, MeshMsg::packet(src, dst, 2, 1, 1).with_tag(1));
        let mut got = 0;
        for t in 0..20u64 {
            m.tick(t);
            while m.eject_at(t + 1, dst).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 2);
        let counts = m.tag_counts();
        assert_eq!(counts[0], (1, 1));
        assert_eq!(counts[1], (1, 1));
        assert_eq!(m.tag_highwater()[0], 1);
        assert_eq!(m.tag_highwater()[1], 1);
    }

    #[test]
    #[should_panic(expected = "tag out of range")]
    fn tag_bounds_checked() {
        let at = Coord { row: 0, col: 0 };
        Mesh::<u32>::new(1, 1, 1).inject(0, MeshMsg::new(at, at, 0).with_tag(MAX_TAGS as u8));
    }

    #[test]
    fn an_ejection_files_its_consumer_and_the_delivered_set() {
        // Router r delivers to consumer r of a six-entry table.
        let table = WakeTable::new(6);
        let filed = || table.iter().collect::<Vec<u64>>();
        let asleep = WakeTable::ASLEEP;
        let mut m: Ocn<u32> = Mesh::new(2, 3, 2);
        m.set_wake(Some(WakePort::new(&table, (0..6).collect())));
        let src = Coord { row: 0, col: 0 };
        let (near, far) = (Coord { row: 0, col: 1 }, Coord { row: 1, col: 2 });
        m.inject(0, MeshMsg::new(src, near, 1));
        m.inject(0, MeshMsg::packet(src, far, 2, 5, 1));
        m.tick(0);
        assert_eq!(filed(), [asleep; 6], "a message in a router wakes nobody");
        assert!(!m.has_delivered(near));
        m.tick(1);
        // The operand is delivered at cycle 1 and consumable at once.
        assert_eq!(filed(), [asleep, 1, asleep, asleep, asleep, asleep]);
        assert!(m.has_delivered(near));
        m.tick(2);
        m.tick(3);
        // The five-flit line's head ejects at cycle 3 after three hops;
        // it is filed at its tail's arrival, when its consumer can pop it.
        assert_eq!(filed()[5], 7);
        assert!(m.has_delivered(far) && m.eject_at(6, far).is_none());
        m.audit().expect("the sets match the queues");
        assert!(m.eject(near).is_some() && !m.has_delivered(near));
        assert!(m.eject_at(7, far).is_some() && !m.has_delivered(far));
        m.audit().expect("draining clears the delivered bits");
        // The audit recounts the set: a dropped insertion is named.
        m.inject(8, MeshMsg::new(src, src, 3));
        m.tick(8);
        m.delivered.remove(0);
        assert!(m.audit().unwrap_err().starts_with("delivered set misses router 0"));
    }

    fn drive_until<P>(mesh: &mut Mesh<P>, dst: Coord, start: u64, limit: u64) -> (MeshMsg<P>, u64) {
        let mut t = start;
        loop {
            mesh.tick(t);
            t += 1;
            if let Some(m) = mesh.eject(dst) {
                return (m, t);
            }
            assert!(t < start + limit, "message not delivered within {limit} cycles");
        }
    }

    #[test]
    fn delivers_with_manhattan_hops() {
        let mut m: Mesh<u32> = Mesh::new(5, 5, 4);
        let src = Coord { row: 1, col: 1 };
        let dst = Coord { row: 3, col: 4 };
        assert!(m.inject(0, MeshMsg::new(src, dst, 7)));
        let (msg, t) = drive_until(&mut m, dst, 0, 100);
        assert_eq!(msg.payload, 7);
        assert_eq!(msg.hops, 5);
        assert_eq!(msg.queued, 0);
        assert_eq!(t, 6, "hops + 1 visible latency");
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn self_delivery_takes_one_cycle() {
        let mut m: Mesh<u32> = Mesh::new(5, 5, 4);
        let at = Coord { row: 2, col: 2 };
        m.inject(10, MeshMsg::new(at, at, 1));
        m.tick(10);
        let msg = m.eject(at).unwrap();
        assert_eq!(msg.hops, 0);
        assert_eq!(msg.queued, 0);
    }

    #[test]
    fn y_x_routing_goes_vertical_first() {
        let mut m: Mesh<u32> = Mesh::new(3, 3, 4);
        // Two messages crossing: with Y-X they never share a link.
        m.inject(0, MeshMsg::new(Coord { row: 0, col: 0 }, Coord { row: 2, col: 2 }, 1));
        m.inject(0, MeshMsg::new(Coord { row: 2, col: 0 }, Coord { row: 0, col: 2 }, 2));
        for t in 0..20 {
            m.tick(t);
        }
        assert_eq!(m.stats.ejected, 2);
        assert_eq!(m.stats.total_queued, 0, "no contention for disjoint Y-X paths");
    }

    #[test]
    fn contention_is_counted() {
        let mut m: Mesh<u32> = Mesh::new(1, 4, 4);
        let dst = Coord { row: 0, col: 3 };
        // Two messages from the same node to the same destination must
        // serialize on the single east link.
        m.inject(0, MeshMsg::new(Coord { row: 0, col: 0 }, dst, 1));
        m.inject(0, MeshMsg::new(Coord { row: 0, col: 0 }, dst, 2));
        for t in 0..30 {
            m.tick(t);
        }
        assert_eq!(m.stats.ejected, 2);
        assert!(m.stats.total_queued >= 1, "second message must have queued");
    }

    #[test]
    fn throughput_one_per_link_per_cycle() {
        let mut m: Mesh<u64> = Mesh::new(1, 2, 4);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 0, col: 1 };
        let mut sent = 0u64;
        let mut got = 0u64;
        for t in 0..200u64 {
            if m.can_inject(src, 0) {
                m.inject(t, MeshMsg::new(src, dst, sent));
                sent += 1;
            }
            m.tick(t);
            while let Some(msg) = m.eject(dst) {
                assert_eq!(msg.payload, got, "in-order delivery on one path");
                got += 1;
            }
        }
        assert!(got >= 190, "sustained ~1/cycle, got {got}");
    }

    #[test]
    fn backpressure_blocks_injection() {
        let mut m: Mesh<u32> = Mesh::new(1, 2, 2);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 0, col: 1 };
        // Fill the local FIFO without ever ticking: capacity 2.
        assert!(m.inject(0, MeshMsg::new(src, dst, 1)));
        assert!(m.inject(0, MeshMsg::new(src, dst, 2)));
        assert!(!m.can_inject(src, 0));
        assert!(!m.inject(0, MeshMsg::new(src, dst, 3)));
        assert_eq!(m.stats.inject_fails, 1);
    }

    #[test]
    fn many_random_messages_all_delivered() {
        let mut rng = Rng::new(42);
        let mut m: Mesh<usize> = Mesh::new(5, 5, 4);
        let mut pending: Vec<MeshMsg<usize>> = (0..500)
            .map(|i| {
                let src = Coord { row: rng.range_u8(0, 5), col: rng.range_u8(0, 5) };
                let dst = Coord { row: rng.range_u8(0, 5), col: rng.range_u8(0, 5) };
                MeshMsg::new(src, dst, i)
            })
            .collect();
        pending.reverse();
        let mut delivered = 0;
        for t in 0..5000u64 {
            while let Some(msg) = pending.last() {
                let src = msg.src;
                if !m.can_inject(src, 0) {
                    break;
                }
                m.inject(t, pending.pop().unwrap());
            }
            m.tick(t);
            for r in 0..5 {
                for c in 0..5 {
                    while let Some(msg) = m.eject(Coord { row: r, col: c }) {
                        assert_eq!(msg.dst, Coord { row: r, col: c });
                        assert_eq!(msg.hops, msg.src.distance(msg.dst));
                        delivered += 1;
                    }
                }
            }
        }
        assert_eq!(delivered, 500);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn permanent_eject_stall_blocks_delivery() {
        let mut m: Mesh<u32> = Mesh::new(5, 5, 4);
        let dst = Coord { row: 2, col: 2 };
        m.set_fault(Some(&MeshFaultConfig {
            seed: 3,
            rotate_arbitration: false,
            stalls: vec![stall(2, 2, FaultPort::Eject, 1, 8)],
        }));
        m.inject(0, MeshMsg::new(Coord { row: 0, col: 0 }, dst, 9));
        for t in 0..500 {
            m.tick(t);
        }
        assert!(m.eject(dst).is_none(), "permanently stalled eject port must never deliver");
        assert_eq!(m.in_flight(), 1, "the message waits upstream, undropped");
        m.audit().expect("conservation holds while stalled");
    }

    #[test]
    fn faulted_mesh_still_delivers_everything() {
        let run = |fault: bool| {
            let mut rng = Rng::new(11);
            let mut m: Mesh<usize> = Mesh::new(5, 5, 4);
            if fault {
                m.set_fault(Some(&MeshFaultConfig {
                    seed: 99,
                    rotate_arbitration: true,
                    stalls: vec![
                        stall(2, 2, FaultPort::South, 3, 6),
                        stall(0, 0, FaultPort::Eject, 4, 4),
                    ],
                }));
            }
            let mut delivered = 0;
            let mut latency = 0u64;
            for i in 0..300usize {
                let src = Coord { row: rng.range_u8(0, 5), col: rng.range_u8(0, 5) };
                let dst = Coord { row: rng.range_u8(0, 5), col: rng.range_u8(0, 5) };
                let t = i as u64 * 2;
                if m.can_inject(src, 0) {
                    m.inject(t, MeshMsg::new(src, dst, i));
                }
                m.tick(t);
                m.tick(t + 1);
                for r in 0..5 {
                    for c in 0..5 {
                        while let Some(msg) = m.eject(Coord { row: r, col: c }) {
                            delivered += 1;
                            latency += u64::from(msg.hops) + u64::from(msg.queued);
                        }
                    }
                }
            }
            for t in 600..5000u64 {
                m.tick(t);
                for r in 0..5 {
                    for c in 0..5 {
                        while m.eject(Coord { row: r, col: c }).is_some() {
                            delivered += 1;
                        }
                    }
                }
            }
            m.audit().expect("conservation holds under faults");
            assert_eq!(m.in_flight(), 0, "bounded bursts must drain");
            (delivered, latency)
        };
        let (clean_n, clean_lat) = run(false);
        let (fault_n, fault_lat) = run(true);
        assert_eq!(clean_n, fault_n, "faults delay, never drop");
        assert!(fault_lat > clean_lat, "stall bursts must cost visible latency");
    }

    /// Seeded traffic under stall bursts, folded to a fingerprint of
    /// every ejection `(cycle, node, payload, hops, queued)`. Traffic
    /// stays off the last row, so the stall on its corner sits on a
    /// router that never holds a message; the North stall on row 0 is
    /// off-edge (it routes nothing, it only draws).
    fn faulted_fingerprint(rows: u8, cols: u8, fifo_cap: usize, rotate: bool) -> (MeshStats, u64) {
        let mut m: Mesh<u32> = Mesh::new(rows, cols, fifo_cap);
        m.set_fault(Some(&MeshFaultConfig {
            seed: 0x5eed ^ u64::from(rows),
            rotate_arbitration: rotate,
            stalls: vec![
                stall(1, 1, FaultPort::East, 3, 5),
                stall(0, 2, FaultPort::North, 2, 3),
                stall(rows - 1, cols - 1, FaultPort::Eject, 2, 4),
                stall(rows - 2, 0, FaultPort::Eject, 4, 6),
            ],
        }));
        let mut rng = Rng::new(0xfeed + u64::from(cols));
        let mut fp = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| fp = (fp ^ x).wrapping_mul(0x0100_0000_01b3);
        for t in 0..3000u64 {
            if t < 2000 {
                for _ in 0..3 {
                    let src = Coord { row: rng.range_u8(0, rows - 1), col: rng.range_u8(0, cols) };
                    let dst = Coord { row: rng.range_u8(0, rows - 1), col: rng.range_u8(0, cols) };
                    m.inject(t, MeshMsg::new(src, dst, t as u32));
                }
            }
            m.tick(t);
            for row in 0..rows {
                for col in 0..cols {
                    let node = Coord { row, col };
                    assert_eq!(m.has_delivered(node), !m.routers[m.idx(node)].eject.is_empty());
                    while let Some(msg) = m.eject(node) {
                        for x in [t, u64::from(row), u64::from(col), u64::from(msg.payload)] {
                            fold(x);
                        }
                        fold(u64::from(msg.hops));
                        fold(u64::from(msg.queued));
                    }
                }
            }
            m.audit().expect("audit holds every cycle");
        }
        assert_eq!(m.in_flight(), 0, "bounded bursts drain");
        (m.stats, fp)
    }

    #[test]
    fn faulted_meshes_reproduce_the_full_sweep_recording() {
        // The tick visits occupied and fault-bearing routers only; the
        // fault PRNG is drawn sequentially, so that is correct only if
        // it reproduces the draw sequence of the all-routers sweep it
        // replaced. Recorded from that sweep, on the OPN's 5x5 and on
        // the fat die's 9x9 (81 routers: past one mask word).
        let recorded: [(u8, usize, bool, [u64; 5]); 4] = [
            (5, 4, false, [6000, 0, 17_061, 4801, 17_804_973_268_991_423_319]),
            (5, 1, true, [5360, 640, 15_214, 7758, 7_141_556_158_170_845_910]),
            (9, 4, true, [6000, 0, 33_418, 1197, 6_203_266_820_355_905_155]),
            (9, 2, false, [5999, 1, 33_409, 1328, 1_369_356_633_754_777_928]),
        ];
        for (side, cap, rotate, want) in recorded {
            let (s, fp) = faulted_fingerprint(side, side, cap, rotate);
            assert_eq!(
                [s.ejected, s.inject_fails, s.total_hops, s.total_queued, fp],
                want,
                "{side}x{side} cap {cap} rotate {rotate}: [ejected, inject_fails, hops, queued, \
                 ejection fingerprint]"
            );
        }
    }

    /// A fixed traffic pattern on a 4×4 mesh, optionally faulted.
    fn patterned_stats(fault: Option<&MeshFaultConfig>) -> MeshStats {
        let mut m: Mesh<u32> = Mesh::new(4, 4, 2);
        m.set_fault(fault);
        for t in 0..100u64 {
            let src = Coord { row: (t % 4) as u8, col: ((t / 4) % 4) as u8 };
            let dst = Coord { row: ((t / 2) % 4) as u8, col: (t % 4) as u8 };
            m.inject(t, MeshMsg::new(src, dst, t as u32));
            m.tick(t);
            for r in 0..4 {
                for c in 0..4 {
                    while m.eject(Coord { row: r, col: c }).is_some() {}
                }
            }
        }
        m.stats
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let fault = MeshFaultConfig {
            seed: 1234,
            rotate_arbitration: true,
            stalls: vec![stall(1, 1, FaultPort::East, 2, 5)],
        };
        assert_eq!(patterned_stats(Some(&fault)), patterned_stats(Some(&fault)));
    }

    #[test]
    fn determinism_same_inputs_same_stats() {
        assert_eq!(patterned_stats(None), patterned_stats(None));
    }
}
