//! A single-flit wormhole-routed mesh: the model for the operand
//! network (OPN).
//!
//! The OPN is a 5×5 mesh connecting the GT, RTs, DTs, and ETs with
//! separate control and data channels; the control header phit is
//! launched one cycle ahead of the data payload so the consuming tile
//! can wake its target instruction early (§3). This model carries each
//! operand as a single message with one-cycle hops, one message per
//! link per cycle, small input buffers with credit flow control, and
//! deterministic round-robin arbitration — enough fidelity to
//! reproduce the hop-latency and contention components of the paper's
//! critical-path breakdown (Table 3).

use std::collections::VecDeque;

use crate::fault::{MeshFaultConfig, MeshFaultState};
use crate::routerset::RouterSet;
use crate::wake::WakePort;

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
    /// Cycle the message entered the network.
    pub injected_at: u64,
    /// Router-to-router link traversals so far.
    pub hops: u32,
    /// Cycles spent waiting for links beyond the minimum (contention),
    /// finalized when the message reaches its destination.
    pub queued: u32,
}

impl<P> MeshMsg<P> {
    /// A new message from `src` to `dst`.
    pub fn new(src: Coord, dst: Coord, payload: P) -> MeshMsg<P> {
        MeshMsg { src, dst, payload, injected_at: 0, hops: 0, queued: 0 }
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
    /// Sum of per-message latencies (inject to eject-queue entry).
    pub total_latency: u64,
}

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
    }

    /// Mean hops per delivered message.
    pub fn avg_hops(&self) -> f64 {
        if self.ejected == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.ejected as f64
        }
    }

    /// Mean contention cycles per delivered message.
    pub fn avg_queued(&self) -> f64 {
        if self.ejected == 0 {
            0.0
        } else {
            self.total_queued as f64 / self.ejected as f64
        }
    }
}

/// Input ports of a router. `LOCAL` doubles as the injection port.
const LOCAL: usize = 0;
const NORTH: usize = 1;
const EAST: usize = 2;
const SOUTH: usize = 3;
const WEST: usize = 4;
const PORTS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Out {
    Eject,
    North,
    East,
    South,
    West,
}

struct Router<P> {
    /// This router's position (kept here so the tick never divides a
    /// router index by the mesh width).
    at: Coord,
    inputs: [VecDeque<MeshMsg<P>>; PORTS],
    /// Bit `p` set iff input FIFO `p` is non-empty.
    nonempty: u8,
    eject: VecDeque<MeshMsg<P>>,
    rr: [usize; PORTS],
}

impl<P> Router<P> {
    fn new(at: Coord) -> Router<P> {
        Router {
            at,
            inputs: Default::default(),
            nonempty: 0,
            eject: VecDeque::new(),
            rr: [0; PORTS],
        }
    }
}

/// A W×H mesh of single-flit routers with Y-X dimension-order routing.
///
/// Determinism: each cycle the routers that hold a message (plus any
/// that carry a fault) arbitrate in row-major order, output ports in a
/// fixed order, and competing inputs are granted in round-robin order;
/// grants are applied only after every router has arbitrated, so
/// capacity checks see start-of-cycle buffer occupancy. A router whose
/// inputs are all empty can grant nothing, so skipping it is invisible
/// (DESIGN.md §5b). Dimension-order routing on a mesh is
/// deadlock-free, and the eject queues are unbounded, so every
/// injected message is eventually delivered.
pub struct Mesh<P> {
    rows: u8,
    cols: u8,
    fifo_cap: usize,
    routers: Vec<Router<P>>,
    /// Aggregate statistics.
    pub stats: MeshStats,
    in_flight: usize,
    /// Routers with a non-empty input FIFO — the routers a tick
    /// arbitrates. Maintained where FIFOs change ([`Mesh::inject`] and
    /// each applied move) and recounted by [`Mesh::audit`].
    occupied: RouterSet,
    /// Routers with a non-empty eject queue, for
    /// [`Mesh::has_delivered`]. Maintained at the two mutation sites
    /// (the tick's eject arm, [`Mesh::eject`] on the last message) and
    /// audited like `occupied`.
    delivered: RouterSet,
    /// Where deliveries are announced, by router index (`None`: a
    /// free-standing mesh).
    wake: Option<WakePort>,
    /// Messages in eject queues.
    undrained: usize,
    /// Installed timing faults (`None` on the production path).
    fault: Option<MeshFaultState>,
    // Per-tick scratch, retained across ticks so the hot path never
    // touches the allocator: the input FIFOs already promised a
    // message this cycle (all false between ticks — each applied move
    // clears the entry its grant set) and this cycle's grants.
    incoming: Vec<[bool; PORTS]>,
    moves: Vec<(usize, usize, Out)>,
}

impl<P> Mesh<P> {
    /// A `rows`×`cols` mesh with input FIFOs of `fifo_cap` messages.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `fifo_cap == 0`.
    pub fn new(rows: u8, cols: u8, fifo_cap: usize) -> Mesh<P> {
        assert!(rows > 0 && cols > 0 && fifo_cap > 0, "degenerate mesh");
        let n = rows as usize * cols as usize;
        Mesh {
            rows,
            cols,
            fifo_cap,
            routers: (0..rows)
                .flat_map(|row| (0..cols).map(move |col| Router::new(Coord { row, col })))
                .collect(),
            stats: MeshStats::default(),
            in_flight: 0,
            occupied: RouterSet::with_capacity(n),
            delivered: RouterSet::with_capacity(n),
            undrained: 0,
            wake: None,
            fault: None,
            incoming: vec![[false; PORTS]; n],
            moves: Vec::with_capacity(n),
        }
    }

    fn idx(&self, c: Coord) -> usize {
        assert!(c.row < self.rows && c.col < self.cols, "coord {c} outside mesh");
        c.row as usize * self.cols as usize + c.col as usize
    }

    /// Mesh height.
    pub fn rows(&self) -> u8 {
        self.rows
    }

    /// Mesh width.
    pub fn cols(&self) -> u8 {
        self.cols
    }

    /// Messages currently inside routers (excluding eject queues).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Cycle of the mesh's next state change, for the epoch-skipping
    /// scheduler. A mesh moves packets every cycle it has any message
    /// inside a router, so the answer is either "now" or "never until
    /// the next injection" — there are no timed-future events inside
    /// the mesh itself. Delivered-but-unconsumed messages in eject
    /// queues are *not* events here: they wake the destination tile
    /// through [`Mesh::has_delivered`], not the mesh.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.in_flight > 0 {
            Some(now)
        } else {
            None
        }
    }

    /// True if a delivered message awaits consumption at `node` —
    /// a destination tile must be clocked while this holds. One bit
    /// test on the `delivered` set.
    pub fn has_delivered(&self, node: Coord) -> bool {
        self.delivered.contains(self.idx(node))
    }

    /// True if the caller can inject at `src` this cycle.
    pub fn can_inject(&self, src: Coord) -> bool {
        self.routers[self.idx(src)].inputs[LOCAL].len() < self.fifo_cap
    }

    /// Installs (or clears) the wake port: every delivery into router
    /// `r`'s eject queue (row-major index) is filed with `r`'s consumer
    /// at the delivering cycle.
    pub fn set_wake(&mut self, port: Option<WakePort>) {
        self.wake = port;
    }

    /// Installs (or clears) a timing-fault configuration. Faults stall
    /// output ports and perturb arbitration; they never drop, corrupt,
    /// or reorder a same-queue flow. With `None` the tick is
    /// bit-identical to a mesh that never had the hook.
    pub fn set_fault(&mut self, cfg: Option<&MeshFaultConfig>) {
        self.fault = cfg.map(|c| MeshFaultState::new(c, self.rows, self.cols));
    }

    /// Audits the conservation invariant: counter-tracked in-flight
    /// messages must equal the recounted router-buffer occupancy, and
    /// every injected message must be accounted for as ejected or
    /// in flight (`injected = ejected + in_flight`, where `ejected`
    /// includes eject-queue entries the destination has not drained).
    ///
    /// # Errors
    ///
    /// A description of the first violated equation.
    pub fn audit(&self) -> Result<(), String> {
        let recount: usize =
            self.routers.iter().map(|r| r.inputs.iter().map(VecDeque::len).sum::<usize>()).sum();
        if recount != self.in_flight {
            return Err(format!(
                "in-flight counter {} != recounted router occupancy {recount}",
                self.in_flight
            ));
        }
        if self.stats.injected != self.stats.ejected + self.in_flight as u64 {
            return Err(format!(
                "conservation broken: injected {} != ejected {} + in-flight {}",
                self.stats.injected, self.stats.ejected, self.in_flight
            ));
        }
        for (r, router) in self.routers.iter().enumerate() {
            let mask = router
                .inputs
                .iter()
                .enumerate()
                .fold(0u8, |m, (p, q)| m | u8::from(!q.is_empty()) << p);
            if mask != router.nonempty {
                return Err(format!(
                    "router {r}: non-empty mask {:#07b} != recounted {mask:#07b}",
                    router.nonempty
                ));
            }
            let nonempty = mask != 0;
            if nonempty != self.occupied.contains(r) {
                return Err(format!(
                    "occupied set {} router {r}, whose inputs are {}",
                    if nonempty { "misses" } else { "holds" },
                    if nonempty { "non-empty" } else { "empty" },
                ));
            }
            if router.eject.is_empty() == self.delivered.contains(r) {
                return Err(format!(
                    "delivered set {} router {r}, whose eject queue holds {} message(s)",
                    if router.eject.is_empty() { "holds" } else { "misses" },
                    router.eject.len(),
                ));
            }
            if self.incoming[r] != [false; PORTS] {
                return Err(format!("router {r}: grant scratch left dirty between ticks"));
            }
        }
        let undrained: usize = self.routers.iter().map(|r| r.eject.len()).sum();
        if undrained != self.undrained {
            return Err(format!(
                "undrained counter {} != recounted eject queues {undrained}",
                self.undrained
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
            for input in &router.inputs {
                for m in input {
                    consider(m, false);
                }
            }
            for m in &router.eject {
                consider(m, true);
            }
        }
        best
    }

    /// Messages sitting in eject queues awaiting consumption by their
    /// destination tiles.
    pub fn undrained(&self) -> usize {
        self.undrained
    }

    /// Injects a message at its source node. Returns `false` (and
    /// counts a failure) if the local input buffer is full.
    pub fn inject(&mut self, now: u64, mut msg: MeshMsg<P>) -> bool {
        let i = self.idx(msg.src);
        let _ = self.idx(msg.dst); // validate
        if self.routers[i].inputs[LOCAL].len() >= self.fifo_cap {
            self.stats.inject_fails += 1;
            return false;
        }
        msg.injected_at = now;
        msg.hops = 0;
        self.routers[i].inputs[LOCAL].push_back(msg);
        self.routers[i].nonempty |= 1 << LOCAL;
        self.occupied.insert(i);
        self.stats.injected += 1;
        self.in_flight += 1;
        true
    }

    /// Pops the next delivered message at `node`, if any.
    pub fn eject(&mut self, node: Coord) -> Option<MeshMsg<P>> {
        let i = self.idx(node);
        let msg = self.routers[i].eject.pop_front();
        if msg.is_some() {
            self.undrained -= 1;
            if self.routers[i].eject.is_empty() {
                self.delivered.remove(i);
            }
        }
        msg
    }

    /// Peeks the next delivered message at `node` without consuming it.
    pub fn peek_eject(&self, node: Coord) -> Option<&MeshMsg<P>> {
        self.routers[self.idx(node)].eject.front()
    }

    fn route(&self, at: Coord, dst: Coord) -> Out {
        // Y-X dimension order: vertical first, then horizontal.
        if dst.row < at.row {
            Out::North
        } else if dst.row > at.row {
            Out::South
        } else if dst.col > at.col {
            Out::East
        } else if dst.col < at.col {
            Out::West
        } else {
            Out::Eject
        }
    }

    /// The router beyond link output `out` of router `r` (row-major
    /// index arithmetic: a row is `cols` routers) and the input port
    /// the link enters it by. Only asked of outputs a head routes to,
    /// and dimension-order routes never leave the mesh.
    fn neighbor(&self, r: usize, out: Out) -> (usize, usize) {
        let cols = self.cols as usize;
        match out {
            Out::North => (r - cols, SOUTH),
            Out::South => (r + cols, NORTH),
            Out::East => (r + 1, WEST),
            Out::West => (r - 1, EAST),
            Out::Eject => unreachable!("eject has no neighbor"),
        }
    }

    /// Advances the network one cycle: every router forwards at most
    /// one message per output port, one message per input FIFO.
    pub fn tick(&mut self, now: u64) {
        if self.in_flight == 0 {
            return;
        }
        // Fault hook: the state is moved out for the arbitration loop
        // (it borrows mutably alongside the routers) and restored at
        // the end of it.
        let mut fault = self.fault.take();
        if let Some(f) = fault.as_mut() {
            if f.rotate() {
                for router in &mut self.routers {
                    for rr in &mut router.rr {
                        *rr = f.draw(PORTS);
                    }
                }
            }
        }
        // Occupied routers, plus the fault-bearing ones: a stalled
        // port draws from the fault PRNG every cycle its router
        // arbitrates, holding a message or not — and no other port
        // draws at all, so this visits every draw of a sweep over all
        // routers, in the same order.
        for w in 0..self.occupied.num_words() {
            let bearing = fault.as_ref().map(MeshFaultState::bearing);
            for r in self.occupied.word_union(bearing, w) {
                self.arbitrate_router(r, now, fault.as_mut());
            }
        }
        self.fault = fault;

        let mut moves = std::mem::take(&mut self.moves);
        for (r, p, out) in moves.drain(..) {
            let router = &mut self.routers[r];
            let mut msg = router.inputs[p].pop_front().expect("a grant names a waiting head");
            if router.inputs[p].is_empty() {
                router.nonempty &= !(1 << p);
                if router.nonempty == 0 {
                    self.occupied.remove(r);
                }
            }
            match out {
                Out::Eject => {
                    let latency = now.saturating_sub(msg.injected_at) as u32;
                    msg.queued = latency.saturating_sub(msg.hops);
                    self.stats.ejected += 1;
                    self.stats.total_hops += u64::from(msg.hops);
                    self.stats.total_queued += u64::from(msg.queued);
                    self.stats.total_latency += u64::from(latency);
                    self.in_flight -= 1;
                    self.routers[r].eject.push_back(msg);
                    self.delivered.insert(r);
                    self.undrained += 1;
                    if let Some(w) = &self.wake {
                        w.file(r, now);
                    }
                }
                _ => {
                    let (nb, port) = self.neighbor(r, out);
                    msg.hops += 1;
                    self.routers[nb].inputs[port].push_back(msg);
                    self.routers[nb].nonempty |= 1 << port;
                    self.occupied.insert(nb);
                    self.incoming[nb][port] = false;
                }
            }
        }
        self.moves = moves;
    }

    /// One router's output arbitration for this cycle: grants at most
    /// one input per output port and records the winning moves. Cost
    /// follows occupancy, not port count:
    ///
    /// * each occupied input's head is routed **once** up front (a
    ///   head's route cannot change mid-arbitration);
    /// * only outputs some head requests are arbitrated — after every
    ///   output's stall probe has run, requested or not, in output
    ///   order: the probe is where the fault PRNG is drawn;
    /// * downstream capacity reads the live FIFO length, not a
    ///   snapshot — moves are deferred until all arbitration is done,
    ///   so the live lengths *are* the start-of-cycle lengths.
    #[inline]
    fn arbitrate_router(&mut self, r: usize, now: u64, fault: Option<&mut MeshFaultState>) {
        const UNROUTED: u8 = u8::MAX;
        let at = self.routers[r].at;
        let mut want = [UNROUTED; PORTS];
        let mut requested = 0u8;
        let mut waiting = self.routers[r].nonempty;
        while waiting != 0 {
            let p = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let head =
                self.routers[r].inputs[p].front().expect("the non-empty mask tracks the FIFOs");
            let oi = match self.route(at, head.dst) {
                Out::Eject => 0,
                Out::North => 1,
                Out::East => 2,
                Out::South => 3,
                Out::West => 4,
            };
            want[p] = oi as u8;
            requested |= 1 << oi;
        }
        // An injected stall burst holds the whole output port: nothing
        // is granted, waiting messages stay queued. Every port is
        // probed, requested or not, in output order — the probe is
        // where the fault PRNG is drawn.
        if let Some(f) = fault {
            for oi in 0..PORTS {
                if f.stalled(r, oi, now) {
                    requested &= !(1 << oi);
                }
            }
        }
        for (oi, out) in
            [Out::Eject, Out::North, Out::East, Out::South, Out::West].into_iter().enumerate()
        {
            if requested & (1 << oi) == 0 {
                continue;
            }
            // A requested output leads somewhere: dimension-order
            // routes never leave the mesh.
            let dest = (out != Out::Eject).then(|| self.neighbor(r, out));
            if let Some((nb, port)) = dest {
                if self.incoming[nb][port] || self.routers[nb].inputs[port].len() >= self.fifo_cap {
                    continue;
                }
            }
            // Round-robin over input FIFOs whose head routes here.
            let base = self.routers[r].rr[oi];
            for k in 0..PORTS {
                let p = (base + k) % PORTS;
                if want[p] != oi as u8 {
                    continue;
                }
                self.routers[r].rr[oi] = (p + 1) % PORTS;
                if let Some((nb, port)) = dest {
                    self.incoming[nb][port] = true;
                }
                self.moves.push((r, p, out));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            if m.can_inject(src) {
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
        assert!(!m.can_inject(src));
        assert!(!m.inject(0, MeshMsg::new(src, dst, 3)));
        assert_eq!(m.stats.inject_fails, 1);
    }

    #[test]
    fn many_random_messages_all_delivered() {
        let mut rng = trips_harness::Rng::new(42);
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
                if !m.can_inject(src) {
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
        use crate::fault::{FaultPort, MeshFaultConfig, PortStall};
        let mut m: Mesh<u32> = Mesh::new(5, 5, 4);
        let dst = Coord { row: 2, col: 2 };
        m.set_fault(Some(&MeshFaultConfig {
            seed: 3,
            rotate_arbitration: false,
            stalls: vec![PortStall {
                router: dst,
                port: FaultPort::Eject,
                num: 1,
                den: 1,
                max_burst: 8,
            }],
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
        use crate::fault::{FaultPort, MeshFaultConfig, PortStall};
        let run = |fault: bool| {
            let mut rng = trips_harness::Rng::new(11);
            let mut m: Mesh<usize> = Mesh::new(5, 5, 4);
            if fault {
                m.set_fault(Some(&MeshFaultConfig {
                    seed: 99,
                    rotate_arbitration: true,
                    stalls: vec![
                        PortStall {
                            router: Coord { row: 2, col: 2 },
                            port: FaultPort::South,
                            num: 1,
                            den: 3,
                            max_burst: 6,
                        },
                        PortStall {
                            router: Coord { row: 0, col: 0 },
                            port: FaultPort::Eject,
                            num: 1,
                            den: 4,
                            max_burst: 4,
                        },
                    ],
                }));
            }
            let mut delivered = 0;
            let mut latency = 0u64;
            for i in 0..300usize {
                let src = Coord { row: rng.range_u8(0, 5), col: rng.range_u8(0, 5) };
                let dst = Coord { row: rng.range_u8(0, 5), col: rng.range_u8(0, 5) };
                let t = i as u64 * 2;
                if m.can_inject(src) {
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
        use crate::fault::{FaultPort, MeshFaultConfig, PortStall};
        let stall = |row, col, port, den, max_burst| PortStall {
            router: Coord { row, col },
            port,
            num: 1,
            den,
            max_burst,
        };
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
        let mut rng = trips_harness::Rng::new(0xfeed + u64::from(cols));
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
                    assert_eq!(m.has_delivered(node), m.peek_eject(node).is_some());
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

    #[test]
    fn fault_injection_is_deterministic() {
        use crate::fault::{FaultPort, MeshFaultConfig, PortStall};
        let run = || {
            let mut m: Mesh<u32> = Mesh::new(4, 4, 2);
            m.set_fault(Some(&MeshFaultConfig {
                seed: 1234,
                rotate_arbitration: true,
                stalls: vec![PortStall {
                    router: Coord { row: 1, col: 1 },
                    port: FaultPort::East,
                    num: 1,
                    den: 2,
                    max_burst: 5,
                }],
            }));
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
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn determinism_same_inputs_same_stats() {
        let run = || {
            let mut m: Mesh<u32> = Mesh::new(4, 4, 2);
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
        };
        assert_eq!(run(), run());
    }
}
