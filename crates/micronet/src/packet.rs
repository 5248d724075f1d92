//! A multi-flit packet mesh with virtual channels: the model for the
//! on-chip network (OCN).
//!
//! The OCN is a 4×10 wormhole-routed mesh with 16-byte links and four
//! virtual channels, optimized for cache-line-sized transfers (§3.6).
//! This model carries whole packets whose flit count occupies each
//! traversed link for that many cycles, giving wormhole-accurate
//! bandwidth and head-of-line behaviour at packet granularity.

use std::collections::VecDeque;

use crate::fault::{MeshFaultConfig, MeshFaultState};
use crate::mesh::Coord;
use crate::routerset::RouterSet;

/// Number of virtual channels per physical link.
pub const VIRTUAL_CHANNELS: usize = 4;

/// A packet travelling through a [`PacketMesh`].
#[derive(Debug, Clone)]
pub struct PacketMsg<P> {
    /// Injecting node.
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
    /// The carried value.
    pub payload: P,
    /// Number of 16-byte flits (header included); a 64-byte cache line
    /// with its header is five flits.
    pub flits: u32,
    /// Virtual channel (0..4), usually assigned by traffic class to
    /// avoid protocol deadlock (e.g. requests vs replies).
    pub vc: u8,
    /// Client tag (0..[`MAX_TAGS`]) identifying the traffic source —
    /// on the OCN, which processor core the request belongs to. Tags
    /// are attribution only: they never affect routing or arbitration,
    /// so a single-client mesh with every tag 0 behaves identically to
    /// one that never tags.
    pub tag: u8,
    /// Cycle the packet entered the network.
    pub injected_at: u64,
    /// Router-to-router link traversals so far.
    pub hops: u32,
    /// Contention cycles, finalized at delivery.
    pub queued: u32,
}

impl<P> PacketMsg<P> {
    /// A new packet of `flits` flits on virtual channel `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `flits == 0` or `vc >= 4`.
    pub fn new(src: Coord, dst: Coord, payload: P, flits: u32, vc: u8) -> PacketMsg<P> {
        assert!(flits > 0, "packets have at least a header flit");
        assert!((vc as usize) < VIRTUAL_CHANNELS, "vc out of range: {vc}");
        PacketMsg { src, dst, payload, flits, vc, tag: 0, injected_at: 0, hops: 0, queued: 0 }
    }

    /// Sets the client tag (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `tag >= `[`MAX_TAGS`].
    pub fn with_tag(mut self, tag: u8) -> PacketMsg<P> {
        assert!((tag as usize) < MAX_TAGS, "tag out of range: {tag}");
        self.tag = tag;
        self
    }
}

/// Distinct client tags a [`PacketMesh`] accounts for — one per core
/// of the largest die the chip-level geometry supports (16 cores).
pub const MAX_TAGS: usize = 16;

/// Aggregate statistics for a [`PacketMesh`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketStats {
    /// Packets accepted.
    pub injected: u64,
    /// Packets delivered.
    pub ejected: u64,
    /// Rejected injection attempts.
    pub inject_fails: u64,
    /// Sum of hop counts.
    pub total_hops: u64,
    /// Sum of contention cycles.
    pub total_queued: u64,
    /// Sum of latencies, including serialization of the packet tail.
    pub total_latency: u64,
    /// Sum of flits carried by delivered packets.
    pub total_flits: u64,
}

/// Deterministic cost counters of a [`PacketMesh`]: how much work its
/// ticks did, as counts that repeat exactly for a given traffic
/// pattern (unlike host time). Kept outside [`PacketStats`] because
/// they describe the simulator, not the simulated network — two
/// implementations of the same network agree on `PacketStats` and may
/// differ here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketWork {
    /// Calls to [`PacketMesh::tick`], idle ones included.
    pub ticks: u64,
    /// Routers arbitrated: per tick, the routers holding a packet plus
    /// the routers carrying a fault.
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
/// Input queues per router; queue `q` is `inputs[q / VCS][q % VCS]`.
const QUEUES: usize = PORTS * VIRTUAL_CHANNELS;
const ALL_QUEUES: u32 = (1 << QUEUES) - 1;

struct PacketRouter<P> {
    /// This router's position (kept here so the tick never divides a
    /// router index by the mesh width).
    at: Coord,
    /// `inputs[port][vc]`
    inputs: [[VecDeque<PacketMsg<P>>; VIRTUAL_CHANNELS]; PORTS],
    /// Bit `q` set iff input queue `q` is non-empty.
    nonempty: u32,
    /// `(available_at, msg)`
    eject: VecDeque<(u64, PacketMsg<P>)>,
    /// Physical output links are busy while a packet's flits stream
    /// across them.
    busy_until: [u64; PORTS],
    rr: [usize; PORTS],
}

impl<P> PacketRouter<P> {
    fn new(at: Coord) -> PacketRouter<P> {
        PacketRouter {
            at,
            inputs: Default::default(),
            nonempty: 0,
            eject: VecDeque::new(),
            busy_until: [0; PORTS],
            rr: [0; PORTS],
        }
    }
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

/// A W×H wormhole packet mesh with [`VIRTUAL_CHANNELS`] virtual
/// channels per link and Y-X dimension-order routing.
///
/// A tick costs what is in flight: it arbitrates only the routers
/// that hold a packet (plus any that carry a fault), in ascending
/// router order, and each of those routes only its non-empty queues'
/// heads. An empty router can grant nothing, so skipping it is
/// invisible; DESIGN.md §5d gives the full argument, faults included.
pub struct PacketMesh<P> {
    rows: u8,
    cols: u8,
    vc_cap: usize,
    routers: Vec<PacketRouter<P>>,
    /// Aggregate statistics.
    pub stats: PacketStats,
    in_flight: usize,
    /// Routers with a non-empty input queue. Maintained where queues
    /// change — [`PacketMesh::inject`] and each applied move — and
    /// recounted by [`PacketMesh::audit`].
    occupied: RouterSet,
    /// Packets in eject queues (delivered, not yet popped).
    queued_ejects: usize,
    /// Per-tag packets inside routers (attribution of `in_flight`).
    in_flight_by_tag: [usize; MAX_TAGS],
    /// Per-tag high-water marks of `in_flight_by_tag`.
    tag_highwater: [usize; MAX_TAGS],
    /// Per-tag packets accepted.
    tag_injected: [u64; MAX_TAGS],
    /// Per-tag packets delivered.
    tag_ejected: [u64; MAX_TAGS],
    /// Installed timing faults (`None` on the production path).
    fault: Option<MeshFaultState>,
    work: PacketWork,
    // Per-tick scratch, retained so a tick never allocates. Per router,
    // the input queues already promised a packet this cycle (all zero
    // between ticks: each applied move clears the bit its grant set),
    // and this cycle's grants.
    incoming: Vec<u32>,
    moves: Vec<Move>,
}

impl<P> PacketMesh<P> {
    /// A `rows`×`cols` packet mesh with per-VC buffers of `vc_cap`
    /// packets.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `vc_cap == 0`.
    pub fn new(rows: u8, cols: u8, vc_cap: usize) -> PacketMesh<P> {
        assert!(rows > 0 && cols > 0 && vc_cap > 0, "degenerate mesh");
        let n = rows as usize * cols as usize;
        PacketMesh {
            rows,
            cols,
            vc_cap,
            routers: (0..rows)
                .flat_map(|row| (0..cols).map(move |col| PacketRouter::new(Coord { row, col })))
                .collect(),
            stats: PacketStats::default(),
            in_flight: 0,
            occupied: RouterSet::with_capacity(n),
            queued_ejects: 0,
            in_flight_by_tag: [0; MAX_TAGS],
            tag_highwater: [0; MAX_TAGS],
            tag_injected: [0; MAX_TAGS],
            tag_ejected: [0; MAX_TAGS],
            fault: None,
            work: PacketWork::default(),
            incoming: vec![0; n],
            moves: Vec::with_capacity(n),
        }
    }

    /// Installs (or clears) a timing-fault configuration. Faults stall
    /// output ports and randomize arbitration; they never drop, corrupt
    /// or reorder a same-queue flow (see [`MeshFaultConfig`]).
    pub fn set_fault(&mut self, cfg: Option<&MeshFaultConfig>) {
        self.fault = cfg.map(|c| MeshFaultState::new(c, self.rows, self.cols));
    }

    fn idx(&self, c: Coord) -> usize {
        assert!(c.row < self.rows && c.col < self.cols, "coord {c} outside mesh");
        c.row as usize * self.cols as usize + c.col as usize
    }

    /// Packets currently inside routers.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Per-tag high-water marks of packets inside routers — on the
    /// OCN, how deep each core's traffic ran concurrently.
    pub fn tag_highwater(&self) -> [usize; MAX_TAGS] {
        self.tag_highwater
    }

    /// Per-tag `(injected, ejected)` packet counts.
    pub fn tag_counts(&self) -> [(u64, u64); MAX_TAGS] {
        let mut out = [(0, 0); MAX_TAGS];
        for (o, (i, e)) in out.iter_mut().zip(self.tag_injected.iter().zip(&self.tag_ejected)) {
            *o = (*i, *e);
        }
        out
    }

    /// Packets delivered to an eject queue but not yet popped by the
    /// destination (these count as `ejected` in [`PacketStats`] and are
    /// *not* in [`PacketMesh::in_flight`]).
    pub fn queued_ejects(&self) -> usize {
        self.queued_ejects
    }

    /// The deterministic cost counters (see [`PacketWork`]).
    pub fn work(&self) -> PacketWork {
        self.work
    }

    /// Conservation audit, mirroring [`Mesh::audit`](crate::Mesh):
    /// the in-flight counter must equal the recounted router queue
    /// occupancy, `injected = ejected + in_flight` (where `ejected`
    /// includes eject-queue entries the destination has not drained),
    /// and every incrementally kept summary — the per-router non-empty
    /// masks, the occupied-router set, the eject counter, the clean
    /// scratch — must equal its recount from the queues.
    ///
    /// # Errors
    ///
    /// A description of the first violated equation.
    pub fn audit(&self) -> Result<(), String> {
        let mut recount = 0;
        let mut ejects = 0;
        for (r, router) in self.routers.iter().enumerate() {
            let mut nonempty = 0u32;
            for (q, queue) in router.inputs.iter().flatten().enumerate() {
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
            if self.incoming[r] != 0 {
                return Err(format!("router {r}: grant scratch left dirty between ticks"));
            }
            ejects += router.eject.len();
        }
        if recount != self.in_flight {
            return Err(format!(
                "in-flight counter {} != recounted router occupancy {recount}",
                self.in_flight
            ));
        }
        if ejects != self.queued_ejects {
            return Err(format!(
                "queued-eject counter {} != recounted eject queues {ejects}",
                self.queued_ejects
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

    /// True if an injection at `src` on `vc` would be accepted.
    pub fn can_inject(&self, src: Coord, vc: u8) -> bool {
        self.routers[self.idx(src)].inputs[LOCAL][vc as usize].len() < self.vc_cap
    }

    /// [`PacketMesh::can_inject`] for a caller about to inject: a
    /// refusal is counted in [`PacketStats::inject_fails`] exactly as a
    /// refused [`PacketMesh::inject`] is, so the caller can keep its
    /// payload (and skip building the packet) on the retry path.
    pub fn admit(&mut self, src: Coord, vc: u8) -> bool {
        let ok = self.can_inject(src, vc);
        self.stats.inject_fails += u64::from(!ok);
        ok
    }

    /// Injects a packet. Returns `false` if the local VC buffer is
    /// full.
    pub fn inject(&mut self, now: u64, mut msg: PacketMsg<P>) -> bool {
        let i = self.idx(msg.src);
        let _ = self.idx(msg.dst);
        if !self.admit(msg.src, msg.vc) {
            return false;
        }
        msg.injected_at = now;
        msg.hops = 0;
        let tag = msg.tag as usize;
        let vc = msg.vc as usize;
        self.routers[i].inputs[LOCAL][vc].push_back(msg);
        self.routers[i].nonempty |= 1 << (LOCAL * VIRTUAL_CHANNELS + vc);
        self.occupied.insert(i);
        self.stats.injected += 1;
        self.in_flight += 1;
        self.tag_injected[tag] += 1;
        self.in_flight_by_tag[tag] += 1;
        self.tag_highwater[tag] = self.tag_highwater[tag].max(self.in_flight_by_tag[tag]);
        true
    }

    /// Pops the next fully-arrived packet at `node`.
    pub fn eject(&mut self, now: u64, node: Coord) -> Option<PacketMsg<P>> {
        let i = self.idx(node);
        match self.routers[i].eject.front() {
            Some(&(avail, _)) if avail <= now => {
                self.queued_ejects -= 1;
                self.routers[i].eject.pop_front().map(|(_, msg)| msg)
            }
            _ => None,
        }
    }

    /// The output a packet for `dst` leaves router `at` by (Y-X
    /// dimension order).
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

    /// The router beyond link output `out` of router `r` and the input
    /// port the link enters it by; `None` off the mesh edge.
    fn neighbor(&self, r: usize, out: usize) -> Option<(usize, usize)> {
        let cols = self.cols as usize;
        let at = self.routers[r].at;
        match out {
            NORTH if at.row > 0 => Some((r - cols, SOUTH)),
            SOUTH if at.row + 1 < self.rows => Some((r + cols, NORTH)),
            EAST if at.col + 1 < self.cols => Some((r + 1, WEST)),
            WEST if at.col > 0 => Some((r - 1, EAST)),
            _ => None,
        }
    }

    /// Advances the network one cycle.
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
                        *rr = f.draw(QUEUES);
                    }
                }
            }
        }
        // Occupied routers, plus the fault-bearing ones: a stalled
        // port draws from the fault PRNG every cycle its router
        // arbitrates, holding a packet or not.
        for w in 0..self.occupied.num_words() {
            let bearing = fault.as_ref().map(MeshFaultState::bearing);
            for r in self.occupied.word_union(bearing, w) {
                self.arbitrate(r, now, fault.as_mut());
            }
        }
        self.fault = fault;

        let mut moves = std::mem::take(&mut self.moves);
        for mv in moves.drain(..) {
            self.apply(now, mv);
        }
        self.moves = moves;
    }

    /// One router's output arbitration: grants each free output to at
    /// most one waiting head and records the grants in `self.moves`.
    ///
    /// Outputs are probed in port order, all five of them, busy check
    /// then stall check — the stall check is where the fault PRNG is
    /// drawn, so its order is part of the model. Capacity downstream is
    /// read from the live queue: grants are applied only after every
    /// router has arbitrated, so the live length *is* the
    /// start-of-cycle length.
    fn arbitrate(&mut self, r: usize, now: u64, mut fault: Option<&mut MeshFaultState>) {
        let router = &self.routers[r];
        let at = router.at;
        // Route each waiting head once: `want[out]` is the set of
        // queues whose head leaves by `out`.
        let mut want = [0u32; PORTS];
        let mut waiting = router.nonempty;
        while waiting != 0 {
            let q = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let head = router.inputs[q / VIRTUAL_CHANNELS][q % VIRTUAL_CHANNELS]
                .front()
                .expect("the non-empty mask tracks the queues");
            want[Self::route(at, head.dst)] |= 1 << q;
        }
        self.work.router_visits += 1;
        self.work.queue_probes += u64::from(router.nonempty.count_ones());

        for (out, &want) in want.iter().enumerate() {
            if out != LOCAL && self.routers[r].busy_until[out] > now {
                continue;
            }
            // An injected stall burst holds the whole output port:
            // nothing is granted, waiting packets stay queued.
            if fault.as_deref_mut().is_some_and(|f| f.stalled(r, out, now)) {
                continue;
            }
            if want == 0 {
                continue;
            }
            let dest = (out != LOCAL)
                .then(|| self.neighbor(r, out).expect("dimension-order routes stay on the mesh"));
            // Round-robin from the pointer: rotate the candidates so
            // bit `k` stands for queue `(base + k) % QUEUES`.
            let base = self.routers[r].rr[out];
            let mut candidates = (want >> base | want << (QUEUES - base)) & ALL_QUEUES;
            while candidates != 0 {
                let q = (base + candidates.trailing_zeros() as usize) % QUEUES;
                candidates &= candidates - 1;
                if let Some((nb, port)) = dest {
                    // The packet keeps its virtual channel across the link.
                    let v = q % VIRTUAL_CHANNELS;
                    let slot = 1 << (port * VIRTUAL_CHANNELS + v);
                    if self.incoming[nb] & slot != 0
                        || self.routers[nb].inputs[port][v].len() >= self.vc_cap
                    {
                        continue;
                    }
                    self.incoming[nb] |= slot;
                }
                self.routers[r].rr[out] = (q + 1) % QUEUES;
                self.moves.push(Move { r, q, out });
                break;
            }
        }
    }

    /// Carries out one grant, keeping every occupancy summary in step
    /// with the queues.
    fn apply(&mut self, now: u64, Move { r, q, out }: Move) {
        let (p, v) = (q / VIRTUAL_CHANNELS, q % VIRTUAL_CHANNELS);
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
            let latency = (avail - msg.injected_at) as u32;
            msg.queued = latency.saturating_sub(msg.hops + msg.flits - 1);
            self.stats.ejected += 1;
            self.stats.total_hops += u64::from(msg.hops);
            self.stats.total_queued += u64::from(msg.queued);
            self.stats.total_latency += u64::from(latency);
            self.stats.total_flits += u64::from(msg.flits);
            self.in_flight -= 1;
            self.tag_ejected[msg.tag as usize] += 1;
            self.in_flight_by_tag[msg.tag as usize] -= 1;
            self.queued_ejects += 1;
            router.eject.push_back((avail, msg));
        } else {
            router.busy_until[out] = now + u64::from(msg.flits);
            let (nb, port) = self.neighbor(r, out).expect("grants stay on the mesh");
            let slot = port * VIRTUAL_CHANNELS + v;
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
    use trips_harness::Rng;

    /// The reference model: the tick this module had before it kept an
    /// occupied-router set. Every router, every output, every queue,
    /// every cycle, against a start-of-cycle snapshot of all queue
    /// lengths — nothing incremental to get wrong. It shares only
    /// `apply` (which carries a grant out) with the real tick.
    fn reference_tick<P>(m: &mut PacketMesh<P>, now: u64) {
        if m.in_flight == 0 {
            return;
        }
        let n = m.routers.len();
        let start_len: Vec<[[usize; VIRTUAL_CHANNELS]; PORTS]> = m
            .routers
            .iter()
            .map(|r| r.inputs.each_ref().map(|port| port.each_ref().map(VecDeque::len)))
            .collect();
        let mut incoming = vec![[[false; VIRTUAL_CHANNELS]; PORTS]; n];
        let mut moves = Vec::new();
        let mut fault = m.fault.take();
        if let Some(f) = fault.as_mut() {
            if f.rotate() {
                for router in &mut m.routers {
                    for rr in &mut router.rr {
                        *rr = f.draw(QUEUES);
                    }
                }
            }
        }
        for r in 0..n {
            let at = Coord { row: (r / m.cols as usize) as u8, col: (r % m.cols as usize) as u8 };
            let mut input_used = [[false; VIRTUAL_CHANNELS]; PORTS];
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
                for k in 0..QUEUES {
                    let q = (base + k) % QUEUES;
                    let (p, v) = (q / VIRTUAL_CHANNELS, q % VIRTUAL_CHANNELS);
                    if input_used[p][v] {
                        continue;
                    }
                    let Some(head) = m.routers[r].inputs[p][v].front() else {
                        continue;
                    };
                    if PacketMesh::<P>::route(at, head.dst) != out {
                        continue;
                    }
                    if let Some((nb, port)) = dest {
                        if incoming[nb][port][v] || start_len[nb][port][v] >= m.vc_cap {
                            continue;
                        }
                        incoming[nb][port][v] = true;
                    }
                    input_used[p][v] = true;
                    m.routers[r].rr[out] = (q + 1) % QUEUES;
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

    /// Stall bursts for a mesh whose traffic stays off the last row:
    /// two contended links, an off-edge output at each end (they route
    /// nothing but draw every cycle their router arbitrates), and an
    /// eject port on a router that never holds a packet.
    fn stalls(rows: u8, cols: u8) -> Vec<PortStall> {
        let stall = |row, col, port, den, max_burst| PortStall {
            router: Coord { row, col },
            port,
            num: 1,
            den,
            max_burst,
        };
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
    /// everything observable.
    fn assert_matches_reference(rows: u8, vc_cap: usize, fault: Option<&MeshFaultConfig>) {
        const COLS: u8 = 4;
        let what = format!("{rows}x{COLS} vc_cap {vc_cap} fault {fault:?}");
        let mut new: PacketMesh<u64> = PacketMesh::new(rows, COLS, vc_cap);
        let mut old: PacketMesh<u64> = PacketMesh::new(rows, COLS, vc_cap);
        new.set_fault(fault);
        old.set_fault(fault);
        let mut rng = Rng::new(0x0c4e ^ u64::from(rows) << 8 ^ vc_cap as u64);
        let node =
            |rng: &mut Rng| Coord { row: rng.range_u8(0, rows - 1), col: rng.range_u8(0, COLS) };
        let hot = Coord { row: rows / 2, col: 1 };
        let offers = 2 + rows as usize / 10;
        let mut id = 0u64;
        let mut t = 0u64;
        while t < 1200 || new.in_flight() + new.queued_ejects() > 0 {
            assert!(t < 20_000, "{what}: traffic never drained");
            for _ in 0..if t < 1200 { offers } else { 0 } {
                let src = node(&mut rng);
                let dst = if rng.chance(1, 4) { hot } else { node(&mut rng) };
                let flits = if rng.chance(1, 2) { 1 } else { 5 };
                let msg = PacketMsg::new(src, dst, id, flits, rng.range_u8(0, 4))
                    .with_tag(rng.range_u8(0, MAX_TAGS as u8));
                id += 1;
                assert_eq!(new.inject(t, msg.clone()), old.inject(t, msg), "{what}: inject at {t}");
            }
            new.tick(t);
            reference_tick(&mut old, t);
            for (r, (a, b)) in new.routers.iter().zip(&old.routers).enumerate() {
                let view = |q: &VecDeque<(u64, PacketMsg<u64>)>| -> Vec<_> {
                    q.iter().map(|(at, m)| (*at, m.payload, m.hops, m.queued)).collect()
                };
                assert_eq!(view(&a.eject), view(&b.eject), "{what}: router {r} ejections at {t}");
            }
            // Destinations drain at their own pace: delivered packets
            // wait in the eject queues some of the time.
            for row in 0..rows {
                for col in 0..COLS {
                    if rng.chance(1, 3) {
                        continue;
                    }
                    let at = Coord { row, col };
                    while let Some(m) = new.eject(t + 1, at) {
                        assert_eq!(old.eject(t + 1, at).map(|o| o.payload), Some(m.payload));
                    }
                }
            }
            assert_eq!(new.stats, old.stats, "{what}: stats at {t}");
            assert_eq!(new.tag_counts(), old.tag_counts(), "{what}: tag counts at {t}");
            assert_eq!(new.tag_highwater(), old.tag_highwater(), "{what}: tag highwater at {t}");
            assert_eq!(new.in_flight(), old.in_flight());
            assert_eq!(new.queued_ejects(), old.queued_ejects());
            new.audit().unwrap_or_else(|e| panic!("{what}: audit at {t}: {e}"));
            old.audit().unwrap_or_else(|e| panic!("{what}: reference audit at {t}: {e}"));
            t += 1;
        }
        assert!(new.stats.total_queued > 0, "{what}: the traffic must contend");
        assert_eq!(new.stats.ejected, new.stats.injected);
    }

    #[test]
    fn tick_matches_the_full_sweep_reference_model() {
        // 10x4 is the prototype OCN; 20x4 (80 routers) crosses the
        // occupied set's 64-router word; 80x4 is the 16-core die.
        for rows in [10u8, 20, 80] {
            for vc_cap in [1, 2] {
                let fault = |rotate_arbitration, stalls| MeshFaultConfig {
                    seed: 0xfa17 + u64::from(rows),
                    rotate_arbitration,
                    stalls,
                };
                assert_matches_reference(rows, vc_cap, None);
                assert_matches_reference(rows, vc_cap, Some(&fault(false, stalls(rows, 4))));
                assert_matches_reference(rows, vc_cap, Some(&fault(true, Vec::new())));
                assert_matches_reference(rows, vc_cap, Some(&fault(true, stalls(rows, 4))));
            }
        }
    }

    #[test]
    fn a_tick_visits_only_occupied_and_fault_bearing_routers() {
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 9, col: 3 };
        let mut m: PacketMesh<u32> = PacketMesh::new(10, 4, 2);
        for t in 0..50 {
            m.tick(t);
        }
        assert_eq!(
            m.work(),
            PacketWork { ticks: 50, ..PacketWork::default() },
            "idle ticks visit nothing"
        );
        // One packet: one router visited and one head routed per cycle
        // it is in flight (12 hops, then the eject).
        m.inject(50, PacketMsg::new(src, dst, 1, 5, 0));
        for t in 50..100 {
            m.tick(t);
        }
        assert_eq!(m.work(), PacketWork { ticks: 100, router_visits: 13, queue_probes: 13 });
        assert!(m.eject(100, dst).is_some());

        // Two fault-bearing routers off the packet's path are visited
        // on every tick with a packet in flight, and only then.
        let mut m: PacketMesh<u32> = PacketMesh::new(10, 4, 2);
        m.set_fault(Some(&MeshFaultConfig {
            seed: 1,
            rotate_arbitration: false,
            stalls: [(0, 2, FaultPort::North), (5, 1, FaultPort::Eject)]
                .map(|(row, col, port)| PortStall {
                    router: Coord { row, col },
                    port,
                    num: 1,
                    den: 2,
                    max_burst: 3,
                })
                .to_vec(),
        }));
        m.inject(0, PacketMsg::new(src, dst, 1, 1, 0));
        for t in 0..100 {
            m.tick(t);
        }
        assert_eq!(m.work(), PacketWork { ticks: 100, router_visits: 13 * 3, queue_probes: 13 });
    }

    #[test]
    fn single_flit_behaves_like_mesh() {
        let mut m: PacketMesh<u32> = PacketMesh::new(10, 4, 2);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 9, col: 3 };
        m.inject(0, PacketMsg::new(src, dst, 5, 1, 0));
        let mut t = 0;
        let msg = loop {
            m.tick(t);
            t += 1;
            if let Some(msg) = m.eject(t, dst) {
                break msg;
            }
            assert!(t < 100);
        };
        assert_eq!(msg.hops, 12);
        assert_eq!(msg.queued, 0);
    }

    #[test]
    fn cache_line_serialization_delays_tail() {
        let mut m: PacketMesh<u32> = PacketMesh::new(1, 2, 2);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 0, col: 1 };
        m.inject(0, PacketMsg::new(src, dst, 1, 5, 0));
        m.tick(0); // crosses the link (head)
        m.tick(1); // ejects at router, tail streaming
        assert!(m.eject(2, dst).is_none(), "tail still arriving");
        assert!(m.eject(5, dst).is_some(), "five flits done");
    }

    #[test]
    fn link_busy_serializes_packets() {
        let mut m: PacketMesh<u32> = PacketMesh::new(1, 2, 4);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 0, col: 1 };
        m.inject(0, PacketMsg::new(src, dst, 1, 5, 0));
        m.inject(0, PacketMsg::new(src, dst, 2, 5, 1));
        let mut got = Vec::new();
        for t in 0..40u64 {
            m.tick(t);
            while let Some(msg) = m.eject(t + 1, dst) {
                got.push((t + 1, msg.payload));
            }
        }
        assert_eq!(got.len(), 2);
        assert!(got[1].0 >= got[0].0 + 5, "second packet delayed by first packet's flits: {got:?}");
    }

    #[test]
    fn separate_vcs_buffer_independently() {
        let mut m: PacketMesh<u32> = PacketMesh::new(1, 2, 1);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 0, col: 1 };
        assert!(m.inject(0, PacketMsg::new(src, dst, 1, 1, 0)));
        assert!(!m.can_inject(src, 0), "vc0 buffer full");
        assert!(m.can_inject(src, 1), "vc1 independent");
        assert!(m.inject(0, PacketMsg::new(src, dst, 2, 1, 1)));
    }

    #[test]
    #[should_panic(expected = "vc out of range")]
    fn vc_bounds_checked() {
        let _ = PacketMsg::new(Coord { row: 0, col: 0 }, Coord { row: 0, col: 0 }, 0, 1, 4);
    }

    #[test]
    fn tags_attribute_traffic_without_affecting_it() {
        let mut m: PacketMesh<u32> = PacketMesh::new(2, 2, 4);
        let src = Coord { row: 0, col: 0 };
        let dst = Coord { row: 1, col: 1 };
        m.inject(0, PacketMsg::new(src, dst, 1, 1, 0).with_tag(0));
        m.inject(0, PacketMsg::new(src, dst, 2, 1, 1).with_tag(1));
        let mut got = 0;
        for t in 0..20u64 {
            m.tick(t);
            while m.eject(t + 1, dst).is_some() {
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
        let _ = PacketMsg::new(Coord { row: 0, col: 0 }, Coord { row: 0, col: 0 }, 0, 1, 0)
            .with_tag(MAX_TAGS as u8);
    }
}
