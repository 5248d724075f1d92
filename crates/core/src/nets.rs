//! The seven micronetworks of the core, bundled.

use std::collections::VecDeque;

use trips_micronet::{Chain, Mesh, MeshMsg, WakePort, WakeTable};

use crate::config::{CoreConfig, CoreGeometry, OPN_FIFO};
use crate::diag::NetDiag;
use crate::fault;
use crate::msg::{DsnMsg, GcnMsg, GdnFetch, GrnRefill, GsnMsg, OpnPayload, RowMsg, TileId};
use crate::trace::{OpnClass, TraceKind, Tracer};

/// Chain positions of the GDN/GRN instruction-tile column: the GT at
/// 0, then IT0..ITn.
pub fn it_col_pos(it: usize) -> usize {
    1 + it
}

/// Chain positions within a GDN row: the IT at 0, the GT or DT at 1,
/// and the RTs or ETs from 2.
pub fn row_pos_of_col(col: usize) -> usize {
    2 + col
}

/// Chain positions of the RT status chain: GT at 0, then RT0..RTn.
pub fn rt_chain_pos(rt: usize) -> usize {
    1 + rt
}

/// Chain positions of the DT status chain: GT at 0, then DT0..DTn.
pub fn dt_chain_pos(dt: usize) -> usize {
    1 + dt
}

/// All micronetworks of one core.
pub struct Nets {
    /// The tile-array geometry the networks are sized for.
    pub geom: CoreGeometry,
    /// The core's tile wake table, indexed by activity-mask bit
    /// ([`CoreGeometry::tile_bit`]). Every chain and mesh below holds
    /// a port onto it and files each delivery with the receiving tile;
    /// the memory system holds the third kind of port.
    pub wake: WakeTable,
    /// Operand network(s): one in the prototype, two for the
    /// bandwidth ablation. Traffic steers by destination so that
    /// same-destination operands stay ordered.
    pub opn: Vec<Mesh<OpnPayload>>,
    /// Cycles an outbox head-of-line message waited on a full local
    /// inject FIFO (one count per network per cycle).
    pub opn_inject_stalls: u64,
    /// Per-network high-water marks of in-flight messages.
    pub opn_highwater: Vec<usize>,
    /// GDN, GT → IT column (fetch commands).
    pub gdn_col: Chain<GdnFetch>,
    /// GDN rows, IT → row tiles (dispatch), one chain per IT.
    pub gdn_rows: Vec<Chain<RowMsg>>,
    /// GSN along the RT row (block status / commit acks).
    pub gsn_rt: Chain<GsnMsg>,
    /// GSN along the DT column.
    pub gsn_dt: Chain<GsnMsg>,
    /// GSN along the IT column (refill completion).
    pub gsn_it: Chain<GsnMsg>,
    /// GCN commit/flush wave over all routed tiles
    /// ([`CoreGeometry::gcn_len`] of them).
    pub gcn: Chain<GcnMsg>,
    /// GRN refill commands, GT → ITs.
    pub grn: Chain<GrnRefill>,
    /// DSN between the DTs (store-arrival broadcasts).
    pub dsn: Chain<DsnMsg>,
}

impl Nets {
    /// Networks for the given configuration. When the configuration
    /// carries a [`FaultPlan`](crate::FaultPlan), each network gets its
    /// compiled fault state here, seeded per network so runs replay
    /// exactly. Each network's wake port names the tile behind every
    /// delivery position (the layouts of [`it_col_pos`] and friends).
    pub fn new(cfg: &CoreConfig) -> Nets {
        let g = cfg.geometry;
        let mesh = (g.mesh_rows() as u8, g.mesh_cols() as u8);
        let wake = WakeTable::new(g.tile_ticks());
        let gt = [g.tile_bit(TileId::Gt)];
        let its: Vec<u32> = (0..g.num_its()).map(|i| g.it_bit(i)).collect();
        let rts: Vec<u32> = (0..g.num_rts()).map(|b| g.tile_bit(TileId::Rt(b as u8))).collect();
        let dts: Vec<u32> = (0..g.num_dts()).map(|d| g.tile_bit(TileId::Dt(d as u8))).collect();
        let ets: Vec<u32> = (0..g.num_ets())
            .map(|k| g.tile_bit(TileId::Et((k / g.et_cols) as u8, (k % g.et_cols) as u8)))
            .collect();
        let port = |tiles: &[&[u32]]| Some(WakePort::new(&wake, tiles.concat()));
        // The OPN, row-major: GT and RTs, then each DT with its ET row.
        // A router with no tile behind it (the fat die's RT row is
        // narrower than its mesh) files out of range — loudly.
        let nobody = vec![u32::MAX; g.et_cols - g.num_rts()];
        let mut routers = Vec::with_capacity(3 + 2 * g.et_rows);
        routers.extend([&gt[..], &rts, &nobody]);
        for r in 0..g.et_rows {
            routers.extend([&dts[r..=r], &ets[r * g.et_cols..(r + 1) * g.et_cols]]);
        }
        let mesh_port = port(&routers);
        // Row 0 of the GDN carries the GT and RTs, body rows a DT and
        // their ETs; each chain is as long as its row's tile count.
        let row_len = |it: usize| if it == 0 { 2 + g.num_rts() } else { 2 + g.et_cols };
        let mut nets = Nets {
            geom: g,
            wake: wake.clone(),
            opn: (0..cfg.opn_networks).map(|_| Mesh::new(mesh.0, mesh.1, OPN_FIFO)).collect(),
            opn_inject_stalls: 0,
            opn_highwater: vec![0; cfg.opn_networks],
            gdn_col: Chain::new(1 + g.num_its()),
            gdn_rows: (0..g.num_its()).map(|it| Chain::new(row_len(it))).collect(),
            gsn_rt: Chain::new(1 + g.num_rts()),
            gsn_dt: Chain::new(1 + g.num_dts()),
            gsn_it: Chain::new(1 + g.num_its()),
            gcn: Chain::new(g.gcn_len()),
            grn: Chain::new(1 + g.num_its()),
            dsn: Chain::new(g.num_dts()),
        };
        for m in &mut nets.opn {
            m.set_wake(mesh_port.clone());
        }
        nets.gdn_col.set_wake(port(&[&gt, &its]));
        nets.grn.set_wake(port(&[&gt, &its]));
        nets.gsn_it.set_wake(port(&[&gt, &its]));
        nets.gsn_rt.set_wake(port(&[&gt, &rts]));
        nets.gsn_dt.set_wake(port(&[&gt, &dts]));
        nets.gcn.set_wake(port(&[&gt, &rts, &dts, &ets]));
        nets.dsn.set_wake(port(&[&dts]));
        for (r, row) in nets.gdn_rows.iter_mut().enumerate() {
            row.set_wake(match r {
                0 => port(&[&its[..1], &gt, &rts]),
                _ => port(&[&its[r..=r], &dts[r - 1..r], &ets[(r - 1) * g.et_cols..r * g.et_cols]]),
            });
        }
        if let Some(plan) = &cfg.faults {
            for (n, m) in nets.opn.iter_mut().enumerate() {
                m.set_fault(plan.mesh_fault(n).as_ref());
            }
            nets.gdn_col.set_fault(plan.chain_fault(fault::TAG_GDN_COL).as_ref());
            for (r, row) in nets.gdn_rows.iter_mut().enumerate() {
                row.set_fault(plan.chain_fault(fault::TAG_GDN_ROW + r as u64).as_ref());
            }
            nets.gsn_rt.set_fault(plan.chain_fault(fault::TAG_GSN_RT).as_ref());
            nets.gsn_dt.set_fault(plan.chain_fault(fault::TAG_GSN_DT).as_ref());
            nets.gsn_it.set_fault(plan.chain_fault(fault::TAG_GSN_IT).as_ref());
            nets.gcn.set_fault(plan.chain_fault(fault::TAG_GCN).as_ref());
            nets.grn.set_fault(plan.chain_fault(fault::TAG_GRN).as_ref());
            nets.dsn.set_fault(plan.chain_fault(fault::TAG_DSN).as_ref());
        }
        nets
    }

    /// Broadcasts a GCN message from the GT; the wave reaches each
    /// tile after its two-dimensional manhattan distance (§4.3: one
    /// hop per cycle across the array).
    pub fn gcn_broadcast(&mut self, now: u64, msg: GcnMsg) {
        let g = self.geom;
        let from = TileId::Gt.opn();
        let send = |gcn: &mut Chain<GcnMsg>, t: TileId| {
            gcn.send_delayed(now, g.gcn_pos(t), u64::from(from.distance(t.opn())), msg);
        };
        for b in 0..g.num_rts() as u8 {
            send(&mut self.gcn, TileId::Rt(b));
        }
        for d in 0..g.num_dts() as u8 {
            send(&mut self.gcn, TileId::Dt(d));
        }
        for r in 0..g.et_rows as u8 {
            for c in 0..g.et_cols as u8 {
                send(&mut self.gcn, TileId::Et(r, c));
            }
        }
    }

    /// Ticks the contention-modelled networks. A mesh with no message
    /// inside any router is inert until the next injection and is not
    /// ticked; the chains are event-driven (send/recv) and never need
    /// a tick.
    pub fn tick(&mut self, now: u64) {
        for (n, m) in self.opn.iter_mut().enumerate() {
            if m.in_flight() == 0 {
                continue;
            }
            self.opn_highwater[n] = self.opn_highwater[n].max(m.in_flight());
            m.tick(now);
        }
    }

    /// Head-of-line inject stalls observed by the tile outboxes.
    ///
    /// This is the *only* term of the protocol-level stall count:
    /// [`OpnOutbox::flush`] checks `can_inject` before injecting, so a
    /// stalled cycle increments this counter and never reaches
    /// [`Mesh::inject`] — the mesh's own `inject_fails` counts raw
    /// rejected injections (a different event, nonzero only for
    /// clients that bypass the outbox) and must not be added on top.
    pub fn inject_stalls(&self) -> u64 {
        self.opn_inject_stalls
    }

    /// True if any OPN has a delivered message waiting at `tile` —
    /// one of the tile's wake sources.
    pub fn opn_delivered_at(&self, tile: TileId) -> bool {
        let node = tile.opn();
        self.opn.iter().any(|m| m.has_delivered(node))
    }

    /// The parallel OPN carrying traffic for `dst`. Destination
    /// steering (rather than round-robin) keeps every (src, dst) flow
    /// on one network, so same-destination operands cannot be
    /// reordered across networks; Y-X routing and FIFO buffers keep
    /// them in order within one.
    pub fn opn_for(&self, dst: TileId) -> usize {
        let c = dst.opn();
        (c.row as usize + c.col as usize) % self.opn.len()
    }

    /// Occupancy of every network, for the hang diagnoser.
    pub fn diags(&self, now: u64) -> Vec<NetDiag> {
        let mut out = Vec::new();
        for (n, m) in self.opn.iter().enumerate() {
            let pending = m.in_flight() + m.undrained();
            if pending == 0 {
                continue;
            }
            let oldest = m.oldest_in_flight().map(|(at, src, dst, delivered)| {
                let from = TileId::from_opn(src);
                let to = TileId::from_opn(dst);
                let state = if delivered { "awaiting eject at" } else { "en route to" };
                format!("{from}->{to} injected at cycle {at} ({} old), {state} {to}", now - at)
            });
            out.push(NetDiag { net: format!("OPN{n}"), pending, oldest });
        }
        let mut chain = |name: &str, c_pending: usize, c_oldest: Option<(u64, usize)>| {
            if c_pending > 0 {
                out.push(NetDiag {
                    net: name.to_string(),
                    pending: c_pending,
                    oldest: c_oldest
                        .map(|(at, pos)| format!("arrives at cycle {at}, chain position {pos}")),
                });
            }
        };
        chain("GDN column", self.gdn_col.pending(), self.gdn_col.oldest_pending());
        for (r, row) in self.gdn_rows.iter().enumerate() {
            chain(&format!("GDN row {r}"), row.pending(), row.oldest_pending());
        }
        chain("GSN/RT", self.gsn_rt.pending(), self.gsn_rt.oldest_pending());
        chain("GSN/DT", self.gsn_dt.pending(), self.gsn_dt.oldest_pending());
        chain("GSN/IT", self.gsn_it.pending(), self.gsn_it.oldest_pending());
        chain("GCN", self.gcn.pending(), self.gcn.oldest_pending());
        chain("GRN", self.grn.pending(), self.grn.oldest_pending());
        chain("DSN", self.dsn.pending(), self.dsn.oldest_pending());
        out
    }

    /// True once every network has drained: nothing inside a router,
    /// nothing delivered to an OPN eject queue and not yet consumed,
    /// nothing pending on a chain.
    pub fn idle(&self) -> bool {
        self.opn.iter().all(|m| m.in_flight() == 0 && m.undrained() == 0)
            && self.gdn_col.idle()
            && self.gdn_rows.iter().all(Chain::idle)
            && self.gsn_rt.idle()
            && self.gsn_dt.idle()
            && self.gsn_it.idle()
            && self.gcn.idle()
            && self.grn.idle()
            && self.dsn.idle()
    }
}

/// An operand-network outbox: tiles enqueue sends here and the helper
/// injects up to one message per network per cycle, preserving order
/// and modelling the single local-inject port of an OPN router.
///
/// Each destination maps to a fixed network ([`Nets::opn_for`]), so
/// back-to-back operands for the same consumer always share a network
/// and arrive in order. A message whose network's inject port is full
/// (or already granted this cycle) blocks every younger message bound
/// for the same network — but not messages steered elsewhere.
#[derive(Debug, Default)]
pub struct OpnOutbox {
    queue: VecDeque<(TileId, OpnPayload)>,
}

impl OpnOutbox {
    /// An outbox with its queue storage pre-allocated, so the first
    /// sends of a run never touch the allocator mid-tick.
    pub fn with_capacity(cap: usize) -> OpnOutbox {
        OpnOutbox { queue: VecDeque::with_capacity(cap) }
    }

    /// Queues a message for `dst`.
    pub fn push(&mut self, dst: TileId, payload: OpnPayload) {
        self.queue.push_back((dst, payload));
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Messages awaiting injection.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Injects up to one queued message per OPN network this cycle.
    pub fn flush(&mut self, nets: &mut Nets, now: u64, src: TileId, tracer: &mut Tracer) {
        if self.queue.is_empty() {
            return;
        }
        // Per-network grant and stall bits; both block younger
        // same-network messages from overtaking.
        let mut granted = 0u32;
        let mut stalled = 0u32;
        let mut i = 0;
        while i < self.queue.len() {
            let n = nets.opn_for(self.queue[i].0);
            let bit = 1u32 << n;
            if granted & bit != 0 || stalled & bit != 0 {
                i += 1;
                continue;
            }
            if !nets.opn[n].can_inject(src.opn(), 0) {
                stalled |= bit;
                nets.opn_inject_stalls += 1;
                i += 1;
                continue;
            }
            let (dst, payload) = self.queue.remove(i).expect("index in bounds");
            tracer.record(now, || TraceKind::OpnInject {
                net: n as u8,
                class: OpnClass::of(&payload),
                src,
                dst,
            });
            let ok = nets.opn[n].inject(now, MeshMsg::new(src.opn(), dst.opn(), payload));
            debug_assert!(ok, "can_inject said yes");
            granted |= bit;
            // `i` now indexes the next message after the removal.
        }
    }
}

/// Drains *every* delivered OPN message for `tile` this cycle in one
/// call, invoking `deliver` per message — the batched form of
/// [`opn_recv`], and bit-identical to calling it in a loop until
/// `None`. The loop form rescans from network 0 on every call, but a
/// rescan of a just-drained network can never find anything new:
/// ejections happen only inside `Mesh::tick`, never from a tile's
/// receive handler, so draining network 0 fully and then network 1
/// yields the identical sequence. Same-destination operands always
/// share one network ([`Nets::opn_for`] steers by destination), so the
/// full-drain order is also non-overtaking per flow. A network with
/// nothing delivered costs one bit test ([`Mesh::has_delivered`]).
pub fn opn_recv_batch(
    nets: &mut Nets,
    now: u64,
    tile: TileId,
    tracer: &mut Tracer,
    mut deliver: impl FnMut(MeshMsg<OpnPayload>),
) {
    let node = tile.opn();
    for (n, m) in nets.opn.iter_mut().enumerate() {
        if !m.has_delivered(node) {
            continue;
        }
        while let Some(msg) = m.eject(node) {
            tracer.record(now, || TraceKind::OpnEject {
                net: n as u8,
                class: OpnClass::of(&msg.payload),
                src: TileId::from_opn(msg.src),
                dst: tile,
                hops: msg.hops,
                queued: msg.queued,
            });
            deliver(msg);
        }
    }
}

/// Drains one delivered OPN message for `tile`, scanning the parallel
/// networks in order. Returns the message with its hop/queue counts.
/// Used by receive loops whose per-message handling needs `nets` or
/// `tracer` itself (the GT's branch drain flushes, the DT's request
/// drain forwards) — pure consumers use [`opn_recv_batch`].
pub fn opn_recv(
    nets: &mut Nets,
    now: u64,
    tile: TileId,
    tracer: &mut Tracer,
) -> Option<MeshMsg<OpnPayload>> {
    let node = tile.opn();
    for (n, m) in nets.opn.iter_mut().enumerate() {
        if !m.has_delivered(node) {
            continue;
        }
        if let Some(msg) = m.eject(node) {
            tracer.record(now, || TraceKind::OpnEject {
                net: n as u8,
                class: OpnClass::of(&msg.payload),
                src: TileId::from_opn(msg.src),
                dst: tile,
                hops: msg.hops,
                queued: msg.queued,
            });
            return Some(msg);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::FrameId;
    use trips_isa::semantics::Tok;
    use trips_isa::OperandSlot;

    fn operand() -> OpnPayload {
        operand_val(7)
    }

    fn operand_val(v: i64) -> OpnPayload {
        OpnPayload::Operand {
            frame: FrameId(0),
            gen: 0,
            idx: 5,
            slot: OperandSlot::Left,
            tok: Tok::Val(v as u64),
            ev: 0,
        }
    }

    #[test]
    fn outbox_single_port_per_network() {
        let cfg = CoreConfig::prototype();
        let mut nets = Nets::new(&cfg);
        let mut tr = Tracer::disabled();
        let mut ob = OpnOutbox::default();
        ob.push(TileId::Et(0, 1), operand());
        ob.push(TileId::Et(0, 1), operand());
        ob.flush(&mut nets, 0, TileId::Et(0, 0), &mut tr);
        assert!(!ob.is_empty(), "one network, one inject per cycle");
        ob.flush(&mut nets, 1, TileId::Et(0, 0), &mut tr);
        assert!(ob.is_empty());
    }

    #[test]
    fn two_networks_double_injection_for_distinct_destinations() {
        let cfg = CoreConfig { opn_networks: 2, ..CoreConfig::prototype() };
        let mut nets = Nets::new(&cfg);
        let mut tr = Tracer::disabled();
        let mut ob = OpnOutbox::default();
        // Destinations steered to different networks.
        let (a, b) = (TileId::Et(0, 1), TileId::Et(0, 2));
        assert_ne!(nets.opn_for(a), nets.opn_for(b));
        ob.push(a, operand());
        ob.push(b, operand());
        ob.flush(&mut nets, 0, TileId::Et(0, 0), &mut tr);
        assert!(ob.is_empty(), "two networks accept two per cycle");
    }

    #[test]
    fn same_destination_shares_a_network_and_stays_ordered() {
        let cfg = CoreConfig { opn_networks: 2, ..CoreConfig::prototype() };
        let mut nets = Nets::new(&cfg);
        let mut tr = Tracer::disabled();
        let mut ob = OpnOutbox::default();
        let src = TileId::Et(3, 3);
        let dst = TileId::Et(0, 0);
        for v in 0..8 {
            ob.push(dst, operand_val(v));
        }
        let mut got = Vec::new();
        for t in 0..64u64 {
            ob.flush(&mut nets, t, src, &mut tr);
            nets.tick(t);
            while let Some(m) = opn_recv(&mut nets, t, dst, &mut tr) {
                let OpnPayload::Operand { tok: Tok::Val(v), .. } = m.payload else {
                    panic!("unexpected payload")
                };
                got.push(v);
            }
        }
        assert_eq!(got, (0..8).collect::<Vec<u64>>(), "same-destination FIFO order");
    }

    #[test]
    fn a_stalled_network_does_not_reorder_a_flow() {
        let cfg = CoreConfig { opn_networks: 2, ..CoreConfig::prototype() };
        let mut nets = Nets::new(&cfg);
        let mut tr = Tracer::disabled();
        let (src, dst, other) = (TileId::Et(3, 3), TileId::Et(0, 0), TileId::Et(0, 1));
        // Stall network 0 at `src`: its inject queue is full of traffic
        // for another tile, so anything sent on it waits behind that.
        while nets.opn[0].can_inject(src.opn(), 0) {
            nets.opn[0].inject(0, MeshMsg::new(src.opn(), other.opn(), operand()));
        }
        let mut ob = OpnOutbox::default();
        for v in 0..8 {
            ob.push(dst, operand_val(v));
        }
        let mut got = Vec::new();
        for t in 0..128u64 {
            ob.flush(&mut nets, t, src, &mut tr);
            nets.tick(t);
            while let Some(m) = opn_recv(&mut nets, t, dst, &mut tr) {
                let OpnPayload::Operand { tok: Tok::Val(v), .. } = m.payload else {
                    panic!("unexpected payload")
                };
                got.push(v);
            }
            while opn_recv(&mut nets, t, other, &mut tr).is_some() {}
        }
        assert_eq!(got, (0..8).collect::<Vec<u64>>(), "one flow, in order past a stalled network");
    }

    #[test]
    fn blocked_network_does_not_block_the_other() {
        let cfg = CoreConfig { opn_networks: 2, ..CoreConfig::prototype() };
        let mut nets = Nets::new(&cfg);
        let mut tr = Tracer::disabled();
        let src = TileId::Et(0, 0);
        let blocked_dst = TileId::Et(0, 1); // odd coordinate sum
        let open_dst = TileId::Et(0, 2); // even coordinate sum
        let nb = nets.opn_for(blocked_dst);
        let no = nets.opn_for(open_dst);
        assert_ne!(nb, no);
        // Fill the blocked network's local inject FIFO at src.
        while nets.opn[nb].can_inject(src.opn(), 0) {
            nets.opn[nb].inject(0, MeshMsg::new(src.opn(), blocked_dst.opn(), operand()));
        }
        let mut ob = OpnOutbox::default();
        ob.push(blocked_dst, operand_val(1)); // head of line, stalled
        ob.push(open_dst, operand_val(2)); // different network, must proceed
        let before = nets.opn[no].stats.injected;
        ob.flush(&mut nets, 0, src, &mut tr);
        assert_eq!(nets.opn[no].stats.injected, before + 1, "open network injected");
        assert_eq!(ob.len(), 1, "stalled head stays queued");
        assert!(nets.opn_inject_stalls >= 1, "stall was counted");
    }

    #[test]
    fn inject_stalls_count_outbox_stalls_once() {
        // Regression for a double count: the protocol-level stall
        // statistic must equal the outbox head-of-line stall counter
        // alone. The mesh's `inject_fails` tracks raw rejected
        // injections — the outbox never produces those (it checks
        // `can_inject` first), so adding the two terms would count a
        // single full-FIFO episode twice for any client that also
        // drives `inject` directly.
        let cfg = CoreConfig::prototype();
        let mut nets = Nets::new(&cfg);
        let mut tr = Tracer::disabled();
        let src = TileId::Et(0, 0);
        let dst = TileId::Et(0, 1);
        // Fill the inject FIFO at src by direct injection, then one
        // raw failed injection (the non-outbox path).
        while nets.opn[0].can_inject(src.opn(), 0) {
            nets.opn[0].inject(0, MeshMsg::new(src.opn(), dst.opn(), operand()));
        }
        assert!(!nets.opn[0].inject(0, MeshMsg::new(src.opn(), dst.opn(), operand())));
        assert_eq!(nets.opn[0].stats.inject_fails, 1);
        // Outbox head-of-line stall against the same full FIFO.
        let mut ob = OpnOutbox::default();
        ob.push(dst, operand());
        ob.flush(&mut nets, 0, src, &mut tr);
        assert_eq!(ob.len(), 1, "head stays queued");
        assert_eq!(nets.inject_stalls(), 1, "one stalled cycle, counted once");
        // The audited statistic is the outbox counter alone; the old
        // `stalls + inject_fails` formula would have reported 2 here.
        assert_ne!(nets.inject_stalls() + nets.opn[0].stats.inject_fails, nets.inject_stalls());
        // A failed direct injection did not bump the outbox counter.
        assert_eq!(nets.opn_inject_stalls, 1);
    }

    #[test]
    fn gcn_wave_arrives_at_manhattan_distance() {
        let cfg = CoreConfig::prototype();
        let mut nets = Nets::new(&cfg);
        let msg = GcnMsg::Commit { frame: FrameId(1), gen: 0 };
        nets.gcn_broadcast(0, msg);
        // RT0 is one hop away.
        assert_eq!(nets.gcn.recv(1, nets.geom.gcn_pos(TileId::Rt(0))), Some(msg));
        // ET(3,3) is eight hops away.
        assert_eq!(nets.gcn.recv(7, nets.geom.gcn_pos(TileId::Et(3, 3))), None);
        assert_eq!(nets.gcn.recv(8, nets.geom.gcn_pos(TileId::Et(3, 3))), Some(msg));
    }

    #[test]
    fn opn_roundtrip_through_fabric() {
        let cfg = CoreConfig::prototype();
        let mut nets = Nets::new(&cfg);
        let mut tr = Tracer::enabled(16);
        let mut ob = OpnOutbox::default();
        ob.push(TileId::Gt, operand());
        ob.flush(&mut nets, 0, TileId::Et(3, 3), &mut tr);
        let mut got = None;
        for t in 0..30 {
            nets.tick(t);
            if let Some(m) = opn_recv(&mut nets, t, TileId::Gt, &mut tr) {
                got = Some((t, m));
                break;
            }
        }
        let (_, m) = got.expect("delivered");
        assert_eq!(m.hops, 8);
        // The tracer saw the matching inject/eject pair.
        assert_eq!(tr.opn_injected, 1);
        assert_eq!(tr.opn_ejected, 1);
        assert!(tr.events().any(|e| matches!(
            e.kind,
            TraceKind::OpnEject { hops: 8, src: TileId::Et(3, 3), dst: TileId::Gt, .. }
        )));
    }
}
