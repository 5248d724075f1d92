//! Pipelined nearest-neighbour chains: the model for the TRIPS
//! control micronets.
//!
//! The GDN, GSN, GCN, GRN, DSN, and ESN connect tiles in rows, columns,
//! or trees of point-to-point links; messages traverse one tile per
//! cycle (§3). A [`Chain`] models one such linear path: a message sent
//! from position `a` to position `b` is receivable `max(|a-b|, 1)`
//! cycles later, in send order. The paper measures the control
//! networks' overheads as insignificant next to the operand network
//! (§5.2), so — unlike [`Mesh`](crate::Mesh) — chains model latency
//! but not link contention.
//!
//! Storage is a single arena shared by every position: one slab of
//! slots threaded into per-position intrusive lists sorted by
//! `(arrival, seq)`. The common case — sends arrive in increasing
//! time order — appends at the tail in O(1), and `idle`, `pending`
//! and [`Chain::next_arrival`] are O(1) counter or head-pointer reads
//! instead of per-`VecDeque` scans. A chain with a [`WakePort`]
//! installed announces every send to the receiving position's
//! consumer, so nobody has to poll the heads at all.

use crate::fault::{ChainFaultConfig, ChainFaultState};
use crate::wake::WakePort;

/// Sentinel "null" slot index for the intrusive lists.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<T> {
    at: u64,
    seq: u64,
    next: u32,
    /// `None` only while the slot sits on the free list.
    msg: Option<T>,
}

/// A linear chain of `n` tile positions with one-cycle hops.
#[derive(Debug, Clone)]
pub struct Chain<T> {
    /// Arena of message slots shared by all positions.
    slots: Vec<Slot<T>>,
    /// Head of the free list through `slots` (`NIL` when exhausted).
    free: u32,
    /// Per-position list heads, sorted by `(at, seq)`.
    heads: Vec<u32>,
    /// Per-position list tails (`NIL` iff the head is).
    tails: Vec<u32>,
    /// Arrival cycle of each position's head (`u64::MAX` when empty),
    /// kept beside `heads` so the common "nothing yet" answer of
    /// [`Chain::recv`] and [`Chain::next_arrival`] reads one word
    /// instead of chasing the head into the slot arena.
    head_at: Vec<u64>,
    /// Undelivered messages across all positions.
    pending_count: usize,
    seq: u64,
    /// Total messages sent, for utilization statistics.
    pub total_sent: u64,
    /// Installed timing fault (`None` on the production path).
    fault: Option<ChainFaultState>,
    /// Where sends are announced (`None`: a free-standing chain).
    wake: Option<WakePort>,
}

impl<T> Chain<T> {
    /// A chain with positions `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Chain<T> {
        assert!(n > 0, "empty chain");
        Chain {
            slots: Vec::new(),
            free: NIL,
            heads: vec![NIL; n],
            tails: vec![NIL; n],
            head_at: vec![u64::MAX; n],
            pending_count: 0,
            seq: 0,
            total_sent: 0,
            fault: None,
            wake: None,
        }
    }

    /// Installs (or clears) the wake port: every send is filed at its
    /// arrival cycle with the consumer at the receiving position.
    pub fn set_wake(&mut self, port: Option<WakePort>) {
        self.wake = port;
    }

    /// Installs (or clears) a timing fault: probabilistic extra delay
    /// with per-inbox send-order clamping (see [`ChainFaultConfig`]).
    /// With `None` — or `num == 0` — sends are bit-identical to a
    /// chain that never had the hook.
    pub fn set_fault(&mut self, cfg: Option<&ChainFaultConfig>) {
        let n = self.heads.len();
        self.fault = cfg.map(|c| ChainFaultState::new(c, n));
    }

    /// Applies the installed fault (if any) to a scheduled arrival.
    fn perturb(&mut self, to: usize, at: u64) -> u64 {
        match &mut self.fault {
            Some(f) => f.perturb(to, at),
            None => at,
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True if the chain has no positions (never: constructor forbids).
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Takes a slot off the free list (or grows the arena) and fills
    /// it, returning its index.
    fn alloc(&mut self, at: u64, seq: u64, msg: T) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.slots[idx as usize];
            self.free = slot.next;
            slot.at = at;
            slot.seq = seq;
            slot.next = NIL;
            slot.msg = Some(msg);
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("chain arena overflow");
            self.slots.push(Slot { at, seq, next: NIL, msg: Some(msg) });
            idx
        }
    }

    /// Links slot `idx` into position `to`'s list, keeping it sorted
    /// by `(at, seq)`. Sends usually arrive in increasing time order,
    /// so the tail append is the hot path.
    fn link(&mut self, to: usize, idx: u32) {
        let (at, seq) = {
            let s = &self.slots[idx as usize];
            (s.at, s.seq)
        };
        if let Some(w) = &self.wake {
            w.file(to, at);
        }
        let tail = self.tails[to];
        if tail == NIL {
            self.heads[to] = idx;
            self.tails[to] = idx;
            self.head_at[to] = at;
        } else {
            let t = &self.slots[tail as usize];
            if (t.at, t.seq) <= (at, seq) {
                self.slots[tail as usize].next = idx;
                self.tails[to] = idx;
            } else {
                // Out-of-order arrival (fault perturbation): walk from
                // the head to find the insertion point.
                let head = self.heads[to];
                let h = &self.slots[head as usize];
                if (at, seq) < (h.at, h.seq) {
                    self.slots[idx as usize].next = head;
                    self.heads[to] = idx;
                    self.head_at[to] = at;
                } else {
                    let mut prev = head;
                    loop {
                        let next = self.slots[prev as usize].next;
                        if next == NIL {
                            break;
                        }
                        let n = &self.slots[next as usize];
                        if (at, seq) < (n.at, n.seq) {
                            break;
                        }
                        prev = next;
                    }
                    let after = self.slots[prev as usize].next;
                    self.slots[idx as usize].next = after;
                    self.slots[prev as usize].next = idx;
                    if after == NIL {
                        self.tails[to] = idx;
                    }
                }
            }
        }
        self.pending_count += 1;
    }

    /// Sends `msg` from `from` to `to`; receivable `max(distance, 1)`
    /// cycles later.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range.
    pub fn send(&mut self, now: u64, from: usize, to: usize, msg: T) {
        assert!(from < self.len() && to < self.len(), "chain position out of range");
        let dist = from.abs_diff(to).max(1) as u64;
        let at = self.perturb(to, now + dist);
        let seq = self.seq;
        self.seq += 1;
        self.total_sent += 1;
        let idx = self.alloc(at, seq, msg);
        self.link(to, idx);
    }

    /// Sends `msg` to `to` with an explicit `delay` in cycles, for
    /// paths whose physical distance differs from the chain-linear one
    /// (e.g. the GCN wavefront, which spreads at the two-dimensional
    /// manhattan distance from the GT).
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range or `delay == 0`.
    pub fn send_delayed(&mut self, now: u64, to: usize, delay: u64, msg: T) {
        assert!(to < self.len(), "chain position out of range");
        assert!(delay > 0, "zero-delay sends would break cycle accounting");
        let at = self.perturb(to, now + delay);
        let seq = self.seq;
        self.seq += 1;
        self.total_sent += 1;
        let idx = self.alloc(at, seq, msg);
        self.link(to, idx);
    }

    /// Receives the oldest message available at `pos` by cycle `now`.
    /// Tiles poll their inboxes every tick and nearly always hear
    /// "nothing yet": that answer is one inlined compare.
    #[inline]
    pub fn recv(&mut self, now: u64, pos: usize) -> Option<T> {
        if self.head_at[pos] > now {
            return None;
        }
        self.pop_head(pos)
    }

    /// Unlinks and returns `pos`'s head message.
    fn pop_head(&mut self, pos: usize) -> Option<T> {
        let head = self.heads[pos];
        if head == NIL {
            return None; // only at `now == u64::MAX`, the "never" stamp
        }
        let slot = &mut self.slots[head as usize];
        let msg = slot.msg.take();
        let next = slot.next;
        slot.next = self.free;
        self.free = head;
        self.heads[pos] = next;
        self.head_at[pos] = match next {
            NIL => {
                self.tails[pos] = NIL;
                u64::MAX
            }
            next => self.slots[next as usize].at,
        };
        self.pending_count -= 1;
        msg
    }

    /// True if no messages are pending anywhere. O(1).
    pub fn idle(&self) -> bool {
        self.pending_count == 0
    }

    /// Messages pending across all positions. O(1).
    pub fn pending(&self) -> usize {
        self.pending_count
    }

    /// Arrival cycle of the earliest message bound for `pos`
    /// (`u64::MAX` when there is none — a wake table's "asleep"). The
    /// per-position lists are sorted by `(arrival, seq)`, so this is
    /// the head's timestamp: the cycle at which the tile at `pos` must
    /// be awake to receive it.
    pub fn next_arrival(&self, pos: usize) -> u64 {
        self.head_at[pos]
    }

    /// The oldest undelivered message: `(arrival_cycle, position)`.
    /// Position lists are sorted by (time, seq), so the head of each
    /// is its oldest. Used by the hang diagnoser.
    pub fn oldest_pending(&self) -> Option<(u64, usize)> {
        self.heads
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h != NIL)
            .map(|(pos, &h)| {
                let s = &self.slots[h as usize];
                (s.at, s.seq, pos)
            })
            .min()
            .map(|(at, _, pos)| (at, pos))
    }
}

impl<T: Clone> Chain<T> {
    /// Broadcasts `msg` from `from` to every other position, arriving
    /// at each after its chain distance — the GCN flush/commit wave
    /// propagating "one hop per cycle across the array" (§4.3).
    pub fn broadcast(&mut self, now: u64, from: usize, msg: T) {
        for to in 0..self.len() {
            if to != from {
                self.send(now, from, to, msg.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wake::WakeTable;

    #[test]
    fn latency_is_distance() {
        let mut c: Chain<u32> = Chain::new(5);
        c.send(10, 0, 3, 7);
        assert_eq!(c.recv(12, 3), None);
        assert_eq!(c.recv(13, 3), Some(7));
    }

    #[test]
    fn same_position_costs_one_cycle() {
        let mut c: Chain<u32> = Chain::new(2);
        c.send(0, 1, 1, 9);
        assert_eq!(c.recv(0, 1), None);
        assert_eq!(c.recv(1, 1), Some(9));
    }

    #[test]
    fn fifo_by_arrival_then_send_order() {
        let mut c: Chain<u32> = Chain::new(4);
        c.send(0, 3, 0, 1); // arrives at 3
        c.send(1, 1, 0, 2); // arrives at 2
        c.send(3, 0, 0, 3); // arrives at 4
        assert_eq!(c.recv(10, 0), Some(2));
        assert_eq!(c.recv(10, 0), Some(1));
        assert_eq!(c.recv(10, 0), Some(3));
        assert!(c.idle());
    }

    #[test]
    fn faulted_chain_delays_but_keeps_send_order_per_inbox() {
        let mut c: Chain<u32> = Chain::new(5);
        c.set_fault(Some(&ChainFaultConfig { seed: 5, num: 1, den: 2, max_extra: 7 }));
        for v in 0..50u32 {
            // Alternate senders so natural arrivals would interleave.
            let from = if v % 2 == 0 { 0 } else { 4 };
            c.send(u64::from(v), from, 2, v);
        }
        let mut got = Vec::new();
        for t in 0..500u64 {
            while let Some(v) = c.recv(t, 2) {
                got.push(v);
            }
        }
        assert_eq!(got, (0..50).collect::<Vec<u32>>(), "delivery must follow send order");
    }

    #[test]
    fn inert_fault_changes_nothing() {
        let send_all = |c: &mut Chain<u32>| {
            c.send(0, 3, 0, 1);
            c.send(1, 1, 0, 2);
            c.send(3, 0, 0, 3);
            let mut got = Vec::new();
            for t in 0..20 {
                while let Some(v) = c.recv(t, 0) {
                    got.push(v);
                }
            }
            got
        };
        let mut plain: Chain<u32> = Chain::new(4);
        let mut hooked: Chain<u32> = Chain::new(4);
        hooked.set_fault(Some(&ChainFaultConfig { seed: 9, num: 0, den: 1, max_extra: 9 }));
        assert_eq!(send_all(&mut plain), send_all(&mut hooked));
    }

    #[test]
    fn broadcast_wave() {
        let mut c: Chain<&'static str> = Chain::new(4);
        c.broadcast(0, 0, "flush");
        assert_eq!(c.recv(1, 1), Some("flush"));
        assert_eq!(c.recv(1, 2), None, "wave has not reached position 2");
        assert_eq!(c.recv(2, 2), Some("flush"));
        assert_eq!(c.recv(3, 3), Some("flush"));
        assert_eq!(c.recv(5, 0), None, "sender does not hear its own broadcast");
    }

    #[test]
    fn next_arrival_tracks_the_head_and_sends_are_filed_with_the_consumer() {
        let mut c: Chain<u32> = Chain::new(4);
        // Positions 0 and 2 deliver to consumer 1, position 1 to 0.
        let table = WakeTable::new(2);
        c.set_wake(Some(WakePort::new(&table, vec![1, 0, 1, 0])));
        assert_eq!(c.next_arrival(0), u64::MAX);
        c.send(0, 3, 0, 1); // arrives at 3
        assert_eq!(table.iter().nth(1), Some(3));
        c.send(1, 1, 0, 2); // arrives at 2
        c.send(0, 0, 2, 9); // arrives at 2, other position
        assert_eq!(c.next_arrival(0), 2);
        assert_eq!(c.next_arrival(2), 2);
        assert_eq!(c.next_arrival(1), u64::MAX);
        assert_eq!(
            table.iter().collect::<Vec<_>>(),
            [WakeTable::ASLEEP, 2],
            "lowered, never raised"
        );
        assert_eq!(c.recv(2, 0), Some(2));
        assert_eq!(c.next_arrival(0), 3, "head advances past the received message");
        assert_eq!(c.recv(3, 0), Some(1));
        assert_eq!(c.recv(2, 2), Some(9));
        assert!(c.idle());
    }

    #[test]
    fn arena_recycles_slots() {
        let mut c: Chain<u32> = Chain::new(2);
        for round in 0..100u64 {
            c.send(round * 10, 0, 1, round as u32);
            assert_eq!(c.pending(), 1);
            assert_eq!(c.recv(round * 10 + 1, 1), Some(round as u32));
            assert!(c.idle());
        }
        assert_eq!(c.total_sent, 100);
    }
}
