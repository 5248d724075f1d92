//! Timing-fault injection for the micronets.
//!
//! The paper's distributed protocols claim correctness under *any*
//! message timing the networks can produce, not just the timings a
//! healthy fabric happens to exhibit (§4 assumes nothing beyond
//! per-link FIFO delivery). The hooks in this module let a fuzzing
//! harness perturb *when* messages move — stall bursts on mesh router
//! output ports, extra delay on chain messages, randomized round-robin
//! arbitration — while never touching message *contents* and never
//! reordering a same-link flow. Every hook is an `Option` that
//! defaults to `None`: with no fault installed the hot paths take one
//! always-false branch and are bit-identical to the unhooked code
//! (enforced by the `fault_injection` zero-overhead suite).
//!
//! Faults are seeded ([`trips_harness::Rng`], SplitMix64) and the
//! simulator is deterministic, so a `(seed, plan)` pair replays the
//! exact same perturbed execution every time.

use trips_harness::Rng;

use crate::mesh::Coord;
use crate::routerset::RouterSet;

/// Output ports of a mesh router that a timing fault can stall.
///
/// `Eject` is the local delivery port: stalling it models destination
/// inbox backpressure (the consuming tile refusing delivery), which
/// then propagates backwards through the router FIFOs exactly like
/// real credit exhaustion. The compass ports model a slow or contended
/// inter-router link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPort {
    /// The local delivery port into the destination's eject queue.
    Eject,
    /// Link to the router one row north.
    North,
    /// Link to the router one column east.
    East,
    /// Link to the router one row south.
    South,
    /// Link to the router one column west.
    West,
}

impl FaultPort {
    /// All ports, in the mesh's output-arbitration order.
    pub const ALL: [FaultPort; 5] =
        [FaultPort::Eject, FaultPort::North, FaultPort::East, FaultPort::South, FaultPort::West];

    /// Index in the mesh's output-port order.
    pub(crate) fn index(self) -> usize {
        match self {
            FaultPort::Eject => 0,
            FaultPort::North => 1,
            FaultPort::East => 2,
            FaultPort::South => 3,
            FaultPort::West => 4,
        }
    }
}

/// A stall fault on one router output port.
///
/// While no burst is active, each cycle the port starts a stall burst
/// with probability `num/den`; a burst lasts `1..=max_burst` cycles
/// during which the port grants nothing (messages wait upstream in
/// their FIFOs — they are delayed, never dropped or reordered within
/// a queue). `num >= den` re-arms a new burst at every expiry: a
/// permanently dead link, for deliberate-deadlock tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortStall {
    /// Router whose output port is faulted.
    pub router: Coord,
    /// The faulted output port.
    pub port: FaultPort,
    /// Burst-start probability numerator.
    pub num: u64,
    /// Burst-start probability denominator.
    pub den: u64,
    /// Maximum burst length in cycles (at least 1 is used).
    pub max_burst: u64,
}

/// Fault configuration for one [`Mesh`](crate::Mesh).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeshFaultConfig {
    /// Seed for this mesh's private fault PRNG.
    pub seed: u64,
    /// Re-randomize every router's round-robin arbitration pointers
    /// each cycle. This perturbs which *competing* input wins a port —
    /// same-flow messages share one input FIFO and stay ordered.
    pub rotate_arbitration: bool,
    /// Stall bursts on specific output ports.
    pub stalls: Vec<PortStall>,
}

/// Fault configuration for one [`Chain`](crate::Chain).
///
/// Each sent message gains `1..=max_extra` cycles of delay with
/// probability `num/den`. Delivery at each inbox is then clamped to
/// send order (a running per-inbox arrival floor), so a delayed
/// message is never overtaken by a later send — the per-link FIFO
/// guarantee the §4 protocols rely on survives the perturbation.
/// `num == 0` makes the fault inert: no draws, no clamping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainFaultConfig {
    /// Seed for this chain's private fault PRNG.
    pub seed: u64,
    /// Extra-delay probability numerator (0 disables the fault).
    pub num: u64,
    /// Extra-delay probability denominator.
    pub den: u64,
    /// Maximum extra delay in cycles (at least 1 is used).
    pub max_extra: u64,
}

/// Compiled per-mesh fault state: per-router/per-port stall parameters
/// and burst deadlines, plus the arbitration-rotation switch.
#[derive(Debug, Clone)]
pub(crate) struct MeshFaultState {
    rng: Rng,
    rotate: bool,
    /// `params[router][port]` = `(num, den, max_burst)`.
    params: Vec<[Option<(u64, u64, u64)>; 5]>,
    /// Cycle each active burst ends (exclusive).
    until: Vec<[u64; 5]>,
    /// Routers with a stall on any port. [`MeshFaultState::stalled`]
    /// draws from the PRNG only for a port that carries `params`, and
    /// the PRNG is sequential, so a tick that probes exactly these
    /// routers' ports (plus any others, which draw nothing) in
    /// ascending order reproduces the draw sequence of a sweep over
    /// every router.
    bearing: RouterSet,
}

impl MeshFaultState {
    pub(crate) fn new(cfg: &MeshFaultConfig, rows: u8, cols: u8) -> MeshFaultState {
        let n = rows as usize * cols as usize;
        let mut params = vec![[None; 5]; n];
        let mut bearing = RouterSet::with_capacity(n);
        for s in &cfg.stalls {
            assert!(
                s.router.row < rows && s.router.col < cols,
                "fault on {} outside mesh",
                s.router
            );
            let r = s.router.row as usize * cols as usize + s.router.col as usize;
            params[r][s.port.index()] = Some((s.num, s.den, s.max_burst.max(1)));
            bearing.insert(r);
        }
        MeshFaultState {
            rng: Rng::new(cfg.seed),
            rotate: cfg.rotate_arbitration,
            params,
            until: vec![[0; 5]; n],
            bearing,
        }
    }

    /// The fault-bearing routers: those a tick must probe whether or
    /// not they hold a message.
    pub(crate) fn bearing(&self) -> &RouterSet {
        &self.bearing
    }

    /// Whether round-robin pointers should be re-randomized this tick;
    /// draws come from the fault PRNG via [`MeshFaultState::draw`].
    pub(crate) fn rotate(&self) -> bool {
        self.rotate
    }

    /// A raw draw from the fault PRNG (for arbitration rotation).
    pub(crate) fn draw(&mut self, n: usize) -> usize {
        self.rng.range_usize(0, n)
    }

    /// True if output port `oi` of router `r` is stalled at `now`,
    /// starting a new burst when the per-cycle coin lands. A port
    /// without a configured stall answers `false` and draws nothing.
    pub(crate) fn stalled(&mut self, r: usize, oi: usize, now: u64) -> bool {
        if now < self.until[r][oi] {
            return true;
        }
        let Some((num, den, max_burst)) = self.params[r][oi] else {
            return false;
        };
        if num > 0 && self.rng.chance(num, den) {
            let len = 1 + self.rng.range_u64(0, max_burst);
            self.until[r][oi] = now.saturating_add(len);
            return true;
        }
        false
    }
}

/// Compiled per-chain fault state: the PRNG plus the per-inbox arrival
/// floors enforcing send-order delivery.
#[derive(Debug, Clone)]
pub(crate) struct ChainFaultState {
    rng: Rng,
    num: u64,
    den: u64,
    max_extra: u64,
    floor: Vec<u64>,
}

impl ChainFaultState {
    pub(crate) fn new(cfg: &ChainFaultConfig, inboxes: usize) -> ChainFaultState {
        ChainFaultState {
            rng: Rng::new(cfg.seed),
            num: cfg.num,
            den: cfg.den,
            max_extra: cfg.max_extra.max(1),
            floor: vec![0; inboxes],
        }
    }

    /// Perturbs a scheduled arrival at inbox `to`: maybe adds extra
    /// delay, then clamps to the inbox's running arrival floor so a
    /// later send never arrives before an earlier one.
    pub(crate) fn perturb(&mut self, to: usize, at: u64) -> u64 {
        if self.num == 0 {
            return at;
        }
        let mut at = at;
        if self.rng.chance(self.num, self.den) {
            at += 1 + self.rng.range_u64(0, self.max_extra);
        }
        at = at.max(self.floor[to]);
        self.floor[to] = at;
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permanent_stall_rearm() {
        let cfg = MeshFaultConfig {
            seed: 1,
            rotate_arbitration: false,
            stalls: vec![PortStall {
                router: Coord { row: 0, col: 0 },
                port: FaultPort::Eject,
                num: 1,
                den: 1,
                max_burst: 1,
            }],
        };
        let mut st = MeshFaultState::new(&cfg, 2, 2);
        for now in 0..100 {
            assert!(st.stalled(0, 0, now), "num == den must stall every cycle");
        }
        assert!(!st.stalled(0, 1, 5), "unfaulted port never stalls");
    }

    #[test]
    fn chain_floor_preserves_send_order() {
        let cfg = ChainFaultConfig { seed: 7, num: 1, den: 2, max_extra: 9 };
        let mut st = ChainFaultState::new(&cfg, 3);
        let mut last = 0;
        for t in 0..200u64 {
            let at = st.perturb(1, t + 1);
            assert!(at >= last, "arrival floor must be monotone per inbox");
            assert!(at > t, "faults only delay, never accelerate");
            last = at;
        }
    }

    #[test]
    fn inert_chain_fault_is_identity() {
        let cfg = ChainFaultConfig { seed: 7, num: 0, den: 1, max_extra: 9 };
        let mut st = ChainFaultState::new(&cfg, 2);
        for t in [5, 3, 11, 2] {
            assert_eq!(st.perturb(0, t), t, "num == 0 must not clamp or delay");
        }
    }
}
