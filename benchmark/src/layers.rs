//! Isolated layer replays: one crate at a time, driven from outside
//! with seeded synthetic traffic.
//!
//! The in-situ counters say how much work a workload gives a layer;
//! these say what one unit of that work costs on this host when the
//! layer runs alone. Each replay is a pure function of its seed —
//! the schedule is generated first, then replayed under the clock —
//! and returns an exact delivered count beside the time, so a change
//! to the layer that alters behaviour (not just speed) shows.

use std::time::Instant;

use trips_harness::{black_box, num_threads, parallel_map, Rng};
use trips_isa::{decode, encode, TripsBlock};
use trips_mem::{MemConfig, MemReq, SecondarySystem};
use trips_micronet::{Chain, Coord, FaultPort, Mesh, MeshFaultConfig, MeshMsg, PortStall};

/// Side of the replayed operand mesh (the OPN is 5×5).
const MESH_SIDE: u8 = 5;
/// OPN input-FIFO depth (`CoreConfig::opn_fifo`).
const MESH_FIFO: usize = 4;
/// Ticks per mesh replay.
const MESH_TICKS: u64 = 200_000;
/// Positions of the replayed chain (a GSN/GCN column is 5 tiles).
const CHAIN_LEN: usize = 5;
/// Ticks per chain replay.
const CHAIN_TICKS: u64 = 200_000;
/// Ticks per `SecondarySystem` replay.
const SECONDARY_TICKS: u64 = 100_000;
/// Client ports of the prototype OCN block.
const OCN_PORTS: usize = 20;
/// NUCA banks of the prototype block; with `interleave_shift = 0`
/// line `l` is homed at bank `l % 16`.
const OCN_BANKS: u64 = 16;

/// Traffic shape of a mesh replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshTraffic {
    /// Every node offers a message to a uniformly random destination
    /// with probability 1/4 per cycle.
    Uniform,
    /// As `Uniform`, but every destination is the centre router.
    Hotspot,
    /// No traffic: the tick's empty-network early-out.
    Idle,
    /// `Uniform` with a fault configuration installed, which routes
    /// the tick through the legacy full sweep.
    Faulted,
}

/// One scheduled injection: at `tick`, `src` offers a message to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    /// Cycle of the attempt.
    pub tick: u64,
    /// Injecting router.
    pub src: Coord,
    /// Destination router.
    pub dst: Coord,
}

/// The injection schedule of a mesh replay — a pure function of
/// `(seed, traffic, ticks)`, in tick order.
pub fn mesh_schedule(seed: u64, traffic: MeshTraffic, ticks: u64) -> Vec<Offer> {
    if traffic == MeshTraffic::Idle {
        return Vec::new();
    }
    let mut rng = Rng::new(seed ^ 0x6d65_7368);
    let mut out = Vec::new();
    for tick in 0..ticks {
        for row in 0..MESH_SIDE {
            for col in 0..MESH_SIDE {
                if !rng.chance(1, 4) {
                    continue;
                }
                let dst = match traffic {
                    MeshTraffic::Hotspot => Coord { row: MESH_SIDE / 2, col: MESH_SIDE / 2 },
                    _ => Coord { row: rng.range_u8(0, MESH_SIDE), col: rng.range_u8(0, MESH_SIDE) },
                };
                out.push(Offer { tick, src: Coord { row, col }, dst });
            }
        }
    }
    out
}

/// A timed replay: host nanoseconds and the exact count of units
/// (messages, responses) that came out the far side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    /// Host time of the replay loop.
    pub ns: u64,
    /// Units of work the loop was sized in (ticks, messages, requests).
    pub units: u64,
    /// Messages or responses delivered (exact for a fixed seed).
    pub delivered: u64,
}

impl Replay {
    /// Host nanoseconds per unit.
    pub fn ns_per_unit(&self) -> f64 {
        self.ns as f64 / self.units.max(1) as f64
    }
}

/// Replays `traffic` on a 5×5 `Mesh<u64>`: inject what the schedule
/// offers (a refused offer is dropped, as a stalled outbox would retry
/// with newer data), tick, drain every eject queue. Units are ticks.
pub fn mesh_replay(seed: u64, traffic: MeshTraffic) -> Replay {
    let schedule = mesh_schedule(seed, traffic, MESH_TICKS);
    let mut mesh: Mesh<u64> = Mesh::new(MESH_SIDE, MESH_SIDE, MESH_FIFO);
    if traffic == MeshTraffic::Faulted {
        mesh.set_fault(Some(&MeshFaultConfig {
            seed,
            rotate_arbitration: true,
            stalls: vec![PortStall {
                router: Coord { row: 2, col: 2 },
                port: FaultPort::East,
                num: 1,
                den: 8,
                max_burst: 4,
            }],
        }));
    }
    let nodes: Vec<Coord> =
        (0..MESH_SIDE).flat_map(|row| (0..MESH_SIDE).map(move |col| Coord { row, col })).collect();
    let mut next = 0;
    let mut delivered = 0u64;
    let t0 = Instant::now();
    for tick in 0..MESH_TICKS {
        while next < schedule.len() && schedule[next].tick == tick {
            let o = schedule[next];
            mesh.inject(tick, MeshMsg::new(o.src, o.dst, next as u64));
            next += 1;
        }
        mesh.tick(tick);
        if mesh.undrained() > 0 {
            for &node in &nodes {
                while let Some(m) = mesh.eject(node) {
                    delivered += 1;
                    black_box(m.payload);
                }
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    Replay { ns, units: MESH_TICKS, delivered }
}

/// Replays seeded point-to-point sends on a 5-position `Chain<u64>`:
/// one send per tick between random positions, every position polled
/// every tick. Units are messages sent.
pub fn chain_replay(seed: u64) -> Replay {
    let mut rng = Rng::new(seed ^ 0x6368_6169);
    let sends: Vec<(usize, usize)> = (0..CHAIN_TICKS)
        .map(|_| (rng.range_usize(0, CHAIN_LEN), rng.range_usize(0, CHAIN_LEN)))
        .collect();
    let mut chain: Chain<u64> = Chain::new(CHAIN_LEN);
    let mut delivered = 0u64;
    let t0 = Instant::now();
    // Run past the last send so the longest hop still arrives.
    for tick in 0..CHAIN_TICKS + CHAIN_LEN as u64 {
        if let Some(&(from, to)) = sends.get(tick as usize) {
            chain.send(tick, from, to, tick);
        }
        for pos in 0..CHAIN_LEN {
            while let Some(m) = chain.recv(tick, pos) {
                delivered += 1;
                black_box(m);
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    Replay { ns, units: CHAIN_TICKS, delivered }
}

/// Request pattern of a `SecondarySystem` replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondaryTraffic {
    /// Each port streams through its own region, consecutive lines —
    /// requests spread over all sixteen banks.
    Stream,
    /// Every request is homed at bank 0: the single-entry MSHR and
    /// one router carry everything.
    HotBank,
    /// No requests: what an idle NUCA costs per tick.
    Idle,
}

/// Lines each port cycles through in a secondary replay.
const LINES_PER_PORT: usize = 4096;

/// The addresses of a secondary replay — a pure function of `(seed,
/// traffic)`: for each of the twenty ports, the line addresses it will
/// request, in order. A port walks its own region; one step in four
/// revisits a line a few steps back, so the banks see hits as well as
/// DRAM fills.
pub fn secondary_schedule(seed: u64, traffic: SecondaryTraffic) -> Vec<Vec<u64>> {
    if traffic == SecondaryTraffic::Idle {
        return vec![Vec::new(); OCN_PORTS];
    }
    let mut rng = Rng::new(seed ^ 0x6e75_6361);
    (0..OCN_PORTS as u64)
        .map(|port| {
            let mut next = 0u64;
            (0..LINES_PER_PORT)
                .map(|_| {
                    let step = if next > 8 && rng.chance(1, 4) {
                        next - 1 - rng.range_u64(0, 8)
                    } else {
                        next += 1;
                        next - 1
                    };
                    let line = match traffic {
                        SecondaryTraffic::HotBank => step * OCN_BANKS,
                        _ => step,
                    };
                    (port << 24) + line * 64
                })
                .collect()
        })
        .collect()
}

/// Replays `traffic` on a prototype `SecondarySystem` as a closed
/// loop: every port keeps one read outstanding (as an L1 bank's MSHR
/// would bound it) and asks for its next scheduled line as soon as the
/// previous one returns. Each tick: offer, tick, poll every port.
/// Units are requests accepted (ticks for `Idle`).
pub fn secondary_replay(seed: u64, traffic: SecondaryTraffic) -> Replay {
    let schedule = secondary_schedule(seed, traffic);
    let mut sys = SecondarySystem::new(MemConfig::prototype());
    let mut cursor = [0usize; OCN_PORTS];
    let mut waiting = [false; OCN_PORTS];
    let mut delivered = 0u64;
    let t0 = Instant::now();
    for tick in 0..SECONDARY_TICKS {
        for port in 0..OCN_PORTS {
            if waiting[port] || schedule[port].is_empty() {
                continue;
            }
            let addr = schedule[port][cursor[port] % LINES_PER_PORT];
            if sys.request(tick, port, MemReq::read_line(cursor[port] as u64, addr)) {
                cursor[port] += 1;
                waiting[port] = true;
            }
        }
        sys.tick(tick);
        for (port, wait) in waiting.iter_mut().enumerate() {
            if let Some(r) = sys.pop_response(tick + 1, port) {
                delivered += 1;
                *wait = false;
                black_box(r.id);
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let units = if traffic == SecondaryTraffic::Idle { SECONDARY_TICKS } else { sys.requests };
    Replay { ns, units, delivered }
}

/// The fork/join floor of `parallel_map`: one trivial item per worker,
/// [`num_threads`] workers — what a default-threaded `Chip::tick` pays
/// every chip cycle. Units are calls.
pub fn parallel_map_replay() -> Replay {
    const CALLS: u64 = 2_000;
    let threads = num_threads();
    let t0 = Instant::now();
    let mut delivered = 0u64;
    for i in 0..CALLS {
        let out = parallel_map(vec![i; threads], threads, |x| x + 1);
        delivered += out.len() as u64;
        black_box(out);
    }
    Replay { ns: t0.elapsed().as_nanos() as u64, units: CALLS, delivered }
}

/// Encodes every block and decodes it back, in as many passes as it
/// takes to cover at least 4096 blocks (a workload with few blocks
/// would otherwise time the first touch of the code): returns
/// `(encode, decode)` replays whose units are blocks.
///
/// # Panics
///
/// Panics if a block the toolchain emitted fails to decode — the ISA
/// crate disagreeing with itself.
pub fn codec_replay(blocks: &[&TripsBlock]) -> (Replay, Replay) {
    if blocks.is_empty() {
        let none = Replay { ns: 0, units: 0, delivered: 0 };
        return (none, none);
    }
    let passes = 4096usize.div_ceil(blocks.len());
    let (mut enc_ns, mut dec_ns, mut decoded) = (0, 0, 0u64);
    for _ in 0..passes {
        let t0 = Instant::now();
        let encoded: Vec<Vec<u8>> = blocks.iter().map(|b| encode(b)).collect();
        enc_ns += t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        for bytes in &encoded {
            let block = decode(bytes).expect("the toolchain's own blocks decode");
            decoded += 1;
            black_box(block);
        }
        dec_ns += t1.elapsed().as_nanos() as u64;
    }
    let units = (blocks.len() * passes) as u64;
    (
        Replay { ns: enc_ns, units, delivered: units },
        Replay { ns: dec_ns, units, delivered: decoded },
    )
}
