//! Seeded fault plans: core-level timing-fault configuration.
//!
//! A [`FaultPlan`] hangs off [`CoreConfig`](crate::CoreConfig) and
//! describes a *timing-only* perturbation of the whole core: stall
//! bursts on OPN router ports, randomized OPN arbitration, extra delay
//! on every control chain, and forced extra flush storms from the GT.
//! Values are never touched and per-link FIFO order is never broken —
//! the perturbations stay inside the envelope the paper's §4 protocols
//! claim to tolerate, so a run under any plan must still match the
//! `blockinterp` architectural oracle. `protofuzz` sweeps seeds
//! through [`FaultPlan::random`] and shrinks failures through
//! [`FaultPlan::shrink_candidates`].
//!
//! Everything derives from one `seed`; each network gets a private
//! PRNG via [`FaultPlan::subseed`] so dropping one fault from a plan
//! does not shift the random streams of the others (crucial for
//! shrinking to stay meaningful).

use std::fmt;

use trips_harness::Rng;
use trips_mem::OcnGeometry;
use trips_micronet::{ChainFaultConfig, Coord, FaultPort, MeshFaultConfig, PortStall};

use crate::config::CoreGeometry;

/// Sub-seed tag: the OPN mesh for network `n` uses `TAG_MESH + n`.
pub(crate) const TAG_MESH: u64 = 0x10;
/// Sub-seed tag: GDN column chain.
pub(crate) const TAG_GDN_COL: u64 = 0x20;
/// Sub-seed tag: GDN row `r` uses `TAG_GDN_ROW + r`.
pub(crate) const TAG_GDN_ROW: u64 = 0x21;
/// Sub-seed tag: GSN along the RT row.
pub(crate) const TAG_GSN_RT: u64 = 0x30;
/// Sub-seed tag: GSN along the DT column.
pub(crate) const TAG_GSN_DT: u64 = 0x31;
/// Sub-seed tag: GSN along the IT column.
pub(crate) const TAG_GSN_IT: u64 = 0x32;
/// Sub-seed tag: GCN commit/flush wave.
pub(crate) const TAG_GCN: u64 = 0x40;
/// Sub-seed tag: GRN refill chain.
pub(crate) const TAG_GRN: u64 = 0x41;
/// Sub-seed tag: DSN store-arrival broadcast chain.
pub(crate) const TAG_DSN: u64 = 0x42;
/// Sub-seed tag: the GT's flush-storm PRNG.
pub(crate) const TAG_STORM: u64 = 0x50;
/// Sub-seed tag: the secondary system's OCN (NUCA backend only).
pub(crate) const TAG_OCN: u64 = 0x60;

/// A probability `num / den` (`den` must be nonzero; `num == 0` means
/// never, `num >= den` means always).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator.
    pub num: u64,
    /// Denominator (nonzero).
    pub den: u64,
}

/// A stall fault on one OPN router output port (see
/// [`PortStall`] for burst semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    /// Which parallel operand network (0 in the prototype).
    pub net: usize,
    /// Router row in the 5×5 OPN.
    pub row: u8,
    /// Router column.
    pub col: u8,
    /// The output port to stall.
    pub port: FaultPort,
    /// Per-cycle burst-start probability (`num >= den` = permanently
    /// dead, for deliberate-deadlock tests).
    pub chance: Ratio,
    /// Maximum burst length in cycles.
    pub max_burst: u64,
}

/// A stall fault on one OCN router output port (the secondary
/// system's 10×4 packet mesh; only installed under the NUCA backend —
/// the perfect L2 has no network to stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OcnFault {
    /// Router row in the 10×4 OCN.
    pub row: u8,
    /// Router column.
    pub col: u8,
    /// The output port to stall.
    pub port: FaultPort,
    /// Per-cycle burst-start probability.
    pub chance: Ratio,
    /// Maximum burst length in cycles.
    pub max_burst: u64,
}

/// Extra-delay fault applied to every control chain (GDN, GSN, GCN,
/// GRN, DSN). Per-inbox send order is preserved — see
/// [`ChainFaultConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainDelay {
    /// Per-message extra-delay probability (`num == 0` installs the
    /// hook but keeps it inert).
    pub chance: Ratio,
    /// Maximum extra delay in cycles.
    pub max_extra: u64,
}

/// A complete, seeded, timing-only fault plan for one core.
///
/// `Default` is the empty plan: hooks installed nowhere, behaviour
/// bit-identical to `CoreConfig { faults: None, .. }`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Master seed; every per-network PRNG derives from it.
    pub seed: u64,
    /// Re-randomize OPN round-robin arbitration pointers every cycle.
    pub rotate_arbitration: bool,
    /// Stall bursts on OPN router output ports.
    pub links: Vec<LinkFault>,
    /// Stall bursts on the secondary system's OCN router output ports
    /// (ignored — no hook exists — under the perfect-L2 backend).
    pub ocn_links: Vec<OcnFault>,
    /// Extra delay on every control chain.
    pub chain_delay: Option<ChainDelay>,
    /// Per-resolved-branch probability of forcing a flush storm: the
    /// GT treats a *correctly* predicted branch as if it had
    /// mispredicted, flushing all younger speculative frames and
    /// refetching from the (correct) target. Architecturally invisible
    /// — only speculative work is destroyed and refetched.
    pub flush_storm: Option<Ratio>,
}

impl FaultPlan {
    /// A random plan for `seed`, drawn from the distribution the
    /// `protofuzz` sweep uses: up to four stalled OPN ports, even odds
    /// of arbitration rotation and of chain delays, one-in-three odds
    /// of a flush storm. Never includes a permanent stall, so a random
    /// plan can slow a run down but not wedge it.
    pub fn random(seed: u64) -> FaultPlan {
        let mut rng = Rng::new(seed);
        let links = (0..rng.range_usize(0, 5))
            .map(|_| LinkFault {
                net: 0,
                row: rng.range_u8(0, 5),
                col: rng.range_u8(0, 5),
                port: FaultPort::ALL[rng.range_usize(0, 5)],
                chance: Ratio { num: 1, den: [2, 4, 8, 16][rng.range_usize(0, 4)] },
                max_burst: 1 + rng.range_u64(0, 8),
            })
            .collect();
        let rotate_arbitration = rng.chance(1, 2);
        let chain_delay = rng.chance(1, 2).then(|| ChainDelay {
            chance: Ratio { num: 1, den: [2, 4, 8][rng.range_usize(0, 3)] },
            max_extra: 1 + rng.range_u64(0, 6),
        });
        let flush_storm =
            rng.chance(1, 3).then(|| Ratio { num: 1, den: [16, 32, 64][rng.range_usize(0, 3)] });
        // Drawn last so adding the OCN dimension left every earlier
        // seed's OPN/chain/storm draws unchanged.
        let ocn_links = (0..rng.range_usize(0, 3))
            .map(|_| OcnFault {
                row: rng.range_u8(0, 10),
                col: rng.range_u8(0, 4),
                port: FaultPort::ALL[rng.range_usize(0, 5)],
                chance: Ratio { num: 1, den: [2, 4, 8, 16][rng.range_usize(0, 4)] },
                max_burst: 1 + rng.range_u64(0, 8),
            })
            .collect();
        FaultPlan { seed, rotate_arbitration, links, ocn_links, chain_delay, flush_storm }
    }

    /// [`FaultPlan::random`] retargeted at an arbitrary tile-array
    /// geometry: the seed draws exactly the plan [`FaultPlan::random`]
    /// would, then each OPN router coordinate is folded into `geom`'s
    /// mesh. On the prototype (a 5×5 mesh, matching the draw range)
    /// the fold is the identity, so historical seeds keep producing
    /// byte-identical plans.
    pub fn random_for(seed: u64, geom: CoreGeometry) -> FaultPlan {
        let mut plan = FaultPlan::random(seed);
        for l in &mut plan.links {
            l.row %= geom.mesh_rows() as u8;
            l.col %= geom.mesh_cols() as u8;
        }
        plan
    }

    /// A plan that installs a fault state on *every* hook but with all
    /// probabilities zero: the code paths run, the behaviour must be
    /// bit-identical to no plan at all. The zero-overhead regression
    /// suite runs this.
    pub fn inert_probe(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rotate_arbitration: false,
            links: vec![LinkFault {
                net: 0,
                row: 0,
                col: 0,
                port: FaultPort::Eject,
                chance: Ratio { num: 0, den: 1 },
                max_burst: 1,
            }],
            ocn_links: vec![OcnFault {
                row: 0,
                col: 0,
                port: FaultPort::Eject,
                chance: Ratio { num: 0, den: 1 },
                max_burst: 1,
            }],
            chain_delay: Some(ChainDelay { chance: Ratio { num: 0, den: 1 }, max_extra: 1 }),
            flush_storm: Some(Ratio { num: 0, den: 1 }),
        }
    }

    /// True when the plan perturbs nothing (no hooks would fire; note
    /// an [`FaultPlan::inert_probe`] is *not* `is_empty` — it installs
    /// hooks that then never fire).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
            && self.ocn_links.is_empty()
            && !self.rotate_arbitration
            && self.chain_delay.is_none()
            && self.flush_storm.is_none()
    }

    /// The derived seed for sub-PRNG `tag`. Mixing the tag through a
    /// SplitMix64 round keeps each network's stream independent of
    /// which other faults the plan carries.
    pub(crate) fn subseed(&self, tag: u64) -> u64 {
        Rng::new(self.seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
    }

    /// The mesh fault configuration for OPN network `net`, if any.
    pub(crate) fn mesh_fault(&self, net: usize) -> Option<MeshFaultConfig> {
        self.mesh_config(TAG_MESH + net as u64, self.links.iter().copied().filter(|l| l.net == net))
    }

    /// The mesh fault configuration for the secondary system's OCN, if
    /// any (installed by the NUCA backend only; arbitration rotation
    /// extends to the OCN's round-robin pointers too).
    pub(crate) fn ocn_fault(&self) -> Option<MeshFaultConfig> {
        self.mesh_config(TAG_OCN, self.ocn_links.iter().copied())
    }

    /// One mesh's fault configuration under sub-seed `tag`: its stalled
    /// ports plus the plan's arbitration rotation, if either is live.
    fn mesh_config<P: StalledPort>(
        &self,
        tag: u64,
        ports: impl Iterator<Item = P>,
    ) -> Option<MeshFaultConfig> {
        let stalls: Vec<PortStall> = ports
            .map(|mut p| {
                let (router, port, &mut Ratio { num, den }, &mut max_burst) = p.parts();
                PortStall { router, port, num, den, max_burst }
            })
            .collect();
        if stalls.is_empty() && !self.rotate_arbitration {
            return None;
        }
        let rotate_arbitration = self.rotate_arbitration;
        Some(MeshFaultConfig { seed: self.subseed(tag), rotate_arbitration, stalls })
    }

    /// The chain fault configuration for sub-seed `tag`, if the plan
    /// delays chains.
    pub(crate) fn chain_fault(&self, tag: u64) -> Option<ChainFaultConfig> {
        let d = self.chain_delay?;
        Some(ChainFaultConfig {
            seed: self.subseed(tag),
            num: d.chance.num,
            den: d.chance.den,
            max_extra: d.max_extra,
        })
    }

    /// The GT's flush-storm state, if the plan storms.
    pub(crate) fn storm_state(&self) -> Option<StormState> {
        let r = self.flush_storm?;
        Some(StormState { rng: Rng::new(self.subseed(TAG_STORM)), num: r.num, den: r.den })
    }

    /// One-step-simpler variants of this plan, for the shrinker: drop
    /// each faulted link, weaken each link (halved burst, halved
    /// probability), disable rotation, drop or halve the chain delay,
    /// drop the flush storm. A greedy loop over these candidates
    /// converges because every candidate strictly reduces a finite
    /// measure (fault count + Σ log den + Σ burst/extra).
    pub fn shrink_candidates(&self) -> Vec<FaultPlan> {
        let mut out = self.shrink_ports(|p| &mut p.links);
        out.extend(self.shrink_ports(|p| &mut p.ocn_links));
        if self.rotate_arbitration {
            let mut p = self.clone();
            p.rotate_arbitration = false;
            out.push(p);
        }
        if let Some(d) = self.chain_delay {
            let mut p = self.clone();
            p.chain_delay = None;
            out.push(p);
            if d.max_extra > 1 {
                let mut p = self.clone();
                p.chain_delay = Some(ChainDelay { max_extra: d.max_extra / 2, ..d });
                out.push(p);
            }
            if d.chance.den <= 512 {
                let mut p = self.clone();
                p.chain_delay = Some(ChainDelay {
                    chance: Ratio { num: d.chance.num, den: d.chance.den * 2 },
                    ..d
                });
                out.push(p);
            }
        }
        if self.flush_storm.is_some() {
            let mut p = self.clone();
            p.flush_storm = None;
            out.push(p);
        }
        out
    }

    /// The shrinker's moves on one list of stalled ports, `list`
    /// picking it out of a plan: drop each port, then halve each one's
    /// burst bound and its probability.
    fn shrink_ports<P: StalledPort>(&self, list: fn(&mut Self) -> &mut Vec<P>) -> Vec<Self> {
        let n = list(&mut self.clone()).len();
        let mut out = Vec::new();
        for i in 0..n {
            let mut p = self.clone();
            list(&mut p).remove(i);
            out.push(p);
        }
        for i in 0..n {
            let (mut shorter, mut rarer) = (self.clone(), self.clone());
            let (.., burst) = list(&mut shorter)[i].parts();
            if *burst > 1 {
                *burst /= 2;
                out.push(shorter);
            }
            let (_, _, chance, _) = list(&mut rarer)[i].parts();
            if chance.num < chance.den && chance.den <= 512 {
                chance.den *= 2;
                out.push(rarer);
            }
        }
        out
    }
}

/// A stalled router output port on either mesh: what [`LinkFault`]
/// and [`OcnFault`] share, so one translator and one shrinker serve
/// both networks.
trait StalledPort: Copy {
    /// The router, the port, and the two knobs the shrinker weakens.
    fn parts(&mut self) -> (Coord, FaultPort, &mut Ratio, &mut u64);
}

impl StalledPort for LinkFault {
    fn parts(&mut self) -> (Coord, FaultPort, &mut Ratio, &mut u64) {
        (Coord { row: self.row, col: self.col }, self.port, &mut self.chance, &mut self.max_burst)
    }
}

impl StalledPort for OcnFault {
    fn parts(&mut self) -> (Coord, FaultPort, &mut Ratio, &mut u64) {
        (Coord { row: self.row, col: self.col }, self.port, &mut self.chance, &mut self.max_burst)
    }
}

/// A port's name in the plan grammar: `eject`, `north`, ...
fn port_name(port: FaultPort) -> String {
    format!("{port:?}").to_lowercase()
}

/// The one-line form [`FaultPlan::parse`] reads back: `seed=0xdd
/// [rotate] {opn=N.R.C.port:num/den*burst} {ocn=R.C.port:num/den*burst}
/// [chain=num/den+extra] [storm=num/den]`, ports lower-case.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={:#x}", self.seed)?;
        if self.rotate_arbitration {
            f.write_str(" rotate")?;
        }
        for l in &self.links {
            let (Ratio { num, den }, burst) = (l.chance, l.max_burst);
            write!(
                f,
                " opn={}.{}.{}.{}:{num}/{den}*{burst}",
                l.net,
                l.row,
                l.col,
                port_name(l.port)
            )?;
        }
        for l in &self.ocn_links {
            let (Ratio { num, den }, burst) = (l.chance, l.max_burst);
            write!(f, " ocn={}.{}.{}:{num}/{den}*{burst}", l.row, l.col, port_name(l.port))?;
        }
        if let Some(ChainDelay { chance: Ratio { num, den }, max_extra }) = self.chain_delay {
            write!(f, " chain={num}/{den}+{max_extra}")?;
        }
        self.flush_storm.iter().try_for_each(|Ratio { num, den }| write!(f, " storm={num}/{den}"))
    }
}

/// Splits `s` at each separator in turn: the heads, then the rest.
fn fields<const N: usize>(mut s: &str, seps: [char; N]) -> Option<([&str; N], &str)> {
    let mut heads = [""; N];
    for (head, sep) in heads.iter_mut().zip(seps) {
        (*head, s) = s.split_once(sep)?;
    }
    Some((heads, s))
}

impl FaultPlan {
    /// Parses the one-line form [`fmt::Display`] writes; tokens may
    /// come in any order, links keep theirs.
    ///
    /// # Errors
    ///
    /// Names the first token that is unknown, malformed or repeated,
    /// or the missing `seed=`. Bounds are [`FaultPlan::validate`]'s.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
            s.parse().ok()
        }
        let port = |s| FaultPort::ALL.into_iter().find(|p| port_name(*p) == s);
        let ratio = |n, d| Some(Ratio { num: num(n)?, den: num(d)? });
        let mut plan = FaultPlan::default();
        let mut seed = None;
        for tok in s.split_whitespace() {
            let (key, val) = tok.split_once('=').unwrap_or((tok, ""));
            // Each arm yields whether the token repeats an earlier one.
            let repeated = match key {
                "rotate" if tok == key => {
                    Some(std::mem::replace(&mut plan.rotate_arbitration, true))
                }
                "seed" => match val.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => num(val),
                }
                .map(|v| seed.replace(v).is_some()),
                "opn" => fields(val, ['.', '.', '.', ':', '/', '*']).and_then(|(f, burst)| {
                    let [net, row, col, p, n, d] = f;
                    plan.links.push(LinkFault {
                        net: num(net)?,
                        row: num(row)?,
                        col: num(col)?,
                        port: port(p)?,
                        chance: ratio(n, d)?,
                        max_burst: num(burst)?,
                    });
                    Some(false)
                }),
                "ocn" => fields(val, ['.', '.', ':', '/', '*']).and_then(|(f, burst)| {
                    let [row, col, p, n, d] = f;
                    plan.ocn_links.push(OcnFault {
                        row: num(row)?,
                        col: num(col)?,
                        port: port(p)?,
                        chance: ratio(n, d)?,
                        max_burst: num(burst)?,
                    });
                    Some(false)
                }),
                "chain" => fields(val, ['/', '+']).and_then(|([n, d], extra)| {
                    let delay = ChainDelay { chance: ratio(n, d)?, max_extra: num(extra)? };
                    Some(plan.chain_delay.replace(delay).is_some())
                }),
                "storm" => fields(val, ['/'])
                    .and_then(|([n], d)| Some(plan.flush_storm.replace(ratio(n, d)?).is_some())),
                _ => None,
            };
            match repeated {
                None => return Err(format!("bad plan token {tok:?}")),
                Some(true) => return Err(format!("plan repeats {key:?}")),
                Some(false) => {}
            }
        }
        plan.seed = seed.ok_or("a plan needs its seed=<n>")?;
        Ok(plan)
    }

    /// Checks the plan against the machine it is about to be installed
    /// in: a core of geometry `geom` with `opn_networks` operand
    /// networks, on a die whose OCN is `ocn`. The fault hooks assume
    /// all of this and panic (or divide by zero) deep inside the
    /// meshes otherwise. A permanent stall (`num >= den`, any burst)
    /// is legal — the deliberate-deadlock test relies on it.
    ///
    /// # Errors
    ///
    /// Names the offending field.
    pub fn validate(
        &self,
        geom: CoreGeometry,
        opn_networks: usize,
        ocn: OcnGeometry,
    ) -> Result<(), String> {
        let chances = (self.links.iter().map(|l| ("an OPN link", l.chance)))
            .chain(self.ocn_links.iter().map(|l| ("an OCN link", l.chance)))
            .chain(self.chain_delay.map(|d| ("the chain delay", d.chance)))
            .chain(self.flush_storm.map(|r| ("the flush storm", r)));
        for (what, Ratio { num, den }) in chances {
            if den == 0 {
                return Err(format!("{what} has chance {num}/0"));
            }
        }
        let (rows, cols, die) = (geom.mesh_rows(), geom.mesh_cols(), geom.name());
        for l in &self.links {
            if l.net >= opn_networks || usize::from(l.row) >= rows || usize::from(l.col) >= cols {
                let at = format!("{}.{}.{}", l.net, l.row, l.col);
                return Err(format!(
                    "OPN link {at} lies outside the {die} die's {opn_networks} {rows}x{cols} OPN(s)"
                ));
            }
        }
        let (rows, cols, n) = (ocn.rows(), ocn.cols(), ocn.ncores());
        if let Some(l) = self.ocn_links.iter().find(|l| l.row >= rows || l.col >= cols) {
            let at = format!("{}.{}", l.row, l.col);
            return Err(format!(
                "OCN link {at} lies outside the {rows}x{cols} OCN of a {n}-core die"
            ));
        }
        // A delayed arrival is `now + extra`; keep it far from wrapping.
        match self.chain_delay {
            Some(d) if d.max_extra > u64::from(u32::MAX) => {
                Err(format!("chain delay bound {} exceeds 2^32 cycles", d.max_extra))
            }
            _ => Ok(()),
        }
    }
}

/// The GT's flush-storm coin: per resolved (correctly predicted,
/// non-halt) branch, flush anyway with probability `num/den`.
#[derive(Debug, Clone)]
pub(crate) struct StormState {
    rng: Rng,
    num: u64,
    den: u64,
}

impl StormState {
    /// Rolls the storm coin.
    pub(crate) fn roll(&mut self) -> bool {
        self.num > 0 && self.rng.chance(self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_and_varied() {
        let a = FaultPlan::random(1234);
        let b = FaultPlan::random(1234);
        assert_eq!(a, b, "same seed, same plan");
        let distinct = (0..64).map(FaultPlan::random).filter(|p| !p.is_empty()).count();
        assert!(distinct > 32, "most random plans perturb something");
    }

    #[test]
    fn subseeds_are_independent_of_other_faults() {
        let full = FaultPlan::random(7);
        let mut stripped = full.clone();
        stripped.links.clear();
        stripped.rotate_arbitration = false;
        assert_eq!(
            full.chain_fault(TAG_GCN),
            stripped.chain_fault(TAG_GCN),
            "dropping mesh faults must not shift the chain PRNG streams"
        );
    }

    #[test]
    fn shrinking_strictly_reduces_and_terminates() {
        let mut plan = FaultPlan::random(99);
        // Greedily take the first candidate every time; must terminate.
        let mut steps = 0;
        while let Some(next) = plan.shrink_candidates().into_iter().next() {
            assert_ne!(next, plan);
            plan = next;
            steps += 1;
            assert!(steps < 10_000, "shrinker failed to converge");
        }
        assert!(plan.is_empty() || plan.shrink_candidates().is_empty());
    }

    #[test]
    fn shrink_candidates_and_mesh_translations_are_pinned() {
        // An FNV-1a digest of every rendered candidate list and of both
        // networks' fault configurations, over 256 random plans: the
        // shrinker's order and the translators' output are part of the
        // reproducer format, so any change shows up here.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..256 {
            let plan = FaultPlan::random(seed);
            let cands: Vec<String> =
                plan.shrink_candidates().iter().map(|p| p.to_string()).collect();
            let text = format!("{cands:?} {:?} {:?}", plan.mesh_fault(0), plan.ocn_fault());
            for b in text.bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(digest, 0xbcc8_a0f0_6437_d86a, "digest {digest:#018x}");
    }

    #[test]
    fn display_and_parse_round_trip() {
        for seed in 0..512 {
            for plan in [FaultPlan::random(seed), FaultPlan::random_for(seed, CoreGeometry::mini())]
            {
                assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
            }
        }
        let text = "seed=0xabc rotate opn=1.2.3.north:1/8*18446744073709551615 \
                    ocn=9.1.south:1/16*7 chain=1/4+3 storm=1/32";
        let plan = FaultPlan::parse(text).expect("every token kind parses");
        assert_eq!(plan.to_string(), text);
        assert_eq!((plan.seed, plan.links[0].net, plan.links[0].max_burst), (0xabc, 1, u64::MAX));
        for bad in ["", "rotate", "seed=1 seed=2", "seed=1 rotate=1", "seed=1 opn=0.0.up:1/2*1"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn validate_names_what_does_not_fit_the_machine() {
        let check = |text: &str, geom: CoreGeometry, nets| {
            FaultPlan::parse(text).expect("parses").validate(geom, nets, OcnGeometry::for_cores(2))
        };
        let proto = CoreGeometry::prototype();
        // The deliberate-deadlock plan: a permanent stall is legal.
        assert_eq!(check("seed=0 opn=0.0.0.eject:1/1*18446744073709551615", proto, 1), Ok(()));
        assert_eq!(check("seed=0 opn=1.4.4.west:1/2*1 ocn=9.3.east:1/2*1", proto, 2), Ok(()));
        for (text, geom, needle) in [
            ("seed=0 opn=0.4.0.west:1/2*1", CoreGeometry::mini(), "outside the mini die"),
            ("seed=0 opn=1.0.0.west:1/2*1", proto, "outside the prototype die"),
            ("seed=0 ocn=10.0.west:1/2*1", proto, "10x4 OCN of a 2-core die"),
            ("seed=0 opn=0.0.0.west:1/0*1", proto, "an OPN link has chance 1/0"),
            ("seed=0 storm=0/0", proto, "the flush storm has chance 0/0"),
            ("seed=0 chain=1/2+4294967296", proto, "exceeds 2^32"),
        ] {
            let err = check(text, geom, 1).expect_err(text);
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn inert_probe_installs_hooks_everywhere() {
        let p = FaultPlan::inert_probe(5);
        assert!(p.mesh_fault(0).is_some());
        assert!(p.ocn_fault().is_some());
        assert!(p.chain_fault(TAG_GCN).is_some());
        assert!(p.storm_state().is_some());
        assert!(!p.storm_state().expect("present").roll(), "num == 0 never fires");
    }
}
