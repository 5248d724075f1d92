//! The TRIPS chip: N cores in lockstep around one shared NUCA.
//!
//! The prototype die carries **two** processor cores and a single
//! 1 MB NUCA secondary memory, reached over the 4×10 OCN whose twenty
//! client ports are split between the cores' L1 banks (§2, §3.6 of
//! the paper). [`Chip`] reproduces that arrangement and scales it to
//! 1..=16-core dies by tiling the prototype block vertically (see
//! [`trips_mem::OcnGeometry`]): each core is an unmodified
//! [`Processor`] whose `memsys` adapter is bound to a disjoint
//! computed `PortMap` slice of the shared [`SecondarySystem`], and
//! the chip's `Nuca` — the system's one owner — runs the memory phase
//! (inject → OCN/bank tick → drain) once per cycle for all cores. A
//! chip core owns no `Nuca`, whatever its own `mem_backend` names.
//! The chip is the cores' one owner and ticks them in turn on the
//! calling thread;
//! host parallelism lives across independent runs, each building its
//! own chip (DESIGN.md §5e). Because each slot's port/bank picture is
//! a whole-block translation of a prototype slot, a core of any die
//! is cycle-bit-identical to the same slot of the prototype die
//! (pinned by `tests/chip_equivalence.rs`).
//!
//! **One run loop.** Every die runs through the loop written here,
//! over its cores and the NUCA they share, if any: a chip's, or a solo
//! [`Processor`] and its own NUCA, lent as a one-core die. It owns the
//! cycle budget, the invariant suite, the halt snapshots, the leak
//! check and the epoch skip; the die's clock is its cores'.
//!
//! **Arbitration.** Within a core the fixed client order stands, so a
//! lone core is never restricted — a one-core chip is bit-identical
//! to the `Processor` + `Nuca` path (pinned by
//! `tests/chip_equivalence.rs`). Across cores, a per-cycle
//! round-robin `BankArb` admits only one core's injections per NUCA
//! bank per cycle; the losing core's client stalls in place (FIFO
//! order preserved) and the priority rotates every cycle, so the wait
//! for a contested bank is bounded by `ncores − 1` cycles.
//!
//! **What is (and is not) coherent.** By default, nothing: the cores
//! run disjoint address spaces — each adapter offsets its physical
//! addresses by a per-core base so lines never alias in the shared
//! bank tags — and data authority stays with each core's own memory
//! image (the backend is timing-only, as in DESIGN.md §5d).
//! Contention is therefore purely a *timing* interaction: per-core
//! architectural results are independent of the co-runner, which the
//! equivalence suite asserts across workload pairs.
//!
//! With [`ChipConfig::shared_memory`] set, the cores instead share
//! one physical address space under a directory MSI protocol: each
//! NUCA bank carries a directory slice over the lines it homes,
//! D-side fills travel as GetS, store writebacks as GetM, and the
//! directory invalidates remote copies over the same OCN. Values
//! still follow the timing-only discipline — every core holds a
//! handle to one shared memory, and the chip writes each committed
//! store to it once, at the end of the cycle its DT drains it, in one
//! global order (the chip's *value plane*), while the protocol
//! messages decide *when* fills and store acks complete (the *timing
//! plane*). See DESIGN.md §5g for the protocol tables and the
//! invariant arguments.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use trips_isa::mem::SparseMem;
use trips_isa::ProgramImage;
use trips_mem::{CohSnapshot, DirView, MemConfig, OcnGeometry, SecondarySystem, MAX_CORES};
use trips_micronet::MAX_TAGS;

use crate::config::TileMask;
use crate::invariants::{self, InvariantViolation};
use crate::memsys::{MemSys, Nuca};
use crate::proc::{Processor, SimError};
use crate::profile::TickPhase;
use crate::stats::CoreStats;
use crate::trace::{chrome_trace_chip, Tracer};
use crate::CoreConfig;

/// Configuration of a [`Chip`]: one [`CoreConfig`] per core plus the
/// shared secondary system.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Per-core configurations. `mem_backend` is ignored — every core
    /// of a chip shares [`ChipConfig::mem`]; OCN faults are taken from
    /// core 0's fault plan (the OCN is chip-level hardware), while
    /// OPN/chain faults stay per-core.
    pub cores: Vec<CoreConfig>,
    /// The shared NUCA secondary system.
    pub mem: MemConfig,
    /// Retired: the cores always tick in turn on the calling thread.
    /// `None` and `Some(false)` are accepted; [`ChipConfig::validate`]
    /// rejects `Some(true)`. The field stays only because the perf
    /// ledger still sets it.
    pub threaded: Option<bool>,
    /// Run the cores in one coherent physical address space (MSI
    /// directory protocol at the NUCA banks) instead of the default
    /// disjoint multiprogrammed spaces. Off must be — and is, pinned
    /// by `tests/chip_equivalence.rs` — bit-identical to a chip built
    /// before this field existed.
    pub shared_memory: bool,
}

impl ChipConfig {
    /// The prototype chip: two cores on the §3.6 NUCA.
    pub fn prototype() -> ChipConfig {
        ChipConfig {
            cores: vec![CoreConfig::prototype(); 2],
            mem: MemConfig::prototype(),
            threaded: None,
            shared_memory: false,
        }
    }

    /// A chip of `n` identical cores (1..=16; the OCN geometry tiles
    /// a twenty-port prototype block per core pair).
    pub fn with_cores(n: usize, core: CoreConfig, mem: MemConfig) -> ChipConfig {
        ChipConfig { cores: vec![core; n], mem, threaded: None, shared_memory: false }
    }

    /// An `n`-core die of prototype cores on the prototype NUCA — the
    /// `--ncores` constructor.
    pub fn n_cores(n: usize) -> ChipConfig {
        ChipConfig::with_cores(n, CoreConfig::prototype(), MemConfig::prototype())
    }

    /// Checks that the die can be built: 1..=16 cores (the computed
    /// OCN geometry and its tag space, [`MAX_CORES`]), a
    /// valid shared [`MemConfig`] ([`MemConfig::validate`]), each
    /// a buildable core ([`CoreConfig::validate`]) with no more DTs and
    /// ITs than its slot owns OCN ports for.
    ///
    /// # Errors
    ///
    /// Names the core count, a threaded schedule, the offending `mem`
    /// field, or the first core with its offending field or the port
    /// budget of the slot its geometry overflows.
    pub fn validate(&self) -> Result<(), String> {
        if self.threaded == Some(true) {
            return Err("threaded: Some(true) is unsupported; cores tick on one thread".into());
        }
        let n = self.cores.len();
        if !(1..=MAX_CORES).contains(&n) {
            return Err(format!("a die seats 1..={} cores, not {n}", MAX_CORES));
        }
        self.mem.validate().map_err(|e| format!("mem: {e}"))?;
        let ocn = OcnGeometry::for_cores(n);
        for (k, core) in self.cores.iter().enumerate() {
            core.validate().map_err(|e| format!("core {k}: {e}"))?;
            let (g, side) = (core.geometry, ocn.core_side_ports(k));
            if g.num_dts() > side || g.num_its() > side {
                return Err(format!(
                    "core {k}: the {} geometry has {} DTs and {} ITs, but slot {k} of a \
                     {n}-core die owns {side} OCN ports for each",
                    g.name(),
                    g.num_dts(),
                    g.num_its()
                ));
            }
        }
        Ok(())
    }
}

/// Chip-level statistics: everything a single [`CoreStats`] cannot
/// express because it belongs to the shared fabric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChipStats {
    /// Per-core run statistics, snapshotted at each core's own halt
    /// time (the per-core NUCA round-trip histogram is
    /// `cores[k].mem.fill_latency`).
    pub cores: Vec<CoreStats>,
    /// Chip cycles until the last core halted.
    pub cycles: u64,
    /// Per-bank cross-core conflict stalls from the round-robin bank
    /// arbiter (all zero for a single-core chip).
    pub bank_conflict_stalls: Vec<u64>,
    /// Per-core high-water marks of in-flight OCN packets (tagged at
    /// injection; index = core).
    pub ocn_tag_highwater: Vec<usize>,
    /// Per-core OCN `(injected, ejected)` packet counts.
    pub ocn_tag_counts: Vec<(u64, u64)>,
    /// Coherence-protocol counters (`Some` only on a
    /// [`ChipConfig::shared_memory`] chip, keeping the off-mode stats
    /// bit-identical to the pre-coherence chip).
    pub coherence: Option<CohSnapshot>,
}

impl ChipStats {
    /// Total cross-core bank conflict stalls.
    pub fn total_conflict_stalls(&self) -> u64 {
        self.bank_conflict_stalls.iter().sum()
    }
}

/// N cores ticked in lockstep around one shared [`SecondarySystem`].
pub struct Chip {
    cores: Vec<Processor>,
    /// The shared NUCA, its bank arbiter and injection priority.
    nuca: Nuca,
    cfg: ChipConfig,
}

impl Chip {
    /// [`Chip::try_new`], panicking with its error.
    pub fn new(cfg: ChipConfig) -> Chip {
        Chip::try_new(cfg).unwrap_or_else(|e| panic!("invalid ChipConfig: {e}"))
    }

    /// Builds the chip: one [`Processor`] per entry of `cfg.cores`,
    /// all bound to one shared secondary system.
    ///
    /// # Errors
    ///
    /// What [`ChipConfig::validate`] rejects.
    pub fn try_new(cfg: ChipConfig) -> Result<Chip, String> {
        const _: () = assert!(MAX_CORES <= MAX_TAGS, "core tags must fit the tag space");
        cfg.validate()?;
        let mut cores =
            cfg.cores.iter().cloned().map(Processor::try_new).collect::<Result<Vec<_>, _>>()?;
        for (k, core) in cores.iter_mut().enumerate() {
            Chip::seat(core, k, &cfg);
        }
        Ok(Chip { cores, nuca: Nuca::new(&cfg.mem, &cfg.cores, cfg.shared_memory), cfg })
    }

    /// Makes `core`, just built from its own config, slot `k` of the
    /// die `cfg` describes: a client of the chip's NUCA that owns none,
    /// whatever its `mem_backend` names.
    fn seat(core: &mut Processor, k: usize, cfg: &ChipConfig) {
        let (n, geom) = (cfg.cores.len(), cfg.cores[k].geometry);
        core.memsys = MemSys::client(k, n, geom, cfg.shared_memory, &core.nets.wake);
        core.nuca = None;
        core.refile();
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.cores.len()
    }

    /// Core `k`, for inspecting architectural state after a run.
    pub fn core(&self, k: usize) -> &Processor {
        &self.cores[k]
    }

    /// The shared secondary system.
    pub fn secondary(&self) -> &SecondarySystem {
        &self.nuca.sys
    }

    /// Turns on every core's flight recorder (`capacity` events each).
    pub fn enable_tracing(&mut self, capacity: usize) {
        for core in &mut self.cores {
            core.enable_tracing(capacity);
        }
    }

    /// The combined Chrome trace: one process per core, one lane per
    /// tile (see [`chrome_trace_chip`]).
    pub fn chrome_trace(&self) -> String {
        let tracers: Vec<&Tracer> = self.cores.iter().map(Processor::tracer).collect();
        chrome_trace_chip(&tracers)
    }

    /// Runs one program image per core until every core halts or
    /// `max_cycles` chip cycles elapse. Cores that halt early keep
    /// draining their share of the OCN traffic while the rest run.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] (diagnosing the first still-running
    /// core) or [`SimError::Invariant`] when a per-core invariant or
    /// the chip-level conservation audit fails.
    ///
    /// # Panics
    ///
    /// Panics unless `images.len()` equals the core count.
    pub fn run(&mut self, images: &[ProgramImage], max_cycles: u64) -> Result<ChipStats, SimError> {
        assert_eq!(images.len(), self.cores.len(), "one program image per core");
        let selected: Vec<Option<&ProgramImage>> = images.iter().map(Some).collect();
        self.run_select(&selected, max_cycles)
    }

    /// [`Chip::run`] with optional per-slot images: a `None` slot
    /// stays **idle** — its core is reset and parked pre-halted, so
    /// it ticks in lockstep (cheaply, fully gated) but never fetches,
    /// injects no OCN traffic, and reports default stats. The
    /// equivalence suite uses this to pin that one live core in any
    /// slot of any die behaves exactly like the matching slot of the
    /// prototype die (and, for even slots, exactly like the solo
    /// `Processor` + NUCA path).
    ///
    /// # Errors
    ///
    /// As [`Chip::run`].
    ///
    /// # Panics
    ///
    /// Panics unless `images.len()` equals the core count and at
    /// least one slot is live.
    pub fn run_select(
        &mut self,
        images: &[Option<&ProgramImage>],
        max_cycles: u64,
    ) -> Result<ChipStats, SimError> {
        self.load(images);
        let shared = self.cfg.shared_memory;
        Die::new(&mut self.cores, Some(&mut self.nuca)).run(max_cycles, |die, cores| {
            let (nuca, n) = (die.nuca.as_deref().expect("a chip's die has its NUCA"), cores.len());
            ChipStats {
                cycles: die.cycle(),
                bank_conflict_stalls: nuca.arb.conflict_stalls.clone(),
                ocn_tag_highwater: nuca.sys.ocn_tag_highwater()[..n].to_vec(),
                ocn_tag_counts: nuca.sys.ocn_tag_counts()[..n].to_vec(),
                coherence: shared.then(|| nuca.sys.coherence()),
                cores,
            }
        })
    }

    /// The set-up half of [`Chip::run_select`]: a fresh NUCA, each slot
    /// reset for its image or parked idle, and on a coherent chip the
    /// one memory every core shares.
    fn load(&mut self, images: &[Option<&ProgramImage>]) {
        assert_eq!(images.len(), self.cores.len(), "one image slot per core");
        assert!(images.iter().any(Option::is_some), "at least one slot must be live");
        // Reset chip-level state for back-to-back runs.
        self.nuca = Nuca::new(&self.cfg.mem, &self.cfg.cores, self.cfg.shared_memory);
        for (k, core) in self.cores.iter_mut().enumerate() {
            match images[k] {
                Some(image) => core.start(image),
                None => {
                    // An idle slot: a freshly reset core, parked
                    // pre-halted. The run loop already lets halted
                    // cores tick along in lockstep; one that starts
                    // halted simply never does anything.
                    *core = Processor::new(self.cfg.cores[k].clone());
                    core.gt.halted = true;
                }
            }
            Chip::seat(core, k, &self.cfg);
        }
        if self.cfg.shared_memory {
            // One physical address space: one memory, the union of
            // every live image loaded in slot order, and every core
            // holds a handle to it.
            let mut mem = SparseMem::new();
            for image in images.iter().flatten() {
                mem.load_image(image);
            }
            let mem = Rc::new(RefCell::new(mem));
            for core in &mut self.cores {
                core.mem = Rc::clone(&mem);
            }
        }
    }

    /// Ticks until every core and the shared system quiesce, or
    /// `budget` chip cycles elapse; returns whether the chip quiesced
    /// (see [`Processor::drain`]).
    pub fn drain(&mut self, budget: u64) -> bool {
        Die::new(&mut self.cores, Some(&mut self.nuca)).drain(budget)
    }

    /// True when every core has quiesced and nothing is left in the
    /// shared system.
    pub fn quiesced(&self) -> bool {
        quiesced(&self.cores, Some(&self.nuca))
    }

    /// Every core's own invariant suite, the shared NUCA's conservation
    /// audit, and on a [`ChipConfig::shared_memory`] chip the coherence
    /// suite.
    ///
    /// # Errors
    ///
    /// The first violated invariant as a [`SimError::Invariant`].
    pub fn check_invariants(&self) -> Result<(), SimError> {
        check(&self.cores, Some(&self.nuca)).map_err(invariant)
    }
}

/// A die in motion: its cores, in slot order, and the NUCA they share,
/// if any — a [`Chip`]'s, or a solo NUCA [`Processor`]'s own, lent for
/// the call. Every run, tick and drain of one core or sixteen goes
/// through here: one budget check, one epoch skip, one leak check.
pub(crate) struct Die<'a> {
    cores: &'a mut [Processor],
    nuca: Option<&'a mut Nuca>,
    /// The cores share one coherent memory: the value plane runs each
    /// cycle.
    coherent: bool,
    /// Each core's schedule for the cycle being decided (scratch, so a
    /// step allocates nothing).
    scans: [(TileMask, Option<u64>); MAX_CORES],
}

impl<'a> Die<'a> {
    /// The die of `cores` around `nuca`.
    pub(crate) fn new(cores: &'a mut [Processor], nuca: Option<&'a mut Nuca>) -> Die<'a> {
        let coherent = cores[0].memsys.is_coherent();
        Die { cores, nuca, coherent, scans: [(0, None); MAX_CORES] }
    }

    /// The die's clock: every core's, since they tick in lockstep.
    fn cycle(&self) -> u64 {
        self.cores[0].cycle
    }

    /// Ticks until every core halts or the clock reaches `max_cycles`.
    /// A core halted before the first tick is an idle slot with default
    /// stats; every other core's are snapshotted the cycle it halts.
    /// `at_halt` sees the die and those stats before the leak check.
    /// When any core checks invariants, [`check`] runs every step and
    /// the halted die must drain.
    pub(crate) fn run<R>(
        &mut self,
        max_cycles: u64,
        at_halt: impl FnOnce(&Die<'_>, Vec<CoreStats>) -> R,
    ) -> Result<R, SimError> {
        let mut finished: Vec<Option<CoreStats>> =
            self.cores.iter().map(|c| c.halted().then(CoreStats::default)).collect();
        let checked = self.cores.iter().any(|c| c.cfg.check_invariants);
        while let Some(core) = self.cores.iter().find(|c| !c.halted()) {
            if core.cycle >= max_cycles {
                return Err(SimError::Timeout {
                    cycles: core.cycle,
                    blocks_committed: core.stats.blocks_committed,
                    diagnosis: Box::new(core.diagnose()),
                });
            }
            self.tick_until(max_cycles);
            if checked {
                self.check()?;
            }
            for (core, done) in self.cores.iter_mut().zip(&mut finished) {
                if core.halted() && done.is_none() {
                    if let Some(nuca) = &self.nuca {
                        nuca.fold_stats(&mut core.memsys);
                    }
                    *done = Some(core.finish_stats());
                }
            }
        }
        let out = at_halt(self, finished.into_iter().map(|s| s.expect("halted")).collect());
        if checked {
            // Leak check: after halt, every in-flight operand, wave,
            // and queue — the shared system's included — must drain. An
            // operand created but never consumed, or a flush that left
            // residue behind, keeps a tile or net active forever and
            // fails here.
            if !self.drain(10_000) {
                let hangs: Vec<String> =
                    self.cores.iter().map(|c| c.diagnose().summary()).collect();
                return Err(SimError::Invariant {
                    cycle: self.cycle(),
                    violation: format!(
                        "failed to quiesce within 10000 cycles after halt (leaked operand or \
                         undrained queue): {}",
                        hangs.join("; ")
                    ),
                });
            }
            self.check()?;
        }
        Ok(out)
    }

    /// One step of the die, never past `horizon`. When *no* core has a
    /// runnable tile, every core's clock and the NUCA's priority jump
    /// to the earliest wake across the cores and the NUCA
    /// ([`skip_target`]; a jump that lands on `horizon` returns without
    /// ticking). Otherwise every core ticks its due tiles and micronets
    /// (a halted core too, keeping lockstep and consuming late
    /// completions), then the value plane on a coherent die, then the
    /// NUCA's memory phase. The scan and the memory phase are timed
    /// into slot 0's profile, once per step.
    pub(crate) fn tick_until(&mut self, horizon: u64) {
        let tp = self.cores[0].profile.begin();
        let ticks = loop {
            let now = self.cycle();
            for (scan, core) in self.scans.iter_mut().zip(&*self.cores) {
                *scan = core.schedule(now);
            }
            let scans = &self.scans[..self.cores.len()];
            let idle = scans.iter().all(|&(mask, _)| mask == 0);
            let nuca = self.nuca.as_ref().and_then(|n| n.next_event(now));
            let wake = scans.iter().filter_map(|&(_, w)| w).chain(nuca).min();
            let Some(w) = skip_target(now, idle, wake, horizon) else {
                break true;
            };
            for core in self.cores.iter_mut() {
                core.skip_to(w);
            }
            if let Some(nuca) = &mut self.nuca {
                nuca.skip(w - now);
            }
            if w == horizon {
                break false;
            }
            // Re-read at the landing cycle: a timer or arrival has
            // just matured there.
        };
        self.cores[0].profile.end(TickPhase::Scan, tp);
        if !ticks {
            return;
        }
        let now = self.cycle();
        for (core, &(mask, _)) in self.cores.iter_mut().zip(&self.scans) {
            core.tick_with_mask(mask);
        }
        let tp = self.cores[0].profile.begin();
        if self.coherent {
            propagate_stores(self.cores, now);
        }
        if let Some(nuca) = &mut self.nuca {
            nuca.tick(now, self.cores);
        }
        self.cores[0].profile.end(TickPhase::MemSys, tp);
    }

    /// Ticks until the die [quiesces](quiesced) or `budget` cycles
    /// elapse; returns whether it quiesced. Cycle-denominated (not
    /// step-denominated), so an epoch-skipping drain covers the same
    /// simulated span as a cycle-by-cycle one.
    pub(crate) fn drain(&mut self, budget: u64) -> bool {
        let end = self.cycle().saturating_add(budget);
        while self.cycle() < end {
            if quiesced(self.cores, self.nuca.as_deref()) {
                return true;
            }
            self.tick_until(end);
        }
        quiesced(self.cores, self.nuca.as_deref())
    }

    /// The invariant suite after a step: each core's
    /// [step check](invariants::check_step), then what [`check`] runs
    /// past the cores.
    fn check(&mut self) -> Result<(), SimError> {
        for (k, core) in self.cores.iter_mut().enumerate() {
            invariants::check_step(core).map_err(|v| on_core(k, v)).map_err(invariant)?;
        }
        check_shared(self.cores, self.nuca.as_deref()).map_err(invariant)
    }
}

/// The one epoch-skip decision: when nothing can act at `now` (`idle`:
/// every activity mask is empty) and the earliest `wake` lies in the
/// future, the cycle to jump to — the wake clamped to the caller's
/// `horizon`, so a run with a cycle budget stops on the budget exactly
/// as a cycle-by-cycle one does. `None` means tick this cycle.
fn skip_target(now: u64, idle: bool, wake: Option<u64>, horizon: u64) -> Option<u64> {
    let w = wake?.min(horizon);
    (idle && w > now).then_some(w)
}

/// True when every core has quiesced and nothing is left in the NUCA.
fn quiesced(cores: &[Processor], nuca: Option<&Nuca>) -> bool {
    cores.iter().all(Processor::quiesced) && nuca.is_none_or(|n| n.sys.in_system() == 0)
}

/// A die's whole invariant suite: every core's own
/// ([`crate::invariants`]), then the NUCA's conservation audit (the
/// OCN's packet accounting balances, and the cores'
/// accepted-but-undelivered requests sum to exactly what the system
/// holds, so no response can be lost *or* misdelivered to another
/// core's port), then on a coherent die the coherence suite.
///
/// # Errors
///
/// The first violated invariant, at the die's cycle.
pub(crate) fn check(cores: &[Processor], nuca: Option<&Nuca>) -> Result<(), InvariantViolation> {
    for (k, core) in cores.iter().enumerate() {
        invariants::check(core).map_err(|v| on_core(k, v))?;
    }
    check_shared(cores, nuca)
}

fn on_core(k: usize, v: InvariantViolation) -> InvariantViolation {
    InvariantViolation { cycle: v.cycle, detail: format!("core {k}: {}", v.detail) }
}

/// The part of [`check`] past the cores' own suites.
fn check_shared(cores: &[Processor], nuca: Option<&Nuca>) -> Result<(), InvariantViolation> {
    let Some(nuca) = nuca else { return Ok(()) };
    let fail = |detail| InvariantViolation { cycle: cores[0].cycle, detail };
    nuca.audit(cores).map_err(fail)?;
    if cores[0].memsys.is_coherent() {
        check_coherence(cores, &nuca.sys).map_err(fail)?;
    }
    Ok(())
}

fn invariant(v: InvariantViolation) -> SimError {
    SimError::Invariant { cycle: v.cycle, violation: v.detail }
}

/// The value plane of the coherent chip: every store drained at
/// commit this cycle is written **once** to the one shared memory,
/// in one global order (writer core index, then drain order within
/// the core), so same-cycle conflicting stores resolve the same
/// way for every core. Runs after every core has ticked this
/// cycle, so a store becomes visible to every core — its writer
/// included — at the end of the cycle it drains; the writer's
/// younger loads see it earlier only through LSQ forwarding.
/// Remote cores also take the speculation repair: cached copies of
/// the touched lines are dropped, in-flight fills poisoned, and any
/// speculatively performed overlapping load squashed via a
/// violation flush.
fn propagate_stores(cores: &mut [Processor], now: u64) {
    for k in 0..cores.len() {
        let props = cores[k].memsys.take_propagations();
        for (ea, val, bytes) in props {
            cores[k].mem.borrow_mut().write_uint(ea, val, bytes as u32);
            for j in (0..cores.len()).filter(|&j| j != k) {
                cores[j].shared_invalidate(now, ea, bytes);
            }
        }
    }
}

/// The coherence invariant suite, run every checked tick of a
/// coherent die (see DESIGN.md §5g for the arguments):
///
/// 1. **Directory sanity** — no duplicate sharers, the owner is
///    not also a sharer, pending victims are disjoint from the
///    sharer list, and a stable M entry (owner set, no pending
///    invalidations) lists no sharers.
/// 2. **Inclusion / agreement** — every line a DT cache actually
///    holds is listed for that DT's port at the line's home
///    directory (as owner, sharer, or pending victim). The
///    directory may over-approximate (silent evictions), never
///    under-approximate.
/// 3. **SWMR** — a stable M line has exactly one cached copy:
///    the owner's. (With 2., any other copy would have to be
///    listed, and 1. says a stable M entry lists nobody else.)
/// 4. **Message conservation** — unacknowledged invalidations
///    equal invalidations sent minus acks counted, and every
///    entry mid-invalidation parks exactly one deferred write
///    ack.
fn check_coherence(cores: &[Processor], sys: &SecondarySystem) -> Result<(), String> {
    let views = sys.dir_views();
    let coh = sys.coherence();
    let mut by_line: BTreeMap<u64, &DirView> = BTreeMap::new();
    for v in &views {
        if let Some(o) = v.owner_port {
            if v.sharer_ports.contains(&o) {
                return Err(format!(
                    "dir bank {} line {:#x}: owner port {o} also on the sharer list",
                    v.bank, v.line
                ));
            }
        }
        for (i, &s) in v.sharer_ports.iter().enumerate() {
            if v.sharer_ports[..i].contains(&s) {
                return Err(format!(
                    "dir bank {} line {:#x}: duplicate sharer port {s}",
                    v.bank, v.line
                ));
            }
        }
        if v.pending_ports.iter().any(|p| v.sharer_ports.contains(p)) {
            return Err(format!(
                "dir bank {} line {:#x}: a pending victim is still on the sharer list",
                v.bank, v.line
            ));
        }
        if v.owner_port.is_some() && v.pending_ports.is_empty() && !v.sharer_ports.is_empty() {
            return Err(format!(
                "dir bank {} line {:#x}: stable M (owner {:?}) with sharers {:?}",
                v.bank, v.line, v.owner_port, v.sharer_ports
            ));
        }
        by_line.insert(v.line, v);
    }
    // Inclusion, and SWMR via the holder sets it implies.
    for (k, core) in cores.iter().enumerate() {
        for dt in &core.dts {
            let port = core.memsys.dt_port(dt.index) as u16;
            for line in dt.cached_lines() {
                let Some(v) = by_line.get(&line) else {
                    return Err(format!(
                        "core {k} DT{} caches line {line:#x} with no directory entry",
                        dt.index
                    ));
                };
                let listed = v.owner_port == Some(port)
                    || v.sharer_ports.contains(&port)
                    || v.pending_ports.contains(&port);
                if !listed {
                    return Err(format!(
                        "core {k} DT{} caches line {line:#x} but the home directory \
                         (bank {}) does not list port {port}: owner {:?} sharers {:?} \
                         pending {:?}",
                        dt.index, v.bank, v.owner_port, v.sharer_ports, v.pending_ports
                    ));
                }
                if let Some(o) = v.owner_port {
                    if v.pending_ports.is_empty() && o != port {
                        return Err(format!(
                            "SWMR violated: line {line:#x} is stable M at port {o} but \
                             core {k} DT{} (port {port}) holds a copy",
                            dt.index
                        ));
                    }
                }
            }
        }
    }
    // Conservation.
    let pending_total: u64 = views.iter().map(|v| v.pending_ports.len() as u64).sum();
    if pending_total != coh.invals_sent - coh.inval_acks {
        return Err(format!(
            "invalidation conservation broken: {pending_total} pending victims != \
             {} sent - {} acked",
            coh.invals_sent, coh.inval_acks
        ));
    }
    let mid_inval = views.iter().filter(|v| !v.pending_ports.is_empty()).count();
    if mid_inval != sys.dir_deferred() {
        return Err(format!(
            "deferred-ack conservation broken: {mid_inval} entries mid-invalidation != \
             {} parked write acks",
            sys.dir_deferred()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_tasm::Quality;
    use trips_workloads::{shared, suite};

    /// The value plane has one memory: a coherent chip's cores all hold
    /// a handle to it, while a multiprogrammed chip's cores keep their
    /// own.
    #[test]
    fn only_coherent_cores_share_one_memory() {
        let die = ChipConfig::n_cores(4);
        let shares =
            |chip: &Chip, j: usize, k: usize| Rc::ptr_eq(&chip.cores[j].mem, &chip.cores[k].mem);

        let mut chip = Chip::new(ChipConfig { shared_memory: true, ..die.clone() });
        chip.run(&shared::pcring(4).images, 20_000_000).expect("pcring halts");
        assert!((1..4).all(|k| shares(&chip, 0, k)), "a coherent core holds its own memory");

        let vadd = suite::by_name("vadd").expect("registered");
        let image = vadd.build_trips(Quality::Hand).expect("compiles").image;
        let mut chip = Chip::new(die);
        chip.run(&vec![image; 4], 20_000_000).expect("vadd halts");
        for j in 0..4 {
            assert!((j + 1..4).all(|k| !shares(&chip, j, k)), "multiprogrammed core {j} shares");
        }
    }

    // ---- the step check's premise (crate::invariants) ----

    /// A hash of `value`'s `Debug` rendering.
    fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut hasher = DefaultHasher::new();
        format!("{value:?}").hash(&mut hasher);
        hasher.finish()
    }

    /// Each tile's fingerprint, in mask order (GT, ITs, RTs, ETs, DTs).
    fn tile_prints(p: &Processor) -> Vec<u64> {
        let mut prints = vec![fingerprint(&p.gt)];
        prints.extend(p.its.iter().map(fingerprint));
        prints.extend(p.rts.iter().map(fingerprint));
        prints.extend(p.ets.iter().map(fingerprint));
        prints.extend(p.dts.iter().map(fingerprint));
        prints
    }

    /// Steps `die` until it halts and drains, checking after every step
    /// that no tile the step left unmarked changed, and that the step
    /// check returns what the full suite returns. Returns the steps, the
    /// tiles marked, and the tiles that changed outside their tick.
    fn step_checked(die: &mut Die<'_>, what: &str) -> (u64, u64, u64) {
        let (mut steps, mut marked, mut edited) = (0, 0, 0);
        let mut before: Vec<Vec<u64>> = die.cores.iter().map(tile_prints).collect();
        while !(die.cores.iter().all(Processor::halted) && quiesced(die.cores, die.nuca.as_deref()))
        {
            assert!(die.cycle() < 2_000_000, "{what}: no halt");
            die.tick_until(u64::MAX);
            let cycle = die.cycle();
            for (k, core) in die.cores.iter().enumerate() {
                let after = tile_prints(core);
                let (marks, ticked) = (core.unaudited.tiles, die.scans[k].0);
                for (bit, (b, a)) in before[k].iter().zip(&after).enumerate() {
                    let changed = b != a;
                    assert!(
                        !changed || marks >> bit & 1 != 0,
                        "{what}: core {k} tile {bit} changed unmarked by the step to {cycle}"
                    );
                    edited += u64::from(changed && ticked >> bit & 1 == 0);
                }
                marked += u64::from(marks.count_ones());
                before[k] = after;
            }
            let full = check(die.cores, die.nuca.as_deref()).map_err(invariant);
            assert_eq!(die.check(), full, "{what}: the step check and the full suite differ");
            full.unwrap_or_else(|e| panic!("{what}: {e}"));
            steps += 1;
        }
        (steps, marked, edited)
    }

    #[test]
    fn a_step_changes_only_the_tiles_it_marks() {
        use crate::config::{CoreGeometry, MemBackend};
        use crate::fault::FaultPlan;
        let faulted = |geometry: CoreGeometry, seed: u64, mem_backend: MemBackend| CoreConfig {
            check_invariants: true,
            faults: Some(FaultPlan::random_for(seed, geometry)),
            mem_backend,
            ..CoreConfig::with_geometry(geometry)
        };
        let image = suite::by_name("vadd").expect("registered").build_trips(Quality::Hand);
        let image = image.expect("compiles").image;
        let solo = [
            (CoreGeometry::mini(), MemBackend::prototype(), 3),
            (CoreGeometry::prototype(), MemBackend::nuca_prototype(), 8),
        ];
        for (geometry, backend, seed) in solo {
            let what = format!("{} {backend:?} seed {seed}", geometry.name());
            let mut cpu = Processor::new(faulted(geometry, seed, backend));
            cpu.start(&image);
            let mut nuca = cpu.nuca.take();
            let mut die = Die::new(std::slice::from_mut(&mut cpu), nuca.as_deref_mut());
            let (steps, marked, _) = step_checked(&mut die, &what);
            // Not vacuous: a whole run, most tiles left unaudited.
            let tiles = geometry.tile_ticks() as u64;
            assert!(steps > 500 && marked < steps * tiles / 2, "{what}: {marked}/{steps}");
            assert!(cpu.tile_audits() < steps * tiles / 2, "{what}");
        }
        // A coherent dual core: the value plane edits the other core's
        // DTs from outside their ticks (`Processor::shared_invalidate`).
        let core = faulted(CoreGeometry::prototype(), 5, MemBackend::nuca_prototype());
        let die = ChipConfig::with_cores(2, core, MemConfig::prototype());
        let mut chip = Chip::new(ChipConfig { shared_memory: true, ..die });
        let program = shared::pcring(2);
        chip.load(&program.images.iter().map(Some).collect::<Vec<_>>());
        let mut die = Die::new(&mut chip.cores, Some(&mut chip.nuca));
        let (_, _, edited) = step_checked(&mut die, "coherent pcring seed 5");
        assert!(edited > 0, "no DT was edited outside its tick");
    }
}
