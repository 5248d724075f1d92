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
//! the chip drives the inject → OCN/bank tick → drain phases once per
//! cycle for all cores around the one system. Because each slot's
//! port/bank picture is a whole-block translation of a prototype
//! slot, a core of any die is cycle-bit-identical to the same slot of
//! the prototype die (pinned by `tests/chip_equivalence.rs`).
//!
//! **Arbitration.** Within a core the original fixed client order
//! stands, so a solo core is never restricted — a one-core chip is
//! bit-identical to the `Processor` + `Nuca` path (pinned by
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
//! still follow the timing-only discipline — every committed store is
//! propagated to every core's memory replica in one global order (the
//! chip's *value plane*), while the protocol messages decide *when*
//! fills and store acks complete (the *timing plane*). See DESIGN.md
//! §5g for the protocol tables and the invariant arguments.

use std::collections::BTreeMap;

use trips_isa::ProgramImage;
use trips_mem::{CohSnapshot, DirView, MemConfig, OcnGeometry, SecondarySystem};
use trips_micronet::MAX_TAGS;

use crate::config::TileMask;
use crate::memsys::{BankArb, MemSys};
use crate::proc::{skip_target, Processor, SimError};
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
    /// Tick the cores on separate host threads, synchronizing at the
    /// shared-system boundary each cycle: `Some(true)` runs one worker
    /// per core; `None` (the default) and `Some(false)` tick the cores
    /// in turn on the calling thread. Serial is the default because
    /// the workers are forked and joined once per chip cycle, which
    /// costs tens of microseconds against a core tick of a few — the
    /// ledger measured the threaded chip 3–6× slower end to end
    /// (`core.chip_default_over_serial`). The core-tick phase touches
    /// only per-core state, so threaded and serial chips are
    /// bit-identical (pinned by `tests/chip_equivalence.rs`).
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
    /// OCN geometry and its tag space, [`trips_mem::MAX_CORES`]), each
    /// a buildable core ([`CoreConfig::validate`]) with no more DTs and
    /// ITs than its slot owns OCN ports for.
    ///
    /// # Errors
    ///
    /// Names the core count, or the first core with its offending field
    /// or the port budget of the slot its geometry overflows.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.cores.len();
        if !(1..=trips_mem::MAX_CORES).contains(&n) {
            return Err(format!("a die seats 1..={} cores, not {n}", trips_mem::MAX_CORES));
        }
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
    sys: SecondarySystem,
    arb: BankArb,
    cfg: ChipConfig,
    /// Round-robin injection priority: core `rr` injects first this
    /// cycle.
    rr: usize,
    cycle: u64,
    /// Each core's stats, captured the cycle it halted.
    finished: Vec<Option<CoreStats>>,
    /// Host threads for the core-tick phase (1 = serial), resolved
    /// from [`ChipConfig::threaded`] at construction.
    threads: usize,
    /// Scratch for the per-core schedules (avoids a per-cycle
    /// allocation).
    scans: Vec<(TileMask, Option<u64>)>,
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
        const _: () = assert!(trips_mem::MAX_CORES <= MAX_TAGS, "core tags must fit the tag space");
        cfg.validate()?;
        let n = cfg.cores.len();
        let cores =
            cfg.cores.iter().cloned().map(Processor::try_new).collect::<Result<Vec<_>, _>>()?;
        let sys = Chip::build_sys(&cfg);
        let banks = sys.geometry().banks();
        let threads = if cfg.threaded == Some(true) { n } else { 1 };
        Ok(Chip {
            cores,
            sys,
            arb: BankArb::new(banks),
            cfg,
            rr: 0,
            cycle: 0,
            finished: vec![None; n],
            threads,
            scans: vec![(0, None); n],
        })
    }

    fn build_sys(cfg: &ChipConfig) -> SecondarySystem {
        let n = cfg.cores.len();
        let mut sys = if cfg.shared_memory {
            SecondarySystem::for_cores_shared(cfg.mem.clone(), n)
        } else {
            SecondarySystem::for_cores(cfg.mem.clone(), n)
        };
        if let Some(plan) = &cfg.cores[0].faults {
            sys.set_ocn_fault(plan.ocn_fault().as_ref());
        }
        for (k, core_cfg) in cfg.cores.iter().enumerate() {
            for port in MemSys::ports_for_core(k, n).ports(core_cfg.geometry) {
                sys.set_port_tag(port, k as u8);
            }
        }
        sys
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
        &self.sys
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
        assert_eq!(images.len(), self.cores.len(), "one image slot per core");
        assert!(images.iter().any(Option::is_some), "at least one slot must be live");
        let n = self.cores.len();
        // Reset chip-level state for back-to-back runs.
        self.sys = Chip::build_sys(&self.cfg);
        self.arb = BankArb::new(self.sys.geometry().banks());
        self.rr = 0;
        self.cycle = 0;
        self.finished = vec![None; n];
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
            // `start` rebuilt the core-owned backend from its config;
            // a chip core instead adapts to the shared system.
            let geom = self.cfg.cores[k].geometry;
            core.memsys = MemSys::shared(k, n, geom, self.cfg.shared_memory, &core.nets.wake);
            core.refile();
        }
        if self.cfg.shared_memory {
            // One physical address space: every core's memory replica
            // is the union of every live image, loaded in slot order —
            // identical across cores by construction, which is the
            // value plane's starting condition (store propagation
            // keeps the replicas identical from here on).
            for core in self.cores.iter_mut() {
                core.mem = trips_isa::mem::SparseMem::new();
                for image in images.iter().flatten() {
                    core.mem.load_image(image);
                }
            }
        }
        for (k, image) in images.iter().enumerate() {
            if image.is_none() {
                self.finished[k] = Some(CoreStats::default());
            }
        }
        let check = self.cfg.cores.iter().any(|c| c.check_invariants);
        while !self.cores.iter().all(Processor::halted) {
            if self.cycle >= max_cycles {
                let k = self.cores.iter().position(|c| !c.halted()).expect("an unhalted core");
                return Err(SimError::Timeout {
                    cycles: self.cycle,
                    blocks_committed: self.cores[k].stats.blocks_committed,
                    diagnosis: Box::new(self.cores[k].diagnose()),
                });
            }
            self.tick_until(max_cycles);
            if check {
                self.check_invariants()?;
            }
            for k in 0..self.cores.len() {
                if self.cores[k].halted() && self.finished[k].is_none() {
                    self.cores[k].memsys.absorb_sys(&self.sys);
                    self.finished[k] = Some(self.cores[k].finish_stats());
                }
            }
        }
        let stats = self.collect_stats();
        if check {
            // Leak check, as in the solo path: after every core halts,
            // the whole chip — cores and the shared system — must
            // drain.
            if !self.drain(10_000) {
                return Err(SimError::Invariant {
                    cycle: self.cycle,
                    violation: format!(
                        "chip failed to quiesce within 10000 cycles after halt: {}",
                        self.cores
                            .iter()
                            .map(|c| c.diagnose().summary())
                            .collect::<Vec<_>>()
                            .join("; ")
                    ),
                });
            }
            self.check_invariants()?;
        }
        Ok(stats)
    }

    fn collect_stats(&mut self) -> ChipStats {
        let tag_hw = self.sys.ocn_tag_highwater();
        let tag_counts = self.sys.ocn_tag_counts();
        let n = self.cores.len();
        ChipStats {
            cores: self.finished.iter().map(|s| s.clone().expect("core finished")).collect(),
            cycles: self.cycle,
            bank_conflict_stalls: self.arb.conflict_stalls.clone(),
            ocn_tag_highwater: tag_hw[..n].to_vec(),
            ocn_tag_counts: tag_counts[..n].to_vec(),
            coherence: self.cfg.shared_memory.then(|| self.sys.coherence()),
        }
    }

    /// One chip cycle: every core's tiles and micronets tick (a
    /// halted core is near-quiesced, so its gated tick is cheap and
    /// lets it keep consuming late completions), then the shared
    /// memory phase runs — inject per core in rotating priority
    /// order, tick the OCN and banks once, drain responses per core.
    /// The phase is skipped entirely when every adapter is quiet,
    /// mirroring the solo fast path.
    ///
    /// **Epoch skipping.** Cores of a chip must stay in lockstep, so
    /// a core never fast-forwards on its own; instead the chip takes
    /// every core's schedule up front and, when *all* of them report
    /// no runnable tile, jumps the whole chip — every core's clock,
    /// the rotating injection priority, and the chip cycle — to the
    /// earliest wake across the cores and the shared system's own
    /// bank timers (the same `skip_target` decision a solo core
    /// makes, clamped to `horizon` the same way: a jump that lands on
    /// it returns without ticking). A `Reference` core's mask is
    /// never empty, so a chip that seats one never skips. The
    /// priority counter advances by the skipped span exactly as it
    /// would have cycle-by-cycle, so arbitration after a skip is
    /// bit-identical.
    ///
    /// **Threading.** With `ChipConfig::threaded: Some(true)` the
    /// per-core tick phase runs on `trips_harness` scoped threads (one
    /// core per worker); cores touch only their own state during that
    /// phase — a `Shared` memsys tick is a no-op — so the join before
    /// the shared-system phase is the only synchronization needed, and
    /// threaded/serial schedules are bit-identical.
    fn tick_until(&mut self, horizon: u64) {
        let n = self.cores.len();
        loop {
            let now = self.cycle;
            for (scan, core) in self.scans.iter_mut().zip(&self.cores) {
                *scan = core.schedule(now);
            }
            let idle = self.scans.iter().all(|&(mask, _)| mask == 0);
            let wake =
                self.scans.iter().filter_map(|&(_, w)| w).chain(self.sys.next_event(now)).min();
            let Some(w) = skip_target(now, idle, wake, horizon) else {
                break;
            };
            for core in &mut self.cores {
                core.skip_to(w);
            }
            self.rr = (self.rr + (w - now) as usize) % n;
            self.cycle = w;
            if w == horizon {
                return;
            }
        }
        let now = self.cycle;
        if self.threads > 1 {
            // A halted core ticks too: its clock stays in lockstep
            // and its tiles consume still-arriving completions (its
            // stats were snapshotted the cycle it halted).
            let cores = std::mem::take(&mut self.cores);
            let jobs: Vec<(Processor, TileMask)> =
                cores.into_iter().zip(self.scans.iter().map(|&(m, _)| m)).collect();
            self.cores = trips_harness::parallel_map(jobs, self.threads, |(mut core, mask)| {
                core.tick_with_mask(mask);
                core
            });
        } else {
            for (k, core) in self.cores.iter_mut().enumerate() {
                core.tick_with_mask(self.scans[k].0);
            }
        }
        if self.cfg.shared_memory {
            self.propagate_stores(now);
        }
        if self.cores.iter().any(|c| !c.memsys.quiet()) {
            self.arb.begin_cycle();
            for i in 0..n {
                let k = (self.rr + i) % n;
                let Processor { memsys, tracer, .. } = &mut self.cores[k];
                memsys.shared_inject(now, &mut self.sys, tracer, &mut self.arb, k as u8);
            }
            self.sys.tick(now);
            for core in &mut self.cores {
                let Processor { memsys, tracer, .. } = core;
                memsys.shared_drain(now, &mut self.sys, tracer);
            }
        }
        self.rr = (self.rr + 1) % n;
        self.cycle += 1;
    }

    /// The value plane of the coherent chip: every store drained at
    /// commit this cycle is applied to **every** core's memory
    /// replica — the writer's included — in one global order (writer
    /// core index, then drain order within the core), so same-cycle
    /// conflicting stores resolve identically everywhere and the
    /// replicas stay byte-for-byte equal. A serial phase, run after
    /// the (possibly threaded) core-tick join. Remote cores also take
    /// the speculation repair: cached copies of the touched lines are
    /// dropped, in-flight fills poisoned, and any speculatively
    /// performed overlapping load squashed via a violation flush.
    fn propagate_stores(&mut self, now: u64) {
        for k in 0..self.cores.len() {
            let props = self.cores[k].memsys.take_propagations();
            for (ea, val, bytes) in props {
                for j in 0..self.cores.len() {
                    self.cores[j].mem.write_uint(ea, val, bytes as u32);
                    if j != k {
                        self.cores[j].shared_invalidate(now, ea, bytes);
                    }
                }
            }
        }
    }

    /// Ticks until every core quiesces (or `budget` cycles elapse —
    /// cycle-denominated, so an epoch-skipping drain covers the same
    /// simulated span as a cycle-by-cycle one); returns whether the
    /// chip quiesced.
    pub fn drain(&mut self, budget: u64) -> bool {
        let end = self.cycle.saturating_add(budget);
        while self.cycle < end {
            if self.quiesced() {
                return true;
            }
            self.tick_until(end);
        }
        self.quiesced()
    }

    /// True when every core has quiesced and nothing is left in the
    /// shared system.
    pub fn quiesced(&self) -> bool {
        self.cores.iter().all(Processor::quiesced) && self.sys.in_system() == 0
    }

    /// Chip-level conservation plus every core's own invariant suite:
    /// the shared OCN's packet accounting balances, and the cores'
    /// accepted-but-undelivered requests sum to exactly what the
    /// system holds (no response can be lost *or* misdelivered to
    /// another core's port without this failing).
    ///
    /// # Errors
    ///
    /// The first violated invariant as a [`SimError::Invariant`].
    pub fn check_invariants(&self) -> Result<(), SimError> {
        for (k, core) in self.cores.iter().enumerate() {
            core.check_invariants().map_err(|v| SimError::Invariant {
                cycle: v.cycle,
                violation: format!("core {k}: {}", v.detail),
            })?;
        }
        self.audit().map_err(|e| SimError::Invariant { cycle: self.cycle, violation: e })?;
        if self.cfg.shared_memory {
            self.check_coherence()
                .map_err(|e| SimError::Invariant { cycle: self.cycle, violation: e })?;
        }
        Ok(())
    }

    /// The coherence invariant suite, run every checked tick of a
    /// shared-memory chip (see DESIGN.md §5g for the arguments):
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
    fn check_coherence(&self) -> Result<(), String> {
        let views = self.sys.dir_views();
        let coh = self.sys.coherence();
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
        for (k, core) in self.cores.iter().enumerate() {
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
        if mid_inval != self.sys.dir_deferred() {
            return Err(format!(
                "deferred-ack conservation broken: {mid_inval} entries mid-invalidation != \
                 {} parked write acks",
                self.sys.dir_deferred()
            ));
        }
        Ok(())
    }

    /// The chip-wide conservation audit (see
    /// [`Chip::check_invariants`]).
    ///
    /// # Errors
    ///
    /// A description of the first violated accounting equation.
    pub fn audit(&self) -> Result<(), String> {
        self.sys.audit().map_err(|e| format!("OCN: {e}"))?;
        let (issued, delivered) = self
            .cores
            .iter()
            .map(|c| c.memsys.flow())
            .fold((0u64, 0u64), |(i, d), (ci, cd)| (i + ci, d + cd));
        // Coherence tokens (invalidations and their acks) travel the
        // OCN outside the request/response ledger, and a write ack
        // parked at the directory mid-invalidation is *outside* the
        // system until released — both terms are zero on a
        // non-coherent chip, degenerating to the original equation.
        let in_system = self.sys.in_system() as i64;
        let flow = issued as i64 - delivered as i64;
        let expect = in_system - self.sys.coh_tokens_in_system() + self.sys.dir_deferred() as i64;
        if flow != expect {
            return Err(format!(
                "chip conservation broken: Σissued {issued} - Σdelivered {delivered} \
                 != in-system {in_system} - coherence tokens {} + parked acks {}",
                self.sys.coh_tokens_in_system(),
                self.sys.dir_deferred()
            ));
        }
        Ok(())
    }
}
