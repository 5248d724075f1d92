//! The assembled processor: one GT, a column of ITs, a row of RTs, an
//! ET array, and a column of DTs (sized by [`CoreGeometry`]; the
//! prototype is 1 + 5 + 4 + 16 + 4), plus the seven micronetworks
//! connecting them. A solo NUCA core also owns its NUCA; running,
//! ticking and draining lend both to the die loop in [`crate::chip`].

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use trips_isa::mem::SparseMem;
use trips_isa::{ArchReg, ProgramImage};
use trips_micronet::MeshStats;

use crate::chip::{self, Die};
use crate::config::{CoreConfig, TickMode, TileMask};
use crate::critpath::CritPath;
use crate::diag::{HangReport, TileDiag};
use crate::dt::DataTile;
use crate::et::ExecTile;
use crate::gt::GlobalTile;
use crate::invariants::InvariantViolation;
use crate::it::InstTile;
use crate::memsys::{MemSys, Nuca};
use crate::msg::TileId;
use crate::nets::Nets;
use crate::profile::{TickPhase, TickProfile};
use crate::rt::RegTile;
use crate::stats::CoreStats;
use crate::trace::Tracer;

/// Errors from running the processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run did not halt within the cycle budget.
    Timeout {
        /// Cycles simulated.
        cycles: u64,
        /// Blocks committed before the timeout.
        blocks_committed: u64,
        /// Where the work got stuck: every in-flight frame, every tile
        /// holding queued work, and every micronetwork with an
        /// undelivered message (boxed — it is much larger than the
        /// happy path needs).
        diagnosis: Box<HangReport>,
    },
    /// A protocol invariant failed (only possible when
    /// [`CoreConfig::check_invariants`] is on — see
    /// [`crate::invariants`] for the catalogue).
    Invariant {
        /// Cycle at which the check failed.
        cycle: u64,
        /// The violated property.
        violation: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout { cycles, blocks_committed, diagnosis } => {
                writeln!(
                    f,
                    "timeout after {cycles} cycles ({blocks_committed} blocks committed); \
                     {}",
                    diagnosis.summary()
                )?;
                write!(f, "{diagnosis}")
            }
            SimError::Invariant { cycle, violation } => {
                write!(f, "protocol invariant violated at cycle {cycle}: {violation}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Host-side clock-gating counters.
///
/// Deliberately kept *outside* [`CoreStats`]: gating is a host
/// optimization, and the `Fast`/`Reference` equivalence suite compares
/// whole `CoreStats` values bit-for-bit — these counters necessarily
/// differ between the two schedules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatingStats {
    /// Tile ticks executed (the tile's activity-mask bit was set).
    pub ticks_run: u64,
    /// Tile ticks skipped because the tile was provably inactive —
    /// including every tile of every epoch-skipped cycle, so
    /// [`gated_fraction`](GatingStats::gated_fraction) keeps meaning
    /// "fraction of tile-cycles the host did not simulate".
    pub ticks_gated: u64,
    /// Whole cycles fast-forwarded by the epoch-skipping scheduler.
    pub cycles_skipped: u64,
    /// Fast-forward jumps taken (each covers ≥ 1 skipped cycle).
    pub epochs_skipped: u64,
}

impl GatingStats {
    /// Fraction of tile ticks skipped, in `[0, 1]`.
    pub fn gated_fraction(&self) -> f64 {
        let total = self.ticks_run + self.ticks_gated;
        if total == 0 {
            0.0
        } else {
            self.ticks_gated as f64 / total as f64
        }
    }
}

/// A TRIPS processor core.
pub struct Processor {
    pub(crate) cfg: CoreConfig,
    pub(crate) gt: GlobalTile,
    pub(crate) its: Vec<InstTile>,
    pub(crate) rts: Vec<RegTile>,
    pub(crate) ets: Vec<ExecTile>,
    pub(crate) dts: Vec<DataTile>,
    pub(crate) nets: Nets,
    pub(crate) memsys: MemSys,
    /// The NUCA a solo core whose backend names one owns and ticks
    /// itself; `None` behind a perfect L2 and on every chip core, whose
    /// NUCA is the chip's.
    pub(crate) nuca: Option<Box<Nuca>>,
    /// The memory this core loads from and stores to: its own on a
    /// solo core or a multiprogrammed chip, one store shared by every
    /// core of a coherent chip (each holds a clone of the one handle).
    pub(crate) mem: Rc<RefCell<SparseMem>>,
    pub(crate) crit: CritPath,
    pub(crate) stats: CoreStats,
    pub(crate) tracer: Tracer,
    pub(crate) gating: GatingStats,
    pub(crate) profile: TickProfile,
    pub(crate) cycle: u64,
}

impl Processor {
    /// [`Processor::try_new`], panicking with its error.
    pub fn new(cfg: CoreConfig) -> Processor {
        Processor::try_new(cfg).unwrap_or_else(|e| panic!("invalid CoreConfig: {e}"))
    }

    /// A processor with the given configuration, built for a run from
    /// address 0 ([`Processor::run`] rebuilds it for its image).
    ///
    /// # Errors
    ///
    /// What [`CoreConfig::validate`] rejects.
    pub fn try_new(cfg: CoreConfig) -> Result<Processor, String> {
        cfg.validate()?;
        Ok(Processor::build(cfg, 0, Tracer::disabled(), TickProfile::disabled()))
    }

    /// Every tile, network and counter built fresh for a run from
    /// `entry`: the one builder behind [`Processor::try_new`] and each
    /// run's reset. Only the configuration and the recorders (emptied)
    /// carry over.
    fn build(
        cfg: CoreConfig,
        entry: u64,
        mut tracer: Tracer,
        mut profile: TickProfile,
    ) -> Processor {
        let g = cfg.geometry;
        let nets = Nets::new(&cfg);
        tracer.clear();
        profile.clear();
        let mut p = Processor {
            gt: GlobalTile::new(&cfg, entry),
            its: (0..g.num_its()).map(InstTile::new).collect(),
            rts: (0..g.num_rts()).map(|b| RegTile::new(b as u8, g)).collect(),
            ets: (0..g.et_rows)
                .flat_map(|r| (0..g.et_cols).map(move |c| ExecTile::new(r as u8, c as u8, g)))
                .collect(),
            dts: (0..g.num_dts()).map(|d| DataTile::new(d as u8, &cfg)).collect(),
            memsys: MemSys::new(&cfg, &nets.wake),
            nuca: Nuca::solo(&cfg),
            nets,
            mem: Rc::default(),
            crit: CritPath::new(cfg.critpath),
            stats: CoreStats::default(),
            tracer,
            gating: GatingStats::default(),
            profile,
            cycle: 0,
            cfg,
        };
        p.refile();
        p
    }

    /// Every tile's wake-table entry recomputed from the tile's own
    /// state and inbox heads, in table order (GT, ITs, RTs, ETs, DTs —
    /// [`CoreGeometry::tile_bit`](crate::CoreGeometry::tile_bit)'s layout).
    fn dues(&self) -> impl Iterator<Item = u64> + '_ {
        let (nets, memsys) = (&self.nets, &self.memsys);
        std::iter::once(self.gt.due(nets))
            .chain(self.its.iter().map(move |t| t.due(nets, memsys)))
            .chain(self.rts.iter().map(move |t| t.due(nets)))
            .chain(self.ets.iter().map(move |t| t.due(nets)))
            .chain(self.dts.iter().map(move |t| t.due(nets, memsys)))
    }

    /// Re-files the whole wake table from scratch — for whoever edits
    /// tile state from outside a tick (reset, the chip parking a core
    /// or swapping its memory adapter).
    pub(crate) fn refile(&mut self) {
        for (i, due) in self.dues().enumerate() {
            self.nets.wake.set(i, due);
        }
    }

    /// The wake-table audit: every filed entry must agree with the
    /// from-scratch recomputation on *whether* its tile is due at the
    /// current cycle and, if not, on *when*. A push site that forgot to
    /// file (the tile would sleep through its event) and a stale entry
    /// (a spurious tick) both fail here.
    pub(crate) fn audit_wake_table(&self) -> Result<(), String> {
        let now = self.cycle;
        for (i, (filed, fresh)) in self.nets.wake.iter().zip(self.dues()).enumerate() {
            if filed.max(now) != fresh.max(now) {
                return Err(format!(
                    "wake table entry {i} is filed due at {filed} but its tile's state and \
                     inboxes say {fresh} (u64::MAX = asleep)"
                ));
            }
        }
        Ok(())
    }

    /// Turns on the flight recorder with a ring buffer of `capacity`
    /// events (the recorder survives [`Processor::run`]'s reset, but
    /// each run starts from an empty buffer).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Tracer::enabled_with(capacity, self.cfg.geometry);
    }

    /// The flight recorder (empty unless tracing is enabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Turns on the per-phase tick profiler (see [`TickProfile`]).
    /// Like the tracer, the enabled state survives [`Processor::run`]'s
    /// reset but each run starts its counts from zero. Profiling only
    /// reads the host clock — profiled runs are architecturally
    /// identical to unprofiled ones.
    pub fn enable_profiling(&mut self) {
        self.profile = TickProfile::enabled();
    }

    /// The per-phase tick profile (all zeros unless
    /// [enabled](Processor::enable_profiling)).
    pub fn profile(&self) -> &TickProfile {
        &self.profile
    }

    /// Total frames examined by the work-list-driven tile walks (RT
    /// and DT frame advancement, ET select) since construction.
    /// Host-side observability only — not part of [`CoreStats`], so
    /// it never participates in bit-identity comparisons. The
    /// gating-equivalence tests use it to prove the dirty-frame lists
    /// are non-vacuous: under [`TickMode::Fast`] real workloads must
    /// examine strictly fewer frames than `Reference`'s full scans.
    pub fn work_list_visits(&self) -> u64 {
        self.rts.iter().map(|t| t.advance_visits).sum::<u64>()
            + self.dts.iter().map(|t| t.advance_visits).sum::<u64>()
            + self.ets.iter().map(|t| t.select_visits).sum::<u64>()
    }

    /// The simulated memory (for inspecting results after a run): the
    /// core's own, or on a coherent chip the one store every core
    /// shares. Only a tick borrows it mutably, and only while it runs.
    pub fn memory(&self) -> Ref<'_, SparseMem> {
        self.mem.borrow()
    }

    /// An architectural register value (thread 0).
    pub fn arch_reg(&self, reg: ArchReg) -> u64 {
        let g = self.cfg.geometry;
        self.rts[g.reg_bank(reg.num())].arch_reg(g.reg_index(reg.num()) as u8)
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Clock-gating counters for the current/most recent run.
    pub fn gating_stats(&self) -> GatingStats {
        self.gating
    }

    /// Runs `image` from its entry block until a `halt` branch commits
    /// or `max_cycles` elapse, as the one core of its die.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] if the program does not halt in budget,
    /// [`SimError::Invariant`] if a checked run breaks an invariant.
    pub fn run(&mut self, image: &ProgramImage, max_cycles: u64) -> Result<CoreStats, SimError> {
        self.start(image);
        self.on_die(|die| die.run(max_cycles, |_, mut stats| stats.pop().expect("one core")))
    }

    /// Lends the core, and its own NUCA if it has one, to `f` as the
    /// one core of its die: the NUCA is taken out for the call and put
    /// back afterwards.
    fn on_die<R>(&mut self, f: impl FnOnce(&mut Die<'_>) -> R) -> R {
        let mut nuca = self.nuca.take();
        let out = f(&mut Die::new(std::slice::from_mut(self), nuca.as_deref_mut()));
        self.nuca = nuca;
        out
    }

    /// Resets the core and loads `image`: the first half of
    /// [`Processor::run`], split out so a [`Chip`](crate::chip::Chip)
    /// can prepare every core before the die's run loop starts.
    pub(crate) fn start(&mut self, image: &ProgramImage) {
        let tracer = std::mem::take(&mut self.tracer);
        let profile = std::mem::take(&mut self.profile);
        // Free the finished run's tiles before building the next run's,
        // so the two sets are never resident together (peak memory).
        (self.its, self.rts, self.ets, self.dts) = Default::default();
        *self = Processor::build(self.cfg.clone(), image.entry, tracer, profile);
        self.mem.replace(SparseMem::from_image(image));
    }

    /// Whether the GT has committed a `halt` branch.
    pub(crate) fn halted(&self) -> bool {
        self.gt.halted
    }

    /// The invalidation half of the chip's value-plane store
    /// propagation, run on every core *except* the writer (whose own
    /// younger loads already forwarded from its LSQ): each DT homing a line the
    /// store touched drops/poisons its copy and raises a violation
    /// flush for any speculatively performed overlapping load.
    pub(crate) fn shared_invalidate(&mut self, now: u64, ea: u64, bytes: usize) {
        // The first line's DT, and the last line's when it differs.
        let dt_of = |line: u64| (line % self.cfg.geometry.num_dts() as u64) as usize;
        let (first, last) = (dt_of(ea >> 6), dt_of(ea.wrapping_add(bytes as u64 - 1) >> 6));
        for d in std::iter::once(first).chain((last != first).then_some(last)) {
            self.dts[d].shared_invalidate(
                now,
                ea,
                bytes,
                &mut self.nets,
                &mut self.stats,
                &mut self.tracer,
            );
            // Edited from outside its tick: the DT re-files.
            let bit = self.cfg.geometry.tile_bit(TileId::Dt(d as u8));
            self.nets.wake.set(bit as usize, self.dts[d].due(&self.nets, &self.memsys));
        }
    }

    /// Finalizes and snapshots the run statistics, called by the die's
    /// run loop at halt time (after its NUCA's [`Nuca::fold_stats`],
    /// before any post-halt drain ticks, so the counters describe the
    /// program run).
    pub(crate) fn finish_stats(&mut self) -> CoreStats {
        self.stats.cycles = self.cycle;
        self.stats.opn = self.nets.opn.iter().fold(MeshStats::default(), |mut acc, m| {
            acc.merge(&m.stats);
            acc
        });
        // Inject stalls are counted once, at the outbox (the outbox
        // only calls `inject` after `can_inject`, so the meshes' own
        // `inject_fails` would double-count any raw-inject user if it
        // were added here — see `Nets::inject_stalls`).
        self.stats.protocol.opn_inject_stalls = self.nets.inject_stalls();
        self.stats.protocol.opn_inflight_highwater = self.nets.opn_highwater.clone();
        self.stats.mem = self.memsys.stats_snapshot();
        if self.crit.enabled() {
            self.stats.critpath = Some(self.crit.walk(self.gt.final_ev));
            self.stats.critpath_events = self.crit.len() as u64;
        }
        self.stats.clone()
    }

    /// Ticks the core until it and its own NUCA, if any,
    /// [quiesce](Self::quiesced) or `budget` cycles elapse; returns
    /// whether they did. Available to tests that stop the clock by
    /// hand.
    pub fn drain(&mut self, budget: u64) -> bool {
        self.on_die(|die| die.drain(budget))
    }

    /// Runs the per-tick protocol invariant suite against the current
    /// state: the core's own (see [`crate::invariants`]) and, on a solo
    /// NUCA core, its NUCA's conservation audit.
    ///
    /// # Errors
    ///
    /// The first violated invariant, with the current cycle.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        chip::check(std::slice::from_ref(self), self.nuca.as_deref())
    }

    /// Snapshots which frames, tiles, and micronetworks still hold
    /// work — the hang diagnoser behind [`SimError::Timeout`], also
    /// callable directly when stepping the clock by hand.
    pub fn diagnose(&self) -> HangReport {
        let mut tiles = Vec::new();
        for (i, it) in self.its.iter().enumerate() {
            if let Some(detail) = it.diag() {
                tiles.push(TileDiag { tile: format!("IT{i}"), detail });
            }
        }
        for (b, rt) in self.rts.iter().enumerate() {
            if let Some(detail) = rt.diag() {
                tiles.push(TileDiag { tile: format!("RT{b}"), detail });
            }
        }
        for (i, et) in self.ets.iter().enumerate() {
            if let Some(detail) = et.diag() {
                let cols = self.cfg.geometry.et_cols;
                tiles.push(TileDiag { tile: format!("ET({},{})", i / cols, i % cols), detail });
            }
        }
        for (d, dt) in self.dts.iter().enumerate() {
            if let Some(detail) = dt.diag() {
                tiles.push(TileDiag { tile: format!("DT{d}"), detail });
            }
        }
        if let Some(detail) = self.memsys.diag() {
            tiles.push(TileDiag { tile: "MemSys".into(), detail });
        }
        HangReport {
            cycle: self.cycle,
            frames_in_flight: self.gt.in_flight(),
            frames: self.gt.frame_diags(),
            tiles,
            nets: self.nets.diags(self.cycle),
        }
    }

    /// True when every tile and network has drained (no queued work
    /// besides architectural state) — useful for tests that stop the
    /// clock manually. With the nets idle no message can wake a tile,
    /// so what remains is each tile's own `busy()` (the IT's is
    /// `!idle()`) and the memory system.
    pub fn quiesced(&self) -> bool {
        self.nets.idle()
            && !self.gt.busy()
            && self.its.iter().all(InstTile::idle)
            && !self.rts.iter().any(RegTile::busy)
            && !self.ets.iter().any(ExecTile::busy)
            && !self.dts.iter().any(DataTile::busy)
            && self.memsys.quiet()
    }

    /// A diagnostic snapshot for debugging hangs.
    pub fn dump(&self) -> String {
        format!("cycle {}\n{}", self.cycle, self.gt.dump())
    }

    /// The cycle's tile activity mask and the earliest *future* cycle
    /// anything in the core can act (`None`: only a new external event
    /// could), read off the wake table.
    ///
    /// Entry `i` is the earliest cycle tile `i` can make progress: its
    /// own timers, the heads of its chain inboxes, "now" for an
    /// undrained OPN delivery or memory completion. Nobody polls for
    /// it — each source lowers its consumer's entry where it creates
    /// the event ([`Chain`](trips_micronet::Chain) sends,
    /// [`Mesh`](trips_micronet::Mesh) ejections, memory-system
    /// completions), and a tile that ticked overwrites its own entry
    /// from its state on the way out. A tile that did not tick changed
    /// nothing the pushes did not report, so the table always equals
    /// the from-scratch recomputation (the invariant suite checks
    /// exactly that: [`Processor::check_invariants`]).
    ///
    /// A message still in flight wakes its tile at arrival, not before
    /// — a tick whose only stimulus is an immature message is a
    /// provable no-op. Every micronet has at least one cycle of
    /// latency, so anything a tile sends this cycle matures next cycle
    /// at the soonest: a mask read at cycle start is complete.
    ///
    /// The OPN meshes and the memory adapter own no entry; they fold in
    /// as `now` whenever they must tick this cycle (packets in routers,
    /// injections or completions pending), or as their earliest timer.
    /// The NUCA behind the adapter is the die's, which folds its timers
    /// beside every core's.
    fn due_tiles(&self, now: u64) -> (TileMask, Option<u64>) {
        // `wake` is consumed only when the mask comes out empty, i.e.
        // when every entry is in the future — so folding all of them
        // needs no branch.
        let (mask, mut wake) = self.nets.wake.due_mask(now);
        let meshes = self.nets.opn.iter().filter_map(|m| m.next_event(now));
        for t in meshes.chain(self.memsys.next_event(now)) {
            wake = wake.min(t.max(now));
        }
        (mask, (wake != u64::MAX).then_some(wake))
    }

    /// The earliest future cycle at which anything in this core, or its
    /// own NUCA, can act; `None` when it is fully quiescent (or can act
    /// *now*).
    pub fn next_wake(&self) -> Option<u64> {
        let now = self.cycle;
        let (mask, wake) = self.due_tiles(now);
        if mask != 0 {
            return Some(now);
        }
        let nuca = self.nuca.as_ref().and_then(|n| n.next_event(now)).map(|t| t.max(now));
        wake.into_iter().chain(nuca).min()
    }

    /// Books the gating accounting for fast-forwarding from the
    /// current cycle to `w` (exclusive): every tile of every skipped
    /// cycle counts as gated, keeping `gated_fraction` meaningful.
    pub(crate) fn skip_to(&mut self, w: u64) {
        debug_assert!(w > self.cycle);
        let skipped = w - self.cycle;
        self.gating.ticks_gated += self.cfg.geometry.tile_ticks() as u64 * skipped;
        self.gating.cycles_skipped += skipped;
        self.gating.epochs_skipped += 1;
        self.cycle = w;
    }

    /// This cycle's activity mask and earliest future wake under the
    /// core's schedule: the [wake table](Self::due_tiles)'s under
    /// [`TickMode::Fast`]; every tile and no wake to jump to under
    /// [`TickMode::Reference`] (so a `Reference` core never skips, and
    /// neither does a die that seats one).
    pub(crate) fn schedule(&self, now: u64) -> (TileMask, Option<u64>) {
        match self.cfg.tick_mode {
            TickMode::Fast => self.due_tiles(now),
            TickMode::Reference => (self.cfg.geometry.full_mask(), None),
        }
    }

    /// Advances one cycle, as the one core of its die (with its own
    /// NUCA, if it has one).
    ///
    /// The cycle starts from its schedule (the wake table under
    /// [`TickMode::Fast`], every tile under [`TickMode::Reference`]):
    /// each tile whose mask bit is clear is skipped, and a cycle in
    /// which *no* tile can act and every wake source is in the future
    /// first fast-forwards `cycle` to the earliest wake instead of
    /// grinding the intervening no-op cycles (provably inert: no tile
    /// can progress, the meshes are empty, and the memory system's
    /// earliest timer is the wake itself). Both schedules are
    /// bit-identical in architectural state and `CoreStats` (enforced
    /// by the `gating_equivalence` test suite).
    pub fn tick(&mut self) {
        self.on_die(|die| die.tick_until(u64::MAX));
    }

    /// Advances the core's half of one cycle with a precomputed
    /// activity mask: ticks exactly the tiles whose bit is set — each
    /// re-filing its wake entry on the way out — then the micronets.
    /// The die computes every core's mask up front, so it can decide
    /// an epoch skip across all of them before committing any core to
    /// a tick, and runs the NUCA's memory phase after every core has
    /// ticked.
    pub(crate) fn tick_with_mask(&mut self, mask: TileMask) {
        let now = self.cycle;
        let Processor { cfg, gt, its, rts, ets, dts, nets, memsys, mem, crit, stats, .. } = self;
        let Processor { tracer, profile, gating, .. } = self;
        let mut guard = mem.borrow_mut();
        let mem = &mut *guard;
        // Mask bits — and wake-table entries — run in tick order: GT,
        // ITs, RTs, ETs, DTs (`CoreGeometry::tile_bit`). Each group
        // walks only its set bits, ascending: the due tiles tick in the
        // order a walk over every tile would have ticked them.
        if mask & 1 != 0 {
            gt.tick(now, cfg, nets, crit, stats, mem, tracer, profile);
            nets.wake.set(0, gt.due(nets));
        }
        let first = 1;
        let tp = profile.begin();
        for i in group_bits(mask, first, its.len()) {
            its[i].tick(now, cfg, nets, mem, memsys, tracer);
            nets.wake.set(first + i, its[i].due(nets, memsys));
        }
        profile.end(TickPhase::It, tp);
        let first = first + its.len();
        let tp = profile.begin();
        for i in group_bits(mask, first, rts.len()) {
            rts[i].tick(now, cfg, nets, crit, stats, tracer);
            nets.wake.set(first + i, rts[i].due(nets));
        }
        profile.end(TickPhase::Rt, tp);
        let first = first + rts.len();
        let tp = profile.begin();
        for i in group_bits(mask, first, ets.len()) {
            ets[i].tick(now, cfg, nets, crit, stats, tracer);
            nets.wake.set(first + i, ets[i].due(nets));
        }
        profile.end(TickPhase::Et, tp);
        let first = first + ets.len();
        let tp = profile.begin();
        for i in group_bits(mask, first, dts.len()) {
            dts[i].tick(now, cfg, nets, crit, stats, mem, memsys, tracer);
            nets.wake.set(first + i, dts[i].due(nets, memsys));
        }
        profile.end(TickPhase::Dt, tp);
        let run = u64::from(mask.count_ones());
        gating.ticks_run += run;
        gating.ticks_gated += cfg.geometry.tile_ticks() as u64 - run;
        let tp = profile.begin();
        nets.tick(now);
        profile.end(TickPhase::Nets, tp);
        self.cycle += 1;
    }
}

/// The set bits of `mask` among entries `first..first + n`, ascending,
/// as offsets from `first`: one tile group's share of a cycle's
/// activity mask.
fn group_bits(mask: TileMask, first: usize, n: usize) -> impl Iterator<Item = usize> {
    let mut bits = (mask >> first) & !(TileMask::MAX << n);
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{FrameId, OpnPayload};
    use crate::nets::OpnOutbox;
    use trips_isa::semantics::Tok;
    use trips_isa::OperandSlot;
    use trips_tasm::{compile, ProgramBuilder, Quality};

    fn halt_image() -> ProgramImage {
        let mut p = ProgramBuilder::new();
        let mut f = p.func("main", 0);
        f.halt();
        f.finish();
        compile(&p.finish(), Quality::Hand).expect("compiles").image
    }

    #[test]
    fn try_new_names_the_field_of_every_machine_that_would_panic_or_wedge_later() {
        use crate::chip::{Chip, ChipConfig};
        use crate::config::{CoreGeometry, MemBackend};
        use trips_mem::MemConfig;
        let ok = CoreConfig::prototype;
        // Never met `CoreGeometry::validate`: a struct literal.
        let three_rows = CoreGeometry { et_rows: 3, ..CoreGeometry::prototype() };
        let table = [
            (CoreConfig { opn_networks: 33, ..ok() }, "opn_networks"), // `1u32 << 33` in the outbox
            (CoreConfig { opn_networks: 0, ..ok() }, "opn_networks"),
            (CoreConfig { geometry: three_rows, ..ok() }, "geometry"),
        ];
        for (cfg, field) in table {
            let err = Processor::try_new(cfg.clone()).err().unwrap_or_else(|| panic!("{field}"));
            assert!(err.contains(field), "{field}: {err}");
            let die = ChipConfig::with_cores(2, cfg, MemConfig::prototype());
            let err = Chip::try_new(die).err().unwrap_or_else(|| panic!("chip, {field}"));
            assert!(err.starts_with("core 0: ") && err.contains(field), "{field}: {err}");
        }
        // A NUCA whose bank routing would overflow its shift, as the solo
        // backend and as the chip's shared system.
        let mc = MemConfig { interleave_shift: 64, ..MemConfig::prototype() };
        let solo = CoreConfig { mem_backend: MemBackend::Nuca(mc.clone()), ..ok() };
        let err = Processor::try_new(solo).err().expect("solo, interleave_shift");
        assert!(err.starts_with("mem_backend: ") && err.contains("interleave_shift"), "{err}");
        let err = Chip::try_new(ChipConfig::with_cores(2, ok(), mc)).err().expect("chip mem");
        assert!(err.starts_with("mem: ") && err.contains("interleave_shift"), "{err}");
        assert!(Processor::try_new(ok()).is_ok());
        // A threaded chip is refused, not quietly run serially.
        let threaded = ChipConfig { threaded: Some(true), ..ChipConfig::n_cores(2) };
        let err = Chip::try_new(threaded).err().expect("a threaded chip is refused");
        assert!(err.contains("threaded"), "{err}");
    }

    #[test]
    fn a_push_site_that_stops_filing_is_caught_by_the_audit_within_one_cycle() {
        let mut cpu = Processor::new(CoreConfig::prototype());
        cpu.start(&halt_image());
        // Mute one push site: the GCN keeps delivering, but no longer
        // files its sends with the receiving tiles.
        cpu.nets.gcn.set_wake(None);
        while cpu.nets.gcn.total_sent == 0 {
            cpu.check_invariants().expect("the table is exact until the muted site sends");
            assert!(cpu.cycle < 1_000, "the halt block never committed");
            cpu.tick();
        }
        let err = cpu.check_invariants().expect_err("sleeping tiles were sent a commit wave");
        assert!(err.detail.contains("wake table entry"), "{err}");
        assert_eq!(err.cycle, cpu.cycle, "caught at the end of the sending cycle");
    }

    #[test]
    fn an_operand_parked_in_an_eject_queue_keeps_the_core_unquiesced() {
        let image = halt_image();
        let mut cpu = Processor::new(CoreConfig::prototype());
        cpu.run(&image, 10_000).expect("halts");
        assert!(cpu.drain(1_000) && cpu.quiesced() && cpu.next_wake().is_none());

        // Leak one operand (for a generation no frame will ever have)
        // and run only the mesh until it sits in its eject queue: no
        // router holds it and no tile is busy, so the eject queue is
        // the only thing standing between this core and "quiesced".
        let (src, dst) = (TileId::Et(0, 0), TileId::Et(0, 1));
        let leak = OpnPayload::Operand {
            frame: FrameId(0),
            gen: u32::MAX,
            idx: 0,
            slot: OperandSlot::Left,
            tok: Tok::Val(7),
            ev: 0,
        };
        let mut outbox = OpnOutbox::default();
        outbox.push(dst, leak);
        outbox.flush(&mut cpu.nets, cpu.cycle, src, &mut cpu.tracer);
        let net = cpu.nets.opn_for(dst);
        while cpu.nets.opn[net].in_flight() > 0 {
            cpu.nets.tick(cpu.cycle);
            cpu.cycle += 1;
        }
        assert_eq!(cpu.nets.opn[net].undrained(), 1);
        assert!(!cpu.nets.idle() && !cpu.quiesced(), "a parked operand must not read as drained");
        assert_eq!(cpu.next_wake(), Some(cpu.cycle), "its consumer is runnable now");

        // The ET drops the stale operand on its next tick.
        assert!(cpu.drain(10), "the core drains once the operand is consumed");
        assert!(cpu.next_wake().is_none());
    }
}
