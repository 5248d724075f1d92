//! The per-phase tick profiler.
//!
//! Host time per simulated cycle is a budget: a busy cycle costs
//! single-digit microseconds and the question is always *which phase
//! of the tick* is eating them. The [`TickProfile`] answers it the
//! same way the [`Tracer`](crate::trace::Tracer) answers protocol
//! questions: an instrument threaded through [`Processor::tick`] that
//! is **zero-cost when disabled** — every phase boundary is one branch
//! on a bool ([`TickProfile::begin`] returns `None` and
//! [`TickProfile::end`] does nothing), and the `Instant` reads happen
//! only when profiling is on.
//!
//! Enabled (via [`Processor::enable_profiling`]), it accumulates
//! host-nanoseconds and invocation counts per [`TickPhase`] — the
//! schedule read, the GT's chain-drain / frame-walk / fetch-FSM
//! sub-phases, each other tile kind as a group, the micronets, and the
//! memory system — read back per phase with [`TickProfile::acc`] (the
//! perf ledger's traced runs report them as `core.tick.*`). Profiled
//! runs are architecturally identical to unprofiled ones (the
//! instrument only reads the host clock); wall-clock measurements are
//! taken on separate unprofiled runs so the `Instant` overhead never
//! pollutes the reported throughput.
//!
//! [`Processor::tick`]: crate::Processor::tick
//! [`Processor::enable_profiling`]: crate::Processor::enable_profiling

use std::time::Instant;

/// Phases of one simulated cycle, in tick order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickPhase {
    /// Reading the schedule off the wake table (`schedule`),
    /// including epoch-skip decisions: the die's, booked to its slot 0.
    Scan,
    /// GT: draining the status/branch/refill chain heads.
    GtChains,
    /// GT: the in-flight frame walk (completion, commit, dealloc).
    GtFrames,
    /// GT: the fetch state machine.
    GtFetch,
    /// All instruction tiles.
    It,
    /// All register tiles.
    Rt,
    /// All execution tiles.
    Et,
    /// All data tiles.
    Dt,
    /// The micronetworks (`Nets::tick`).
    Nets,
    /// The die's memory phase (the value plane and the NUCA), booked
    /// to its slot 0.
    MemSys,
}

/// Number of [`TickPhase`] variants.
pub const NUM_PHASES: usize = 10;

impl TickPhase {
    /// Every phase, in tick order.
    pub const ALL: [TickPhase; NUM_PHASES] = [
        TickPhase::Scan,
        TickPhase::GtChains,
        TickPhase::GtFrames,
        TickPhase::GtFetch,
        TickPhase::It,
        TickPhase::Rt,
        TickPhase::Et,
        TickPhase::Dt,
        TickPhase::Nets,
        TickPhase::MemSys,
    ];

    /// Stable snake_case name (the ledger's metric-name stem).
    pub fn name(self) -> &'static str {
        match self {
            TickPhase::Scan => "scan",
            TickPhase::GtChains => "gt_chains",
            TickPhase::GtFrames => "gt_frames",
            TickPhase::GtFetch => "gt_fetch",
            TickPhase::It => "it",
            TickPhase::Rt => "rt",
            TickPhase::Et => "et",
            TickPhase::Dt => "dt",
            TickPhase::Nets => "nets",
            TickPhase::MemSys => "memsys",
        }
    }

    fn index(self) -> usize {
        match self {
            TickPhase::Scan => 0,
            TickPhase::GtChains => 1,
            TickPhase::GtFrames => 2,
            TickPhase::GtFetch => 3,
            TickPhase::It => 4,
            TickPhase::Rt => 5,
            TickPhase::Et => 6,
            TickPhase::Dt => 7,
            TickPhase::Nets => 8,
            TickPhase::MemSys => 9,
        }
    }
}

/// Accumulated cost of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAcc {
    /// Total host nanoseconds spent in the phase.
    pub ns: u64,
    /// Times the phase ran.
    pub calls: u64,
}

/// Accumulated host time per tick phase (see the module docs).
#[derive(Debug, Clone)]
pub struct TickProfile {
    enabled: bool,
    acc: [PhaseAcc; NUM_PHASES],
}

impl TickProfile {
    /// A profiler that records nothing (the default).
    pub fn disabled() -> TickProfile {
        TickProfile { enabled: false, acc: [PhaseAcc::default(); NUM_PHASES] }
    }

    /// A recording profiler.
    pub fn enabled() -> TickProfile {
        TickProfile { enabled: true, acc: [PhaseAcc::default(); NUM_PHASES] }
    }

    /// Whether the profiler is recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drops accumulated counts, keeping the enabled state.
    pub fn clear(&mut self) {
        self.acc = [PhaseAcc::default(); NUM_PHASES];
    }

    /// Marks a phase start: `None` (free) when disabled, the host
    /// clock when recording. Pass the token to [`TickProfile::end`].
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Books the time since `begin` against `phase` (no-op for a
    /// `None` token).
    #[inline]
    pub fn end(&mut self, phase: TickPhase, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.push(phase, t0);
        }
    }

    #[inline(never)]
    fn push(&mut self, phase: TickPhase, t0: Instant) {
        let a = &mut self.acc[phase.index()];
        a.ns += t0.elapsed().as_nanos() as u64;
        a.calls += 1;
    }

    /// The accumulated cost of `phase`.
    pub fn acc(&self, phase: TickPhase) -> PhaseAcc {
        self.acc[phase.index()]
    }
}

impl Default for TickProfile {
    fn default() -> TickProfile {
        TickProfile::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = TickProfile::disabled();
        let t = p.begin();
        assert!(t.is_none(), "disabled begin must not read the clock");
        p.end(TickPhase::Scan, t);
        assert_eq!(p.acc(TickPhase::Scan), PhaseAcc::default());
    }

    #[test]
    fn enabled_profiler_accumulates_per_phase() {
        let mut p = TickProfile::enabled();
        for _ in 0..3 {
            let t = p.begin();
            assert!(t.is_some());
            p.end(TickPhase::Et, t);
        }
        assert_eq!(p.acc(TickPhase::Et).calls, 3);
        assert_eq!(p.acc(TickPhase::Rt).calls, 0);
    }
}
