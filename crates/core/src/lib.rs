//! # trips-core — the TRIPS prototype processor core, cycle by cycle
//!
//! This crate is the reproduction's `tsim-proc`: a cycle-level model
//! of the distributed, tiled TRIPS core of *Distributed
//! Microarchitectural Protocols in the TRIPS Prototype Processor*
//! (MICRO-39, 2006). One [`Processor`] contains:
//!
//! * one **GT** (global control tile): block management, the
//!   next-block predictor, fetch, flush, and commit orchestration;
//! * five **IT**s: L1 I-cache banks streaming dispatch beats to their
//!   rows;
//! * four **RT**s: register banks with per-block read/write queues
//!   that forward values between in-flight blocks;
//! * sixteen **ET**s: single-issue dataflow pipelines with 64
//!   reservation stations each;
//! * four **DT**s: L1 D-cache banks with replicated load/store queues
//!   and memory-side dependence predictors;
//!
//! connected by seven micronetworks (OPN, GDN, GCN, GSN, GRN, DSN —
//! and the ESN, whose store-completion role appears when the NUCA
//! secondary backend is selected: see [`MemBackend`]). All
//! traditionally-centralized functions — fetch, execution, flush,
//! commit — run as the paper's distributed protocols over those
//! networks; there is no global state shared between tiles other than
//! the clock.
//!
//! ## Example
//!
//! ```
//! use trips_core::{CoreConfig, Processor};
//! use trips_tasm::{compile, ProgramBuilder, Quality, Opcode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = ProgramBuilder::new();
//! let mut f = p.func("main", 0);
//! let a = f.iconst(40);
//! let b = f.addi(a, 2);
//! let buf = f.iconst(0x10_0000);
//! f.store(Opcode::Sd, buf, 0, b);
//! f.halt();
//! f.finish();
//! let image = compile(&p.finish(), Quality::Hand)?.image;
//!
//! let mut cpu = Processor::new(CoreConfig::prototype());
//! let stats = cpu.run(&image, 100_000)?;
//! assert_eq!(cpu.memory().read_u64(0x10_0000), 42);
//! assert!(stats.blocks_committed >= 1);
//! # Ok(())
//! # }
//! ```

pub mod chip;
mod config;
pub mod critpath;
pub mod diag;
mod dt;
mod et;
mod fault;
mod frames;
mod gt;
pub mod invariants;
mod it;
mod memsys;
pub mod msg;
mod nets;
mod predictor;
mod proc;
pub mod profile;
mod rt;
mod stats;
pub mod trace;

pub use chip::{Chip, ChipConfig, ChipStats};
pub use config::{
    CoreConfig, CoreGeometry, MemBackend, PredictorConfig, StationMask, TickMode, TileMask,
    ET_COLS, ET_ROWS, MAX_FRAMES, NUM_DTS, NUM_FRAMES, NUM_ITS, NUM_RTS, RS_PER_FRAME,
};
pub use critpath::{Cat, CritBreakdown, CritPath, CATS, NUM_CATS};
pub use diag::{FrameDiag, HangReport, NetDiag, TileDiag};
pub use fault::{ChainDelay, FaultPlan, LinkFault, OcnFault, Ratio};
pub use frames::FrameSet;
pub use invariants::InvariantViolation;
pub use predictor::{NextBlockPredictor, Prediction, PredictorCheckpoint};
pub use proc::{GatingStats, Processor, SimError};
pub use profile::{PhaseAcc, TickPhase, TickProfile};
pub use stats::{BlockTiming, CoreStats, Histogram, MemSysStats, ProtocolStats};
pub use trace::{OpnClass, TraceEvent, TraceKind, Tracer};
pub use trips_mem::CohSnapshot;
pub use trips_micronet::FaultPort;
