//! Run statistics.

use crate::critpath::CritBreakdown;
use trips_micronet::{MeshStats, PacketStats};

/// Lifecycle timestamps of one committed block, for the Figure 5b
/// commit-pipeline timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTiming {
    /// Block header address.
    pub pc: u64,
    /// Cycle the GT began fetching the block.
    pub fetch: u64,
    /// Cycle the GT issued the dispatch command.
    pub dispatch: u64,
    /// Cycle the GT learned all outputs arrived (block complete).
    pub complete: u64,
    /// Cycle the commit command went out on the GCN.
    pub commit: u64,
    /// Cycle both commit acknowledgements arrived (deallocation).
    pub ack: u64,
}

/// A fixed-bucket latency histogram: buckets 0..31 hold exact cycle
/// counts, the last bucket holds everything at 31 cycles and above.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 32],
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = (v as usize).min(self.buckets.len() - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupancy of bucket `b` (bucket 31 aggregates `>= 31`).
    pub fn bucket(&self, b: usize) -> u64 {
        self.buckets[b]
    }

    /// The smallest value `p` such that at least `fraction` of the
    /// samples are `<= p` (bucket-granular; saturates at 31).
    pub fn percentile(&self, fraction: f64) -> u64 {
        let need = (self.count as f64 * fraction).ceil() as u64;
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= need {
                return b as u64;
            }
        }
        (self.buckets.len() - 1) as u64
    }
}

/// Counters for the distributed protocols themselves — the timing
/// behaviour the paper's §4 and §5 argue about, as opposed to the
/// workload-facing counters in [`CoreStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Cycles from fetch start to the GDN dispatch command, per block.
    pub fetch_to_dispatch: Histogram,
    /// Fetches started (the overlap-ratio denominator).
    pub fetches_started: u64,
    /// Fetches started while some older block was committing — the
    /// Figure 5b claim that fetch of block N+7 overlaps commit of
    /// block N.
    pub overlapped_fetches: u64,
    /// Cycles an operand outbox's head-of-line message waited on a
    /// full OPN inject port (contention the critical path feels).
    pub opn_inject_stalls: u64,
    /// Per-network high-water marks of in-flight OPN messages.
    pub opn_inflight_highwater: Vec<usize>,
    /// Flushes forced by a fault plan's flush storm (always 0 without
    /// one, which keeps fuzz-disabled `CoreStats` values bit-identical
    /// to builds without the fault hooks).
    pub forced_flushes: u64,
}

impl ProtocolStats {
    /// Fraction of fetches that overlapped an in-progress commit.
    pub fn commit_fetch_overlap(&self) -> f64 {
        if self.fetches_started == 0 {
            0.0
        } else {
            self.overlapped_fetches as f64 / self.fetches_started as f64
        }
    }
}

/// Counters for the NUCA secondary memory system, populated only when
/// the run used [`MemBackend::Nuca`](crate::MemBackend) — the perfect
/// L2 holds no state worth counting, and leaving the field `None`
/// keeps [`CoreStats`] bit-identical to the pre-backend model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemSysStats {
    /// D-side line fills requested (DT MSHR misses).
    pub dside_fills: u64,
    /// I-side line fills requested (I-cache refill chunks).
    pub iside_fills: u64,
    /// Commit-time store-line writebacks issued (ESN-style acks gate
    /// commit completion).
    pub store_writebacks: u64,
    /// Cycles a client's head-of-queue request was refused by its OCN
    /// inject port.
    pub inject_stalls: u64,
    /// Cycles a client's head-of-queue request was held back because
    /// its home bank was granted to another core this cycle (always 0
    /// for a solo core — only a chip's cross-core arbiter stalls).
    pub bank_conflict_stalls: u64,
    /// Fill round-trip latency in **8-cycle buckets** (request handed
    /// to the adapter until the fill event is queued): bucket `b`
    /// covers `8b..8b+8` cycles, bucket 31 everything ≥ 248.
    pub fill_latency: Histogram,
    /// OCN aggregate statistics (hops, queueing, inject stalls).
    pub ocn: PacketStats,
    /// DRAM accesses behind the banks.
    pub dram_accesses: u64,
    /// Per-bank hit counts.
    pub bank_hits: Vec<u64>,
    /// Per-bank miss counts.
    pub bank_misses: Vec<u64>,
    /// Per-bank high-water marks of concurrently-serviced requests.
    pub bank_peak_occupancy: Vec<u64>,
    /// High-water mark of outstanding requests across all clients.
    pub peak_outstanding: u64,
    /// Directory invalidations received by this core's DTs (coherent
    /// shared-memory chips only; always 0 otherwise).
    pub invals_received: u64,
}

impl MemSysStats {
    /// Aggregate bank hit rate (1.0 when no bank was touched).
    pub fn hit_rate(&self) -> f64 {
        let hits: u64 = self.bank_hits.iter().sum();
        let misses: u64 = self.bank_misses.iter().sum();
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// Statistics accumulated over one run of the core.
///
/// Derives `PartialEq` so the gating-equivalence and determinism
/// suites can require *whole-struct* bit-identical results between
/// configurations that must not disagree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Blocks committed.
    pub blocks_committed: u64,
    /// Useful instructions executed by committed blocks (the IPC
    /// numerator; register reads/writes and nullified outputs count,
    /// as in the hardware's accounting of fired instructions).
    pub insts_committed: u64,
    /// Instructions executed including squashed (speculative) work.
    pub insts_executed: u64,
    /// Blocks fetched (including squashed).
    pub blocks_fetched: u64,
    /// Pipeline flushes from branch mispredictions.
    pub branch_flushes: u64,
    /// Pipeline flushes from memory-ordering violations.
    pub violation_flushes: u64,
    /// Pipeline flushes forced by a remote core's store overlapping a
    /// speculatively performed load (coherent shared-memory chips
    /// only; always 0 otherwise).
    pub coherence_flushes: u64,
    /// Next-block predictions made.
    pub predictions: u64,
    /// Next-block mispredictions.
    pub mispredictions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores performed.
    pub stores: u64,
    /// L1D hits.
    pub l1d_hits: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// I-cache block misses (refills).
    pub icache_refills: u64,
    /// Loads stalled by the dependence predictor.
    pub deppred_stalls: u64,
    /// Store-to-load forwards in the LSQ.
    pub lsq_forwards: u64,
    /// Peak LSQ occupancy observed across DTs (for the §5.2 claim that
    /// maximum occupancy of the replicated LSQs is ~25%).
    pub lsq_peak_occupancy: usize,
    /// Fanout `mov` instructions executed.
    pub fanout_movs: u64,
    /// Operand-network statistics (summed across parallel networks).
    pub opn: MeshStats,
    /// Protocol-level timing counters (fetch cadence, commit overlap,
    /// OPN contention).
    pub protocol: ProtocolStats,
    /// Secondary-memory-system counters (present only under the NUCA
    /// backend; `None` under the default perfect L2).
    pub mem: Option<MemSysStats>,
    /// Critical-path breakdown (present when recording was enabled).
    pub critpath: Option<CritBreakdown>,
    /// Events the critical-path recorder stored (0 when it was off).
    pub critpath_events: u64,
    /// Lifecycle timestamps of the first committed blocks (up to 64),
    /// recording the Figure 5b fetch/complete/commit/ack overlap.
    pub timeline: Vec<BlockTiming>,
}

impl CoreStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts_committed as f64 / self.cycles as f64
        }
    }

    /// Next-block prediction accuracy.
    pub fn prediction_accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 5, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(31), 1, "overflow clamps to the last bucket");
        assert!((h.mean() - 47.0 / 5.0).abs() < 1e-12);
        assert_eq!(h.percentile(0.5), 1);
        assert_eq!(h.percentile(1.0), 31);
    }

    #[test]
    fn overlap_ratio() {
        let p = ProtocolStats { fetches_started: 8, overlapped_fetches: 6, ..Default::default() };
        assert!((p.commit_fetch_overlap() - 0.75).abs() < 1e-12);
        assert_eq!(ProtocolStats::default().commit_fetch_overlap(), 0.0);
    }

    #[test]
    fn derived_rates() {
        let s = CoreStats {
            cycles: 100,
            insts_committed: 250,
            predictions: 10,
            mispredictions: 1,
            ..CoreStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.prediction_accuracy() - 0.9).abs() < 1e-12);
        let empty = CoreStats::default();
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.prediction_accuracy(), 1.0);
    }
}
