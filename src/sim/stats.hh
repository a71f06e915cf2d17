/**
 * @file
 * Central instrumentation sink for one simulated application run.
 *
 * Hot-path events (per instruction, per cycle, per memory request) land in
 * plain counters; finalize() folds everything into a flat string-keyed
 * StatsSet that the harness serializes into the benchmark run cache.
 *
 * The per-request structures are laid out for the hot path:
 *  - per-pc turnaround aggregates live in dense per-kernel arrays indexed
 *    by pc, grown to the largest pc seen;
 *  - per-line block info lives in an open-addressed table keyed by line
 *    address (insert/find only — it is swept once at finalize);
 *  - the per-block CTA lists stay unsorted during the run and are sorted
 *    once at finalize, before the distance histograms are computed.
 *
 * Every SM and memory partition adds into this one object, in the order
 * events happen. The result is observationally identical to the
 * straightforward map-based bookkeeping: every finalize key is distinct,
 * and every accumulated double but one is integer-valued, so the order of
 * accumulation and iteration cannot change it. The exception is the
 * per-pc gap_icnt_l2 sum: each op adds its mean gap (an integer sum
 * divided by its missed-request count), so the rounding of that sum
 * depends on the order ops complete in. It stays deterministic because
 * completion order is.
 *
 * Scalar key map after finalize() (all monotonically accumulated):
 *   cycles, launches, ctas_launched, threads_per_cta
 *   warp_insts, thread_insts
 *   gload.warps[.det|.nondet]      warp-level global loads
 *   gload.reqs[.det|.nondet]       coalesced memory requests they produced
 *   gload.active[.det|.nondet]     active threads in those warps
 *   sload.warps / sstore.warps / gstore.warps / atom.warps / l2.atomics
 *   busy.sp / busy.sfu / busy.ldst / sm_cycles                    (Fig 4)
 *   l1.outcome.{hit,hit_reserved,miss,fail_tag,fail_mshr,fail_icnt} (Fig 3)
 *   l1.access.* / l1.miss.*  and  l2.access.* / l2.miss.*           (Fig 8)
 *   l2.queries.p<i> / l2.hits.p<i>                              (Table III)
 *   l2.write_absorbed (only when nonzero)
 *   turn.{cnt,sum,unloaded,rsrv_prev,rsrv_cur,mem}.{det,nondet}     (Fig 5)
 *   part.stall_cycles
 *   blocks.{count,accesses,shared,shared_accesses,shared_cta_sum} (Fig 10/11)
 * Histogram keys:
 *   cta_distance[.det|.nondet]                                      (Fig 12)
 *   block_reuse (bucket = accesses per block)                       (Fig 10)
 *   pc.<kernel>#<pc>.{turn_cnt,turn_sum,gap_l1d,gap_icnt_l2,gap_l2icnt}
 *       (bucket = #requests of the warp op; Figs 6 and 7), plus the scalar
 *   pc.<kernel>#<pc>.nondet = 0/1 giving the pc's static class
 */

#ifndef GCL_SIM_STATS_HH
#define GCL_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache.hh"
#include "config.hh"
#include "mem_request.hh"
#include "util/stats.hh"

namespace gcl::sim
{

/** Instrumentation hub owned by the Gpu; shared by reference. */
class SimStats
{
  public:
    explicit SimStats(const GpuConfig &config);

    /** Flat counters on the per-cycle / per-instruction paths. */
    struct Hot
    {
        uint64_t warpInsts = 0;
        uint64_t threadInsts = 0;
        uint64_t smCycles = 0;
        /**
         * Request conservation (gcl::guard): every data-expecting request
         * accepted by an L1 must eventually complete. The watchdog uses
         * reqsCompleted as its memory-progress counter, and the device
         * checks issued == completed at the end of every launch.
         */
        uint64_t reqsIssued = 0;
        uint64_t reqsCompleted = 0;
        uint64_t busySp = 0;
        uint64_t busySfu = 0;
        uint64_t busyLdst = 0;
        uint64_t l1Outcome[6] = {};     //!< indexed by AccessOutcome
        uint64_t l1Access[2] = {};      //!< indexed by nonDet
        uint64_t l1Miss[2] = {};
        uint64_t l2Access[2] = {};
        uint64_t l2Miss[2] = {};
        uint64_t partStalls = 0;
        uint64_t sloadWarps = 0;
        uint64_t sstoreWarps = 0;
        uint64_t gstoreWarps = 0;
        uint64_t atomWarps = 0;
        uint64_t l2Atomics = 0;
        uint64_t l2WriteAbsorbed = 0;
    };

    /** The hot counters every SM and partition bumps directly. */
    Hot hot;

    /** One L1 access attempt this cycle had this outcome (Fig 3). */
    void
    l1AccessCycle(AccessOutcome outcome)
    {
        ++hot.l1Outcome[static_cast<int>(outcome)];
    }

    /** Bulk form: @p count attempts with @p outcome (cycle skipping). */
    void
    l1AccessCycle(AccessOutcome outcome, uint64_t count)
    {
        hot.l1Outcome[static_cast<int>(outcome)] += count;
    }

    /** An accepted L1 data access for a global load (Figs 8, 10, 11). */
    void l1Access(bool non_det, bool miss, uint64_t line_addr, uint32_t cta);

    /** An L2 read query from L1 (Fig 8, Table III). */
    void
    l2Access(int partition, bool non_det, bool miss)
    {
        ++hot.l2Access[non_det];
        if (miss)
            ++hot.l2Miss[non_det];
        ++l2Queries_[static_cast<size_t>(partition)];
        if (!miss)
            ++l2Hits_[static_cast<size_t>(partition)];
    }

    /** A cycle the partition head request could not be serviced. */
    void partitionStall() { ++hot.partStalls; }

    /** A completed warp-level global-load op (Figs 2, 5, 6, 7). */
    void gloadDone(const WarpMemOp &op, uint32_t kernel_id);

  private:
    struct ClassAgg
    {
        uint64_t warps = 0;
        uint64_t reqs = 0;
        uint64_t active = 0;
        double turnSum = 0;
        double unloaded = 0;
        double rsrvPrev = 0;
        double rsrvCur = 0;
        double mem = 0;
    };

    struct PcBucket
    {
        uint64_t cnt = 0;
        double turn = 0;
        double gapL1d = 0;
        double gapIcntL2 = 0;
        double gapL2Icnt = 0;
    };

    /** Dense per-pc aggregate: one bucket per possible request count. */
    struct PcSlot
    {
        bool used = false;
        bool nonDet = false;
        PcBucket byReqs[WarpMemOp::kMaxRequests + 1];
    };

    struct BlockInfo
    {
        uint64_t accesses = 0;
        std::vector<uint32_t> ctas;        //!< unique CTA ids (unsorted)
        std::vector<uint32_t> ctasDet;     //!< via deterministic loads
        std::vector<uint32_t> ctasNondet;  //!< via non-deterministic loads
    };

    struct BlockSlot
    {
        uint64_t lineAddr = 0;
        BlockInfo info;                    //!< accesses == 0 => slot empty
    };

  public:
    /** Cold, string-keyed stats (launch-level bookkeeping + final output). */
    StatsSet &set() { return set_; }
    const StatsSet &set() const { return set_; }

    /** Intern a kernel name; the id keys the per-pc aggregates. */
    uint32_t kernelId(const std::string &name);

    /** Interned kernel names, indexed by kernelId (crit key rendering). */
    const std::vector<std::string> &kernelNames() const
    {
        return kernelNames_;
    }

    /** Fold all plain counters and maps into the StatsSet. Idempotent. */
    void finalize();

  private:
    /** Find-or-insert into the open-addressed block table. */
    BlockInfo &blockFor(uint64_t line_addr);
    void growBlockTable();

    static void insertCta(std::vector<uint32_t> &ctas, uint32_t cta);
    /**
     * Add the pairwise distances of the sorted, distinct @p ctas to
     * @p hist, counting them in @p counts (reused scratch) first when
     * that is cheaper than one histogram insert per pair.
     */
    static void distanceHistogram(const std::vector<uint32_t> &ctas,
                                  Histogram &hist,
                                  std::vector<uint64_t> &counts);

    const GpuConfig &config_;
    StatsSet set_;

    std::vector<uint64_t> l2Queries_;
    std::vector<uint64_t> l2Hits_;
    std::vector<std::string> kernelNames_;
    std::unordered_map<std::string, uint32_t> kernelIds_;
    ClassAgg cls_[2];
    /** Dense per-kernel, per-pc aggregates (grown on demand). */
    std::vector<std::vector<PcSlot>> pcDense_;
    /** Open-addressed power-of-two table of per-line block info. */
    std::vector<BlockSlot> blockTable_;
    size_t blockCount_ = 0;
    bool finalized_ = false;
};

} // namespace gcl::sim

#endif // GCL_SIM_STATS_HH
