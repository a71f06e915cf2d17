#include "stats.hh"

#include <algorithm>

namespace gcl::sim
{

namespace
{

/** Initial block-table capacity; power of two. */
constexpr size_t kInitialBlockSlots = 1024;

/**
 * The most blocks a table of @p slots may hold: 70%, so probe runs stay
 * short and a probe always finds a free slot. floor(0.7 * slots),
 * computed without overflow.
 */
uint64_t
blocksHeldBy(uint64_t slots)
{
    return slots / 10 * 7 + slots % 10 * 7 / 10;
}

size_t
blockSlotOf(uint64_t line_addr, size_t mask)
{
    // The product's low bits keep the line alignment's zeros, so lines
    // home only at multiples of the line size and probe forward in long
    // clustered runs — the weakness Mshr::slotOf avoids by taking the
    // high bits. This table keeps the low bits because the high-bit hash
    // buys nothing here: it measured 0.87-1.12x this one's suite sweep
    // wall (6 same-host pairs, median 1.00), likely because the tables
    // (one per SM when it was measured) reach several MB, where scattered
    // probes miss the host cache that the clustered runs stream through.
    return (line_addr * UINT64_C(0x9E3779B97F4A7C15)) & mask;
}

} // namespace

SimStats::SimStats(const GpuConfig &config)
    : config_(config),
      l2Queries_(config.numPartitions, 0),
      l2Hits_(config.numPartitions, 0),
      blockTable_(kInitialBlockSlots)
{
}

void
SimStats::insertCta(std::vector<uint32_t> &ctas, uint32_t cta)
{
    // Unsorted unique append; repeated accesses usually come from the CTA
    // that touched the block most recently, so scan from the back. The
    // vectors are sorted once at finalize.
    for (size_t i = ctas.size(); i-- > 0;)
        if (ctas[i] == cta)
            return;
    ctas.push_back(cta);
}

void
SimStats::growBlockTable()
{
    std::vector<BlockSlot> old = std::move(blockTable_);
    blockTable_.assign(old.size() * 2, BlockSlot{});
    const size_t mask = blockTable_.size() - 1;
    for (BlockSlot &slot : old) {
        if (slot.info.accesses == 0)
            continue;
        size_t at = blockSlotOf(slot.lineAddr, mask);
        while (blockTable_[at].info.accesses != 0)
            at = (at + 1) & mask;
        blockTable_[at] = std::move(slot);
    }
}

SimStats::BlockInfo &
SimStats::blockFor(uint64_t line_addr)
{
    const size_t mask = blockTable_.size() - 1;
    size_t at = blockSlotOf(line_addr, mask);
    while (blockTable_[at].info.accesses != 0) {
        if (blockTable_[at].lineAddr == line_addr)
            return blockTable_[at].info;
        at = (at + 1) & mask;
    }
    // New block: grow before inserting past the load bound, then claim
    // the (possibly relocated) slot.
    if (blockCount_ + 1 > blocksHeldBy(blockTable_.size())) {
        growBlockTable();
        const size_t grown_mask = blockTable_.size() - 1;
        at = blockSlotOf(line_addr, grown_mask);
        while (blockTable_[at].info.accesses != 0)
            at = (at + 1) & grown_mask;
    }
    ++blockCount_;
    blockTable_[at].lineAddr = line_addr;
    return blockTable_[at].info;  // caller increments accesses immediately
}

void
SimStats::l1Access(bool non_det, bool miss, uint64_t line_addr, uint32_t cta)
{
    ++hot.l1Access[non_det];
    if (miss)
        ++hot.l1Miss[non_det];

    BlockInfo &block = blockFor(line_addr);
    ++block.accesses;
    insertCta(block.ctas, cta);
    insertCta(non_det ? block.ctasNondet : block.ctasDet, cta);
}

uint32_t
SimStats::kernelId(const std::string &name)
{
    auto it = kernelIds_.find(name);
    if (it != kernelIds_.end())
        return it->second;
    const auto id = static_cast<uint32_t>(kernelNames_.size());
    kernelNames_.push_back(name);
    kernelIds_.emplace(name, id);
    return id;
}

void
SimStats::gloadDone(const WarpMemOp &op, uint32_t kernel_id)
{
    const bool nd = op.nonDet;
    const uint32_t nreq = op.numRequests;

    // Fig 2 aggregates.
    ClassAgg &agg = cls_[nd];
    ++agg.warps;
    agg.reqs += nreq;
    agg.active += op.activeThreads;

    // Fig 5: decomposition of the turnaround time.
    const double turnaround = static_cast<double>(op.tDone - op.tIssue);
    const double rsrv_prev =
        static_cast<double>(op.tFirstAccept - op.tIssue);
    const double rsrv_cur =
        static_cast<double>(op.tLastAccept - op.tFirstAccept);
    double analytic = 0.0;
    switch (op.deepest) {
      case ServiceLevel::L1:
        analytic = config_.l1HitLatency;
        break;
      case ServiceLevel::L2:
        analytic = config_.unloadedL2Latency();
        break;
      case ServiceLevel::Dram:
        analytic = config_.unloadedDramLatency();
        break;
    }
    // An op that merged into an in-flight MSHR entry can finish sooner
    // than its level's analytic latency: it is charged no more than what
    // is left of its turnaround, so the four parts add up to the total.
    const double unloaded =
        std::min(analytic, turnaround - rsrv_prev - rsrv_cur);
    const double wasted_mem = turnaround - unloaded - rsrv_prev - rsrv_cur;

    agg.turnSum += turnaround;
    agg.unloaded += unloaded;
    agg.rsrvPrev += rsrv_prev;
    agg.rsrvCur += rsrv_cur;
    agg.mem += wasted_mem;

    // Figs 6 and 7: per-pc breakdown keyed by the request count, in a
    // dense per-kernel array indexed by pc.
    const auto pc_idx = static_cast<uint32_t>(op.pc);
    if (kernel_id >= pcDense_.size())
        pcDense_.resize(kernel_id + 1);
    auto &slots = pcDense_[kernel_id];
    if (pc_idx >= slots.size())
        slots.resize(pc_idx + 1);
    PcSlot &slot = slots[pc_idx];
    slot.used = true;
    slot.nonDet = nd;
    PcBucket &bucket = slot.byReqs[nreq];
    ++bucket.cnt;
    bucket.turn += turnaround;
    bucket.gapL1d += rsrv_cur;

    // Gap at icnt-L2: extra queueing between L1 acceptance and the start of
    // L2 service, accumulated per request as each completed (see
    // Sm::completeRequest) and averaged over the op's missed requests.
    // The mean need not be an integer, so this is the one sum whose
    // rounding depends on the order ops complete in.
    double gap_icnt_l2 = op.gapIcntL2Sum;
    if (op.missedReqs)
        gap_icnt_l2 /= op.missedReqs;
    bucket.gapIcntL2 += gap_icnt_l2;

    // Gap at L2-icnt: spread between the first and the last returned data.
    bucket.gapL2Icnt +=
        op.tFirstData ? static_cast<double>(op.tDone - op.tFirstData) : 0.0;
}

void
SimStats::distanceHistogram(const std::vector<uint32_t> &ctas,
                            Histogram &hist, std::vector<uint64_t> &counts)
{
    const size_t k = ctas.size();
    const size_t span = ctas.back() - ctas.front();
    if (k * (k - 1) / 2 < span) {
        for (size_t i = 0; i < k; ++i)
            for (size_t j = i + 1; j < k; ++j)
                hist.add(static_cast<int64_t>(ctas[j]) - ctas[i], 1.0);
        return;
    }
    // Every distance lies in [1, span]. The weights are integer-valued,
    // so one add of a pair count sums exactly what that many adds of 1.0
    // would.
    counts.assign(span + 1, 0);
    for (size_t i = 0; i < k; ++i)
        for (size_t j = i + 1; j < k; ++j)
            ++counts[ctas[j] - ctas[i]];
    for (size_t d = 1; d <= span; ++d)
        if (counts[d] != 0)
            hist.add(static_cast<int64_t>(d),
                     static_cast<double>(counts[d]));
}

void
SimStats::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;

    // --- Hot counters ---
    set_.inc("warp_insts", static_cast<double>(hot.warpInsts));
    set_.inc("thread_insts", static_cast<double>(hot.threadInsts));
    set_.inc("sm_cycles", static_cast<double>(hot.smCycles));
    set_.inc("busy.sp", static_cast<double>(hot.busySp));
    set_.inc("busy.sfu", static_cast<double>(hot.busySfu));
    set_.inc("busy.ldst", static_cast<double>(hot.busyLdst));
    set_.inc("part.stall_cycles", static_cast<double>(hot.partStalls));
    set_.inc("reqs.issued", static_cast<double>(hot.reqsIssued));
    set_.inc("reqs.completed", static_cast<double>(hot.reqsCompleted));
    set_.inc("sload.warps", static_cast<double>(hot.sloadWarps));
    set_.inc("sstore.warps", static_cast<double>(hot.sstoreWarps));
    set_.inc("gstore.warps", static_cast<double>(hot.gstoreWarps));
    set_.inc("atom.warps", static_cast<double>(hot.atomWarps));
    set_.inc("l2.atomics", static_cast<double>(hot.l2Atomics));
    // Key exists only when nonzero, matching the old on-event increment.
    if (hot.l2WriteAbsorbed != 0)
        set_.inc("l2.write_absorbed",
                 static_cast<double>(hot.l2WriteAbsorbed));

    static const char *outcome_names[6] = {
        "hit", "hit_reserved", "miss", "fail_tag", "fail_mshr", "fail_icnt",
    };
    for (int o = 0; o < 6; ++o)
        set_.inc(std::string("l1.outcome.") + outcome_names[o],
                 static_cast<double>(hot.l1Outcome[o]));

    for (int nd = 0; nd < 2; ++nd) {
        const char *sfx = nd ? ".nondet" : ".det";
        set_.inc(std::string("l1.access") + sfx,
                 static_cast<double>(hot.l1Access[nd]));
        set_.inc(std::string("l1.miss") + sfx,
                 static_cast<double>(hot.l1Miss[nd]));
        set_.inc(std::string("l2.access") + sfx,
                 static_cast<double>(hot.l2Access[nd]));
        set_.inc(std::string("l2.miss") + sfx,
                 static_cast<double>(hot.l2Miss[nd]));

        const ClassAgg &agg = cls_[nd];
        set_.inc(std::string("gload.warps") + sfx,
                 static_cast<double>(agg.warps));
        set_.inc(std::string("gload.reqs") + sfx,
                 static_cast<double>(agg.reqs));
        set_.inc(std::string("gload.active") + sfx,
                 static_cast<double>(agg.active));
        set_.inc(std::string("turn.cnt") + sfx,
                 static_cast<double>(agg.warps));
        set_.inc(std::string("turn.sum") + sfx, agg.turnSum);
        set_.inc(std::string("turn.unloaded") + sfx, agg.unloaded);
        set_.inc(std::string("turn.rsrv_prev") + sfx, agg.rsrvPrev);
        set_.inc(std::string("turn.rsrv_cur") + sfx, agg.rsrvCur);
        set_.inc(std::string("turn.mem") + sfx, agg.mem);
    }

    for (size_t p = 0; p < l2Queries_.size(); ++p) {
        set_.inc("l2.queries.p" + std::to_string(p),
                 static_cast<double>(l2Queries_[p]));
        set_.inc("l2.hits.p" + std::to_string(p),
                 static_cast<double>(l2Hits_[p]));
    }

    // --- Per-pc aggregates (Figs 6 and 7) ---
    for (uint32_t kernel = 0; kernel < pcDense_.size(); ++kernel) {
        const auto &slots = pcDense_[kernel];
        for (uint32_t pc_idx = 0; pc_idx < slots.size(); ++pc_idx) {
            const PcSlot &slot = slots[pc_idx];
            if (!slot.used)
                continue;
            const std::string prefix = "pc." + kernelNames_[kernel] + "#" +
                                       std::to_string(pc_idx) + ".";
            set_.set(prefix + "nondet", slot.nonDet ? 1.0 : 0.0);
            Histogram &cnt = set_.hist(prefix + "turn_cnt");
            Histogram &turn = set_.hist(prefix + "turn_sum");
            Histogram &gap_l1d = set_.hist(prefix + "gap_l1d");
            Histogram &gap_icnt_l2 = set_.hist(prefix + "gap_icnt_l2");
            Histogram &gap_l2icnt = set_.hist(prefix + "gap_l2icnt");
            for (uint32_t nreq = 0; nreq <= WarpMemOp::kMaxRequests;
                 ++nreq) {
                const PcBucket &bucket = slot.byReqs[nreq];
                if (bucket.cnt == 0)
                    continue;
                cnt.add(nreq, static_cast<double>(bucket.cnt));
                turn.add(nreq, bucket.turn);
                gap_l1d.add(nreq, bucket.gapL1d);
                gap_icnt_l2.add(nreq, bucket.gapIcntL2);
                gap_l2icnt.add(nreq, bucket.gapL2Icnt);
            }
        }
    }
    pcDense_.clear();

    // --- Inter-CTA locality (Figs 10, 11, 12) ---
    Histogram &dist = set_.hist("cta_distance");
    Histogram &dist_det = set_.hist("cta_distance.det");
    Histogram &dist_nondet = set_.hist("cta_distance.nondet");
    Histogram &reuse = set_.hist("block_reuse");
    std::vector<uint64_t> distance_counts;

    for (BlockSlot &slot : blockTable_) {
        BlockInfo &block = slot.info;
        if (block.accesses == 0)
            continue;
        // The CTA lists accumulate unsorted; the distance histograms need
        // ascending order (distances are ctas[j] - ctas[i] over i < j).
        std::sort(block.ctas.begin(), block.ctas.end());
        std::sort(block.ctasDet.begin(), block.ctasDet.end());
        std::sort(block.ctasNondet.begin(), block.ctasNondet.end());
        set_.inc("blocks.count");
        set_.inc("blocks.accesses", static_cast<double>(block.accesses));
        reuse.add(static_cast<int64_t>(block.accesses), 1.0);
        if (block.ctas.size() >= 2) {
            set_.inc("blocks.shared");
            set_.inc("blocks.shared_accesses",
                     static_cast<double>(block.accesses));
            set_.inc("blocks.shared_cta_sum",
                     static_cast<double>(block.ctas.size()));
            distanceHistogram(block.ctas, dist, distance_counts);
        }
        if (block.ctasDet.size() >= 2)
            distanceHistogram(block.ctasDet, dist_det, distance_counts);
        if (block.ctasNondet.size() >= 2)
            distanceHistogram(block.ctasNondet, dist_nondet,
                              distance_counts);
    }
    blockTable_.clear();
    blockCount_ = 0;
}

} // namespace gcl::sim
